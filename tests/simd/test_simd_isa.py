"""Unit tests for ISA descriptors."""

import numpy as np
import pytest

from repro.errors import SimdError
from repro.simd import AVX2, NEON, isa_for, sve
from repro.simd.isa import SCALAR, ScalarIsa


def test_avx2_lanes():
    assert AVX2.lanes(np.float32) == 8
    assert AVX2.lanes(np.float64) == 4


def test_neon_lanes():
    assert NEON.lanes(np.float32) == 4
    assert NEON.lanes(np.float64) == 2


def test_sve_512_lanes():
    isa = sve(512)
    assert isa.lanes(np.float32) == 16
    assert isa.lanes(np.float64) == 8


def test_sve_width_must_be_multiple_of_128():
    with pytest.raises(SimdError):
        sve(384 + 64)
    with pytest.raises(SimdError):
        sve(4096)
    # all legal SVE widths construct fine
    for bits in range(128, 2049, 128):
        if bits in (128, 256, 512, 1024, 2048):
            assert sve(bits).register_bits == bits


def test_sve_frozen_width_is_not_portable():
    assert sve(512).portable is False


def test_scalar_isa_single_lane():
    assert SCALAR.lanes(np.float32) == 1
    assert SCALAR.lanes(np.float64) == 1


def test_unsupported_dtype_rejected():
    with pytest.raises(SimdError):
        AVX2.lanes(np.int32)


def test_isa_for_lookup():
    assert isa_for("avx2") is AVX2
    assert isa_for("neon") is NEON
    assert isa_for("sve", 256).register_bits == 256
    assert isinstance(isa_for("scalar"), ScalarIsa)
    with pytest.raises(SimdError):
        isa_for("mmx")


def test_isa_for_custom_pipelines():
    dual_neon = isa_for("neon", pipelines=2)
    assert dual_neon.pipelines == 2
    assert dual_neon.lanes(np.float64) == 2


def test_invalid_register_width():
    from repro.simd.isa import FixedIsa

    with pytest.raises(SimdError):
        FixedIsa("odd", 100)
    with pytest.raises(SimdError):
        FixedIsa("neg", 128, pipelines=0)
