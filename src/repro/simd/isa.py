"""SIMD instruction-set descriptors.

An :class:`Isa` answers one question -- how many lanes does a register
hold for a given element type -- and records the facts the instruction
cost model needs (pipelines, FMA).  The key design point reproduced from
the paper: AVX2/NEON widths are compile-time constants, while **SVE is
vector-length agnostic** -- the silicon decides.  GCC's
``-msve-vector-bits=N`` freezes the width so SVE types can live inside
ordinary containers (the paper's reason for choosing GCC); :func:`sve`
models exactly that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimdError

__all__ = ["Isa", "FixedIsa", "SveIsa", "ScalarIsa", "AVX2", "NEON", "isa_for", "sve"]

_SUPPORTED_DTYPES = (np.float32, np.float64)


def _elem_bits(dtype: np.dtype) -> int:
    dt = np.dtype(dtype)
    if dt.type not in _SUPPORTED_DTYPES:
        raise SimdError(f"unsupported element type {dt}; use float32/float64")
    return dt.itemsize * 8


@dataclass(frozen=True)
class Isa:
    """Base descriptor: a named SIMD ISA with a register width in bits."""

    name: str
    register_bits: int
    pipelines: int = 1
    has_fma: bool = True

    def __post_init__(self) -> None:
        if self.register_bits not in (32, 64, 128, 256, 512, 1024, 2048):
            raise SimdError(f"{self.name}: invalid register width {self.register_bits}")
        if self.pipelines < 1:
            raise SimdError(f"{self.name}: pipelines must be >= 1")

    def lanes(self, dtype: np.dtype) -> int:
        """Lane count for ``dtype`` elements."""
        bits = _elem_bits(dtype)
        if self.register_bits < bits:
            raise SimdError(
                f"{self.name}: {bits}-bit elements do not fit a "
                f"{self.register_bits}-bit register"
            )
        return self.register_bits // bits


@dataclass(frozen=True)
class FixedIsa(Isa):
    """Compile-time fixed-width ISA (AVX2, NEON): sizes known statically."""


@dataclass(frozen=True)
class SveIsa(Isa):
    """Arm SVE with a frozen vector length.

    Hardware supports any multiple of 128 bits up to 2048; the paper pins
    512 (the A64FX width) via ``-msve-vector-bits=512`` so packs can be
    wrapped in containers.  Constructing this type *is* that compile-time
    freeze -- the ``portable`` flag records what was given up.
    """

    #: A frozen-width SVE binary only runs on silicon with that exact
    #: vector length; the ``__sizeless_struct`` route would be portable
    #: but cannot live inside containers (paper Sec. VIII).
    portable: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.register_bits % 128 != 0 or not 128 <= self.register_bits <= 2048:
            raise SimdError(
                f"SVE vector length must be a multiple of 128 in [128, 2048], "
                f"got {self.register_bits}"
            )


@dataclass(frozen=True)
class ScalarIsa(Isa):
    """Degenerate one-lane ISA: the auto-vectorization *source* semantics."""

    def lanes(self, dtype: np.dtype) -> int:
        _elem_bits(dtype)  # validate dtype
        return 1


#: Intel AVX2: 256-bit, dual pipe on Haswell.
AVX2 = FixedIsa("avx2", 256, pipelines=2)
#: Arm NEON/ASIMD: 128-bit. Pipeline count varies by core (Table I).
NEON = FixedIsa("neon", 128, pipelines=1)
#: Plain scalar execution.
SCALAR = ScalarIsa("scalar", 64, pipelines=1)


def sve(vector_bits: int = 512, pipelines: int = 2) -> SveIsa:
    """Create an SVE descriptor frozen at ``vector_bits`` (GCC-style)."""
    return SveIsa("sve", vector_bits, pipelines=pipelines)


def isa_for(name: str, vector_bits: int | None = None, pipelines: int | None = None) -> Isa:
    """Look up an ISA by registry name (``avx2``, ``neon``, ``sve``, ``scalar``)."""
    if name == "avx2":
        return AVX2 if pipelines in (None, 2) else FixedIsa("avx2", 256, pipelines=pipelines)
    if name == "neon":
        return NEON if pipelines in (None, 1) else FixedIsa("neon", 128, pipelines=pipelines)
    if name == "sve":
        return sve(vector_bits or 512, pipelines or 2)
    if name == "scalar":
        return SCALAR
    raise SimdError(f"unknown ISA {name!r}")
