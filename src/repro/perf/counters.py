"""Hardware-counter model (paper Tables III-VI).

The paper reads perf/PAPI counters for each (data type, vectorization)
variant of the 2D kernel on **one physical core** over an
**8192 x 16384 grid, 100 iterations** and uses them to explain the
performance differences.  We cannot read an A64FX PMU, so the model is:

* **calibrated per-LUP rates**: the Table III-VI counts divided by the
  measurement run's lattice-site updates.  These constants *are* the
  tables (provenance: the paper), re-expanded for any grid/step count by
  linear scaling -- counter totals for streaming kernels scale with
  work, which the scaling tests assert.
* **structural cross-checks**: a from-first-principles estimate of
  instructions/LUP (5 memory ops + 4 FLOPs + loop overhead, divided by
  an effective vector width) and of cache misses/LUP (memory traffic /
  line size).  The test suite checks the calibrated values sit within a
  plausibility band of the structural ones, so a typo in the calibration
  cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..hardware.counters import (
    CounterSet,
    PAPI_L2_TCM,
    PAPI_TOT_INS,
    STALL_BACKEND,
    STALL_FRONTEND,
)
from ..hardware.registry import (
    A64FX,
    KUNPENG_916,
    THUNDERX2,
    XEON_E5_2660V3,
    MachineModel,
)

__all__ = ["CounterModel", "COUNTER_GRID", "COUNTER_STEPS", "counter_lups"]

#: The paper's hardware-counter measurement configuration (Sec. VI).
COUNTER_GRID = (8192, 16384)
COUNTER_STEPS = 100


def counter_lups(grid: tuple[int, int] = COUNTER_GRID, steps: int = COUNTER_STEPS) -> int:
    """Lattice-site updates of a counter run (interior points x steps)."""
    ny, nx = grid
    if ny < 3 or nx < 3 or steps < 0:
        raise ValidationError("invalid counter-run configuration")
    return (ny - 2) * (nx - 2) * steps


#: Raw Table III-VI values: counts for the 8192x16384 x 100-iteration
#: single-core run.  Keys: (dtype-name, mode) with mode "auto" (GCC
#: auto-vectorized scalar code) or "simd" (explicit NSIMD packs).
_TABLES: dict[str, dict[tuple[str, str], dict[str, float]]] = {
    # Table III -- no stall counters on Haswell E5-2660v3 (paper Sec. VII-B).
    XEON_E5_2660V3: {
        ("float32", "auto"): {PAPI_TOT_INS: 3.153e10, PAPI_L2_TCM: 2.121e8},
        ("float32", "simd"): {PAPI_TOT_INS: 1.783e10, PAPI_L2_TCM: 3.706e8},
        ("float64", "auto"): {PAPI_TOT_INS: 6.010e10, PAPI_L2_TCM: 4.740e8},
        ("float64", "simd"): {PAPI_TOT_INS: 3.507e10, PAPI_L2_TCM: 8.751e8},
    },
    # Table IV -- Hi1616 exposes no stall counters either.
    KUNPENG_916: {
        ("float32", "auto"): {PAPI_TOT_INS: 4.300e10, PAPI_L2_TCM: 3.148e9},
        ("float32", "simd"): {PAPI_TOT_INS: 4.144e10, PAPI_L2_TCM: 2.512e9},
        ("float64", "auto"): {PAPI_TOT_INS: 8.321e10, PAPI_L2_TCM: 5.639e9},
        ("float64", "simd"): {PAPI_TOT_INS: 8.236e10, PAPI_L2_TCM: 4.953e9},
    },
    # Table V -- A64FX reports stalls; cache misses were "very similar"
    # between modes (Sec. VII-B) and are not tabulated.
    A64FX: {
        ("float32", "auto"): {
            PAPI_TOT_INS: 1.284e10,
            STALL_FRONTEND: 3.801e8,
            STALL_BACKEND: 9.430e9,
        },
        ("float32", "simd"): {
            PAPI_TOT_INS: 1.496e10,
            STALL_FRONTEND: 2.918e8,
            STALL_BACKEND: 8.003e9,
        },
        ("float64", "auto"): {
            PAPI_TOT_INS: 2.299e10,
            STALL_FRONTEND: 3.860e8,
            STALL_BACKEND: 1.871e10,
        },
        ("float64", "simd"): {
            PAPI_TOT_INS: 2.956e10,
            STALL_FRONTEND: 3.560e8,
            STALL_BACKEND: 1.443e10,
        },
    },
    # Table VI -- ThunderX2: L2 misses and backend stalls.
    THUNDERX2: {
        ("float32", "auto"): {
            PAPI_TOT_INS: 4.039e10,
            PAPI_L2_TCM: 1.811e9,
            STALL_BACKEND: 1.522e10,
        },
        ("float32", "simd"): {
            PAPI_TOT_INS: 4.394e10,
            PAPI_L2_TCM: 1.690e9,
            STALL_BACKEND: 6.437e9,
        },
        ("float64", "auto"): {
            PAPI_TOT_INS: 8.065e10,
            PAPI_L2_TCM: 5.716e9,
            STALL_BACKEND: 3.298e10,
        },
        ("float64", "simd"): {
            PAPI_TOT_INS: 8.756e10,
            PAPI_L2_TCM: 6.055e9,
            STALL_BACKEND: 2.826e10,
        },
    },
}

#: Structural op counts for one 5-point update: 4 loads + 1 store,
#: 3 adds + 1 multiply, ~2 loop-control instructions.
_MEM_OPS = 5
_FLOPS = 4
_LOOP_OVERHEAD = 2


@dataclass(frozen=True)
class _Variant:
    dtype: str
    mode: str

    def __post_init__(self) -> None:
        if self.dtype not in ("float32", "float64"):
            raise ValidationError(f"dtype must be float32/float64, got {self.dtype!r}")
        if self.mode not in ("auto", "simd"):
            raise ValidationError(f"mode must be auto/simd, got {self.mode!r}")


class CounterModel:
    """Predict PMU counters for the 2D kernel on one machine."""

    def __init__(self, machine: MachineModel) -> None:
        if machine.name not in _TABLES:
            raise ValidationError(f"no counter calibration for {machine.name!r}")
        self.machine = machine
        self._table = _TABLES[machine.name]

    # Calibrated predictions --------------------------------------------------
    def per_lup(self, dtype: str, mode: str) -> dict[str, float]:
        """Counter increments per lattice-site update (calibrated)."""
        variant = _Variant(dtype, mode)
        base_lups = counter_lups()
        row = self._table[(variant.dtype, variant.mode)]
        return {name: value / base_lups for name, value in row.items()}

    def predict(
        self,
        dtype: str,
        mode: str,
        grid: tuple[int, int] = COUNTER_GRID,
        steps: int = COUNTER_STEPS,
    ) -> CounterSet:
        """Counter totals for a single-core run over ``grid`` x ``steps``."""
        lups = counter_lups(grid, steps)
        counters = CounterSet()
        for name, rate in self.per_lup(dtype, mode).items():
            counters.add(name, rate * lups)
        return counters

    def counter_names(self) -> tuple[str, ...]:
        """Which counters this machine's PMU exposes in the paper."""
        first = next(iter(self._table.values()))
        return tuple(first.keys())

    # Structural cross-checks ------------------------------------------------------
    def structural_instructions_per_lup(self, dtype: str, mode: str) -> float:
        """First-principles instructions/LUP estimate.

        ``(mem ops + FLOPs) / width + loop overhead / width`` where the
        width is the ISA lane count for explicit SIMD and *half* of it
        for auto-vectorization (the paper's "GCC is not able to auto
        vectorize very well" on x86; on the Arm machines GCC reached
        full width, which the band check in the tests accounts for).
        """
        variant = _Variant(dtype, mode)
        elem = np.dtype(variant.dtype).itemsize
        lanes = self.machine.spec.simd_lanes(elem)
        width = lanes if variant.mode == "simd" else max(1, lanes // 2)
        return (_MEM_OPS + _FLOPS + _LOOP_OVERHEAD) / width

    def effective_vector_width(self, dtype: str, mode: str) -> float:
        """Lanes-equivalent throughput implied by the measured counts."""
        measured = self.per_lup(dtype, mode)[PAPI_TOT_INS]
        return (_MEM_OPS + _FLOPS + _LOOP_OVERHEAD) / measured
