"""Processor datasheets (the paper's Table I).

:class:`ProcessorSpec` captures exactly the rows of Table I plus the few
microarchitectural facts the paper's analysis leans on (cache-line size,
NUMA layout, SIMD ISA).  Derived quantities -- peak GFLOP/s, FLOPs/cycle --
are computed, and the computed peak is cross-checked against the published
Table I value in the registry tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TopologyError

__all__ = ["ProcessorSpec"]


@dataclass(frozen=True)
class ProcessorSpec:
    """Datasheet for one processor model (one row-set of Table I)."""

    name: str
    #: Marketing/vendor name, e.g. ``"Intel Xeon E5-2660 v3"``.
    vendor: str
    #: Core clock in GHz (Table I row "Processor Clock Speed").
    clock_ghz: float
    #: Physical cores per processor (compute cores only for A64FX).
    cores_per_processor: int
    #: Processors (sockets) per node.
    processors_per_node: int
    #: Hardware threads per core (SMT ways).
    threads_per_core: int
    #: Human-readable vector-unit description (Table I row "Vectorization").
    vector_pipeline: str
    #: Double-precision FLOPs per cycle per core (Table I).
    dp_flops_per_cycle: int
    #: SIMD ISA name understood by :mod:`repro.simd` ("avx2", "neon", "sve").
    isa: str
    #: SIMD register width in bits (512 for SVE as configured in the paper).
    vector_bits: int
    #: Number of SIMD pipelines per core (1 or 2 in Table I).
    simd_pipelines: int
    #: Cache line size in bytes. 64 everywhere except A64FX's 256 B lines,
    #: which the paper credits for "implicit cache blocking" (~49 % boost).
    cache_line_bytes: int = 64
    #: NUMA domains per *node* and cores per domain.
    numa_domains: int = 1
    #: Helper cores (A64FX has 4 OS-assistant cores not used for compute).
    helper_cores: int = 0
    #: Extra notes carried into reports.
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise TopologyError(f"{self.name}: clock must be positive")
        if self.cores_per_processor <= 0 or self.processors_per_node <= 0:
            raise TopologyError(f"{self.name}: core/processor counts must be positive")
        if self.threads_per_core < 1:
            raise TopologyError(f"{self.name}: threads_per_core must be >= 1")
        if self.cores_per_node % self.numa_domains != 0:
            raise TopologyError(
                f"{self.name}: {self.cores_per_node} cores do not divide evenly "
                f"into {self.numa_domains} NUMA domains"
            )
        if self.vector_bits not in (128, 256, 512):
            raise TopologyError(f"{self.name}: unsupported vector width {self.vector_bits}")

    # Derived quantities ---------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        """Total compute cores in one node."""
        return self.cores_per_processor * self.processors_per_node

    @property
    def cores_per_domain(self) -> int:
        """Compute cores in one NUMA domain."""
        return self.cores_per_node // self.numa_domains

    @property
    def peak_gflops(self) -> float:
        """Node-level double-precision peak in GFLOP/s (Table I last row)."""
        return self.clock_ghz * self.dp_flops_per_cycle * self.cores_per_node

    def simd_lanes(self, dtype_bytes: int) -> int:
        """Number of SIMD lanes for an element of ``dtype_bytes`` bytes."""
        if dtype_bytes <= 0 or self.vector_bits % (8 * dtype_bytes) != 0:
            raise TopologyError(
                f"{self.name}: {dtype_bytes}-byte elements do not pack into "
                f"{self.vector_bits}-bit vectors"
            )
        return self.vector_bits // (8 * dtype_bytes)

    def table1_row(self) -> dict[str, str]:
        """Render this spec as the corresponding Table I column."""
        return {
            "Processor": self.name,
            "Processor Clock Speed": f"{self.clock_ghz:g}GHz",
            "Cores per processors": (
                f"{self.cores_per_processor} (compute) + {self.helper_cores} (helper)"
                if self.helper_cores
                else str(self.cores_per_processor)
            ),
            "Processors per node": str(self.processors_per_node),
            "Threads per core": str(self.threads_per_core),
            "Vectorization": self.vector_pipeline,
            "Double Precision FLOPS per cycle": str(self.dp_flops_per_cycle),
            "Peak Performance in GFLOP/s": f"{self.peak_gflops:.0f}",
        }
