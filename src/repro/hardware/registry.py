"""The four calibrated machine models used throughout the reproduction.

Every number here is either (a) a Table I datasheet value, (b) a Fig 2
STREAM read-off / published STREAM result for the same silicon, or (c) a
phenomenological constant the paper itself motivates (Kunpeng's weak
network, per-step AMT overhead, cache-line blocking).  Nothing else in the
library hard-codes machine behaviour.

Sources per machine
-------------------
* **Intel Xeon E5-2660 v3** (Haswell, JUAWEI cluster): 2 sockets x 10
  cores, AVX2, 16 DP FLOP/cycle, 832 GFLOP/s peak.  STREAM COPY for
  dual-socket Haswell with DDR4-2133 is ~110-120 GB/s, saturating around
  5-6 cores per socket.
* **HiSilicon Kunpeng 916** (Hi1616, JUAWEI cluster): 64 cores per node,
  NEON (single pipe), 4 DP FLOP/cycle, 614 GFLOP/s.  Four NUMA domains of
  16 cores; per-domain bandwidth scales almost linearly to 16 cores (this
  is what produces the paper's 40- and 56-core dips).  The node cannot
  drive its InfiniBand adapter (Sec. VII-A) -- modelled as a low injection
  efficiency plus per-node congestion.
* **Marvell ThunderX2** (Sage cluster): Table I lists 32 cores and
  1228 GFLOP/s; 1228.8 = 2.4 GHz x 8 FLOP/cycle x *64* cores, so the node
  is the usual dual-socket 32-core configuration and we encode 2 x 32.
* **Fujitsu A64FX** (FX1000): 48 compute + 4 helper cores, 512-bit SVE,
  3379 GFLOP/s, 4 CMGs with HBM2.  GCC STREAM (the paper's footnote rules
  out Fujitsu-compiler tricks) reaches ~660 GB/s.  256 B cache lines give
  the "implicit cache blocking" the paper measures (~49 % above the
  3-transfers roofline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TopologyError
from .caches import CacheHierarchy, CacheLevel
from .interconnect import Interconnect
from .memory import DomainBandwidthModel, MemorySystem
from .spec import ProcessorSpec
from .topology import Machine

__all__ = [
    "Calibration",
    "MachineModel",
    "machine",
    "machine_names",
    "XEON_E5_2660V3",
    "KUNPENG_916",
    "THUNDERX2",
    "A64FX",
]

XEON_E5_2660V3 = "xeon-e5-2660v3"
KUNPENG_916 = "kunpeng916"
THUNDERX2 = "thunderx2"
A64FX = "a64fx"


@dataclass(frozen=True)
class Calibration:
    """Per-machine phenomenological constants (all paper-motivated)."""

    #: Fraction of roofline the tuned 2D kernel reaches at saturation.
    stencil2d_efficiency: float
    #: Fraction of STREAM bandwidth the distributed 1D app converts into
    #: lattice updates (A64FX is low: fine grain sizes expose AMT
    #: contention, as Sec. VII-B discusses).
    stencil1d_efficiency: float
    #: Per-time-step AMT overhead (scheduling + synchronisation), seconds.
    #: Sets the deviation from perfect strong scaling (7.36x / 7.2x at 8
    #: nodes instead of 8x).
    per_step_overhead_s: float
    #: Can the parcelport progress communication under compute?  True for
    #: every platform except Kunpeng 916, whose NIC path stalls the cores.
    network_overlap: bool
    #: Large-cache-line prefetch gives implicit cache blocking (2 memory
    #: transfers per LUP instead of 3).  Keyed by dtype because ThunderX2
    #: shows it for floats from the start but for doubles only at >= 16
    #: cores (the paper's unexplained "interesting switch").
    blocking_floats: bool = False
    blocking_doubles: bool = False
    #: Core count at which double-precision blocking switches on (TX2).
    blocking_doubles_from_cores: int = 0
    #: Single-core 2D-stencil rates in GLUP/s, keyed by (dtype, mode) with
    #: dtype in {"float32", "float64"} and mode in {"auto", "simd"}.
    #: Calibrated so the relative explicit-vectorization gains match
    #: Sec. VII-B: Xeon +50 %/+10 %, Kunpeng up to +80 %, TX2 +50-60 %/+40 %,
    #: A64FX +5-15 %.
    single_core_glups: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass(frozen=True)
class MachineModel:
    """Everything the performance models need to know about one node."""

    name: str
    spec: ProcessorSpec
    topology: Machine
    caches: CacheHierarchy
    memory: MemorySystem
    interconnect: Interconnect
    calibration: Calibration


def _xeon() -> MachineModel:
    spec = ProcessorSpec(
        name="Intel Xeon E5-2660 v3",
        vendor="Intel",
        clock_ghz=2.6,
        cores_per_processor=10,
        processors_per_node=2,
        threads_per_core=2,
        vector_pipeline="Double AVX2 Pipeline",
        dp_flops_per_cycle=16,
        isa="avx2",
        vector_bits=256,
        simd_pipelines=2,
        cache_line_bytes=64,
        numa_domains=2,
    )
    topo = Machine(spec)
    caches = CacheHierarchy(
        (
            CacheLevel("L1d", 32 * 1024, 64, shared_by_cores=1, latency_cycles=4),
            CacheLevel("L2", 256 * 1024, 64, shared_by_cores=1, latency_cycles=12),
            CacheLevel("L3", 25 * 1024 * 1024, 64, shared_by_cores=10, latency_cycles=40),
        )
    )
    memory = MemorySystem(
        topo,
        # 4ch DDR4-2133 per socket: ~59 GB/s STREAM COPY, ~11 GB/s per core.
        DomainBandwidthModel(peak_gbs=59.0, per_core_gbs=11.0),
    )
    net = Interconnect(
        name="InfiniBand EDR (JUAWEI)",
        latency_s=2.0e-6,
        bandwidth_gbs=12.5,
        injection_efficiency=0.9,
    )
    cal = Calibration(
        stencil2d_efficiency=0.92,
        stencil1d_efficiency=0.87,
        per_step_overhead_s=3.5e-3,
        network_overlap=True,
        blocking_floats=False,
        blocking_doubles=False,
        # The simd rates exceed the single-core bandwidth cap (10.1 GB/s
        # x AI), so the *observed* single-core gains come out at the
        # paper's ~+50 % (float) / ~+10 % (double).
        single_core_glups={
            ("float32", "auto"): 0.56,
            ("float32", "simd"): 0.93,
            ("float64", "auto"): 0.38,
            ("float64", "simd"): 0.46,
        },
    )
    return MachineModel(XEON_E5_2660V3, spec, topo, caches, memory, net, cal)


def _kunpeng() -> MachineModel:
    spec = ProcessorSpec(
        name="HiSilicon Kunpeng 916",
        vendor="HiSilicon/Huawei",
        clock_ghz=2.4,
        cores_per_processor=64,
        processors_per_node=1,
        threads_per_core=1,
        vector_pipeline="Single NEON Pipeline",
        dp_flops_per_cycle=4,
        isa="neon",
        vector_bits=128,
        simd_pipelines=1,
        cache_line_bytes=64,
        numa_domains=4,
    )
    topo = Machine(spec)
    caches = CacheHierarchy(
        (
            CacheLevel("L1d", 32 * 1024, 64, shared_by_cores=1, latency_cycles=4),
            CacheLevel("L2", 256 * 1024, 64, shared_by_cores=1, latency_cycles=11),
            CacheLevel("L3", 16 * 1024 * 1024, 64, shared_by_cores=16, latency_cycles=45),
        )
    )
    memory = MemorySystem(
        topo,
        # Per 16-core domain ~25.6 GB/s; almost-linear growth to 16 cores
        # (per_core = peak/16).  This linearity is what makes a partially
        # populated domain the critical path (Fig 5 dips at 40/56 cores).
        DomainBandwidthModel(peak_gbs=25.6, per_core_gbs=1.6),
    )
    net = Interconnect(
        name="InfiniBand EDR (JUAWEI, Hi1616 injection-limited)",
        latency_s=1.0e-3,  # effective; the NIC path stalls (Sec. VII-A)
        bandwidth_gbs=12.5,
        injection_efficiency=0.08,
        congestion_per_node_s=5.0e-3,
    )
    cal = Calibration(
        stencil2d_efficiency=0.90,
        stencil1d_efficiency=0.85,
        per_step_overhead_s=3.0e-3,
        network_overlap=False,  # cannot hide latency (Sec. VII-A)
        blocking_floats=False,
        blocking_doubles=False,
        single_core_glups={
            ("float32", "auto"): 0.072,
            ("float32", "simd"): 0.130,  # up to +80 %
            ("float64", "auto"): 0.045,
            ("float64", "simd"): 0.066,
        },
    )
    return MachineModel(KUNPENG_916, spec, topo, caches, memory, net, cal)


def _thunderx2() -> MachineModel:
    spec = ProcessorSpec(
        name="Marvell ThunderX2",
        vendor="Marvell",
        clock_ghz=2.4,
        cores_per_processor=32,
        processors_per_node=2,  # 1228.8 GFLOP/s = 2.4 x 8 x 64 cores
        threads_per_core=4,
        vector_pipeline="Double NEON Pipeline",
        dp_flops_per_cycle=8,
        isa="neon",
        vector_bits=128,
        simd_pipelines=2,
        cache_line_bytes=64,
        numa_domains=2,
        notes="Table I prints 1 processor/node but its 1228 GFLOP/s peak "
        "requires the dual-socket Sage configuration; we encode 2 x 32.",
    )
    topo = Machine(spec)
    caches = CacheHierarchy(
        (
            CacheLevel("L1d", 32 * 1024, 64, shared_by_cores=1, latency_cycles=4),
            CacheLevel("L2", 256 * 1024, 64, shared_by_cores=1, latency_cycles=9),
            CacheLevel("L3", 32 * 1024 * 1024, 64, shared_by_cores=32, latency_cycles=40),
        )
    )
    memory = MemorySystem(
        topo,
        # 8ch DDR4-2666 per socket: ~118 GB/s, ~9 GB/s per core.
        DomainBandwidthModel(peak_gbs=118.0, per_core_gbs=9.0),
    )
    net = Interconnect(
        name="InfiniBand EDR (Sage)",
        latency_s=2.0e-6,
        bandwidth_gbs=12.5,
        injection_efficiency=0.9,
    )
    cal = Calibration(
        stencil2d_efficiency=0.92,
        stencil1d_efficiency=0.80,
        per_step_overhead_s=3.0e-3,
        network_overlap=True,
        # Aggressive next-line prefetchers give implicit blocking; doubles
        # only switch at >= 16 cores (Sec. VII-B, "interesting switch").
        blocking_floats=True,
        blocking_doubles=True,
        blocking_doubles_from_cores=16,
        # The simd double rate exceeds the single-core bandwidth cap
        # (8.3 GB/s x AI), so observed gains land in the paper's bands:
        # +50-60 % floats, ~+40 % doubles.  The auto double rate matches
        # Table VI's cycle budget (~6 instr + ~2.5 backend-stall
        # cycles/LUP at 2.4 GHz ~= 0.25 GLUP/s).
        single_core_glups={
            ("float32", "auto"): 0.68,
            ("float32", "simd"): 1.10,
            ("float64", "auto"): 0.25,
            ("float64", "simd"): 0.40,
        },
    )
    return MachineModel(THUNDERX2, spec, topo, caches, memory, net, cal)


def _a64fx() -> MachineModel:
    spec = ProcessorSpec(
        name="Fujitsu (FX1000) A64FX",
        vendor="Fujitsu",
        clock_ghz=2.2,
        cores_per_processor=48,
        processors_per_node=1,
        threads_per_core=1,
        vector_pipeline="Double SVE 512-bit",
        dp_flops_per_cycle=32,
        isa="sve",
        vector_bits=512,
        simd_pipelines=2,
        cache_line_bytes=256,
        numa_domains=4,  # CMGs
        helper_cores=4,
    )
    topo = Machine(spec)
    caches = CacheHierarchy(
        (
            CacheLevel("L1d", 64 * 1024, 256, shared_by_cores=1, latency_cycles=5),
            CacheLevel("L2", 8 * 1024 * 1024, 256, shared_by_cores=12, latency_cycles=37),
        )
    )
    memory = MemorySystem(
        topo,
        # HBM2 per CMG: ~165 GB/s with GCC STREAM (~660 GB/s node, the
        # paper's footnote 2 configuration), ~22 GB/s per core.
        DomainBandwidthModel(peak_gbs=165.0, per_core_gbs=22.0),
    )
    net = Interconnect(
        name="TofuD (FX1000)",
        latency_s=1.5e-6,
        bandwidth_gbs=6.8,
        injection_efficiency=0.9,
    )
    cal = Calibration(
        stencil2d_efficiency=0.75,
        # Only ~24 % of STREAM reaches the 1D app: fine grains hit AMT
        # contention overheads (Sec. VII-B discusses exactly this).
        stencil1d_efficiency=0.24,
        per_step_overhead_s=3.0e-3,
        network_overlap=True,
        # 256 B lines: both precisions behave cache-blocked (Fig 6/7).
        blocking_floats=True,
        blocking_doubles=True,
        single_core_glups={
            ("float32", "auto"): 1.55,
            ("float32", "simd"): 1.70,  # only +10 % (Sec. VII-B: 5-15 %)
            ("float64", "auto"): 0.78,
            ("float64", "simd"): 0.86,
        },
    )
    return MachineModel(A64FX, spec, topo, caches, memory, net, cal)


_BUILDERS = {
    XEON_E5_2660V3: _xeon,
    KUNPENG_916: _kunpeng,
    THUNDERX2: _thunderx2,
    A64FX: _a64fx,
}

_CACHE: dict[str, MachineModel] = {}


def machine_names() -> tuple[str, ...]:
    """Registered machine model names, paper order."""
    return (XEON_E5_2660V3, KUNPENG_916, THUNDERX2, A64FX)


def machine(name: str) -> MachineModel:
    """Look up a calibrated machine model by registry name."""
    if name not in _BUILDERS:
        raise TopologyError(
            f"unknown machine {name!r}; available: {', '.join(machine_names())}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
