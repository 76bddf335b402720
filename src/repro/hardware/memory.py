"""Memory bandwidth model: per-NUMA-domain saturation curves.

Two regimes matter in the paper:

* **Aggregate** (STREAM, Fig 2): each NUMA domain delivers
  ``min(n_d * per_core, domain_peak)`` and the node total is the sum over
  domains.  This produces the classic rising-then-flat STREAM curve.

* **Lockstep** (the 2D stencil, Figs 4-8): all workers synchronise at every
  time step, so the *slowest* NUMA domain is the critical path.  When the
  grid's pages end up spread evenly over the active domains, a domain
  populated with only a few cores cannot pull its share of data at full
  speed and drags the whole step down -- exactly the paper's explanation of
  the Kunpeng 916 dips at 40 and 64 cores and the ThunderX2 "half-saturated
  to fully-saturated" jump.

Both regimes are parameterised by one :class:`DomainBandwidthModel` per
machine, calibrated from Fig 2 read-offs in
:mod:`repro.hardware.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError
from .topology import Machine

__all__ = ["DomainBandwidthModel", "MemorySystem"]


@dataclass(frozen=True)
class DomainBandwidthModel:
    """Saturation model for a single NUMA domain.

    ``bandwidth(n) = min(n * per_core_gbs, peak_gbs)`` -- linear until the
    memory controllers saturate, then flat.  ``efficiency`` scales the
    whole curve (e.g. STREAM achieving ~85 % of the theoretical channel
    peak).
    """

    peak_gbs: float
    per_core_gbs: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.peak_gbs <= 0 or self.per_core_gbs <= 0:
            raise TopologyError("bandwidths must be positive")
        if not 0 < self.efficiency <= 1.0:
            raise TopologyError("efficiency must be in (0, 1]")

    def bandwidth(self, n_cores: int) -> float:
        """Achievable GB/s with ``n_cores`` active in this domain."""
        if n_cores < 0:
            raise TopologyError("core count must be non-negative")
        if n_cores == 0:
            return 0.0
        return self.efficiency * min(n_cores * self.per_core_gbs, self.peak_gbs)


class MemorySystem:
    """Node-level memory model combining topology and domain curves."""

    def __init__(self, machine: Machine, domain_model: DomainBandwidthModel) -> None:
        self.machine = machine
        self.domain_model = domain_model

    def _domain_counts(self, n_cores: int, pinning: str) -> dict[int, int]:
        if pinning == "compact":
            cpuset = self.machine.pin_compact(n_cores)
        elif pinning == "scatter":
            cpuset = self.machine.pin_scatter(n_cores)
        else:
            raise TopologyError(f"unknown pinning policy {pinning!r}")
        return self.machine.cores_per_domain_for(cpuset)

    def aggregate_bandwidth(self, n_cores: int, pinning: str = "compact") -> float:
        """STREAM-style total GB/s: sum of per-domain achievable bandwidth."""
        counts = self._domain_counts(n_cores, pinning)
        return sum(self.domain_model.bandwidth(n) for n in counts.values())

    def lockstep_bandwidth(self, n_cores: int, pinning: str = "compact") -> float:
        """Effective GB/s under per-step synchronisation.

        The grid's pages are spread evenly over the *active* domains, so a
        step finishes when the slowest domain has moved its ``1/D`` share:
        ``BW_eff = D * min_d bandwidth(n_d)``.  With every active domain
        fully populated this equals the aggregate bandwidth; with a
        partially-populated domain it dips below it.
        """
        counts = self._domain_counts(n_cores, pinning)
        if not counts:
            return 0.0
        slowest = min(self.domain_model.bandwidth(n) for n in counts.values())
        return len(counts) * slowest

    def first_touch_bandwidth(self, n_cores: int, pinning: str = "compact") -> float:
        """Effective GB/s when data is first-touch local to each worker.

        Work and data per domain are both proportional to the domain's
        worker count, so domains finish together and the node delivers the
        plain aggregate.  This is the regime the NUMA-aware 1D solver
        reaches via HPX block allocators.
        """
        return self.aggregate_bandwidth(n_cores, pinning)
