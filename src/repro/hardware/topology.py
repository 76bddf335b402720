"""hwloc-like topology tree and thread pinning.

The paper pins one HPX worker per *physical* core with ``hwloc-bind`` and
relies on first-touch NUMA placement.  This module models the object tree
(machine -> socket -> NUMA domain -> core -> PU) plus cpusets and the
compact / scatter pinning orders the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..errors import PinningError, TopologyError
from .spec import ProcessorSpec

__all__ = ["CpuSet", "ProcessingUnit", "Core", "NumaDomain", "Socket", "Machine"]


class CpuSet:
    """An ordered, duplicate-free set of PU (hardware-thread) indices."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Sequence[int] = ()) -> None:
        seen: set[int] = set()
        ordered: list[int] = []
        for i in ids:
            if i < 0:
                raise TopologyError(f"negative PU index {i}")
            if i not in seen:
                seen.add(i)
                ordered.append(i)
        self._ids = tuple(ordered)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, i: int) -> bool:
        return i in set(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CpuSet):
            return NotImplemented
        return set(self._ids) == set(other._ids)

    def __hash__(self) -> int:
        return hash(frozenset(self._ids))

    def first(self, n: int) -> "CpuSet":
        return CpuSet(self._ids[:n])

    def __repr__(self) -> str:  # pragma: no cover
        return f"CpuSet({list(self._ids)!r})"


@dataclass(frozen=True)
class ProcessingUnit:
    """One hardware thread (hwloc PU)."""

    pu_id: int
    core_id: int
    smt_index: int  # 0 for the first hardware thread of the core


@dataclass(frozen=True)
class Core:
    """One physical core with its SMT processing units."""

    core_id: int
    domain_id: int
    socket_id: int
    pus: tuple[ProcessingUnit, ...]

    @property
    def first_pu(self) -> ProcessingUnit:
        """The physical PU the paper pins to (SMT sibling 0)."""
        return self.pus[0]


@dataclass(frozen=True)
class NumaDomain:
    """One NUMA domain (memory locality) with its cores."""

    domain_id: int
    socket_id: int
    cores: tuple[Core, ...]

    @property
    def n_cores(self) -> int:
        return len(self.cores)


@dataclass(frozen=True)
class Socket:
    """One physical package."""

    socket_id: int
    domains: tuple[NumaDomain, ...]


@dataclass
class Machine:
    """The full node topology built from a :class:`ProcessorSpec`."""

    spec: ProcessorSpec
    sockets: tuple[Socket, ...] = field(init=False)

    def __post_init__(self) -> None:
        spec = self.spec
        domains_per_socket, rem = divmod(spec.numa_domains, spec.processors_per_node)
        if rem:
            raise TopologyError(
                f"{spec.name}: {spec.numa_domains} domains do not divide into "
                f"{spec.processors_per_node} sockets"
            )
        cores_per_domain = spec.cores_per_domain
        sockets: list[Socket] = []
        core_id = 0
        pu_id = 0
        for s in range(spec.processors_per_node):
            domains: list[NumaDomain] = []
            for d in range(domains_per_socket):
                domain_id = s * domains_per_socket + d
                cores: list[Core] = []
                for _ in range(cores_per_domain):
                    pus = tuple(
                        ProcessingUnit(pu_id=pu_id + t, core_id=core_id, smt_index=t)
                        for t in range(spec.threads_per_core)
                    )
                    cores.append(
                        Core(core_id=core_id, domain_id=domain_id, socket_id=s, pus=pus)
                    )
                    pu_id += spec.threads_per_core
                    core_id += 1
                domains.append(
                    NumaDomain(domain_id=domain_id, socket_id=s, cores=tuple(cores))
                )
            sockets.append(Socket(socket_id=s, domains=tuple(domains)))
        self.sockets = tuple(sockets)

    # Queries ---------------------------------------------------------------
    @property
    def domains(self) -> tuple[NumaDomain, ...]:
        return tuple(d for s in self.sockets for d in s.domains)

    @property
    def cores(self) -> tuple[Core, ...]:
        return tuple(c for d in self.domains for c in d.cores)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        cores = self.cores
        if not 0 <= core_id < len(cores):
            raise TopologyError(f"core id {core_id} out of range [0, {len(cores)})")
        return cores[core_id]

    # Pinning ---------------------------------------------------------------
    def pin_compact(self, n_workers: int) -> CpuSet:
        """Pin ``n_workers`` to physical PUs filling domains in order.

        This is the ``hwloc-bind`` placement the paper uses: one worker per
        physical core (SMT sibling 0), domains filled one after another.
        """
        cores = self.cores
        if not 1 <= n_workers <= len(cores):
            raise PinningError(
                f"cannot pin {n_workers} workers on {len(cores)} physical cores"
            )
        return CpuSet([cores[i].first_pu.pu_id for i in range(n_workers)])

    def pin_scatter(self, n_workers: int) -> CpuSet:
        """Pin ``n_workers`` round-robin across NUMA domains.

        Used by the STREAM benchmark variant that spreads load to expose
        aggregate bandwidth earlier.
        """
        domains = self.domains
        if not 1 <= n_workers <= self.n_cores:
            raise PinningError(
                f"cannot pin {n_workers} workers on {self.n_cores} physical cores"
            )
        picked: list[int] = []
        idx = [0] * len(domains)
        d = 0
        while len(picked) < n_workers:
            domain = domains[d % len(domains)]
            if idx[d % len(domains)] < domain.n_cores:
                core = domain.cores[idx[d % len(domains)]]
                picked.append(core.first_pu.pu_id)
                idx[d % len(domains)] += 1
            d += 1
        return CpuSet(picked)

    def cores_per_domain_for(self, cpuset: CpuSet) -> dict[int, int]:
        """Count of pinned workers per NUMA domain (drives the NUMA model)."""
        pu_to_core = {pu.pu_id: c for c in self.cores for pu in c.pus}
        counts: dict[int, int] = {}
        for pu_id in cpuset:
            if pu_id not in pu_to_core:
                raise PinningError(f"PU {pu_id} does not exist on {self.spec.name}")
            core = pu_to_core[pu_id]
            counts[core.domain_id] = counts.get(core.domain_id, 0) + 1
        return counts
