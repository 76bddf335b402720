"""1D heat-equation solvers (paper Sec. IV-A, V-A, VII-A).

Three implementations of the 3-point stencil of Eq. (3), all with
periodic boundaries (as in the canonical HPX ``1d_stencil`` the paper's
benchmark derives from):

* :func:`heat1d_reference` -- plain NumPy, the numerical ground truth.
  It keeps its ``roll`` form on purpose: it shares no code with the
  solvers, so it is an independent oracle for all of them;
* :func:`heat1d_steps` -- the solvers' own kernel (``_heat_steps``)
  over the whole periodic field, padded once with one halo slot at each
  end; each step writes only those two slots.  Bit-identical to the
  oracle, with every step inside one call (about 0.2 interpreter calls
  per step, against ~34 for NumPy's ``roll``, which handles its axes in
  Python).  The job service's local jobs run it;
* :class:`DistributedHeat1D` -- the fully distributed, *futurized*
  solver used for Fig 3: one :class:`Heat1DPartition` component per
  locality slot, halo values travelling as parcels, and a per-partition
  dataflow chain so network latencies hide under compute (no global
  barrier anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..runtime.runtime import Runtime
from .halo import HaloDriver, HaloPartition

__all__ = [
    "Heat1DParams",
    "heat1d_reference",
    "heat1d_steps",
    "Heat1DPartition",
    "DistributedHeat1D",
]


@dataclass(frozen=True)
class Heat1DParams:
    """Discretisation of Eq. (2): ``du/dt = alpha * d2u/dx2``."""

    alpha: float = 1.0
    dt: float = 4.0e-5
    dx: float = 1.0e-2

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.dt <= 0 or self.dx <= 0:
            raise ValidationError("alpha, dt and dx must all be positive")

    @property
    def k(self) -> float:
        """The stencil coefficient ``alpha * dt / dx^2`` of Eq. (3)."""
        return self.alpha * self.dt / (self.dx * self.dx)

    def check_stability(self) -> None:
        """Explicit Euler needs ``k <= 1/2`` or the solution blows up."""
        if self.k > 0.5:
            raise ValidationError(
                f"unstable discretisation: alpha*dt/dx^2 = {self.k:.4g} > 0.5"
            )


def heat1d_reference(u0: np.ndarray, steps: int, params: Heat1DParams) -> np.ndarray:
    """Ground-truth periodic 3-point stencil, vectorized NumPy."""
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    u = np.array(u0, dtype=np.float64, copy=True)
    k = params.k
    for _ in range(steps):
        u = u + k * (np.roll(u, 1) - 2.0 * u + np.roll(u, -1))
    return u


def _padded(u: np.ndarray, left: float, right: float) -> np.ndarray:
    """``u`` with one halo slot at each end: ``[left, *u, right]``."""
    w = np.empty(u.shape[0] + 2)
    w[0] = left
    w[1:-1] = u
    w[-1] = right
    return w


def _heat_steps(w: np.ndarray, k: float, steps: int = 1) -> None:
    """Advance the halo-padded field ``w`` by ``steps`` steps, in place.

    ``w[1:-1]`` is the field and ``w[0]``, ``w[-1]`` its two halos for
    the first step.  Every point takes the IEEE operations of
    :func:`heat1d_reference` in the same order -- ``(left - 2u) +
    right``, then ``* k``, then ``u +`` -- so one point or two are no
    special case.  The last three accumulate in place: ``+`` and ``*``
    are commutative in IEEE arithmetic, so the bits are the oracle's,
    with two temporaries per step and no copy.  After each step the
    halo slots take the field's far ends, the periodic halos of the
    next step; a caller that runs one step over explicit halos just
    ignores them.
    """
    c, lo, hi = w[1:-1], w[:-2], w[2:]
    for _ in range(steps):
        t = lo - 2.0 * c
        t += hi
        t *= k
        c += t
        w[0] = w[-2]
        w[-1] = w[1]


def heat1d_steps(u0: np.ndarray, steps: int, params: Heat1DParams) -> np.ndarray:
    """``steps`` periodic steps of the solvers' kernel over the whole
    field, bit-identical to :func:`heat1d_reference`.

    The field is padded once; the result is a view of that buffer.
    """
    if steps < 0:
        raise ValidationError("steps must be non-negative")
    u = np.asarray(u0, dtype=np.float64)
    if u.size == 0 or steps == 0:
        return u.copy()
    w = _padded(u, u[-1], u[0])
    _heat_steps(w, params.k, steps)
    return w[1:-1]


class Heat1DPartition(HaloPartition):
    """One locality's share of the distributed 1D grid: a run of points
    whose halos are the two scalar boundary values of its ring
    neighbours (the protocol is :class:`~repro.stencil.halo.HaloPartition`).
    """

    sides = ("left", "right")
    deposit_action = "deposit_halo"
    send_method = "send_boundaries"
    checkpoint_fields = ("params", "cost_per_step")

    deposit_halo = HaloPartition.deposit
    connect_ring = HaloPartition.connect_here

    def __init__(
        self,
        data: np.ndarray,
        params: Heat1DParams,
        cost_per_step: float = 0.0,
    ) -> None:
        super().__init__(np.array(data, dtype=np.float64, copy=True), cost_per_step)
        self.params = params

    def send_boundaries(self, step: int) -> None:
        """Ship this partition's current edge values to both neighbours."""
        self.mark_read("u")
        self._ship_edges(step, float(self.u[0]), float(self.u[-1]))

    def advance(self, t: int, left: float, right: float) -> int:
        """Apply step ``t`` given its halos; send halos for ``t+1``."""
        self._begin_step(t)
        w = _padded(self.u, left, right)
        _heat_steps(w, self.params.k)
        self.u = w[1:-1]
        return self._end_step()

    def local_solution(self) -> np.ndarray:
        self.mark_read("u")
        return np.array(self.u, copy=True)


class DistributedHeat1D(HaloDriver):
    """Driver for the fully distributed solver (Fig 3's application).

    Splits ``nx`` points over ``partitions_per_locality * n_localities``
    partitions laid out round the periodic ring in locality-major order,
    registers each partition as a component on its locality, and runs
    the futurized chains to completion.
    """

    periodic = True
    connect_action = "connect_ring"
    gather_action = "local_solution"

    def __init__(
        self,
        runtime: Runtime,
        nx: int,
        params: Heat1DParams | None = None,
        partitions_per_locality: int = 1,
        cost_per_step: float = 0.0,
    ) -> None:
        super().__init__(runtime, partitions_per_locality, cost_per_step)
        if nx < self.n_partitions or nx % self.n_partitions != 0:
            raise ValidationError(
                f"{nx} points do not split evenly into {self.n_partitions} partitions"
            )
        self.nx = nx
        self.params = params or Heat1DParams()
        self.params.check_stability()
        self.local_nx = nx // self.n_partitions

    def initialize(self, u0: np.ndarray) -> None:
        """Create and connect the partition components from ``u0``."""
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (self.nx,):
            raise ValidationError(f"expected initial field of shape ({self.nx},)")
        self._wire(
            Heat1DPartition(
                u0[p * self.local_nx : (p + 1) * self.local_nx],
                self.params,
                self.cost_per_step,
            )
            for p in range(self.n_partitions)
        )

    def solution(self) -> np.ndarray:
        """Gather the global field (driver-side, for verification)."""
        return np.concatenate(self._gather())
