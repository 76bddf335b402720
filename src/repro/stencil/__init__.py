"""The paper's benchmark applications.

* :mod:`~repro.stencil.grid` -- the custom ``Grid`` container of
  Listing 2 (double-buffered, scalar or Virtual-Node-Scheme layout);
* :mod:`~repro.stencil.heat1d` -- Sec. IV-A / V-A: the 1D heat equation,
  as a serial kernel and the fully distributed futurized solver used
  for Fig 3;
* :mod:`~repro.stencil.jacobi2d` -- Sec. IV-B / V-B: the shared-memory
  2D Jacobi solver with auto-vectorized ("scalar") and explicitly
  vectorized (VNS/pack) kernels used for Figs 4-8;
* :mod:`~repro.stencil.jacobi2d_dist` -- the 2D kernel distributed over
  row blocks (extension);
* :mod:`~repro.stencil.halo` -- the halo-exchange protocol the two
  distributed solvers instantiate (partition component + driver), with
  :mod:`~repro.stencil.recovery` as its crash-recovery loop;
* :mod:`~repro.stencil.validation` -- analytic solutions and error norms
  used to verify both solvers numerically.
"""

from .grid import Grid, GridPair
from .heat1d import (
    heat1d_reference,
    heat1d_steps,
    Heat1DPartition,
    DistributedHeat1D,
    Heat1DParams,
)
from .jacobi2d import Jacobi2D, jacobi_reference_step
from .jacobi2d_dist import Jacobi2DPartition, DistributedJacobi2D
from .validation import (
    analytic_heat_profile,
    discrete_heat_decay_factor,
    l2_error,
    max_error,
    jacobi_dense_solution,
)

__all__ = [
    "Grid",
    "GridPair",
    "heat1d_reference",
    "heat1d_steps",
    "Heat1DPartition",
    "DistributedHeat1D",
    "Heat1DParams",
    "Jacobi2D",
    "jacobi_reference_step",
    "Jacobi2DPartition",
    "DistributedJacobi2D",
    "analytic_heat_profile",
    "discrete_heat_decay_factor",
    "l2_error",
    "max_error",
    "jacobi_dense_solution",
]
