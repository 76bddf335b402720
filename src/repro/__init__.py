"""repro -- reproduction of "Performance Evaluation of ParalleX Execution
model on Arm-based Platforms" (CLUSTER 2020).

Top-level façade: the runtime API, the machine models, the SIMD layer,
the stencil applications and the performance models.  See README.md for
a tour and DESIGN.md for the system inventory.

Subpackage map::

    repro.runtime     the ParalleX/HPX core (futures, LCOs, AGAS, parcels)
    repro.hardware    calibrated machine models + cache simulator
    repro.simd        ISA lane widths and the Virtual Node Scheme layout
    repro.stencil     the paper's 1D/2D stencil applications
    repro.containers  distributed data structures (partitioned_vector)
    repro.resilience  fault injection + HPX-style replay/replicate
    repro.perf        roofline / STREAM / counters / cost models
    repro.exhibits    one function per paper table & figure
"""

from . import exhibits, hardware, perf, reporting, simd
from .config import Config, default_config
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Config",
    "default_config",
    "ReproError",
    "exhibits",
    "hardware",
    "perf",
    "reporting",
    "simd",
    "__version__",
]
