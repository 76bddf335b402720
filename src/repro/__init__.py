"""repro -- reproduction of "Performance Evaluation of ParalleX Execution
model on Arm-based Platforms" (CLUSTER 2020).

The package itself exports only the configuration store and the error
root; every subpackage loads when it is imported (``from repro import
exhibits`` works), so a process carries only the layers it runs.  See
README.md for a tour and DESIGN.md for the system inventory.

Subpackage map::

    repro.runtime        the ParalleX/HPX core (futures, LCOs, AGAS, parcels,
                         the virtual and multiprocess backends)
    repro.hardware       calibrated machine models + cache simulator
    repro.simd           ISA lane widths and the Virtual Node Scheme layout
    repro.stencil        the paper's 1D/2D stencil applications
    repro.resilience     fault injection, parcel retry, checkpoint/restart
    repro.service        the durable multi-tenant job service
    repro.observability  tracer, Chrome trace export, counter sampling, histograms
    repro.analysis       lint, race and deadlock detectors, schedule explorer
    repro.perf           roofline / STREAM / counters / cost models
    repro.exhibits       one function per paper table & figure
"""

from .config import Config, default_config
from .errors import ReproError

__version__ = "1.0.0"

__all__ = ["Config", "default_config", "ReproError", "__version__"]
