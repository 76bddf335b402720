"""Performance measurement and modelling.

* :mod:`~repro.perf.roofline` -- Sec. III-C: arithmetic intensity and
  Eq. (1) ``min(CP, AI x BW)``;
* :mod:`~repro.perf.stream` -- the STREAM benchmark, both on the memory
  model (Fig 2) and as a real NumPy kernel on the host;
* :mod:`~repro.perf.counters` -- the hardware-counter model behind
  Tables III-VI;
* :mod:`~repro.perf.cost` -- the calibrated execution-time model behind
  Figs 3-8.
"""

from .roofline import (
    arithmetic_intensity,
    attainable_performance,
    stencil2d_arithmetic_intensity,
)
from .stream import stream_model, stream_host, StreamResult
from .counters import CounterModel, COUNTER_GRID, COUNTER_STEPS
from .cost import (
    stencil2d_glups,
    stencil2d_time,
    expected_peak_2d,
    stencil1d_time,
    stencil1d_node_glups,
    scaling_factor,
)

__all__ = [
    "arithmetic_intensity",
    "attainable_performance",
    "stencil2d_arithmetic_intensity",
    "stream_model",
    "stream_host",
    "StreamResult",
    "CounterModel",
    "COUNTER_GRID",
    "COUNTER_STEPS",
    "stencil2d_glups",
    "stencil2d_time",
    "expected_peak_2d",
    "stencil1d_time",
    "stencil1d_node_glups",
    "scaling_factor",
]
