"""Local Control Objects -- ParalleX's constraint-based synchronisation.

An LCO is an object that *becomes* a synchronisation event: tasks attach
futures to it and the LCO fires them when its constraint is satisfied
(count reaches zero, all parties arrived, a value is produced, ...).
This replaces lock-and-wait with data-driven continuation -- the paper's
"lightweight synchronisation mechanisms".
"""

from .latch import Latch
from .barrier import Barrier
from .channel import Channel
from .semaphore import CountingSemaphore
from .and_gate import AndGate
from .dataflow import dataflow

__all__ = [
    "Latch",
    "Barrier",
    "Channel",
    "CountingSemaphore",
    "AndGate",
    "dataflow",
]
