"""Local Control Objects -- ParalleX's constraint-based synchronisation.

An LCO is an object that *becomes* a synchronisation event: tasks attach
futures to it and the LCO fires them when its constraint is satisfied
(a value is produced, every input is ready, ...).  This replaces
lock-and-wait with data-driven continuation -- the paper's "lightweight
synchronisation mechanisms".
"""

from .channel import Channel
from .dataflow import dataflow

__all__ = [
    "Channel",
    "dataflow",
]
