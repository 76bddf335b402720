"""HPX-thread subsystem: lightweight tasks, schedulers, pools."""

from .hpx_thread import HpxThread, ThreadState
from .scheduler import Scheduler
from .pool import ThreadPool

__all__ = [
    "HpxThread",
    "ThreadState",
    "Scheduler",
    "ThreadPool",
]
