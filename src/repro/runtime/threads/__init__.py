"""HPX-thread subsystem: lightweight tasks, schedulers, pools, executors."""

from .hpx_thread import HpxThread, ThreadState
from .scheduler import Scheduler
from .pool import ThreadPool
from .executor import Executor, PoolExecutor, BlockExecutor

__all__ = [
    "HpxThread",
    "ThreadState",
    "Scheduler",
    "ThreadPool",
    "Executor",
    "PoolExecutor",
    "BlockExecutor",
]
