"""Where the other localities live.

On the virtual clock (``runtime.backend='virtual'``, the default) every
locality is a cooperatively-stepped pool in this process and
``Runtime.backend`` is None: the progress and send paths pay one
``is None`` check and nothing else.  With ``runtime.backend=
'multiprocess'`` each locality is an OS process, and ``Runtime.backend``
is this side's end of :mod:`~repro.runtime.backend.multiprocess`.

This package also holds the one list of features that only the virtual
clock can offer, and the error every refusal of them raises.
"""

from __future__ import annotations

from typing import NoReturn

from ...errors import ConfigError

__all__ = ["VIRTUAL_CLOCK_ONLY", "refuse_off_virtual_clock"]

#: Features whose semantics are defined on the virtual clock, each with
#: the reason a backend on real wall time cannot offer it.  The one list:
#: every refusal is raised from it by :func:`refuse_off_virtual_clock`,
#: and docs/architecture.md ("Execution backends") repeats these words.
VIRTUAL_CLOCK_ONLY = {
    "fault injection": "outage windows and parcel faults are defined on the virtual clock",
    "overload admission control": "credits and phi-accrual suspicion are virtual-clock quantities",
    "modelled machine interconnects": "the multiprocess backend measures the real host instead",
    "run_resilient": (
        "checkpoint recovery drives partition objects directly and replays virtual time"
    ),
    "schedule exploration": "real OS scheduling cannot be replayed",
}


def refuse_off_virtual_clock(feature: str) -> NoReturn:
    """Raise the :class:`ConfigError` for ``feature`` on a backend that
    is not the virtual clock -- failing eagerly beats silently measuring
    something else."""
    raise ConfigError(
        f"{feature} requires the virtual-clock backend "
        f"(runtime.backend='virtual'): {VIRTUAL_CLOCK_ONLY[feature]}"
    )
