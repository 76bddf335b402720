"""The ``instrument`` seam itself: fan-out, reset."""

import inspect

from repro.runtime import instrument
from repro.runtime.instrument import Probe

VOCABULARY = [name for name in vars(Probe) if not name.startswith("_")]


def _recording_probe(name: str, log: list) -> Probe:
    """A probe whose every vocabulary method appends ``(name, method, args)``."""

    def recorder(method: str):
        return lambda self, *args, **kwargs: log.append((name, method, args, kwargs))

    return type("Recording", (Probe,), {m: recorder(m) for m in VOCABULARY})()


def test_fanout_delivers_every_vocabulary_method_in_install_order():
    assert "event" in VOCABULARY and "task_finished" in VOCABULARY
    log: list = []
    first, second = _recording_probe("first", log), _recording_probe("second", log)
    instrument.install(first)
    instrument.install(second)
    try:
        fanout = instrument.probe
        for method in VOCABULARY:
            required = [
                p
                for p in inspect.signature(getattr(Probe, method)).parameters.values()
                if p.default is p.empty and p.name != "self"
            ]
            args = tuple(f"{method}-{p.name}" for p in required)
            getattr(fanout, method)(*args, extra=method)
            assert log[-2:] == [
                ("first", method, args, {"extra": method}),
                ("second", method, args, {"extra": method}),
            ]
        # The methods are built once, not per attribute access.
        assert fanout.event.__func__ is vars(type(fanout))["event"]
    finally:
        instrument.uninstall(second)
        instrument.uninstall(first)
    assert len(log) == 2 * len(VOCABULARY)


def test_reset_drops_every_probe():
    instrument.install(Probe())
    instrument.install(Probe())
    assert instrument.enabled and len(instrument.active_probes()) == 2
    instrument.reset()
    assert instrument.active_probes() == []
    assert instrument.probe is None and instrument.enabled is False
