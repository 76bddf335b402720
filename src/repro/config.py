"""Runtime configuration, modelled after HPX's ``--hpx:ini`` key/value store.

A :class:`Config` is an immutable-ish mapping of dotted keys
(``"threads.scheduler"``, ``"parcel.retry"``) with typed accessors and
validation.  The defaults reproduce the configuration used in the paper:
work-stealing scheduling (workers are always pinned when a machine model
is given).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from .errors import ConfigError

__all__ = ["Config", "default_config"]

#: Default configuration values. Keys are dotted, grouped by subsystem.
_DEFAULTS: dict[str, Any] = {
    # Thread subsystem (HPX thread-manager analogue).
    "threads.scheduler": "work-stealing",  # work-stealing | static | fifo
    # Parcel subsystem: reliable delivery (consulted only when a
    # FaultInjector is installed).  How a parcel body travels is not a
    # setting: the port the runtime builds decides (by reference on
    # loopback, decoded over a modelled network or a process boundary).
    "parcel.retry": True,  # retransmit lost parcels on ack-timeout
    "parcel.retry_max_attempts": 8,  # total transmissions before dead-letter
    "parcel.retry_jitter": 0.0,  # seeded backoff jitter fraction (0 = synchronized)
    # Overload protection (repro.resilience.overload).  Off by default so
    # unprotected runs stay bit-identical with the committed benchmark
    # baselines; the chaos/storm paths switch it on explicitly.
    "overload.enabled": False,
    "overload.credits": 32,  # per-destination send credits (replenished on ack)
    "overload.defer_base_s": 1e-4,  # base virtual delay before a deferred re-admit
    "overload.defer_max": 3,  # LOW deferrals before the parcel is shed
    # Checkpoint/restart cost model (repro.resilience.checkpoint).
    "checkpoint.cost_base_s": 1e-6,  # fixed virtual cost per save/restore
    "checkpoint.cost_per_byte_s": 1e-9,  # virtual seconds per serialized byte
    # Execution backend: where the localities live.  "virtual" is the
    # deterministic single-process simulation on the virtual clock (the
    # CI/sanitizer/explorer mode); "multiprocess" runs one OS process per
    # locality with parcels carried over sockets, doing real concurrent
    # work on real cores (see repro.runtime.backend).
    "runtime.backend": "virtual",  # virtual | multiprocess
    # multiprocess: OS process count; 0 = one per locality, and any other
    # value must equal the locality count.  It carries no choice: it is
    # still a key only because bench/workloads.py (which a PR may not
    # edit) and ``repro run --processes`` pass it.
    "runtime.processes": 0,
    # Quiescence policy: what to do when the job drains with demanded
    # futures (dataflow/when_* targets, channel reads) left unfulfilled.
    "runtime.quiescence": "warn",  # warn | raise | ignore
    # Determinism.
    "seed": 0,
}

VALID_SCHEDULERS = ("work-stealing", "static", "fifo")
_VALID_QUIESCENCE = ("warn", "raise", "ignore")
VALID_BACKENDS = ("virtual", "multiprocess")


class Config(Mapping[str, Any]):
    """Typed, validated key/value configuration store.

    Unknown keys are rejected eagerly so a typo in a benchmark script fails
    at construction rather than silently using a default.
    """

    __slots__ = ("_values",)

    def __init__(self, **overrides: Any) -> None:
        self._values = dict(_DEFAULTS)
        self._update({key.replace("__", "."): value for key, value in overrides.items()})

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Config":
        """Build a config from a mapping with dotted keys."""
        cfg = cls()
        cfg._update(mapping)
        return cfg

    def _update(self, mapping: Mapping[str, Any]) -> None:
        for key, value in mapping.items():
            if key not in self._values:
                raise ConfigError(f"unknown configuration key: {key!r}")
            self._values[key] = value
        self._validate()

    def _validate(self) -> None:
        sched = self._values["threads.scheduler"]
        if sched not in VALID_SCHEDULERS:
            raise ConfigError(
                f"threads.scheduler must be one of {VALID_SCHEDULERS}, got {sched!r}"
            )
        quiescence = self._values["runtime.quiescence"]
        if quiescence not in _VALID_QUIESCENCE:
            raise ConfigError(
                f"runtime.quiescence must be one of {_VALID_QUIESCENCE}, "
                f"got {quiescence!r}"
            )
        backend = self._values["runtime.backend"]
        if backend not in VALID_BACKENDS:
            raise ConfigError(
                f"runtime.backend must be one of {VALID_BACKENDS}, got {backend!r}"
            )
        if int(self._values["runtime.processes"]) < 0:
            raise ConfigError("runtime.processes must be >= 0 (0 = one per locality)")
        if int(self._values["parcel.retry_max_attempts"]) < 1:
            raise ConfigError("parcel.retry_max_attempts must be >= 1")
        if not 0.0 <= float(self._values["parcel.retry_jitter"]) <= 1.0:
            raise ConfigError("parcel.retry_jitter must be in [0, 1]")
        if int(self._values["overload.credits"]) < 1:
            raise ConfigError("overload.credits must be >= 1")
        if float(self._values["overload.defer_base_s"]) <= 0:
            raise ConfigError("overload.defer_base_s must be positive")
        if int(self._values["overload.defer_max"]) < 0:
            raise ConfigError("overload.defer_max must be >= 0")
        if float(self._values["checkpoint.cost_base_s"]) < 0:
            raise ConfigError("checkpoint.cost_base_s must be non-negative")
        if float(self._values["checkpoint.cost_per_byte_s"]) < 0:
            raise ConfigError("checkpoint.cost_per_byte_s must be non-negative")

    def replace(self, **overrides: Any) -> "Config":
        """Return a new config with ``overrides`` applied."""
        dotted = {key.replace("__", "."): value for key, value in overrides.items()}
        return Config.from_mapping({**self._values, **dotted})

    # Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown configuration key: {key!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # Typed accessors ------------------------------------------------------
    def get_bool(self, key: str) -> bool:
        return bool(self[key])

    def get_int(self, key: str) -> int:
        return int(self[key])

    def get_float(self, key: str) -> float:
        return float(self[key])

    def get_str(self, key: str) -> str:
        return str(self[key])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        changed = {k: v for k, v in self._values.items() if v != _DEFAULTS[k]}
        return f"Config({changed!r})"


def default_config() -> Config:
    """The configuration used by the paper's benchmark runs."""
    return Config()
