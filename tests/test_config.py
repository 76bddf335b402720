"""Unit tests for Config."""

import pathlib

import pytest

import repro

from repro.config import Config, default_config
from repro.errors import ConfigError


def test_defaults():
    cfg = default_config()
    assert cfg["threads.scheduler"] == "work-stealing"
    assert cfg.get_bool("parcel.retry")
    assert cfg.get_int("parcel.retry_max_attempts") == 8


def test_override_with_dunder_keys():
    cfg = Config(threads__scheduler="static", parcel__retry=False)
    assert cfg["threads.scheduler"] == "static"
    assert not cfg.get_bool("parcel.retry")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        Config(threads__schedular="static")  # typo
    with pytest.raises(ConfigError):
        default_config()["no.such.key"]


def test_invalid_scheduler_rejected():
    with pytest.raises(ConfigError):
        Config(threads__scheduler="banana")


def test_invalid_counts_rejected():
    with pytest.raises(ConfigError):
        Config(runtime__processes=-1)
    with pytest.raises(ConfigError):
        Config(parcel__retry_max_attempts=0)
    with pytest.raises(ConfigError):
        Config(runtime__backend="magic")


def test_replace_returns_new_config():
    cfg = default_config()
    other = cfg.replace(threads__scheduler="fifo")
    assert cfg["threads.scheduler"] == "work-stealing"
    assert other["threads.scheduler"] == "fifo"
    with pytest.raises(ConfigError):
        cfg.replace(bogus__key=1)


def test_from_mapping():
    cfg = Config.from_mapping({"threads.scheduler": "static"})
    assert cfg["threads.scheduler"] == "static"
    with pytest.raises(ConfigError):
        Config.from_mapping({"bad.key": 1})


def test_mapping_protocol():
    cfg = default_config()
    assert len(cfg) == len(list(cfg))
    assert "seed" in set(cfg)


def test_typed_accessors():
    cfg = default_config()
    assert isinstance(cfg.get_str("threads.scheduler"), str)
    assert isinstance(cfg.get_int("seed"), int)
    assert isinstance(cfg.get_bool("parcel.retry"), bool)


def test_every_key_has_a_reader():
    """Rent guard: a key nothing under ``src/repro`` reads (other than
    ``config.py`` itself) is validated and documented but steers nothing."""
    root = pathlib.Path(repro.__file__).parent
    sources = [
        path.read_text()
        for path in root.rglob("*.py")
        if path != root / "config.py"
    ]
    unread = [key for key in Config() if not any(f'"{key}"' in text for text in sources)]
    assert unread == []
