"""Unit tests for AGAS: GIDs, resolution, migration."""

import pytest

from repro.errors import AgasError, MigrationError, UnknownGidError
from repro.runtime.agas import AgasService, Component, Gid


# Gid --------------------------------------------------------------------------

def test_gid_pack_unpack_roundtrip():
    gid = Gid(msb_locality=3, lsb=12345)
    assert Gid.unpack(gid.pack()) == gid


def test_gid_validation():
    with pytest.raises(AgasError):
        Gid(-1, 1)
    with pytest.raises(AgasError):
        Gid(0, 0)
    with pytest.raises(AgasError):
        Gid.unpack(-1)


def test_gid_ordering_and_hash():
    a, b = Gid(0, 1), Gid(0, 2)
    assert a < b
    assert len({a, b, Gid(0, 1)}) == 2


# Service ------------------------------------------------------------------------

def test_register_and_resolve():
    agas = AgasService(2)
    obj = object()
    gid = agas.register(obj, home=1)
    assert gid.msb_locality == 1
    home, resolved = agas.resolve(gid)
    assert home == 1 and resolved is obj
    assert gid in agas


def test_gids_are_unique_per_locality():
    agas = AgasService(2)
    g1 = agas.register(object(), 0)
    g2 = agas.register(object(), 0)
    g3 = agas.register(object(), 1)
    assert len({g1, g2, g3}) == 3


def test_unknown_gid():
    agas = AgasService(1)
    with pytest.raises(UnknownGidError):
        agas.resolve(Gid(0, 999))


def test_invalid_locality():
    agas = AgasService(2)
    with pytest.raises(AgasError):
        agas.register(object(), home=2)


# Migration -------------------------------------------------------------------------

def test_migrate_moves_home_keeps_gid():
    agas = AgasService(3)
    gid = agas.register(object(), 0)
    assert agas.migrate(gid, 2) == 2
    assert agas.home_of(gid) == 2
    assert gid.msb_locality == 0  # the GID itself never changes


def test_migrate_pinned_rejected():
    agas = AgasService(2)
    gid = agas.register(object(), 0)
    agas.pin(gid)
    with pytest.raises(MigrationError):
        agas.migrate(gid, 1)
    agas.unpin(gid)
    assert agas.migrate(gid, 1) == 1


def test_unpin_without_pin_rejected():
    agas = AgasService(1)
    gid = agas.register(object(), 0)
    with pytest.raises(AgasError):
        agas.unpin(gid)


def test_migrate_notifies_component():
    agas = AgasService(2)
    comp = Component()
    gid = agas.register(comp, 0)
    comp.bind(gid, 0)
    agas.migrate(gid, 1)
    assert comp.home == 1


# Component -------------------------------------------------------------------------

def test_component_bind_once():
    comp = Component()
    with pytest.raises(AgasError):
        _ = comp.gid  # unbound
    comp.bind(Gid(0, 1), 0)
    assert comp.gid == Gid(0, 1)
    with pytest.raises(AgasError):
        comp.bind(Gid(0, 2), 0)


def test_component_act_dispatch():
    class Counter(Component):
        def __init__(self):
            super().__init__()
            self.n = 0

        def add(self, k):
            self.n += k
            return self.n

    counter = Counter()
    assert counter.act("add", 5) == 5
    assert counter.act("add", 2) == 7


def test_component_act_rejects_private_and_missing():
    comp = Component()
    with pytest.raises(AgasError):
        comp.act("_secret")
    with pytest.raises(AgasError):
        comp.act("nope")
