"""FairJobScheduler: weighted fairness, backoff delay room, removal."""

from repro.service import FairJobScheduler


def _drain(sched, now, skip=(), limit=100):
    order = []
    while len(order) < limit:
        picked = sched.next_job(now, skip_tenants=skip)
        if picked is None:
            break
        order.append(picked)
    return order


def test_round_robin_between_equal_tenants():
    sched = FairJobScheduler()
    for i in range(3):
        sched.enqueue("a", f"a{i}", not_before=0.0, now=0.0)
        sched.enqueue("b", f"b{i}", not_before=0.0, now=0.0)
    tenants = [tenant for tenant, _ in _drain(sched, 0.0)]
    assert tenants == ["a", "b", "a", "b", "a", "b"]


def test_weighted_tenant_served_proportionally():
    sched = FairJobScheduler()
    sched.set_weight("heavy", 2.0)
    sched.set_weight("light", 1.0)
    for i in range(8):
        sched.enqueue("heavy", f"h{i}", not_before=0.0, now=0.0)
        sched.enqueue("light", f"l{i}", not_before=0.0, now=0.0)
    order = [tenant for tenant, _ in _drain(sched, 0.0)][:9]
    # Over any window, heavy gets ~2x the service of light.
    assert order.count("heavy") == 6
    assert order.count("light") == 3


def test_fifo_within_a_tenant():
    sched = FairJobScheduler()
    for i in range(4):
        sched.enqueue("t", f"j{i}", not_before=0.0, now=0.0)
    assert [job for _, job in _drain(sched, 0.0)] == ["j0", "j1", "j2", "j3"]


def test_backlogged_tenant_cannot_starve_late_joiner():
    sched = FairJobScheduler()
    for i in range(50):
        sched.enqueue("hog", f"h{i}", not_before=0.0, now=0.0)
    # hog burns through some of its backlog first...
    for _ in range(10):
        sched.next_job(0.0)
    # ...then a new tenant shows up: it must be served immediately
    # (idle flows accrue no debt relative to the backlog's pass).
    sched.enqueue("newbie", "n0", not_before=0.0, now=0.0)
    picked = dict([sched.next_job(0.0), sched.next_job(0.0)])
    assert picked.get("newbie") == "n0"


def test_delay_room_holds_backoff_jobs():
    sched = FairJobScheduler()
    sched.enqueue("t", "late", not_before=5.0, now=0.0)
    sched.enqueue("t", "now", not_before=0.0, now=0.0)
    # A delayed job is not returned before its not_before...
    assert _drain(sched, 4.9) == [("t", "now")]
    assert _drain(sched, 4.9) == []
    # ...and is returned once it has passed, exactly once.
    assert _drain(sched, 5.0) == [("t", "late")]
    assert _drain(sched, 100.0) == []


def test_skip_tenants_leaves_queue_untouched():
    sched = FairJobScheduler()
    sched.enqueue("a", "a0", not_before=0.0, now=0.0)
    sched.enqueue("b", "b0", not_before=0.0, now=0.0)
    assert sched.next_job(0.0, skip_tenants={"a"}) == ("b", "b0")
    assert sched.next_job(0.0, skip_tenants={"a"}) is None
    assert sched.next_job(0.0) == ("a", "a0")  # still queued, not lost


def test_remove_from_queue_and_delay_room():
    sched = FairJobScheduler()
    sched.enqueue("t", "queued", not_before=0.0, now=0.0)
    sched.enqueue("t", "delayed", not_before=9.0, now=0.0)
    sched.enqueue("t", "kept", not_before=0.0, now=0.0)
    assert sched.remove("t", "queued")
    assert sched.remove("t", "delayed")
    assert not sched.remove("t", "gone")
    # A removed job never comes back, before or after its not_before.
    assert _drain(sched, 0.0) == [("t", "kept")]
    assert _drain(sched, 10.0) == []


def test_pop_order_is_deterministic():
    def build():
        sched = FairJobScheduler()
        sched.set_weight("b", 3.0)
        for i in range(5):
            sched.enqueue("a", f"a{i}", not_before=0.0, now=0.0)
            sched.enqueue("b", f"b{i}", not_before=0.0, now=0.0)
            sched.enqueue("c", f"c{i}", not_before=float(i % 2), now=0.0)
        return _drain(sched, 2.0)

    assert build() == build()
