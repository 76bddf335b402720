"""Property-based tests for hardware models and parcel serialization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DomainBandwidthModel, machine, machine_names
from repro.runtime.parcel import deserialize, serialize


@given(
    peak=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
    per_core=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    cores=st.integers(min_value=0, max_value=128),
)
def test_domain_bandwidth_bounded_and_monotone(peak, per_core, cores):
    model = DomainBandwidthModel(peak_gbs=peak, per_core_gbs=per_core)
    bw = model.bandwidth(cores)
    assert 0.0 <= bw <= peak
    assert model.bandwidth(cores + 1) >= bw


@given(name=st.sampled_from(machine_names()), data=st.data())
@settings(max_examples=80)
def test_lockstep_never_exceeds_aggregate_anywhere(name, data):
    m = machine(name)
    cores = data.draw(st.integers(min_value=1, max_value=m.spec.cores_per_node))
    pinning = data.draw(st.sampled_from(["compact", "scatter"]))
    lockstep = m.memory.lockstep_bandwidth(cores, pinning)
    aggregate = m.memory.aggregate_bandwidth(cores, pinning)
    assert 0 < lockstep <= aggregate + 1e-9


@given(name=st.sampled_from(machine_names()), data=st.data())
@settings(max_examples=40)
def test_aggregate_bandwidth_monotone_in_cores(name, data):
    m = machine(name)
    cores = data.draw(st.integers(min_value=1, max_value=m.spec.cores_per_node - 1))
    assert (
        m.memory.aggregate_bandwidth(cores + 1)
        >= m.memory.aggregate_bandwidth(cores) - 1e-9
    )


@given(name=st.sampled_from(machine_names()), data=st.data())
@settings(max_examples=40)
def test_transfer_time_monotone_in_bytes(name, data):
    net = machine(name).interconnect
    small = data.draw(st.integers(min_value=0, max_value=10**6))
    extra = data.draw(st.integers(min_value=0, max_value=10**6))
    assert net.transfer_time(small + extra) >= net.transfer_time(small)


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(payload=json_like)
@settings(max_examples=80)
def test_parcel_serialization_roundtrip(payload):
    assert deserialize(serialize(payload)) == payload
