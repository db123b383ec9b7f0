import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.model import (
    Activity,
    DeviceUnavailable,
    EnergySpec,
    Status,
    UnknownService,
    apply_requests,
    consume_energy,
)

from conftest import make_device

TABLE_CAPS = {"Print": 34, "View": 123, "SendEmail": 10, "UpdateBDD": 50, "Scan": 8}


class TestApplyRequests:
    def test_adds_to_named_service(self):
        dev = make_device(capacities=TABLE_CAPS)
        apply_requests(dev, "Print", 50)
        assert dev.load["Print"] == 50

    def test_zero_requests_is_identity(self):
        dev = make_device(capacities=TABLE_CAPS)
        before = dict(dev.load)
        apply_requests(dev, "Scan", 0)
        assert dev.load == before

    def test_accumulates(self):
        dev = make_device(capacities=TABLE_CAPS)
        apply_requests(dev, "View", 100)
        apply_requests(dev, "View", 24)
        assert dev.load["View"] == 124

    def test_unknown_service(self):
        dev = make_device(capacities={"Print": 34})
        with pytest.raises(UnknownService):
            apply_requests(dev, "Fax", 1)

    @pytest.mark.parametrize("status", [Status.QUIESCED, Status.DEPLETED])
    def test_unavailable_device_rejects(self, status):
        dev = make_device(capacities=TABLE_CAPS, energy=1 if status is Status.QUIESCED else 0)
        dev.status = status
        with pytest.raises(DeviceUnavailable):
            apply_requests(dev, "Print", 1)

    def test_negative_count_rejected(self):
        dev = make_device()
        with pytest.raises(ValueError):
            apply_requests(dev, "Print", -1)

    @given(
        service=st.sampled_from(sorted(TABLE_CAPS)),
        n=st.integers(min_value=0, max_value=1000),
    )
    def test_only_named_entry_changes(self, service, n):
        dev = make_device(capacities=TABLE_CAPS)
        before = dict(dev.load)
        apply_requests(dev, service, n)
        for svc, old in before.items():
            if svc == service:
                assert dev.load[svc] == old + n
            else:
                assert dev.load[svc] == old


class TestConsumeEnergy:
    def test_idle_only_tick(self, params):
        dev = make_device(energy=1000)
        delta = consume_energy(dev, Activity(), params)
        assert delta == 1
        assert dev.energy_mj == 999

    def test_mixed_activity(self, params):
        # oracle: 1 idle + 3 requests * 5 + 2 tx * 2 + 1 rx * 1 = 21; 1000 mJ
        # cannot saturate, so the debit is the whole cost
        dev = make_device(energy=1000)
        act = Activity(requests_served={"Print": 3}, msgs_tx=2, msgs_rx=1)
        delta = consume_energy(dev, act, params)
        assert delta == 21
        assert dev.energy_mj == 979

    def test_saturates_and_depletes(self, params):
        dev = make_device(energy=5)
        act = Activity(requests_served={"Print": 3}, msgs_tx=2, msgs_rx=1)
        delta = consume_energy(dev, act, params)
        assert delta == 5  # only what was left
        assert dev.energy_mj == 0
        assert dev.status is Status.DEPLETED

    def test_depleted_device_rejected(self, params):
        dev = make_device(energy=0)
        with pytest.raises(DeviceUnavailable):
            consume_energy(dev, Activity(), params)

    def test_per_service_cost_override(self):
        params = EnergySpec(request={"Scan": 9}, request_default=5)
        act = Activity(requests_served={"Scan": 2, "Print": 1})
        dev = make_device(energy=1000)  # cannot saturate: the debit is the whole cost
        assert consume_energy(dev, act, params) == 1 + 18 + 5

    @given(
        activities=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=30,
        )
    )
    @settings(deadline=None)
    def test_monotonic_and_ledger_balanced(self, activities):
        params = EnergySpec()
        dev = make_device(energy=500)
        initial = dev.energy_mj
        debited = 0
        last = initial
        for served, tx, rx in activities:
            if dev.status is Status.DEPLETED:
                break
            debited += consume_energy(
                dev, Activity({"Print": served}, msgs_tx=tx, msgs_rx=rx), params
            )
            assert dev.energy_mj <= last
            last = dev.energy_mj
        assert initial - dev.energy_mj == debited
        assert (dev.energy_mj == 0) == (dev.status is Status.DEPLETED)


def test_device_state_invariants():
    with pytest.raises(ValueError):
        make_device(nid=3, neighbors={3})
    dev = make_device(energy=0)
    assert dev.status is Status.DEPLETED
