import pytest

from ubisim.clustering import Cluster
from ubisim.engine import run_scenario
from ubisim.model import EnergyParams, Status
from ubisim.scenario import parse_scenario
from ubisim.simkernel import (
    KERNEL,
    Arrival,
    PastEvent,
    Resume,
    SenderDepleted,
    Simulation,
    Unreachable,
    WindowBoundary,
)

from conftest import make_device, random_scenario_text


# node 0 is running, so resuming it changes nothing: an event with no effect
NOOP = Resume(0)


def event_lines(log, kind):
    """(tick, seq) of each dispatched event of ``kind``, in trace order."""
    rows = [line.split() for line in log.serialize().splitlines()]
    return [(int(r[0]), int(r[1])) for r in rows if r[3] == kind]


def two_node_sim(**kw):
    devs = [
        make_device(0, capacities={"Print": 34}),
        make_device(1, capacities={"Print": 34}, neighbors={0}),
    ]
    devs[0].neighbors = {1}
    sim = Simulation(devs, EnergyParams(), **kw)
    sim.install_clusters([Cluster(head=0, members=frozenset({1}))])
    return sim


class TestQueueOrdering:
    def test_pops_earliest_time(self):
        sim = two_node_sim()
        sim.schedule(9, 0, NOOP)
        sim.schedule(2, 0, NOOP)
        ev = sim.step()
        assert ev.time == 2
        assert sim.clock == 2

    def test_fifo_within_tick(self):
        sim = two_node_sim()
        first = sim.schedule(5, 0, NOOP)
        second = sim.schedule(5, 0, NOOP)
        assert sim.step() is first
        assert sim.step() is second

    def test_idle_on_empty_queue(self):
        sim = two_node_sim()
        assert sim.step() is None
        assert sim.clock == 0

    def test_past_event_rejected(self):
        sim = two_node_sim()
        sim.schedule(7, 0, NOOP)
        sim.step()
        with pytest.raises(PastEvent):
            sim.schedule(3, 0, NOOP)

    def test_processed_order_strictly_increasing(self):
        sim = two_node_sim()
        for t in (4, 1, 4, 9, 1):
            sim.schedule(t, 0, NOOP)
        sim.run_until(50)
        order = event_lines(sim.log, "resume")
        assert [tick for tick, _seq in order] == [1, 1, 4, 4, 9]
        assert order == sorted(order)
        assert len(set(order)) == len(order)


class TestSend:
    def test_member_to_head_delivered_next_tick(self):
        sim = two_node_sim()
        seen = []
        sim.on_message = lambda msg: seen.append((sim.clock, msg))
        sim.send(1, 0, "report")
        sim.run_until(5)
        assert len(seen) == 1
        tick, msg = seen[0]
        assert tick == msg.sent_at + 1 == 1

    def test_cross_cluster_unreachable(self):
        devs = [make_device(i, capacities={"P": 1}) for i in range(4)]
        devs[0].neighbors, devs[1].neighbors = {1}, {0}
        devs[2].neighbors, devs[3].neighbors = {3}, {2}
        sim = Simulation(devs, EnergyParams())
        sim.install_clusters([Cluster(0, frozenset({1})), Cluster(2, frozenset({3}))])
        with pytest.raises(Unreachable):
            sim.send(1, 2, "report")
        with pytest.raises(Unreachable):  # head-to-head disallowed too
            sim.send(0, 2, "report")

    def test_depleted_sender(self):
        sim = two_node_sim()
        sim.devices[1].energy_mj = 0
        sim.devices[1].status = Status.DEPLETED
        with pytest.raises(SenderDepleted):
            sim.send(1, 0, "report")

    def test_every_tx_matches_rx_or_drop(self):
        from ubisim.engine import Engine
        from ubisim.simkernel import Message

        scenario = parse_scenario(random_scenario_text(77))
        scenario.run.drop = 0.3
        engine = Engine(scenario)
        log = engine.run()
        kinds = [line.split()[3] for line in log.lines]
        sends = kinds.count("send")
        delivered = kinds.count("deliver")
        dropped = kinds.count("drop")
        in_flight = sum(
            1 for _, _, ev in engine.sim.queue if isinstance(ev.payload, Message)
        )
        # every transmission either got a delivery event, an explicit drop
        # record, or is still in flight at the horizon
        assert dropped == log.drops
        assert sends == delivered + in_flight
        assert dropped > 0  # the 0.3 drop rate actually exercised the path


class TestRunUntil:
    def test_t_end_zero_processes_instant_events(self):
        sim = two_node_sim()
        sim.schedule(0, KERNEL, WindowBoundary(0))
        log = sim.run_until(0)
        assert event_lines(log, "boundary") == [(0, 1)]  # seq 0 is the cluster line

    def test_stops_before_later_events(self):
        sim = two_node_sim()
        sim.schedule(3, 0, NOOP)
        sim.schedule(30, 0, NOOP)
        sim.run_until(10)
        assert sim.clock == 3
        assert len(sim.queue) == 1

    def test_idle_energy_accrues_lazily(self):
        # 100-tick horizon with no events after t=0: every tick still billed
        sim = two_node_sim(horizon=100, window=10)
        log = sim.run_until(100)
        for nid in (0, 1):
            assert log.initial_energy[nid] - log.final_energy[nid] == 100

    def test_past_t_end_rejected(self):
        sim = two_node_sim()
        sim.schedule(8, 0, NOOP)
        sim.run_until(8)
        with pytest.raises(PastEvent):
            sim.run_until(2)


class TestArrivals:
    def test_arrival_feeds_load_and_demand(self):
        sim = two_node_sim()
        sim.schedule(2, 1, Arrival(1, "Print", 7))
        sim.run_until(5)
        assert sim.devices[1].load["Print"] == 7

    def test_arrival_to_quiesced_is_lost(self):
        sim = two_node_sim()
        sim.devices[1].status = Status.QUIESCED
        sim.schedule(2, 1, Arrival(1, "Print", 7))
        sim.run_until(5)
        assert sim.log.lost_requests == 7
        assert sim.devices[1].load["Print"] == 0


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        import hashlib

        text = random_scenario_text(5)
        a = run_scenario(parse_scenario(text))[1].serialize()
        b = run_scenario(parse_scenario(text))[1].serialize()
        assert a == b
        assert hashlib.sha256(a.encode()).hexdigest() == hashlib.sha256(b.encode()).hexdigest()

    def test_different_drop_seed_changes_behavior_not_validity(self):
        text = random_scenario_text(5)
        s1 = parse_scenario(text)
        s1.run.drop = 0.5
        s2 = parse_scenario(text)
        s2.run.drop = 0.5
        s2.run.seed += 1
        a = run_scenario(s1)[1]
        b = run_scenario(s2)[1]
        assert a.serialize()  # both runs complete
        assert b.serialize()

    def test_no_delivery_before_send(self):
        scenario = parse_scenario(random_scenario_text(11))
        from ubisim.engine import Engine

        engine = Engine(scenario)
        deliveries = []
        inner = engine.sim.on_message
        sim = engine.sim

        def spy(msg):
            if hasattr(msg, "sent_at"):
                deliveries.append((sim.clock, msg.sent_at))
            inner(msg)

        sim.on_message = spy
        engine.run()
        assert deliveries
        assert all(tick >= sent + 1 for tick, sent in deliveries)


def test_window_boundary_resets_and_reseeds():
    sim = two_node_sim(horizon=20, window=10)
    sim.schedule(10, KERNEL, WindowBoundary(0))
    sim.schedule(3, 1, Arrival(1, "Print", 4))
    sim.run_until(20)
    # served snapshot archived; the load, which is the standing demand, carries over
    assert sim.log.window_served[1] == [{"Print": 4}]
    assert sim.devices[1].load == {"Print": 4}
