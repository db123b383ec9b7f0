import heapq
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.clustering import Cluster
from ubisim.engine import run_scenario
from ubisim.model import EnergySpec, Status
from ubisim.scenario import WorkloadItem, parse_scenario
from ubisim.simkernel import (
    NOTHING_SERVED,
    Event,
    Message,
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


def radio_lines(log, latency):
    """Multisets of (tick, sender, receiver, kind): each ``send`` line dated
    ``latency`` ticks after it was written, and each ``deliver`` line."""
    sent, delivered = Counter(), Counter()
    for tick, _seq, node, kind, *details in map(str.split, log.lines):
        if kind not in ("send", "deliver"):
            continue
        fields = dict(d.split("=", 1) for d in details)
        if kind == "send":
            sent[int(tick) + latency, int(node), int(fields["to"]), fields["kind"]] += 1
        else:
            delivered[int(tick), int(fields["from"]), int(node), fields["kind"]] += 1
    return sent, delivered


def in_flight(sim):
    """The radio messages still queued, keyed as ``radio_lines`` keys them."""
    return Counter((ev.time, ev.payload.sender, ev.payload.receiver, ev.payload.kind)
                   for ev in sim.queue if isinstance(ev.payload, Message))


def two_node_sim(**kw):
    devs = [
        make_device(0, capacities={"Print": 34}),
        make_device(1, capacities={"Print": 34}, neighbors={0}),
    ]
    devs[0].neighbors = {1}
    sim = Simulation(devs, EnergySpec(), **kw)
    sim.install_clusters([Cluster(head=0, members=frozenset({1}))])
    return sim


class TestQueueOrdering:
    def test_pops_earliest_time(self):
        sim = two_node_sim()
        sim.schedule(9, NOOP)
        sim.schedule(2, NOOP)
        ev = sim.step()
        assert ev.time == 2
        assert sim.clock == 2

    def test_fifo_within_tick(self):
        sim = two_node_sim()
        first = sim.schedule(5, NOOP)
        second = sim.schedule(5, NOOP)
        assert sim.step() is first
        assert sim.step() is second

    def test_schedule_builds_events_popped_in_time_seq_order(self):
        sim = two_node_sim()
        times = (6, 3, 6, 3, 9)
        payloads = [Resume(0) for _ in times]
        evs = [sim.schedule(t, p) for t, p in zip(times, payloads)]
        assert all(type(ev) is Event for ev in evs)
        assert [ev.time for ev in evs] == list(times)
        assert all(ev.payload is p for ev, p in zip(evs, payloads))
        seqs = [ev.seq for ev in evs]
        assert seqs == sorted(set(seqs))
        assert evs[0] == (6, seqs[0], payloads[0]) and evs[0]._fields == ("time", "seq", "payload")
        popped = [sim.step() for _ in evs]
        # earliest time first; within a tick, in the order scheduled
        assert [ev is want for ev, want in zip(popped, [evs[i] for i in (1, 3, 0, 2, 4)])] == [True] * 5
        assert sim.clock == 9 and sim.step() is None
        with pytest.raises(PastEvent):
            sim.schedule(8, NOOP)

    def test_idle_on_empty_queue(self):
        sim = two_node_sim()
        assert sim.step() is None
        assert sim.clock == 0

    def test_past_event_rejected(self):
        sim = two_node_sim()
        sim.schedule(7, NOOP)
        kept = sim.schedule(9, NOOP)
        sim.step()
        with pytest.raises(PastEvent):
            sim.schedule(3, NOOP)
        assert sim.queue == [kept]  # the rejected event left the queue as it was
        assert sim.step() is kept and sim.step() is None

    def test_processed_order_strictly_increasing(self):
        sim = two_node_sim()
        for t in (4, 1, 4, 9, 1):
            sim.schedule(t, NOOP)
        sim.run_until(50)
        order = event_lines(sim.log, "resume")
        assert [tick for tick, _seq in order] == [1, 1, 4, 4, 9]
        assert order == sorted(order)
        assert len(set(order)) == len(order)


# each op: ("schedule", delay) enqueues an event ``delay`` ticks after the
# clock; ("nested", delay) enqueues one whose dispatch enqueues another
# ``delay`` ticks after the clock at that dispatch; ("step", 0) takes one
QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "nested"]), st.integers(0, 3)),
        st.just(("step", 0)),
    ),
    max_size=60,
)


class TestCalendarQueue:
    """Dispatch order is exactly what a heap of (time, seq) gives."""

    @given(ops=QUEUE_OPS)
    @settings(deadline=None)
    def test_dispatch_order_equals_heapq(self, ops):
        sim = two_node_sim(horizon=1_000)
        ref = []  # heapq of the (time, seq) of each event scheduled and not yet popped
        want = []  # (time, seq) in heapq pop order

        def enqueue(delay, payload):
            ev = sim.schedule(sim.clock + delay, payload)
            heapq.heappush(ref, (ev.time, ev.seq))

        # a dispatched message carries the delay of the event it enqueues
        sim.on_message = lambda msg: enqueue(msg.payload, NOOP)
        for op, delay in ops:
            if op == "schedule":
                enqueue(delay, NOOP)
            elif op == "nested":
                enqueue(delay, Message(0, 1, "report", delay))
            else:
                ev = sim.step()
                if ref:
                    want.append(heapq.heappop(ref))
                    assert (ev.time, ev.seq) == want[-1] and sim.clock == ev.time
                else:
                    assert ev is None
        assert [(ev.time, ev.seq) for ev in sim.queue] == sorted(ref)
        sim.run_until(sim.horizon)
        want += [heapq.heappop(ref) for _ in range(len(ref))]
        rows = map(str.split, sim.log.lines)
        assert [(int(tick), int(seq)) for tick, seq, _node, kind, *_ in rows
                if kind in ("resume", "deliver")] == want

    def test_event_at_current_tick_during_dispatch_goes_last(self):
        sim = two_node_sim()
        first = sim.schedule(5, Message(0, 1, "report"))
        second = sim.schedule(5, Message(0, 1, "report"))
        later = sim.schedule(6, NOOP)
        added = []
        sim.on_message = lambda msg: added.append(sim.schedule(sim.clock, NOOP))
        assert sim.step() is first
        assert sim.queue == [second, added[0], later]
        assert sim.step() is second  # the tick's last queued event enqueues one more
        assert sim.queue == [added[0], added[1], later]
        assert [sim.step() for _ in range(3)] == [added[0], added[1], later]
        assert sim.clock == 6 and sim.step() is None

    def test_staged_run_until_resumes_pending_events(self):
        sim = two_node_sim()
        evs = [sim.schedule(t, NOOP) for t in (3, 30, 3, 31, 30)]
        sim.run_until(10)
        assert sim.clock == 3
        assert sim.queue == [evs[1], evs[4], evs[3]]
        late = sim.schedule(10, NOOP)  # at t_end, after the clock
        sim.run_until(30)
        assert sim.clock == 30 and sim.queue == [evs[3]]
        sim.run_until(40)
        assert sim.queue == [] and sim.step() is None
        assert event_lines(sim.log, "resume") == [
            (ev.time, ev.seq) for ev in (evs[0], evs[2], late, evs[1], evs[4], evs[3])]


class TestSend:
    def test_member_to_head_delivered_next_tick(self):
        sim = two_node_sim()
        seen = []
        sim.on_message = lambda msg: seen.append((sim.clock, msg))
        sim.send(1, 0, "report")
        sim.run_until(5)
        assert seen == [(1, Message(1, 0, "report"))]
        sent, delivered = radio_lines(sim.log, sim.latency)
        assert sent == delivered == Counter({(1, 1, 0, "report"): 1})

    def test_cross_cluster_unreachable(self):
        devs = [make_device(i, capacities={"P": 1}) for i in range(4)]
        devs[0].neighbors, devs[1].neighbors = {1}, {0}
        devs[2].neighbors, devs[3].neighbors = {3}, {2}
        sim = Simulation(devs, EnergySpec())
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

        scenario = parse_scenario(random_scenario_text(77))
        scenario.run.drop = 0.3
        engine = Engine(scenario)
        log = engine.run()
        kinds = [line.split()[3] for line in log.lines]
        sends = kinds.count("send")
        delivered = kinds.count("deliver")
        dropped = kinds.count("drop")
        queued = sum(in_flight(engine.sim).values())
        # every transmission either got a delivery event, an explicit drop
        # record, or is still in flight at the horizon
        assert dropped == log.drops
        assert sends == delivered + queued
        assert dropped > 0  # the 0.3 drop rate actually exercised the path


class TestRunUntil:
    def test_t_end_zero_processes_instant_events(self):
        sim = two_node_sim()
        sim.schedule(0, WindowBoundary(0))
        log = sim.run_until(0)
        assert event_lines(log, "boundary") == [(0, 1)]  # seq 0 is the cluster line

    def test_stops_before_later_events(self):
        sim = two_node_sim()
        sim.schedule(3, NOOP)
        sim.schedule(30, NOOP)
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
        sim.schedule(8, NOOP)
        sim.run_until(8)
        with pytest.raises(PastEvent):
            sim.run_until(2)


class TestArrivals:
    def test_arrival_feeds_load_and_demand(self):
        sim = two_node_sim()
        sim.schedule(2, WorkloadItem(2, 1, "Print", 7))
        sim.run_until(5)
        assert sim.devices[1].load["Print"] == 7

    def test_arrival_to_quiesced_is_lost(self):
        sim = two_node_sim()
        sim.devices[1].status = Status.QUIESCED
        sim.schedule(2, WorkloadItem(2, 1, "Print", 7))
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
        from ubisim.engine import Engine

        engine = Engine(parse_scenario(random_scenario_text(11)))
        log = engine.run()
        sent, delivered = radio_lines(log, engine.sim.latency)
        # each delivery is one send exactly ``latency`` ticks earlier; the
        # sends left over are the messages still queued at the horizon
        assert delivered
        assert sent == delivered + in_flight(engine.sim)


def test_window_boundary_resets_and_reseeds():
    sim = two_node_sim(horizon=20, window=10)
    sim.schedule(10, WindowBoundary(0))
    sim.schedule(3, WorkloadItem(3, 1, "Print", 4))
    sim.run_until(20)
    # the window-end bill archives every window it closes, window 1 too, whose
    # boundary is not scheduled; each window's draw starts again from zero,
    # and the load, which is the standing demand, carries over
    log = sim.log
    assert log.windows_completed == 2
    assert log.window_served[1] == [{"Print": 4}, {"Print": 4}]
    assert log.window_energy[1][0] == log.window_energy[1][1] > 0
    assert sum(log.window_energy[1]) == log.initial_energy[1] - log.final_energy[1]
    assert sim.devices[1].load == {"Print": 4}


def windowed_sim(windows):
    """``two_node_sim`` with a boundary closing each of ``windows`` 10-tick windows."""
    sim = two_node_sim(horizon=10 * windows, window=10)
    for k in range(windows):
        sim.schedule(10 * (k + 1), WindowBoundary(k))
    return sim


class TestServedSamples:
    """A node-window's served sample is kept once: a window that served
    what its node's last archived sample holds archives that same dict."""

    def test_equal_windows_share_one_sample_and_an_arrival_starts_another(self):
        sim = windowed_sim(5)
        sim.schedule(3, WorkloadItem(3, 1, "Print", 4))
        sim.schedule(15, WorkloadItem(15, 1, "Print", 0))  # changes nothing
        sim.schedule(25, WorkloadItem(25, 1, "Print", 2))
        sim.run_until(50)
        served = sim.log.window_served[1]
        assert served == [{"Print": 4}, {"Print": 4}, {"Print": 6}, {"Print": 6}, {"Print": 6}]
        assert served[0] is served[1] and served[2] is served[3] is served[4]
        assert served[1] is not served[2]
        assert all(sample is not sim.devices[1].load for sample in served)
        # node 0 served nothing in every window, which is one sample too
        assert sim.log.window_served[0][0] == {"Print": 0}
        assert all(s is sim.log.window_served[0][0] for s in sim.log.window_served[0])

    def test_quiesced_windows_share_their_zero_sample(self):
        sim = windowed_sim(5)
        sim.schedule(3, WorkloadItem(3, 1, "Print", 4))
        sim.run_until(12)
        sim.devices[1].status = Status.QUIESCED
        sim.schedule(42, Resume(1))  # after window 3's last tick
        sim.run_until(50)
        served = sim.log.window_served[1]
        assert served == [{"Print": 4}, {"Print": 0}, {"Print": 0}, {"Print": 0}, {"Print": 4}]
        assert served[1] is served[2] is served[3]
        assert served[4] is not served[0] and served[4] is not served[1]
        assert sim.devices[1].load == {"Print": 4}

    def test_depleted_windows_hold_the_one_empty_sample(self):
        # one idle mJ a tick: node 1 depletes at tick 14, node 2 at tick 4
        devs = [make_device(0), make_device(1, energy=15), make_device(2, energy=5)]
        sim = Simulation(devs, EnergySpec(), window=10, horizon=40)
        for k in range(4):
            sim.schedule(10 * (k + 1), WindowBoundary(k))
        sim.run_until(40)
        served = sim.log.window_served
        assert served[1][0] == {"Print": 0}
        assert all(s is NOTHING_SERVED for s in served[1][1:] + served[2])
        assert len(served[1]) == len(served[2]) == 4
        assert NOTHING_SERVED == {}
