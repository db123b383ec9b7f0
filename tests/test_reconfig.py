import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.clustering import Cluster
from ubisim.detection import BehaviorSample, DetectionVerdict, KnowledgeBase, Overload
from ubisim.model import EnergySpec, Status
from ubisim.reconfig import (
    ClusterView,
    MigrationDirective,
    Outcome,
    ReconfigPlan,
    StaleView,
    ViewEntry,
    apply_dynamic,
    apply_static,
    correction_outcome,
    plan_reconfiguration,
    service_outcome,
)
from ubisim.simkernel import SenderDepleted, Simulation

from conftest import make_device


def view_of(caps_loads, head=0, window=1):
    """caps_loads: {node: (capacities, loads)} with loads observed at `window`."""
    entries = {
        n: ViewEntry(node=n, capacities=dict(caps), load=dict(loads), window=window)
        for n, (caps, loads) in caps_loads.items()
    }
    return ClusterView(head=head, entries=entries)


def verdict_of(node, overloads, window=1):
    return DetectionVerdict(
        node=node, window=window,
        overloaded={s: Overload(obs, base) for s, (obs, base) in overloads.items()},
    )


def brute_force_min_residual(excess, spares):
    """Minimum unallocated excess over every way of packing it into spares."""
    if excess == 0 or not spares:
        return excess
    best = excess
    first, rest = spares[0], list(spares[1:])
    for take in range(0, min(excess, first) + 1):
        best = min(best, brute_force_min_residual(excess - take, rest))
        if best == 0:
            return 0
    return best


class TestClusterView:
    def test_adjust_leaves_the_observed_dict_unchanged(self):
        # the observed dict is the node-window's served sample, shared with
        # the run log and with later windows of the node that served the same
        # load; a directive folded back must not rewrite it
        view = view_of({0: ({"S": 10}, {"S": 0}), 1: ({"S": 10}, {"S": 0})})
        served_0, served_1 = {"S": 14}, {"S": 2}
        view.observe(0, served_0, window=3)
        view.observe(1, served_1, window=3)
        view.adjust("S", source=0, dest=1, amount=4)
        assert served_0 == {"S": 14} and served_1 == {"S": 2}
        assert view.entries[0].load == {"S": 10} and view.entries[1].load == {"S": 6}


class TestPlanReconfiguration:
    def test_single_peer_absorbs_excess(self):
        view = view_of({
            0: ({"Print": 34}, {"Print": 14}),  # spare 20
            1: ({"Print": 34}, {"Print": 50}),
        })
        plan = plan_reconfiguration(view, verdict_of(1, {"Print": (50, 34)}), staleness_max=2)
        assert plan.directives == [MigrationDirective("Print", 1, 0, 16)]
        assert plan.residual == {"Print": 0}

    def test_no_overload_empty_plan(self):
        view = view_of({0: ({"Print": 34}, {"Print": 0})})
        verdict = DetectionVerdict(node=1, window=1, overloaded={})
        plan = plan_reconfiguration(view, verdict, staleness_max=2)
        assert not plan.directives and plan.residual == {}

    def test_saturation_leaves_residual(self):
        view = view_of({
            0: ({"Print": 10}, {"Print": 0}),  # total cluster spare 10
            1: ({"Print": 34}, {"Print": 50}),
        })
        plan = plan_reconfiguration(view, verdict_of(1, {"Print": (50, 34)}), staleness_max=2)
        assert sum(d.amount for d in plan.directives) == 10
        assert plan.residual == {"Print": 6}

    def test_destination_order_spare_desc_then_id(self):
        view = view_of({
            0: ({"S": 40}, {"S": 35}),   # spare 5
            1: ({"S": 40}, {"S": 60}),   # overloaded source
            2: ({"S": 40}, {"S": 30}),   # spare 10
            3: ({"S": 40}, {"S": 30}),   # spare 10, higher id
        })
        plan = plan_reconfiguration(view, verdict_of(1, {"S": (60, 40)}), staleness_max=2)
        assert [(d.dest, d.amount) for d in plan.directives] == [(2, 10), (3, 10)]

    def test_stale_view_raises_and_defers(self):
        view = view_of({
            0: ({"S": 10}, {"S": 0}),
            1: ({"S": 10}, {"S": 20}),
        }, window=1)
        verdict = verdict_of(1, {"S": (20, 10)}, window=9)
        with pytest.raises(StaleView):
            plan_reconfiguration(view, verdict, staleness_max=2)

    def test_no_peers_full_residual(self):
        view = view_of({1: ({"S": 10}, {"S": 20})})
        plan = plan_reconfiguration(view, verdict_of(1, {"S": (20, 10)}), staleness_max=2)
        assert not plan.directives
        assert plan.residual == {"S": 10}

    def test_deterministic_directive_list(self):
        rng = random.Random(3)
        caps_loads = {
            n: ({"A": rng.randint(0, 9), "B": rng.randint(0, 9)},
                {"A": rng.randint(0, 9), "B": rng.randint(0, 9)})
            for n in range(5)
        }
        view1, view2 = view_of(caps_loads), view_of(caps_loads)
        v = verdict_of(2, {"A": (9, 1), "B": (7, 2)})
        assert (plan_reconfiguration(view1, v, staleness_max=2).directives
                == plan_reconfiguration(view2, v, staleness_max=2).directives)

    def test_greedy_matches_exhaustive_brute_force(self):
        # all (excess, spare-vector) pairs over a small exhaustive space
        for excess in range(1, 9):
            for spares in itertools.product(range(5), repeat=3):
                caps_loads = {9: ({"S": 50}, {"S": 50 + excess})}
                for i, sp in enumerate(spares):
                    caps_loads[i] = ({"S": sp}, {"S": 0})
                view = view_of(caps_loads)
                verdict = verdict_of(9, {"S": (50 + excess, 50)})
                plan = plan_reconfiguration(view, verdict, staleness_max=2)
                expected = brute_force_min_residual(excess, list(spares))
                assert plan.residual["S"] == expected == max(0, excess - sum(spares))

    def test_never_overfills_destination(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 5)
            caps_loads = {
                i: ({"S": rng.randint(0, 10)}, {"S": rng.randint(0, 10)})
                for i in range(n)
            }
            src = rng.randrange(n)
            base = caps_loads[src][0]["S"]
            obs = base + rng.randint(1, 10)
            view = view_of(caps_loads)
            plan = plan_reconfiguration(view, verdict_of(src, {"S": (obs, base)}), staleness_max=2)
            got = {}
            for d in plan.directives:
                assert d.amount >= 1 and d.source == src and d.dest != src
                got[d.dest] = got.get(d.dest, 0) + d.amount
            for dest, amount in got.items():
                cap, load = caps_loads[dest][0]["S"], caps_loads[dest][1]["S"]
                assert load + amount <= cap

    @given(st.data())
    @settings(deadline=None)
    def test_directives_rank_peers_by_spare(self, data):
        services = ["A", "B", "C"]
        n = data.draw(st.integers(min_value=1, max_value=7), label="nodes")
        caps_loads = {
            i: ({s: data.draw(st.integers(0, 20)) for s in services},
                {s: data.draw(st.integers(0, 30)) for s in services})
            for i in range(n)
        }
        view = view_of(caps_loads)
        for entry in view.entries.values():
            entry.status = data.draw(st.sampled_from([Status.RUNNING, Status.DEPLETED]))
        src = data.draw(st.integers(0, n - 1), label="source")
        overloads = {
            s: (base + data.draw(st.integers(1, 40)), base)
            for s in data.draw(st.lists(st.sampled_from(services), min_size=1, unique=True))
            for base in [caps_loads[src][0][s]]
        }
        try:
            plan = plan_reconfiguration(view, verdict_of(src, overloads), staleness_max=2)
        except StaleView:
            return
        for svc, (obs, base) in overloads.items():
            directives = [d for d in plan.directives if d.service == svc]
            dests = [d.dest for d in directives]
            assert len(dests) == len(set(dests)), svc  # no peer named twice
            spares = [view.entries[d].spare(svc) for d in dests]
            ranks = [(-sp, d) for sp, d in zip(spares, dests)]
            assert ranks == sorted(ranks), svc  # descending spare, ties to the lower id
            assert all(d.amount <= sp for d, sp in zip(directives, spares))
            assert sum(d.amount for d in directives) + plan.residual[svc] == obs - base
            spare = sum(e.spare(svc) for e in view.entries.values()
                        if e.node != src and e.status is Status.RUNNING)
            assert plan.residual[svc] == max(0, obs - base - spare)


def cluster_sim(loads_by_node, caps=None):
    caps = caps or {"S": 40}
    devs = []
    ids = sorted(loads_by_node)
    for nid in ids:
        neighbors = {0} if nid != 0 else {i for i in ids if i != 0}
        dev = make_device(nid, capacities=caps, neighbors=neighbors)
        for s, n in loads_by_node[nid].items():
            dev.load[s] = n
        devs.append(dev)
    sim = Simulation(devs, EnergySpec())
    sim.install_clusters([Cluster(head=0, members=frozenset(i for i in ids if i != 0))])
    return sim


def plan_16():
    return ReconfigPlan(head=0, node=1, directives=[MigrationDirective("S", 1, 0, 16)],
                        residual={"S": 0})


class TestApplyDynamic:
    def test_moves_load_conserving_total(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        total_before = sum(d.load["S"] for d in sim.devices.values())
        plan = plan_16()
        executed = apply_dynamic(plan, sim)
        assert sim.devices[1].load["S"] == 34
        assert sim.devices[0].load["S"] == 16
        assert sum(d.load["S"] for d in sim.devices.values()) == total_before
        assert all(d.status is Status.RUNNING for d in sim.devices.values())
        assert executed == [(plan.directives[0], 16)]
        assert sim.demand[0]["S"] == 16 and sim.demand[1]["S"] == 34

    def test_empty_plan_is_noop(self):
        sim = cluster_sim({0: {"S": 3}, 1: {"S": 5}})
        before = {n: dict(d.load) for n, d in sim.devices.items()}
        plan = ReconfigPlan(head=0, node=1)
        apply_dynamic(plan, sim)
        assert {n: dict(d.load) for n, d in sim.devices.items()} == before
        assert not any(l.split()[3] == "send" for l in sim.log.lines)

    def test_depleted_destination_skipped(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}, 2: {"S": 0}})
        sim.devices[2].energy_mj = 0
        sim.devices[2].status = Status.DEPLETED
        plan = ReconfigPlan(head=0, node=1, directives=[MigrationDirective("S", 1, 2, 16)],
                            residual={"S": 0})
        executed = apply_dynamic(plan, sim)
        assert [l.split()[3] for l in sim.log.lines].count("skip") == 1
        assert executed == []
        assert sim.devices[1].load["S"] == 50

    def test_depleted_head_raises(self):
        # the engine plans only at a live head, so a dead one is a broken
        # routing invariant and must not be passed over in silence
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        with pytest.raises(SenderDepleted):
            apply_dynamic(plan_16(), sim)


class TestApplyStatic:
    def test_quiesces_then_resumes_with_downtime(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        plan = plan_16()
        executed = apply_static(plan, sim, quiesce_ticks=2)
        assert executed == [(plan.directives[0], 16)]
        assert sim.devices[0].status is Status.QUIESCED
        assert sim.devices[1].status is Status.QUIESCED
        assert sim.log.downtime == {0: 2, 1: 2}
        sim.run_until(5)  # the scheduled resumes fire at t=2
        assert sim.devices[0].status is Status.RUNNING
        assert sim.devices[1].status is Status.RUNNING

    def test_same_final_loads_as_dynamic(self):
        dyn = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        apply_dynamic(plan_16(), dyn)
        stat = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        apply_static(plan_16(), stat, quiesce_ticks=2)
        assert {n: d.load for n, d in dyn.devices.items()} == {
            n: d.load for n, d in stat.devices.items()
        }

    def test_arrival_during_quiesce_lost(self):
        from ubisim.scenario import WorkloadItem

        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        apply_static(plan_16(), sim, quiesce_ticks=2)
        sim.schedule(1, WorkloadItem(1, 1, "S", 5))
        sim.schedule(3, WorkloadItem(3, 1, "S", 7))  # after resume
        sim.run_until(5)
        assert sim.log.lost_requests == 5
        assert sim.devices[1].load["S"] == 34 + 7

    def test_empty_plan_quiesces_nothing(self):
        # a plan that found no peer spare: the whole excess is residual, and
        # nothing is written, quiesced, scheduled or sent
        sim = cluster_sim({0: {"S": 40}, 1: {"S": 45}})
        lines, queued = list(sim.log.lines), list(sim.queue)
        plan = ReconfigPlan(head=0, node=1, residual={"S": 5})
        assert apply_static(plan, sim, quiesce_ticks=2) == []
        assert sim.log.lines == lines
        assert sim.queue == queued
        assert all(d.status is Status.RUNNING for d in sim.devices.values())
        assert sum(sim.log.downtime.values()) == 0


def kb_for(node, baselines, window=10):
    return KnowledgeBase(
        capacities={node: baselines},
        params=EnergySpec(),
        window=window,
        energy_tolerance=0.10,
        msg_budget={node: 100},
    )


class TestCorrectionOutcome:
    def _post(self, node, observed):
        # ``kb_for``'s expected draw: 10 idle ticks at 1 mJ, 5 mJ a request and
        # the 100 mJ message budget
        return BehaviorSample(node=node, window=2, observed=observed,
                              energy_drawn=10 + 5 * sum(observed.values()) + 100)

    def _judge(self, observed):
        """(remaining excess, episode outcome) for node 1 overloaded 50/34."""
        kb = kb_for(1, {"S": 34})
        verdict = verdict_of(1, {"S": (50, 34)})
        remaining = correction_outcome(self._post(1, observed), kb)
        before = sum(o.excess for o in verdict.overloaded.values())
        return remaining, service_outcome(before, sum(remaining.values()))

    def test_fully_migrated_corrected(self):
        assert self._judge({"S": 34}) == ({}, Outcome.CORRECTED)

    def test_partial_when_excess_shrinks(self):
        assert self._judge({"S": 40}) == ({"S": 6}, Outcome.PARTIAL)

    def test_failed_when_nothing_moved(self):
        assert self._judge({"S": 50}) == ({"S": 16}, Outcome.FAILED)

    def test_service_outcome_thresholds(self):
        assert service_outcome(16, 0) is Outcome.CORRECTED
        assert service_outcome(16, 6) is Outcome.PARTIAL
        assert service_outcome(16, 16) is Outcome.FAILED
        assert service_outcome(16, 20) is Outcome.FAILED
