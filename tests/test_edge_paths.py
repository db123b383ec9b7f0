"""Contract-level edge branches: dead letters, directive degradation, kernel
construction guards, and parser error variants."""

import pytest

from ubisim.clustering import Cluster
from ubisim.model import EnergySpec, Status
from ubisim.reconfig import MigrationDirective, ReconfigPlan, apply_dynamic
from ubisim.scenario import (
    MalformedLine,
    NegativeValue,
    UnknownService,
    parse_scenario,
)
from ubisim.simkernel import Simulation, Unreachable

from conftest import make_device
from test_reconfig import cluster_sim


class TestKernelGuards:
    def test_self_addressed_send_unreachable(self):
        # a node's own report goes through local_deliver, never the radio
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 0}})
        lines = list(sim.log.lines)
        owed = {node: list(entry) for node, entry in sim._owed.items()}
        for node in (0, 1):
            with pytest.raises(Unreachable):
                sim.send(node, node, "report")
        assert sim.log.lines == lines
        assert sim.queue == [] and sim._owed == owed  # no radio owed, no margin spent

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Simulation([make_device(0)], EnergySpec(), window=0)
        with pytest.raises(ValueError):
            Simulation([make_device(0)], EnergySpec(), latency=0)
        with pytest.raises(ValueError):
            Simulation([make_device(0), make_device(0)], EnergySpec())

    def test_delivery_to_depleted_receiver_dead_letters(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 0}})
        sim.send(1, 0, "report")
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        sim.run_until(5)
        assert sim.log.dead_letters == 1
        assert any(l.split()[3] == "dead_letter" for l in sim.log.lines)

    def test_self_reachability_false(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 0}})
        assert not sim.reachable(0, 0)

    def test_resume_on_running_device_is_noop(self):
        from ubisim.simkernel import Resume

        sim = cluster_sim({0: {"S": 0}, 1: {"S": 0}})
        sim.schedule(2, Resume(1))
        sim.run_until(3)
        assert sim.devices[1].status is Status.RUNNING


class TestModelGuards:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            make_device(-1)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            make_device(0, energy=-1)


class TestClusterGuards:
    def test_head_cannot_be_member(self):
        with pytest.raises(ValueError):
            Cluster(head=1, members=frozenset({1, 2}))

    def test_elect_head_needs_candidates(self):
        from ubisim.clustering import elect_head

        with pytest.raises(ValueError):
            elect_head(set(), {})


class TestDirectiveDegradation:
    def test_depleted_source_skipped(self):
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 50}})
        sim.devices[1].energy_mj = 0
        sim.devices[1].status = Status.DEPLETED
        plan = ReconfigPlan(head=0, node=1, directives=[MigrationDirective("S", 1, 0, 16)],
                            residual={"S": 0})
        executed = apply_dynamic(plan, sim)
        assert [l.split()[3] for l in sim.log.lines].count("skip") == 1
        assert executed == []

    def test_source_load_below_directive_amount(self):
        # the plan was made against a stale view; only what exists moves
        sim = cluster_sim({0: {"S": 0}, 1: {"S": 10}})
        plan = ReconfigPlan(head=0, node=1, directives=[MigrationDirective("S", 1, 0, 16)],
                            residual={"S": 0})
        executed = apply_dynamic(plan, sim)
        assert executed == [(plan.directives[0], 10)]
        assert sim.devices[1].load["S"] == 0

    def test_directive_validation(self):
        with pytest.raises(ValueError):
            MigrationDirective("S", 1, 1, 5)
        with pytest.raises(ValueError):
            MigrationDirective("S", 1, 2, 0)


class TestHeadLostWithoutRebind:
    def test_reports_to_a_silently_lost_head_are_dead_lettered(self):
        # a head that vanishes without the depletion hook firing (e.g. a
        # crash) is not re-formed: the registry still names it, so its
        # members' reports go out to it and are dead-lettered on arrival
        from ubisim.cli import load_bundled_scenario
        from ubisim.engine import Engine
        from test_invariants import in_flight

        engine = Engine(load_bundled_scenario())
        sim = engine.sim
        sim.run_until(15)
        lost = sim.energy(0)
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        log = sim.run_until(40)
        assert log.windows_completed == 4
        later = [l.split() for l in log.lines if int(l.split()[0]) >= 15]
        sends = [l for l in later if l[3] == "send"]
        assert len(sends) == 15 and all(l[4] == "to=0" for l in sends)
        assert log.dead_letters == 10
        assert len(sends) == log.dead_letters + in_flight(log, 1, 40)
        assert not any(l[3] in ("plan", "cluster") for l in later)
        assert len(log.cluster_records) == 1
        assert all(sim.head_of[n] == 0 for n in sim.devices)
        consumed = sum(log.initial_energy[n] - log.final_energy[n] for n in log.initial_energy)
        assert consumed == log.total_debited + lost


PARSER_ERRORS = [
    ("[services]\nname=P capacity=1 capacity=2\n", MalformedLine),   # dup field
    ("[services]\ncapacity=2\n", MalformedLine),                     # missing name
    ("[services]\nname=P capacity=1 bogus=3\n", MalformedLine),      # unknown field
    ("[services\nname=P\n", MalformedLine),                          # bad header
    ("[services]\nname=P capacity=x\n", MalformedLine),              # bad int
    ("[services]\nname=P capacity=1\n[services]\nname=P capacity=2\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[energy]\nrequest.Q=4\n", UnknownService),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[run]\nticks=10 window=10 drop=-0.5\n", NegativeValue),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[run]\nticks=10 window=10 drop=1.5\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[run]\nticks=10 window=10 latency=0\n", NegativeValue),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[edges]\na=0\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[edges]\na=0 b=0\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[workload]\nat=1 node=0 service=P\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[workload]\nat=1 node=3 service=P n=1\n", MalformedLine),
    ("[services]\nname=P capacity=1\n[nodes]\nid=0\n[inject]\nat=1 node=0 service=P load=-2\n", NegativeValue),
]


@pytest.mark.parametrize("text,exc", PARSER_ERRORS)
def test_parser_error_variants(text, exc):
    with pytest.raises(exc) as info:
        parse_scenario(text)
    assert info.value.line >= 0
