"""End-to-end protocol paths: re-formation on head death, deferred plans,
energy-anomaly alerts, lossy-radio robustness, and a finished run's memory."""

import ast
import dataclasses
import gc

import pytest

import ubisim.engine
from ubisim import detection, model, reconfig, simkernel
from ubisim.cli import bundled_scenario_text, load_bundled_scenario
from ubisim.engine import Engine, EpisodeRecord, ServiceEpisode, run_scenario
from ubisim.metrics import build_report
from ubisim.model import EnergySpec, Status
from ubisim.reconfig import Outcome
from ubisim.scenario import InjectItem, WorkloadItem, parse_scenario
from ubisim.simkernel import Simulation

from conftest import two_node_scenario
from test_invariants import REROUTED_SEEDS, hostile_scenario_text
from test_stdlib_only import PACKAGE, parse_all
from test_trace_digests import BUNDLED

# Node 0 wins the election (500 > 499) and burns out serving its own
# 20-request standing workload around t=49; the survivors re-cluster under
# head 1 before the node-2 overload lands in window 5.
TRIANGLE = """
[services]
name=S capacity=34

[nodes]
id=0 energy=500
id=1 energy=499
id=2 energy=499

[edges]
a=0 b=1
a=0 b=2
a=1 b=2

[energy]
idle=1 tx=2 rx=1 request=5

[workload]
at=2 node=0 service=S n=20

[inject]
at=52 node=2 service=S load=40

[run]
ticks=80 window=10 mode=dynamic seed=3
"""


class TestHeadDepletionReformation:
    def test_members_rebind_and_correction_still_works(self):
        scenario = parse_scenario(TRIANGLE)
        engine = Engine(scenario)
        log = engine.run()
        sim = engine.sim
        assert sim.devices[0].status is Status.DEPLETED
        assert any(line.split()[3] == "depleted" for line in log.lines)
        # cluster re-formed: survivors 1 and 2 under head 1, dead singleton 0
        assert len(log.cluster_records) >= 3
        assert sim.head_of[2] == 1 and sim.head_of[1] == 1
        assert 2 in engine.agents and sim.head_of[2] == 1
        # the overload injected after the re-formation is still corrected
        (episode,) = log.episodes
        assert episode.head == 1 and episode.node == 2
        assert episode.outcome is Outcome.CORRECTED
        assert sim.devices[1].load["S"] == 6
        assert sim.devices[2].load["S"] == 34

    def test_exactly_one_agent_per_running_node(self):
        scenario = parse_scenario(TRIANGLE)
        engine = Engine(scenario)
        engine.run()
        running = {
            n for n, d in engine.sim.devices.items() if d.status is Status.RUNNING
        }
        assert running
        for n in running:
            assert n in engine.agents and engine.sim.head_of[n] == 1


# Head 2 (500 mJ) absorbs 3; head 0 starts at 0 mJ with its depleted member 1.
DEAD_HEAD = """
[services]
name=S capacity=34

[nodes]
id=0 energy=0
id=1 energy=0
id=2 energy=500
id=3 energy=400

[edges]
a=0 b=1
a=2 b=3

[energy]
idle=1 tx=2 rx=1 request=5

[run]
ticks=40 window=10 mode=dynamic seed=1
"""


class TestDepletedAtStart:
    def test_a_head_that_starts_depleted_gets_no_controller_and_no_agent(self):
        engine = Engine(parse_scenario(DEAD_HEAD))
        assert engine.controllers.keys() == {2}
        assert engine.agents == {2}
        engine.run()
        assert engine.controllers.keys() == {2}
        assert engine.agents == {2, 3}
        assert engine.sim.head_of == {0: 0, 2: 2, 3: 2}


class TestOneOwnerPerFact:
    # hostile seed 3 migrates load in static mode and loses arrivals to a
    # quiesced node; TRIANGLE re-forms its cluster after head 0 depletes;
    # hostile seed 37 plans six corrections and has depleted node-windows
    SCENARIOS = {
        "table3": bundled_scenario_text(),
        "hostile_3": hostile_scenario_text(3),
        "hostile_37": hostile_scenario_text(37),
        "triangle": TRIANGLE,
    }

    @pytest.mark.parametrize("name", ["table3", "hostile_3"])
    def test_demand_is_the_device_loads(self, name):
        # the benchmark gate reads ``sim.demand`` for its non-negative demand
        # check, so the name must give the device load dicts themselves
        engine = Engine(parse_scenario(self.SCENARIOS[name]))
        engine.run()
        sim = engine.sim
        assert sim.demand.keys() == sim.devices.keys()
        assert all(sim.demand[n] is dev.load for n, dev in sim.devices.items())

    @pytest.mark.parametrize("name", ["table3", "triangle"])
    def test_one_capacity_dict_per_node(self, name):
        engine = Engine(parse_scenario(self.SCENARIOS[name]))
        log = engine.run()
        if name == "triangle":
            assert len(log.cluster_records) >= 3 and 1 in engine.controllers
        capacities = engine.kb.capacities
        for n, dev in engine.sim.devices.items():
            assert dev.capacities is capacities[n], n
        assert engine.controllers
        for head, view in engine.controllers.items():
            for n, entry in view.entries.items():
                assert entry.capacities is capacities[n], (head, n)

    def test_the_scenario_records_are_the_run_records(self):
        scenario = parse_scenario(self.SCENARIOS["hostile_3"])
        engine = Engine(scenario)
        assert engine.sim.params is engine.kb.params is scenario.energy
        # the workload lines are scheduled, then the inject lines, each as parsed
        queued = [ev.payload for ev in sorted(engine.sim.queue, key=lambda ev: ev.seq)
                  if isinstance(ev.payload, (WorkloadItem, InjectItem))]
        expected = [*scenario.workload, *scenario.injections]
        assert scenario.workload and scenario.injections and len(queued) == len(expected)
        assert all(got is want for got, want in zip(queued, expected))
        # dispatch only reads them, so the same scenario replays
        first = engine.run().serialize()
        assert Engine(scenario).run().serialize() == first

    def test_a_migration_starts_a_new_served_sample(self):
        # node 1's window-1 overload moves 77 View requests to node 0 at t=21
        _report, log = run_scenario(two_node_scenario(200))
        dest, source = log.window_served[0], log.window_served[1]
        assert dest == [{"View": 0}, {"View": 0}, {"View": 77}]
        assert source == [{"View": 0}, {"View": 200}, {"View": 123}]
        assert dest[0] is dest[1] and dest[2] is not dest[1]
        assert len({id(sample) for sample in source}) == 3

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    @pytest.mark.parametrize("name", ["table3", "hostile_37"])
    def test_normal_verdicts_share_one_empty_overload_map(self, name, mode):
        scenario = parse_scenario(self.SCENARIOS[name])
        scenario.run.mode = mode
        _report, log = run_scenario(scenario)
        normal = [v for v in log.verdicts if not v.overloaded]
        assert normal and len(normal) < len(log.verdicts)
        assert all(v.overloaded is detection.NOTHING_OVERLOADED for v in normal)
        depleted = [s for served in log.window_served.values() for s in served
                    if s is simkernel.NOTHING_SERVED]
        assert bool(depleted) == (name == "hostile_37")
        # nothing filled either shared map in place
        assert detection.NOTHING_OVERLOADED == {} and simkernel.NOTHING_SERVED == {}


class TestStaleViewDeferral:
    def test_plan_deferred_until_view_refreshes(self):
        # reports only every 3 windows and zero staleness tolerance: the
        # lone peer's window-0 entry is stale at the window-1 and window-2
        # alerts, so planning waits for the head's window-3 report
        scenario = parse_scenario(
            "[services]\nname=View capacity=123\n"
            "[nodes]\nid=0\nid=1\n"
            "[edges]\na=0 b=1\n"
            "[inject]\nat=12 node=1 service=View load=124\n"
            "[run]\nticks=60 window=10 report_every=3 staleness_max=0 seed=1\n"
        )
        _report, log = run_scenario(scenario)
        defers = [line for line in log.lines if line.split()[3] == "defer"]
        assert len(defers) == 2  # windows 1 and 2
        (episode,) = log.episodes
        assert episode.window == 3
        assert episode.outcome is Outcome.CORRECTED

    def test_no_deferral_with_default_staleness(self):
        _report, log = run_scenario(load_bundled_scenario())
        assert not any(line.split()[3] == "defer" for line in log.lines)


class TestEnergyAnomalyAlerts:
    def test_unbudgeted_draw_alerts_without_migration(self):
        # zero message allowance turns routine report traffic into an
        # energy anomaly; alerts fire but plan nothing
        scenario = load_bundled_scenario()
        scenario.injections.clear()
        scenario.run.energy_tolerance = 0.0
        engine = Engine(scenario)
        engine.kb.msg_budget = {n: 0 for n in engine.kb.msg_budget}
        log = engine.run()
        anomalous = [v for v in log.verdicts if v.energy_anomaly is not None]
        assert anomalous
        assert all(v.alerted for v in anomalous)
        assert log.episodes == []  # no load to migrate

    def test_reference_run_has_no_energy_anomalies(self):
        _report, log = run_scenario(load_bundled_scenario())
        assert all(v.energy_anomaly is None for v in log.verdicts)


class TestLossyRadio:
    def test_full_loss_still_terminates_cleanly(self):
        scenario = load_bundled_scenario()
        scenario.run.drop = 1.0
        report, log = run_scenario(scenario)
        assert log.drops > 0
        assert report.alerts == 0  # agent deploys never arrived
        assert report.episodes == 0
        consumed = sum(
            log.initial_energy[n] - log.final_energy[n] for n in log.initial_energy
        )
        assert consumed == log.total_debited  # ledger still balances


class TestInjectionAlertCoupling:
    def test_every_qualifying_injection_alerts_in_its_window(self):
        from conftest import random_scenario_text

        for seed in (3, 17, 42, 88, 131):
            _report, log = run_scenario(parse_scenario(random_scenario_text(seed)))
            alerted = {(v.node, v.window): v for v in log.verdicts if v.alerted}
            for rec in log.injections:
                if not rec.above_baseline:
                    continue
                verdict = alerted.get((rec.node, rec.window))
                assert verdict is not None, (seed, rec)
                assert rec.service in verdict.overloaded, (seed, rec)


class TestReportEvery:
    def test_quiet_windows_skip_reports(self):
        scenario = load_bundled_scenario()
        scenario.injections.clear()
        scenario.run.report_every = 2
        scenario.run.ticks = 40
        _report, log = run_scenario(scenario)
        report_sends = [
            line for line in log.lines
            if line.split()[3] == "send" and "kind=report" in line
        ]
        # members report at windows 0 and 2 only: 5 members * 2 windows
        assert len(report_sends) == 10


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's collector setting, enabled or disabled, restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def assert_no_op_hooks(sim):
    no_op = Simulation([], EnergySpec()).on_boundary
    assert (sim.on_boundary, sim.on_message, sim.on_depleted) == (no_op,) * 3


class TestCollectorPause:
    def test_build_and_run_pause_and_restore_the_collector(self, collector, monkeypatch):
        seen = {"init": [], "run": []}
        form_clusters = ubisim.engine.form_clusters

        def spying_form_clusters(*args):
            seen["init"].append(gc.isenabled())
            return form_clusters(*args)

        monkeypatch.setattr(ubisim.engine, "form_clusters", spying_form_clusters)
        engine = Engine(load_bundled_scenario())
        assert gc.isenabled() is collector
        on_boundary = engine.sim.on_boundary

        def spying_on_boundary(window):
            seen["run"].append(gc.isenabled())
            on_boundary(window)

        engine.sim.on_boundary = spying_on_boundary
        engine.run()
        assert gc.isenabled() is collector
        assert seen == {"init": [False], "run": [False] * 4}
        assert_no_op_hooks(engine.sim)

    def test_raising_hook_restores_collector_and_hooks(self, collector, monkeypatch):
        def failing_on_boundary(self, window):
            raise RuntimeError("hook failed")

        monkeypatch.setattr(Engine, "_on_boundary", failing_on_boundary)
        engine = Engine(load_bundled_scenario())
        with pytest.raises(RuntimeError, match="hook failed"):
            engine.run()
        assert gc.isenabled() is collector
        assert_no_op_hooks(engine.sim)

    def test_staged_runs_keep_the_engine_hooks(self):
        engine = Engine(load_bundled_scenario())
        engine.sim.run_until(15)
        assert engine.sim.on_boundary == engine._on_boundary
        engine.run()
        assert_no_op_hooks(engine.sim)


@pytest.mark.parametrize("record", [
    simkernel.Event, simkernel.WindowBoundary, WorkloadItem, InjectItem,
    simkernel.Resume, simkernel.Message, simkernel.InjectionRecord,
    model.Activity, detection.Overload, detection.EnergyAnomaly, detection.BehaviorSample,
    detection.DetectionVerdict,
], ids=lambda cls: cls.__name__)
def test_per_node_window_records_have_slots(record):
    # made once per event or node-window: no per-instance __dict__
    assert "__slots__" in vars(record)


@pytest.mark.parametrize("record", [
    EpisodeRecord, ServiceEpisode, reconfig.ReconfigPlan, reconfig.MigrationDirective,
], ids=lambda cls: cls.__name__)
def test_per_alert_records_have_slots(record):
    # made once per alert: no per-instance __dict__
    assert "__slots__" in vars(record)


def test_migration_directive_stays_frozen_and_hashable():
    directive = reconfig.MigrationDirective("S", source=1, dest=2, amount=3)
    twin = reconfig.MigrationDirective("S", source=1, dest=2, amount=3)
    assert hash(directive) == hash(twin) and {directive, twin} == {directive}
    with pytest.raises(dataclasses.FrozenInstanceError):
        directive.amount = 4
    with pytest.raises(ValueError, match="amount must be >= 1"):
        reconfig.MigrationDirective("S", source=1, dest=2, amount=0)


# Seeds 0-59 of the hostile generator re-form clusters and defer plans on
# stale views; in the rerouted seeds a member's head depletes before the
# head's agent deploy reaches it.
GARBAGE_SEEDS = [*range(60), *REROUTED_SEEDS]
GARBAGE_TEXTS = {name: bundled_scenario_text(name) for name in sorted(BUNDLED)}
GARBAGE_TEXTS.update((f"hostile-{seed}", hostile_scenario_text(seed)) for seed in GARBAGE_SEEDS)


def garbage_scenario(name, mode):
    scenario = parse_scenario(GARBAGE_TEXTS[name])
    scenario.run.mode = mode
    return scenario


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("name", list(GARBAGE_TEXTS))
def test_finished_run_leaves_no_cyclic_garbage(name, mode):
    # reference counting alone must free a run, so the run can go without
    # the cyclic collector
    scenario = garbage_scenario(name, mode)
    gc.freeze()  # the collections below walk only what the run makes
    try:
        engine = Engine(scenario)
        log = engine.run()
        report = build_report(log)
        assert gc.collect() == 0  # nothing the run made became garbage
        del engine, log, report
        assert gc.collect() == 0  # and dropping it leaves no cycle behind
    finally:
        gc.unfreeze()


def emitted_kinds():
    """The kind argument of every ``emit`` call in the package; None for one
    that is not a string literal, which the guard cannot follow."""
    kinds = set()
    for tree in parse_all(sorted(PACKAGE.rglob("*.py"))).values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                kind = node.args[2]
                kinds.add(kind.value if isinstance(kind, ast.Constant) else None)
    return kinds


def test_garbage_runs_write_every_trace_kind_and_re_form():
    # a kind no run writes is a dead path; a cluster line after a depleted
    # line is a re-formation
    emitted = emitted_kinds()
    assert None not in emitted and {"cluster", "depleted", "plan"} <= emitted
    written, reformed = set(), False
    for name in GARBAGE_TEXTS:
        for mode in ("dynamic", "static"):
            _report, log = run_scenario(garbage_scenario(name, mode))
            line_kinds = [line.split()[3] for line in log.lines]
            written.update(line_kinds)
            if "depleted" in line_kinds:
                reformed |= "cluster" in line_kinds[line_kinds.index("depleted"):]
    assert emitted - written == set()
    assert reformed
