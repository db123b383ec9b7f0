"""End-to-end protocol paths: re-formation on head death, deferred plans,
energy-anomaly alerts, lossy-radio robustness, and a finished run's memory."""

import gc

import pytest

import ubisim.engine
from ubisim import detection, model, simkernel
from ubisim.cli import bundled_scenario_text, load_bundled_scenario
from ubisim.engine import Engine, run_scenario
from ubisim.metrics import build_report
from ubisim.model import EnergySpec, Status
from ubisim.reconfig import Outcome
from ubisim.scenario import InjectItem, WorkloadItem, parse_scenario
from ubisim.simkernel import Simulation

from test_invariants import UNREACHABLE_SEEDS, hostile_scenario_text
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
        assert engine.agents[2].controller == 1
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
        assert running <= set(engine.agents)
        for n in running:
            agent = engine.agents[n]
            assert agent.host == n
            assert agent.controller == engine.sim.head_of[n]


class TestOneOwnerPerFact:
    # hostile seed 3 migrates load in static mode and loses arrivals to a
    # quiesced node; TRIANGLE re-forms its cluster after head 0 depletes
    SCENARIOS = {
        "table3": bundled_scenario_text(),
        "hostile_3": hostile_scenario_text(3),
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
    detection.DetectionAgent, detection.DetectionVerdict,
], ids=lambda cls: cls.__name__)
def test_per_node_window_records_have_slots(record):
    # made once per event or node-window: no per-instance __dict__
    assert "__slots__" in vars(record)


# Seeds 0-59 of the hostile generator re-form clusters and defer plans on
# stale views; the unreachable seeds also report to a depleted controller.
GARBAGE_SEEDS = [*range(60), *UNREACHABLE_SEEDS]
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


def test_garbage_runs_reach_reformation_defer_and_unreachable():
    kinds = set()
    for name in GARBAGE_TEXTS:
        for mode in ("dynamic", "static"):
            _report, log = run_scenario(garbage_scenario(name, mode))
            line_kinds = [line.split()[3] for line in log.lines]
            first_other = next(i for i, k in enumerate(line_kinds) if k != "cluster")
            if "cluster" in line_kinds[first_other:]:
                kinds.add("reformation")
            kinds.update(line_kinds)
    assert {"reformation", "defer", "unreachable"} <= kinds
