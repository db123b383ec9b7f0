import itertools
import math
from fractions import Fraction

import pytest

from ubisim.clustering import form_clusters
from ubisim.detection import (
    BehaviorSample,
    DetectionVerdict,
    EnergyAnomaly,
    KnowledgeBase,
    Overload,
    UnknownNode,
    build_knowledge_base,
    collect,
    control_compare,
    report_alert,
)
from ubisim.engine import Engine, run_scenario
from ubisim.model import EnergySpec, Status
from ubisim.scenario import MissingCapacity, parse_scenario

from ubisim.cli import load_bundled_scenario

from conftest import TWO_NODE_SCENARIO

TABLE_BASELINES = {"Print": 34, "View": 123, "SendEmail": 10, "UpdateBDD": 50, "Scan": 8}
TABLE_OVERLOADS = {"Print": 50, "View": 124, "SendEmail": 21, "UpdateBDD": 56, "Scan": 30}


def simple_kb(baselines=None, node=1, window=10, budget=0, tolerance=0.10):
    baselines = baselines or TABLE_BASELINES
    return KnowledgeBase(
        capacities={node: baselines},
        params=EnergySpec(),
        window=window,
        msg_budget={node: budget},
        energy_tolerance=tolerance,
    )


def scenario_kb(scenario):
    """The knowledge base an Engine builds for ``scenario``."""
    energies = {n.id: n.energy for n in scenario.nodes}
    clusters = form_clusters(energies, scenario.topology().neighbors)
    return build_knowledge_base(scenario, scenario.capacities(), clusters)


def sample_for(observed, node=1, window=1, drawn=None, kb=None):
    kb = kb or simple_kb(node=node)
    if drawn is None:  # the expected draw: idle window, served requests, message budget
        p = kb.params
        drawn = (kb.window * p.idle
                 + sum(p.request.get(s, p.request_default) * n for s, n in observed.items())
                 + kb.msg_budget.get(node, 0))
    return BehaviorSample(node=node, window=window, observed=dict(observed), energy_drawn=drawn)


class TestBuildKnowledgeBase:
    def test_table_defaults(self):
        kb = scenario_kb(load_bundled_scenario())
        for node in range(6):
            for svc, cap in TABLE_BASELINES.items():
                assert kb.baseline_for(node, svc) == cap

    def test_per_node_override_wins(self):
        scenario = parse_scenario(
            "[services]\nname=Print capacity=34\n"
            "[nodes]\nid=0 cap.Print=40\nid=1\n"
            "[edges]\na=0 b=1\n"
            "[run]\nticks=10 window=10\n"
        )
        kb = scenario_kb(scenario)
        assert kb.baseline_for(0, "Print") == 40
        assert kb.baseline_for(1, "Print") == 34

    def test_missing_capacity(self):
        scenario = parse_scenario(
            "[services]\nname=Print\n"  # no default capacity
            "[nodes]\nid=0 cap.Print=40\nid=1\n"
            "[edges]\na=0 b=1\n"
            "[run]\nticks=10 window=10\n"
        )
        with pytest.raises(MissingCapacity):
            scenario.capacities()
        with pytest.raises(MissingCapacity):
            Engine(scenario)

    def test_message_budget_from_cluster_shape(self):
        kb = scenario_kb(load_bundled_scenario())
        # head 0 has five members; per-message allowance is tx+rx = 3
        assert kb.msg_budget[0] == 15
        assert all(kb.msg_budget[m] == 3 for m in range(1, 6))


class TestCollect:
    def test_packages_served_window(self):
        sample = collect(1, 1, {"Print": 50}, 262)
        assert sample.node == 1 and sample.window == 1
        assert sample.observed == {"Print": 50}
        assert sample.energy_drawn == 262

    def test_idle_window_energy_is_idle_ticks(self):
        # one isolated node, no workload: window energy = window * idle
        scenario = parse_scenario(
            "[services]\nname=Print capacity=34\n"
            "[nodes]\nid=0\n"
            "[energy]\nidle=1 tx=2 rx=1 request=5\n"
            "[run]\nticks=10 window=10\n"
        )
        _report, log = run_scenario(scenario)
        assert log.window_energy[0] == [10]
        assert log.window_served[0] == [{"Print": 0}]

    def test_served_requests_add_per_request_cost(self):
        # 3 requests at 5 mJ over a 10-tick idle window -> 25 mJ
        scenario = parse_scenario(
            "[services]\nname=Print capacity=34\n"
            "[nodes]\nid=0\n"
            "[energy]\nidle=1 tx=2 rx=1 request=5\n"
            "[workload]\nat=3 node=0 service=Print n=3\n"
            "[run]\nticks=10 window=10\n"
        )
        _report, log = run_scenario(scenario)
        assert log.window_energy[0] == [25]
        assert log.window_served[0] == [{"Print": 3}]


class TestControlCompare:
    def test_full_overload_row_detected(self):
        kb = simple_kb()
        verdict = control_compare(sample_for(TABLE_OVERLOADS), kb)
        assert set(verdict.overloaded) == set(TABLE_BASELINES)
        for svc, o in verdict.overloaded.items():
            assert o == Overload(TABLE_OVERLOADS[svc], TABLE_BASELINES[svc])
        assert verdict.energy_anomaly is None

    def test_overloaded_is_computed_once(self):
        kb = simple_kb()
        verdict = control_compare(sample_for(TABLE_OVERLOADS), kb)
        fresh = control_compare(sample_for(TABLE_OVERLOADS), kb)
        # ``overloaded`` is a field control_compare fills, not a property
        assert not isinstance(DetectionVerdict.overloaded, property)
        assert verdict.alerted
        # the cached ``alerted`` is not compared: equality and repr ignore it
        assert verdict == fresh and repr(verdict) == repr(fresh)

    def test_boundary_at_baseline_is_normal(self):
        kb = simple_kb()
        verdict = control_compare(sample_for({"Print": 34}), kb)
        assert verdict.overloaded == {}
        verdict = control_compare(sample_for({"Print": 35}), kb)
        assert verdict.overloaded == {"Print": Overload(35, 34)}

    def test_all_zero_all_normal(self):
        kb = simple_kb()
        verdict = control_compare(sample_for({s: 0 for s in TABLE_BASELINES}), kb)
        assert verdict.overloaded == {} and verdict.energy_anomaly is None
        assert not verdict.alerted

    def test_unknown_node(self):
        kb = simple_kb(node=1)
        with pytest.raises(UnknownNode):
            control_compare(sample_for({"Print": 0}, node=9, drawn=0), kb)

    def test_verdict_is_pure(self):
        kb = simple_kb()
        s = sample_for(TABLE_OVERLOADS)
        assert control_compare(s, kb) == control_compare(s, kb)

    def test_exhaustive_against_threshold_oracle(self):
        # every observed vector with entries in 0..2*baseline, two services
        baselines = {"A": 3, "B": 4}
        kb = simple_kb(baselines)
        for a, b in itertools.product(range(7), range(9)):
            observed = {"A": a, "B": b}
            verdict = control_compare(sample_for(observed, kb=kb), kb)
            expected = {s for s in observed if observed[s] > baselines[s]}
            assert set(verdict.overloaded) == expected
            if a <= 3 and b <= 4:
                assert not verdict.overloaded  # no false positives at/below

    def test_energy_anomaly_strictly_above_tolerance(self):
        kb = simple_kb({"Print": 34}, window=10, budget=0, tolerance=0.10)
        observed = {"Print": 2}
        # expected: 10 idle ticks at 1 mJ and two requests at 5 mJ, 20 mJ
        ok = control_compare(sample_for(observed, drawn=22, kb=kb), kb)
        assert ok.energy_anomaly is None  # 22 == 20 * 1.1 exactly: not strict
        bad = control_compare(sample_for(observed, drawn=23, kb=kb), kb)
        assert bad.energy_anomaly == EnergyAnomaly(drawn=23, expected=20)
        assert bad.alerted


# (tolerance, expected, limit): ``expected * (1.0 + tolerance)`` in floats
# falls just below the exact limit in every row
ENERGY_LIMITS = [
    (0.15, 100, 115),
    (0.13, 100, 113),
    (0.16, 25, 29),
    (0.17, 1700, 1989),
    (0.57, 100, 157),
]


class TestEnergyBoundary:
    """The energy limit is exact: a draw at ``expected * (1 + tolerance)`` is
    normal and one millijoule above it is anomalous, like AC2's overload."""

    @staticmethod
    def verdict(tolerance, expected, drawn):
        # an idle window of ``expected`` ticks at 1 mJ a tick
        kb = simple_kb({"Print": 34}, window=expected, budget=0, tolerance=tolerance)
        assert kb.window * kb.params.idle + kb.msg_budget[1] == expected
        return control_compare(sample_for({"Print": 0}, drawn=drawn, kb=kb), kb)

    @pytest.mark.parametrize("tolerance,expected,limit", ENERGY_LIMITS)
    def test_limit_is_normal_one_above_is_anomalous(self, tolerance, expected, limit):
        assert self.verdict(tolerance, expected, limit).energy_anomaly is None
        above = self.verdict(tolerance, expected, limit + 1)
        assert above.energy_anomaly == EnergyAnomaly(drawn=limit + 1, expected=expected)

    @pytest.mark.parametrize("tolerance", [0.0, 0.1, 0.13, 0.15, 0.16, 0.25, 0.57, 1.5])
    def test_matches_exact_decimal_oracle(self, tolerance):
        exact = 1 + Fraction(str(tolerance))
        for expected in range(1, 401):
            limit = expected * exact
            for drawn in (math.floor(limit), math.floor(limit) + 1):
                verdict = self.verdict(tolerance, expected, drawn)
                assert (verdict.energy_anomaly is not None) == (drawn > limit), (expected, drawn)

    def test_parsed_tolerance_reaches_the_comparison(self):
        text = TWO_NODE_SCENARIO.format(load=0).replace(
            "ticks=30 window=10", "ticks=97 window=97 energy_tolerance=0.15")
        kb = Engine(parse_scenario(text)).kb
        observed = {"View": 0}
        # expected: 97 idle ticks plus the member's 3 mJ message allowance
        assert (kb.window * kb.params.idle, kb.msg_budget[1]) == (97, 3)
        ok = control_compare(sample_for(observed, drawn=115, kb=kb), kb)
        assert ok.energy_anomaly is None
        bad = control_compare(sample_for(observed, drawn=116, kb=kb), kb)
        assert bad.energy_anomaly == EnergyAnomaly(drawn=116, expected=100)


class TestKnowledgeBaseIndex:
    """A KnowledgeBase built straight from a capacities mapping, as the tests do."""

    CAPACITIES = {
        0: {"Print": 34, "View": 123},
        2: {"View": 7},
        5: {"Scan": 8, "Print": 3, "View": 0},
    }

    def _kb(self):
        return KnowledgeBase(capacities=self.CAPACITIES, params=EnergySpec(), window=10)

    def test_unknown_node_still_raises(self):
        kb = self._kb()
        for node in (1, 3, 4, 6, -1):
            with pytest.raises(UnknownNode):
                control_compare(BehaviorSample(node, 1, {}, 0), kb)

    def test_known_nodes_match_baseline_oracle(self):
        kb = self._kb()
        for node in (0, 2, 5):
            services = sorted(self.CAPACITIES[node])
            for loads in itertools.product(range(0, 40, 3), repeat=len(services)):
                observed = dict(zip(services, loads))
                verdict = control_compare(BehaviorSample(node, 1, observed, 0), kb)
                expected = {}
                for svc, load in observed.items():
                    base = self.CAPACITIES[node][svc]
                    if load > base:
                        expected[svc] = Overload(load, base)
                # only the overloaded services, in the sample's order
                assert list(verdict.overloaded.items()) == list(expected.items())

    def test_baseline_is_read_once_into_the_index(self):
        kb = self._kb()
        assert not hasattr(kb, "baseline")
        for node, caps in self.CAPACITIES.items():
            for svc, cap in caps.items():
                assert kb.baseline_for(node, svc) == cap
        with pytest.raises(KeyError):
            kb.baseline_for(2, "Print")


# Per-service tables of (observed, baseline), with normal services among
# them, and the repr of the verdict each compares to. ``drawn`` is the
# window's energy draw against an expectation of 100 mJ when nothing is served.
VERDICT_REPRS = [
    (dict(node=1, window=0, loads={"View": (0, 123)}),
     "DetectionVerdict(node=1, window=0, overloaded={}, energy_anomaly=None)"),
    (dict(node=1, window=0, loads={"View": (124, 123)}),
     "DetectionVerdict(node=1, window=0, overloaded={'View': Overload(observed=124, "
     "baseline=123)}, energy_anomaly=None)"),
    (dict(node=1, window=0, loads={"View": (0, 123)}, drawn=200),
     "DetectionVerdict(node=1, window=0, overloaded={}, "
     "energy_anomaly=EnergyAnomaly(drawn=200, expected=100))"),
    (dict(node=1, window=1, loads={"Print": (34, 34)}),
     "DetectionVerdict(node=1, window=1, overloaded={}, energy_anomaly=None)"),
    (dict(node=1, window=1, loads={"Print": (50, 34)}),
     "DetectionVerdict(node=1, window=1, overloaded={'Print': Overload(observed=50, "
     "baseline=34)}, energy_anomaly=None)"),
    (dict(node=3, window=2, loads={"Print": (50, 34), "Scan": (8, 8), "View": (150, 123)}),
     "DetectionVerdict(node=3, window=2, overloaded={'Print': Overload(observed=50, "
     "baseline=34), 'View': Overload(observed=150, baseline=123)}, energy_anomaly=None)"),
]

# (overloaded, energy_anomaly, alerted): the verdict's four kinds
VERDICTS = {
    "normal": ({}, None, False),
    "overload-only": ({"View": Overload(124, 123)}, None, True),
    "energy-only": ({}, EnergyAnomaly(200, 100), True),
    "both": ({"Print": Overload(50, 34), "View": Overload(150, 123)},
             EnergyAnomaly(200, 100), True),
}


class TestDetectionVerdict:
    @pytest.mark.parametrize("kwargs,expected_repr", VERDICT_REPRS)
    def test_overloaded_is_per_service_without_normals(self, kwargs, expected_repr):
        node, loads = kwargs["node"], kwargs["loads"]
        kb = simple_kb({s: base for s, (_obs, base) in loads.items()}, node=node, window=100)
        observed = {s: obs for s, (obs, _base) in loads.items()}
        sample = BehaviorSample(node, kwargs["window"], observed, kwargs.get("drawn", 0))
        verdict = control_compare(sample, kb)
        expected = {s: Overload(obs, base) for s, (obs, base) in loads.items() if obs > base}
        assert list(verdict.overloaded.items()) == list(expected.items())
        assert repr(verdict) == expected_repr

    @pytest.mark.parametrize("kind", sorted(VERDICTS))
    def test_alerted_iff_not_normal(self, kind):
        overloaded, anomaly, alerted = VERDICTS[kind]
        verdict = DetectionVerdict(1, 0, overloaded, anomaly)
        assert verdict.alerted is alerted
        assert verdict.overloaded is overloaded

    @pytest.mark.parametrize("kind", sorted(VERDICTS))
    def test_alerted_takes_no_part_in_equality(self, kind):
        overloaded, anomaly, alerted = VERDICTS[kind]
        verdict = DetectionVerdict(1, 0, overloaded, anomaly)
        flipped = DetectionVerdict(1, 0, dict(overloaded), anomaly)
        flipped.alerted = not alerted
        assert verdict == flipped and repr(verdict) == repr(flipped)
        assert "alerted" not in repr(verdict)
        assert verdict != DetectionVerdict(1, 0, {"Other": Overload(2, 1)}, anomaly)
        assert verdict != DetectionVerdict(1, 1, overloaded, anomaly)

    def test_alerted_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            DetectionVerdict(1, 0, {}, None, False)
        with pytest.raises(TypeError):
            DetectionVerdict(1, 0, {}, alerted=True)


class TestReportAlert:
    def _engine(self):
        return Engine(load_bundled_scenario())

    def test_overload_verdict_sends_alert(self):
        engine = self._engine()
        sim = engine.sim
        sim.run_until(11)  # deploys delivered; window 0 not closed yet
        kb = engine.kb
        sample = sample_for(TABLE_OVERLOADS, kb=kb)
        verdict = control_compare(sample, kb)
        kind = report_alert(1, verdict, sample, sim)
        assert kind == "alert"
        assert len(verdict.overloaded) == 5  # one alert carrying all five
        assert any(
            l.split()[3] == "send" and "kind=alert" in l for l in sim.log.lines
        )

    def test_all_normal_sends_periodic_report(self):
        engine = self._engine()
        sim = engine.sim
        sim.run_until(11)
        kb = engine.kb
        sample = sample_for({s: 0 for s in TABLE_BASELINES}, kb=kb, window=2)
        verdict = control_compare(sample, kb)
        assert report_alert(1, verdict, sample, sim, report_every=1) == "report"
        # off-cycle quiet window stays silent
        sample3 = sample_for({s: 0 for s in TABLE_BASELINES}, kb=kb, window=3)
        verdict3 = control_compare(sample3, kb)
        assert report_alert(1, verdict3, sample3, sim, report_every=2) == "none"

    def test_reports_go_to_the_head_the_registry_names(self):
        # head 0 of a triangle depletes; its members 1 and 2 are adjacent,
        # so they re-cluster under 1 (equal energy, lowest id)
        engine = Engine(parse_scenario(
            "[services]\nname=Print capacity=34\n"
            "[nodes]\nid=0\nid=1\nid=2\n"
            "[edges]\na=0 b=1\na=0 b=2\na=1 b=2\n"
            "[run]\nticks=40 window=10\n"
        ))
        sim = engine.sim
        sim.run_until(11)
        assert sim.head_of[2] == 0
        sim.devices[0].energy_mj = 0
        sim.devices[0].status = Status.DEPLETED
        engine._on_depleted(0)  # the kernel's depletion hook
        assert sim.head_of[2] == sim.head_of[1] == 1
        kb = engine.kb
        sample = sample_for({"Print": 50}, node=2, kb=kb)
        assert report_alert(2, control_compare(sample, kb), sample, sim) == "alert"
        assert sim.log.lines[-1].split()[3:] == ["send", "to=1", "kind=alert"]
        sample = sample_for({"Print": 50}, node=1, kb=kb)
        first = len(sim.log.lines)
        assert report_alert(1, control_compare(sample, kb), sample, sim) == "alert"
        assert sim.log.lines[first].split()[3:] == ["local", "kind=alert"]

    def test_head_agent_reports_locally(self):
        engine = self._engine()
        sim = engine.sim
        kb = engine.kb
        sample = sample_for({s: 0 for s in TABLE_BASELINES}, node=0, kb=kb)
        # nothing served: the head is expected to draw its idle window and its
        # message budget, and draws exactly that
        assert sample.energy_drawn == kb.window * kb.params.idle + kb.msg_budget[0]
        verdict = control_compare(sample, kb)
        sends_before = sum(1 for l in sim.log.lines if l.split()[3] == "send")
        assert report_alert(0, verdict, sample, sim) == "report"
        sends_after = sum(1 for l in sim.log.lines if l.split()[3] == "send")
        assert sends_after == sends_before  # no radio traffic for self-reports


class TestDetectionLatency:
    def test_injection_alerts_within_same_window(self):
        # inject above baseline in window 1 -> exactly one alert for window 1
        scenario = load_bundled_scenario()
        _report, log = run_scenario(scenario)
        alert_sends = [
            l for l in log.lines if l.split()[3] == "send" and "kind=alert" in l
        ]
        assert len(alert_sends) == 5  # whole run raises exactly five alerts
        for record in log.injections:
            assert record.above_baseline
            hits = [
                v for v in log.verdicts
                if v.node == record.node and v.window == record.window and v.alerted
            ]
            assert len(hits) == 1
            assert record.service in hits[0].overloaded
