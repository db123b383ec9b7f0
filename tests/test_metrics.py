import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim.cli import load_bundled_scenario
from ubisim.engine import run_scenario
from ubisim.metrics import (
    detection_stats,
    energy_report,
    format_summary,
    jain_index,
    jain_index_of_pairs,
)
from ubisim.model import EnergySpec
from ubisim.scenario import parse_scenario
from ubisim.simkernel import RunLog, Simulation

from conftest import make_device, two_node_scenario


class TestJainIndex:
    def test_equal_ratios_are_fair(self):
        assert jain_index([0.5, 0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_single_hot_spot(self):
        assert jain_index([1.0, 0, 0, 0]) == pytest.approx(0.25)

    def test_two_value_example(self):
        # oracle: (0.8+0.4)^2 / (2 * (0.64+0.16)) = 1.44 / 1.6 = 0.9
        assert jain_index([0.8, 0.4]) == pytest.approx(0.9, abs=1e-12)

    def test_exact_with_fractions(self):
        value = jain_index([Fraction(4, 5), Fraction(2, 5)])
        assert value == Fraction(9, 10)
        assert isinstance(value, Fraction)

    def test_all_zero_convention(self):
        assert jain_index([0, 0, 0]) == 1.0

    @pytest.mark.parametrize(
        "zeros, nonzero, kind",
        [
            ([Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(1, 4)], Fraction),
            ([0.0, 0.0], [0.5, 0.25], float),
            ([0, 0], [2, 1], float),
        ],
    )
    def test_one_result_type_per_input_type(self, zeros, nonzero, kind):
        assert type(jain_index(zeros)) is kind
        assert type(jain_index(nonzero)) is kind
        assert jain_index(zeros) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([0.5, -0.1])

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20))
    @settings(deadline=None)
    def test_bounds(self, values):
        ratios = [Fraction(v, 1000) for v in values]
        j = jain_index(ratios)
        n = len(values)
        assert Fraction(1, n) <= j <= 1
        if len(set(values)) == 1 and values[0] > 0:
            assert j == 1
        if j == 1 and sum(values):
            assert len(set(values)) == 1

    @given(st.one_of(
        st.lists(st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=0, max_value=10**3,
                                        max_denominator=10**6)),
                 min_size=1, max_size=30),
        st.lists(st.just(Fraction(0)), min_size=1, max_size=30),
    ))
    @settings(deadline=None)
    def test_fractions_match_naive_formula(self, values):
        total = sum(values, Fraction(0))
        if total == 0:
            naive = Fraction(1)
        else:
            naive = total ** 2 / (len(values) * sum(x * x for x in values))
        j = jain_index(values)
        assert j == naive
        assert type(j) is Fraction

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**4),
                              st.integers(min_value=1, max_value=10**4)),
                    min_size=1, max_size=30))
    @settings(deadline=None)
    def test_pairs_match_naive_formula(self, pairs):
        ratios = [Fraction(load, cap) for load, cap in pairs]
        total = sum(ratios, Fraction(0))
        if total == 0:
            naive = Fraction(1)
        else:
            naive = total ** 2 / (len(ratios) * sum(x * x for x in ratios))
        j = jain_index_of_pairs(pairs)
        assert j == naive
        assert type(j) is Fraction

    @pytest.mark.parametrize("pairs", [[], [(1, 2), (-1, 3)], [(1, 2), (1, 0)], [(1, -2)]])
    def test_pairs_validation(self, pairs):
        with pytest.raises(ValueError):
            jain_index_of_pairs(pairs)


class TestDetectionStats:
    def test_reference_run_is_five_for_five(self):
        _report, log = run_scenario(load_bundled_scenario())
        stats = detection_stats(log)
        assert stats == {"injected": 5, "detected": 5, "rate": 1.0}

    def test_at_baseline_injection_not_counted(self):
        _report, log = run_scenario(two_node_scenario(123))
        stats = detection_stats(log)
        assert stats == {"injected": 0, "detected": 0, "rate": None}

    def test_above_baseline_injection_counted(self):
        _report, log = run_scenario(two_node_scenario(124))
        assert detection_stats(log) == {"injected": 1, "detected": 1, "rate": 1.0}

    def test_no_injections_rate_undefined(self):
        scenario = load_bundled_scenario()
        scenario.injections.clear()
        _report, log = run_scenario(scenario)
        assert detection_stats(log)["rate"] is None


class TestCorrectionStats:
    def test_saturated_scan_partial_with_exact_residual(self):
        from ubisim.cli import bundled_scenario_text

        text = bundled_scenario_text("fig3_family/saturated_scan.scn")
        _report, log = run_scenario(parse_scenario(text))
        (episode,) = log.episodes
        assert episode.services["Scan"].outcome.value == "partial"
        assert episode.services["Scan"].residual == 12  # excess 22, spare 10


class TestEnergyReport:
    def test_idle_only_run_consumes_idle_per_tick(self):
        # two isolated nodes, 100 ticks, no messages: 100 mJ each
        scenario = parse_scenario(
            "[services]\nname=P capacity=5\n"
            "[nodes]\nid=0\nid=1\n"
            "[energy]\nidle=1 tx=2 rx=1 request=5\n"
            "[run]\nticks=100 window=10\n"
        )
        _report, log = run_scenario(scenario)
        rep = energy_report(log)
        assert rep["consumed"] == {0: 100, 1: 100}
        assert rep["cluster_variance"] == {0: 0.0, 1: 0.0}

    def test_zero_tick_run_all_zeros(self):
        sim = Simulation([make_device(0), make_device(1)], EnergySpec(), horizon=0)
        log = sim.run_until(0)
        rep = energy_report(log)
        assert rep["consumed"] == {0: 0, 1: 0}

    def test_ledger_matches_debits(self):
        _report, log = run_scenario(load_bundled_scenario())
        consumed = energy_report(log)["consumed"]
        assert sum(consumed.values()) == log.total_debited

    @given(st.lists(st.one_of(st.integers(min_value=0, max_value=50),
                              st.integers(min_value=0, max_value=10**15)),
                    min_size=1, max_size=40))
    @settings(deadline=None)
    def test_cluster_variance_is_pvariance(self, consumed):
        # one cluster, head 0, whose nodes consumed exactly ``consumed``
        log = RunLog(initial_energy=dict(enumerate(consumed)),
                     final_energy=dict.fromkeys(range(len(consumed)), 0),
                     cluster_records=[(0, 0, tuple(range(1, len(consumed))))])
        got = energy_report(log)["cluster_variance"][0]
        want = statistics.pvariance(consumed)
        assert got == want
        assert type(got) is type(want)


class TestRunReport:
    def test_reference_report_headline(self):
        report, log = run_scenario(load_bundled_scenario())
        assert report.injected_overloads == report.detected == 5
        assert report.detection_rate == 1.0
        assert report.episodes == report.corrected == 5
        assert report.partial == report.failed == report.unresolved == 0
        assert report.alerts == 5
        assert report.lost_requests == 0
        assert report.windows == 4
        text = format_summary(report)
        assert "overloads detected    5 (rate 1.00)" in text

    def test_jain_pairs_never_degrade_fairness(self):
        report, _log = run_scenario(load_bundled_scenario())
        assert report.jain_pairs
        for _svc, before, after in report.jain_pairs:
            assert after >= before
