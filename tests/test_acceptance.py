"""Acceptance suite: every release criterion, each printing a PASS line
with its stated tolerance once it holds (run with -s to see them)."""

import random
import time
from fractions import Fraction

from ubisim.cli import EXIT_OK, bundled_scenario_text, load_bundled_scenario, main
from ubisim.detection import DetectionVerdict, Overload
from ubisim.engine import Engine, run_scenario
from ubisim.reconfig import ClusterView, Outcome, ViewEntry, plan_reconfiguration
from ubisim.scenario import parse_scenario

from conftest import random_scenario_text, two_node_scenario

SERVICES = ["Print", "View", "SendEmail", "UpdateBDD", "Scan"]


def family(kind, service):
    return parse_scenario(
        bundled_scenario_text(f"fig3_family/{kind}_{service.lower()}.scn")
    )


def test_ac1_table3_reproduction_exact(capsys):
    start = time.perf_counter()
    code = main(["repro", "--table", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert out[1].split() == ["Overload", "50", "124", "21", "56", "30"]
    assert out[2].split() == ["Detection", "50", "124", "21", "56", "30"]
    report, _log = run_scenario(load_bundled_scenario())
    assert (report.detected, report.injected_overloads) == (5, 5)
    assert report.detection_rate == 1.0
    assert elapsed < 1.0
    print(f"\nPASS: AC1 detection table reproduced exactly, 5/5, {elapsed:.3f}s < 1s")


def test_ac2_boundary_pinning_exact():
    report_hit, log_hit = run_scenario(two_node_scenario(124))
    assert report_hit.detected == 1 and report_hit.alerts == 1
    (vr,) = [v for v in log_hit.verdicts if v.alerted]
    assert vr.overloaded["View"] == Overload(124, 123)

    report_miss, log_miss = run_scenario(two_node_scenario(123))
    assert report_miss.detected == 0 and report_miss.alerts == 0
    assert report_miss.injected_overloads == 0  # at-baseline: not in denominator
    print("PASS: AC2 overload threshold pinned strictly above baseline (124 yes, 123 no)")


def test_ac3_correction_properties_exhaustive_over_family():
    start = time.perf_counter()
    for svc in SERVICES:
        # (a) cluster spare >= excess: corrected, post loads within baselines
        scenario = family("feasible", svc)
        engine = Engine(scenario)
        log = engine.run()
        (episode,) = log.episodes
        assert episode.outcome is Outcome.CORRECTED, svc
        assert episode.services[svc].residual == 0
        post = episode.post_window
        for nid, served_by_window in log.window_served.items():
            for service, count in served_by_window[post].items():
                assert count <= engine.kb.baseline_for(nid, service), (svc, nid)

        # (b) spare < excess: residual = excess - spare exactly, outcome Partial
        scenario = family("saturated", svc)
        engine = Engine(scenario)
        log = engine.run()
        (episode,) = log.episodes
        se = episode.services[svc]
        spare = engine.kb.baseline_for(0, svc)  # single peer, idle
        assert se.residual == se.excess_before - spare, svc
        assert episode.outcome is Outcome.PARTIAL, svc
        assert se.outcome is Outcome.PARTIAL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: AC3 correction properties exact over all 10 family scenarios, {elapsed:.2f}s < 5s")


def test_ac4_greedy_residual_equals_bruteforce_optimum():
    start = time.perf_counter()
    rng = random.Random(20260811)
    cases = 0
    attempts = 0
    while cases < 10_000:
        attempts += 1
        assert attempts < 100_000
        n = rng.randint(2, 5)
        services = [f"S{i}" for i in range(rng.randint(1, 3))]
        caps = {node: {s: rng.randint(0, 10) for s in services} for node in range(n)}
        loads = {node: {s: rng.randint(0, 10) for s in services} for node in range(n)}
        src = rng.randrange(n)
        overloaded = {}
        for s in services:
            obs, base = loads[src][s], caps[src][s]
            if obs > base:
                overloaded[s] = Overload(obs, base)
        verdict = DetectionVerdict(node=src, window=0, overloaded=overloaded)
        if not verdict.overloaded:
            continue
        view = ClusterView(
            head=0,
            entries={
                node: ViewEntry(node, caps[node], dict(loads[node]), window=0)
                for node in range(n)
            },
        )
        plan = plan_reconfiguration(view, verdict)
        for s, o in verdict.overloaded.items():
            total_spare = sum(
                max(0, caps[p][s] - loads[p][s]) for p in range(n) if p != src
            )
            assert plan.residual[s] == max(0, o.excess - total_spare)
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS: AC4 greedy residual == brute-force optimum on {cases} cases, {elapsed:.1f}s < 60s")


def test_ac5_conservation_and_determinism_100_runs():
    dynamic_episodes = 0
    for seed in range(100):
        text = random_scenario_text(seed)
        report_a, log_a = run_scenario(parse_scenario(text))
        report_b, log_b = run_scenario(parse_scenario(text))
        # (c) identical (scenario, seed) -> byte-identical traces
        assert log_a.serialize() == log_b.serialize(), seed
        # (a) every dynamic plan application conserves per-service totals
        for ep in log_a.episodes:
            if ep.mode != "dynamic":
                continue
            dynamic_episodes += 1
            assert ep.totals_before == ep.totals_after, (seed, ep.window, ep.node)
        # (b) energy ledger balances to the millijoule
        consumed = sum(
            log_a.initial_energy[n] - log_a.final_energy[n] for n in log_a.initial_energy
        )
        assert consumed == log_a.total_debited, seed
    assert dynamic_episodes > 0
    print(f"PASS: AC5 conservation/ledger/replay exact over 100 seeded runs "
          f"({dynamic_episodes} dynamic applications)")


def test_ac6_balance_improvement_on_feasible_episodes():
    for svc in SERVICES:
        engine = Engine(family("feasible", svc))
        log = engine.run()
        (episode,) = log.episodes
        assert episode.outcome is Outcome.CORRECTED
        # Jain on load/capacity ratios never degrades (exact rationals)
        before, after = episode.jain_before[svc], episode.jain_after[svc]
        assert isinstance(before, Fraction) and isinstance(after, Fraction)
        assert after >= before, svc
        # independent recomputation from the episode's own cluster loads
        caps = {n: engine.kb.baseline_for(n, svc) for n in engine.sim.devices}
        alert_w, post_w = episode.window, episode.post_window
        draw_alert = max(v[alert_w] for v in log.window_energy.values())
        draw_post = max(v[post_w] for v in log.window_energy.values())
        assert draw_post < draw_alert, svc  # strict decrease of the hottest node
        served_alert = sum(
            sum(w[alert_w].values()) for w in log.window_served.values()
        )
        served_post = sum(sum(w[post_w].values()) for w in log.window_served.values())
        assert served_alert == served_post, svc  # total work unchanged
    print("PASS: AC6 fairness non-decreasing, max draw strictly down, work conserved "
          "(exact rational Jain)")


def test_ac7_mode_contract():
    quiesce_ticks = 2
    for svc in SERVICES:
        dyn_engine = Engine(family("feasible", svc))
        dyn_log = dyn_engine.run()
        static_scenario = family("feasible", svc)
        static_scenario.run.mode = "static"
        static_scenario.run.quiesce_ticks = quiesce_ticks
        st_engine = Engine(static_scenario)
        st_log = st_engine.run()

        # dynamic: zero downtime, zero quiesce losses
        assert sum(dyn_log.downtime.values()) == 0
        assert dyn_log.lost_requests == 0
        # static: exactly quiesce_ticks downtime per involved device
        (episode,) = st_log.episodes
        assert episode.involved, svc
        for nid in st_engine.sim.devices:
            expected = quiesce_ticks if nid in episode.involved else 0
            assert st_log.downtime[nid] == expected, (svc, nid)
        # identical plans -> identical final load distributions
        dyn_loads = {n: dict(d.load) for n, d in dyn_engine.sim.devices.items()}
        st_loads = {n: dict(d.load) for n, d in st_engine.sim.devices.items()}
        assert dyn_loads == st_loads, svc
        assert st_log.lost_requests == 0  # no arrivals scheduled during quiesce
    print("PASS: AC7 mode contract exact (downtime bookkeeping + identical final loads)")
