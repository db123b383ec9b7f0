"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
from collections import deque

import pytest

import gate
import run
import scengen
import spans

ubisim = run.load_ubisim()
from ubisim.cli import load_bundled_scenario  # noqa: E402  (needs the path set above)


@pytest.mark.parametrize("workload", sorted(scengen.WORKLOADS))
def test_generator_is_deterministic_valid_and_connected(workload):
    text = scengen.generate(workload, 7)
    assert text == scengen.generate(workload, 7)
    assert text != scengen.generate(workload, 8)
    scenario = ubisim.parse_scenario(text)
    assert ubisim.serialize_scenario(scenario) == text
    w = scengen.WORKLOADS[workload]
    assert len(scenario.nodes) == w.nodes and len(scenario.services) == 2
    assert all(i.at <= w.ticks for i in scenario.workload + scenario.injections)
    adj = {n.id: set() for n in scenario.nodes}
    for a, b in scenario.edges:
        adj[a].add(b)
        adj[b].add(a)
    assert 4 <= 2 * len(scenario.edges) / len(adj) <= 8
    seen, todo = {0}, deque([0])
    while todo:
        for nb in adj[todo.popleft()] - seen:
            seen.add(nb)
            todo.append(nb)
    assert seen == set(adj)


def table3_run():
    engine = ubisim.Engine(load_bundled_scenario())
    log = engine.run()
    return engine, log, gate.digest(log)


def test_gate_passes_a_clean_run_and_the_reference_rows():
    engine, log, ref = table3_run()
    assert gate.check_run(engine, log, ref) == []
    assert gate.check_reference(ubisim) == []


def _tamper_ledger(engine, log):
    log.total_debited += 1


def _tamper_conservation(engine, log):
    ep = next(ep for ep in log.episodes if ep.mode == "dynamic")
    svc = next(iter(ep.totals_after))
    ep.totals_after[svc] += 1


def _tamper_demand(engine, log):
    engine.sim.demand[1]["Print"] = -1


def _tamper_delivery(engine, log):
    idx = next(i for i, line in enumerate(log.lines) if line.split()[3] == "deliver")
    del log.lines[idx]


def _tamper_drops(engine, log):
    log.drops += 1


@pytest.mark.parametrize("tamper, prefix", [
    (_tamper_ledger, "ledger"),
    (_tamper_conservation, "conservation"),
    (_tamper_demand, "demand"),
    (_tamper_delivery, "messages"),
    (_tamper_drops, "messages"),
])
def test_every_gate_check_fails_on_a_planted_violation(tamper, prefix):
    engine, log, ref = table3_run()
    tamper(engine, log)
    # compare against the tampered trace's own digest so only `prefix` can fire
    failures = gate.check_run(engine, log, gate.digest(log))
    assert [f.split(":")[0] for f in failures] == [prefix]


def test_reference_check_fails_on_a_wrong_row_or_outcome(monkeypatch):
    monkeypatch.setitem(gate.TABLE3, "Print", 51)
    assert [m.split(":")[0] for m in gate.check_reference(ubisim)] == [
        "table 3 Overload", "table 3 Detection"]
    monkeypatch.setitem(gate.TABLE3, "Print", 50)
    real = ubisim.cli.bundled_scenario_text
    monkeypatch.setattr(ubisim.cli, "bundled_scenario_text",
                        lambda name="table3.scn": real(name.replace("saturated", "feasible")))
    mismatches = gate.check_reference(ubisim)
    assert len(mismatches) == 5 and all("saturated" in m for m in mismatches)


def test_gate_fails_on_a_changed_trace():
    engine, log, _ref = table3_run()
    failures = gate.check_run(engine, log, "0" * 64)
    assert [f.split(":")[0] for f in failures] == ["replay"]


def test_fingerprint_check_fails_on_any_changed_statistic():
    want = {"trace_sha256": "ab", "events": 3}
    assert gate.check_fingerprint(dict(want), want) == []
    assert gate.check_fingerprint(want | {"events": 4}, None) == []
    assert gate.check_fingerprint(want | {"events": 4}, want) == [
        "fingerprint: events 4 != recorded 3"]


def test_times_are_scaled_by_the_calibration(monkeypatch, tmp_path):
    text = ubisim.cli.bundled_scenario_text()
    monkeypatch.setattr(run, "calibrate", lambda: run.REF_CALIBRATE_S / 3)
    _engine, _log, ref = table3_run()
    metrics, failures, after = run.timed_repeat(ubisim, text, tmp_path, ref, 5, 1,
                                                run.REF_CALIBRATE_S)
    assert failures == [] and after == run.REF_CALIBRATE_S / 3 and metrics["speed"] == 1.5
    assert metrics["total_s"] == pytest.approx(1.5 * metrics["host_total_s"])
    assert metrics["events_per_s"] == 1 / metrics["run_s"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    text = scengen.generate("overload-storm", 1)
    plain = run.pipeline(ubisim, text, tmp_path_factory.mktemp("plain"))
    tracer = spans.Tracer()
    originals = {attr: ubisim.engine.__dict__[attr]
                 for owner, attr, _name in spans.PATCHES if owner == "engine"}
    out = tmp_path_factory.mktemp("traced")
    with tracer.installed(ubisim):
        result = run.pipeline(ubisim, text, out, tracer)
    restored = all(ubisim.engine.__dict__[a] is f for a, f in originals.items())
    return text, plain, tracer, result, out, restored


def test_tracing_changes_nothing_simulated_and_restores_the_program(traced):
    _text, plain, tracer, (_timing, _engine, log, report), _out, restored = traced
    assert restored
    assert ubisim.simkernel.Simulation.step.__name__ == "step"
    assert gate.digest(log) == gate.digest(plain[2])
    want = gate.fingerprint(plain[2], plain[3])
    assert gate.fingerprint(log, report) == want
    recorded = json.loads(run.FINGERPRINTS.read_text())["overload-storm"]["1"]
    assert gate.check_fingerprint(want, recorded) == []
    assert tracer.totals()["simkernel.step"].calls == want["events"]
    assert tracer.billed_mj == log.total_debited


def test_self_times_are_non_negative_and_children_fit_in_their_parent(traced):
    tracer = traced[2]
    children_ns = [0] * len(tracer.name)
    for idx in range(len(tracer.name)):
        assert tracer.self_ns(idx) >= 0
        parent = tracer.parent[idx]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[parent]
            children_ns[parent] += tracer.end[idx] - tracer.start[idx]
    for idx, covered in enumerate(children_ns):
        assert covered <= tracer.end[idx] - tracer.start[idx]


def test_benchmark_json_names_every_reported_metric_with_its_unit(traced):
    text, _plain, tracer, (timing, engine, log, report), out, _restored = traced
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(tracer, text, timing, engine, log, report, out)
    layers |= {"trace.overhead_s": 0.0, "engine.trace_peak_mb": 0.0}
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    e2e = ["setup_s", "run_s", "total_s", "node_windows_per_s", "events_per_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["end_to_end"]] == e2e
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(scengen.WORKLOADS)
