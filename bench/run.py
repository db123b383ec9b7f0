"""Benchmark entry point: time one workload end to end, check it, report.

    python3 bench/run.py --workload large-net --seed 1 --seconds 25 --trace 0

One process, one scenario at a time, no threads: a closed loop with a single
client. The scenario text comes from ``scengen.generate(workload, seed)`` and
reaches the simulator only through its public API. Each timed repeat runs
parse_scenario -> Engine(...) -> Engine.run() -> metrics.build_report ->
engine.write_outputs, the work of ``ubisim run`` minus interpreter start-up,
then checks the run with ``gate.check_run``. One untimed warm-up run comes
first: it sets the reference trace digest and peak_rss_mb, and its simulated
fingerprint must equal the one recorded for this (workload, seed) in
fingerprints.json, if there is one. Repeats continue until ``--seconds`` of
pipeline time is measured; times are medians over the repeats.

The host this runs on changes speed by tens of percent from one second to
the next, and process CPU time changes with it. So every repeat runs between
two calls of ``calibrate()``, a fixed task that does not use the simulator,
and its times are scaled by REF_CALIBRATE_S over the mean of the two: every
time in the result is in seconds at the reference speed. The host seconds and
the speed factor are printed above the result.

With ``--trace 1`` the same repeats run, then one run under ``spans.Tracer``
gives the per-layer metrics and the tracing overhead, and one run under
tracemalloc gives the traced peak memory.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the per-layer
ones). The exit code is 0 only when every check passed. The simulator is
loaded from ``src/`` of the checkout that holds this file; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate
import scengen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# A fixed constant, about what calibrate() takes on the machine the baseline
# was measured on. Reported times are host times scaled by it over calibrate().
REF_CALIBRATE_S = 0.11
OUT = ROOT / ".bench_out"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
MIN_REPEATS = 3


def unit(metric: str) -> str:
    """A metric's unit, read off its name's suffix."""
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_mj", "mJ"),
                      ("_ratio", "ratio"), ("bytes", "B")):
        if metric.endswith(suffix):
            return u
    return "count"


def load_ubisim():
    src = ROOT / "src"
    if not (src / "ubisim" / "__init__.py").is_file():
        print(f"error: no simulator source at {src / 'ubisim'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ubisim

    return ubisim


@dataclass
class Timing:
    setup_s: float
    run_s: float
    total_s: float
    write_s: float
    report_s: float


def pipeline(ubisim, text: str, out_dir: Path, tracer: Tracer | None = None):
    """Scenario text to written artifacts; returns (timing, engine, log, report)."""
    span = tracer.span if tracer else (lambda _name: nullcontext())
    t0 = time.perf_counter()
    with span("scenario.parse"):
        scenario = ubisim.parse_scenario(text)
    with span("engine.init"):
        engine = ubisim.Engine(scenario)
    t1 = time.perf_counter()
    if tracer:
        tracer.wrap_hooks(engine.sim)
    with span("engine.run"):
        log = engine.run()
    t2 = time.perf_counter()
    with span("metrics.build_report"):
        report = ubisim.build_report(log)
    t3 = time.perf_counter()
    with span("engine.write_outputs"):
        ubisim.engine.write_outputs(scenario, log, report, out_dir)
    t4 = time.perf_counter()
    return Timing(t1 - t0, t2 - t1, t4 - t0, t4 - t3, t3 - t2), engine, log, report


def calibrate() -> float:
    """Host seconds for a fixed task that never touches the simulator.

    It does what the simulator spends its time on (an integer loop, dicts and
    lists of many small objects, string formatting and sorting, Fractions) in
    about a tenth of a second, so it follows the speed of the machine and no
    change to the program can move it. The collector is off while it runs, so
    what the program left on the heap cannot slow it either.
    """
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    objs = [{"id": i, "e": i * 3, "n": [i, i + 1]} for i in range(60_000)]
    index = {o["id"]: o for o in objs}
    for o in objs:
        acc += o["e"] + o["n"][1]
    for i in range(0, 60_000, 3):
        acc += index[i * 7919 % 60_000]["e"]
    del objs, index
    rng, counts, share, lines = random.Random(7), {}, Fraction(0), []
    for i in range(20_000):
        k = i * 7919 % 5003
        counts[k] = counts.get(k, 0) + rng.randrange(100)
        if i % 50 == 0:
            share += Fraction(counts[k], 1 + i % 97)
        lines.append(f"t={i} k={k} v={counts[k]}")
    lines.sort()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def speed(before: float, after: float) -> float:
    """Reference seconds per host second, from calibrations around a run."""
    return 2 * REF_CALIBRATE_S / (before + after)


def timed_repeat(ubisim, text, out_dir, ref_digest, nodes, events, before):
    """One checked pipeline run; returns its metrics, its failures and the
    calibration taken after it, which is the next repeat's ``before``.

    Times are scaled to reference speed by ``speed(before, after)``; the host
    seconds are kept under ``host_``. Everything the run allocated is released
    before the second calibration, so the next repeat starts from the same
    heap.
    """
    gc.collect()
    try:
        timing, engine, log, _report = pipeline(ubisim, text, out_dir)
        failures = gate.check_run(engine, log, ref_digest)
        windows = log.windows_completed
    except Exception as exc:  # a crash is a failed run, not a dead benchmark
        return None, [f"exception: {type(exc).__name__}: {exc}"], calibrate()
    del engine, log, _report
    after = calibrate()
    scale = speed(before, after)
    total_s, run_s = timing.total_s * scale, timing.run_s * scale
    metrics = {
        "setup_s": timing.setup_s * scale,
        "run_s": run_s,
        "total_s": total_s,
        "node_windows_per_s": nodes * windows / total_s,
        "events_per_s": events / run_s,
        "host_total_s": timing.total_s,
        "speed": scale,
    }
    return metrics, failures, after


def layer_metrics(tracer: Tracer, text, timing, engine, log, report, out_dir) -> dict:
    t = tracer.totals()

    def secs(name, field="total_ns"):
        return getattr(t[name], field) / 1e9 if name in t else 0.0

    def calls(name):
        return t[name].calls if name in t else 0

    kinds = gate.trace_kinds(log)
    resolved = report.episodes - report.unresolved
    excess = sum(se.excess_before for ep in log.episodes for se in ep.services.values())
    moved = sum(se.moved for ep in log.episodes for se in ep.services.values())
    bills = calls("model.consume_energy")
    return {
        "scenario.parse_s": secs("scenario.parse"),
        "scenario.bytes": len(text.encode()),
        "clustering.form_clusters_s": secs("clustering.form_clusters"),
        "clustering.form_clusters_calls": calls("clustering.form_clusters"),
        "clustering.neighbors_calls": calls("clustering.neighbors"),
        "clustering.neighbors_s": secs("clustering.neighbors"),
        "clustering.deploy_agents_s": secs("clustering.deploy_agents"),
        "clustering.reform_calls": calls("clustering.reform"),
        "clustering.clusters": len(log.cluster_records),
        "detection.build_kb_s": secs("detection.build_kb"),
        "detection.compare_calls": calls("detection.compare"),
        "detection.compare_s": secs("detection.compare"),
        "detection.report_alert_s": secs("detection.report_alert", "self_ns"),
        "detection.alerts": report.alerts,
        "detection.alert_ratio": report.alerts / max(1, len(log.verdicts)),
        "detection.detected_ratio": report.detected / max(1, report.injected_overloads),
        "model.consume_energy_calls": bills,
        "model.consume_energy_s": secs("model.consume_energy"),
        "model.billed_mj": tracer.billed_mj,
        "model.active_bill_ratio": tracer.bill_calls_active / max(1, bills),
        "simkernel.events": calls("simkernel.step"),
        "simkernel.step_s": secs("simkernel.step"),
        "simkernel.step_self_s": secs("simkernel.step", "self_ns"),
        "simkernel.boundary_s": secs("engine.on_boundary"),
        "simkernel.message_s": secs("engine.on_message"),
        "simkernel.sends": kinds["send"],
        "simkernel.drops": log.drops,
        "simkernel.dead_letters": log.dead_letters,
        "simkernel.queue_peak": tracer.queue_peak,
        "simkernel.trace_lines": len(log.lines),
        "reconfig.plan_calls": calls("reconfig.plan"),
        "reconfig.plan_s": secs("reconfig.plan"),
        "reconfig.apply_calls": calls("reconfig.apply"),
        "reconfig.apply_s": secs("reconfig.apply"),
        "reconfig.directives": kinds["migrate"],
        "reconfig.skipped": kinds["skip"],
        "reconfig.defers": kinds["defer"],
        "reconfig.moved_ratio": moved / max(1, excess),
        "reconfig.corrected_ratio": report.corrected / max(1, resolved),
        "engine.message_self_s": secs("engine.on_message", "self_ns"),
        "engine.boundary_self_s": secs("engine.on_boundary", "self_ns"),
        "engine.write_outputs_s": timing.write_s,
        "engine.artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "metrics.build_report_s": timing.report_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(scengen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ubisim = load_ubisim()
    bench_dir = OUT / args.workload
    out_dir = bench_dir / "artifacts"  # what write_outputs produces, nothing else
    shutil.rmtree(bench_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    print(f"machine: python {platform.python_version()}, {os.cpu_count()} cpus")

    text = scengen.generate(args.workload, args.seed)
    problems = []
    if ubisim.serialize_scenario(ubisim.parse_scenario(text)) != text:
        problems.append("generator: scenario text does not round-trip")
    problems += gate.check_reference(ubisim)

    # Warm-up: untimed, sets the reference digest and the simulated fingerprint.
    _t, engine, log, report = pipeline(ubisim, text, out_dir)
    ref = gate.fingerprint(log, report)
    nodes, events = len(engine.sim.devices), ref["events"]
    problems += gate.check_run(engine, log, ref["trace_sha256"])
    recorded = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    problems += gate.check_fingerprint(ref, recorded.get(str(args.seed)))
    del engine, log, report
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("fingerprint " + json.dumps(ref, sort_keys=True))
    (bench_dir / "fingerprint.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    samples, failed, attempted, measured = [], 0, 0, 0.0
    before = calibrate()
    while measured < args.seconds or attempted < MIN_REPEATS:
        start = time.perf_counter()
        metrics, failures, before = timed_repeat(ubisim, text, out_dir, ref["trace_sha256"],
                                                 nodes, events, before)
        attempted += 1
        measured += metrics["host_total_s"] if metrics else time.perf_counter() - start
        if metrics:
            samples.append(metrics)
        if failures:
            failed += 1
            problems += failures
    medians = {k: statistics.median(s[k] for s in samples) for k in samples[0]} if samples else {}
    e2e = {k: v for k, v in medians.items() if k not in ("host_total_s", "speed")}
    e2e["peak_rss_mb"] = peak_rss_mb
    if samples:
        print(f"host total_s {medians['host_total_s']:.6g} s at speed {medians['speed']:.4g}")

    if args.trace:
        tracer = Tracer()
        gc.collect()
        with tracer.installed(ubisim):
            timing, engine, log, report = pipeline(ubisim, text, out_dir, tracer)
        problems += gate.check_run(engine, log, ref["trace_sha256"])
        layers = layer_metrics(tracer, text, timing, engine, log, report, out_dir)
        del engine, log, report
        scale = speed(before, calibrate())
        layers = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
        layers["trace.overhead_s"] = timing.total_s * scale - e2e["total_s"]
        tracer.write(bench_dir / "spans.csv.gz")
        gc.collect()
        tracemalloc.start()
        _t, _engine, log, _report = pipeline(ubisim, text, out_dir)
        layers["engine.trace_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        if gate.digest(log) != ref["trace_sha256"]:
            problems.append("replay: tracemalloc run changed the trace")
        result_metrics = layers
    else:
        result_metrics = e2e

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    correct = not problems
    print(f"{args.workload} seed={args.seed} repeats={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.3f} correct={correct}")
    for k, v in result_metrics.items():
        print(f"  {k:32s} {v:>16.6g} {unit(k)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result_metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
