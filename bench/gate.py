"""Correctness checks every benchmark run must pass, and the simulated
fingerprint a speed-up must leave unchanged.

``check_run`` tests one finished run against the run invariants: the energy
ledger balances, dynamic plans conserve load, demand stays non-negative,
every transmitted message is delivered, dropped or still in flight at the
horizon, and the trace matches the reference digest of the same scenario.
``check_reference`` tests the simulator once against the paper's detection
table and the correction family, and ``check_fingerprint`` compares a run's
simulated statistics with the ones recorded for its (workload, seed). All
return a list of failures; empty means correct.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from contextlib import redirect_stdout

# Trace kinds written once per dispatched kernel event (Simulation.step);
# every other kind is emitted by protocol code during an event.
EVENT_KINDS = frozenset({"tick", "boundary", "arrival", "inject", "resume", "deliver"})

# The paper's detection table: injected overload per service, each of which
# must be detected at exactly that observed load.
TABLE3 = {"Print": 50, "View": 124, "SendEmail": 21, "UpdateBDD": 56, "Scan": 30}


def digest(log) -> str:
    return hashlib.sha256(log.serialize().encode()).hexdigest()


def trace_kinds(log) -> Counter:
    return Counter(line.split(" ", 4)[3] for line in log.lines)


def in_flight(log, latency: int, horizon: int) -> int:
    """Sends due after the horizon, which are still queued when the run ends."""
    late = 0
    for line in log.lines:
        tick, _seq, _target, kind = line.split(" ", 4)[:4]
        if kind == "send" and int(tick) + latency > horizon:
            late += 1
    return late


def check_run(engine, log, ref_digest: str) -> list[str]:
    failures = []
    consumed = sum(log.initial_energy[n] - log.final_energy[n] for n in log.initial_energy)
    if consumed != log.total_debited:
        failures.append(f"ledger: consumed {consumed} != debited {log.total_debited}")
    for ep in log.episodes:
        if ep.mode == "dynamic" and ep.totals_before != ep.totals_after:
            failures.append(f"conservation: episode node={ep.node} window={ep.window} "
                            f"{ep.totals_before} -> {ep.totals_after}")
    negative = [(n, s, v) for n, d in engine.sim.demand.items() for s, v in d.items() if v < 0]
    if negative:
        failures.append(f"demand: negative entries {negative[:3]}")
    kinds = trace_kinds(log)
    run = engine.scenario.run
    queued = in_flight(log, run.latency, run.ticks)
    if kinds["send"] != kinds["deliver"] + queued:
        failures.append(f"messages: {kinds['send']} sent != {kinds['deliver']} delivered "
                        f"+ {queued} in flight")
    if kinds["drop"] != log.drops or kinds["dead_letter"] != log.dead_letters:
        failures.append(f"messages: trace drops/dead letters {kinds['drop']}/"
                        f"{kinds['dead_letter']} != log {log.drops}/{log.dead_letters}")
    got = digest(log)
    if got != ref_digest:
        failures.append(f"replay: trace sha256 {got[:12]} != reference {ref_digest[:12]}")
    return failures


def check_reference(ubisim) -> list[str]:
    """Mismatches against table 3 and the fig3 correction family."""
    from ubisim.cli import bundled_scenario_text, main
    from ubisim.reconfig import Outcome

    mismatches = []
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["repro", "--table", "3"])
    rows = {line.split()[0]: line.split()[1:] for line in out.getvalue().splitlines() if line}
    want = [str(TABLE3[s]) for s in TABLE3]
    if code != 0:
        mismatches.append(f"repro --table 3 exited {code}")
    for row in ("Overload", "Detection"):
        if rows.get(row) != want:
            mismatches.append(f"table 3 {row}: {rows.get(row)} != {want}")
    for kind in ("feasible", "saturated"):
        for svc in TABLE3:
            name = f"fig3_family/{kind}_{svc.lower()}.scn"
            engine = ubisim.Engine(ubisim.parse_scenario(bundled_scenario_text(name)))
            log = engine.run()
            if len(log.episodes) != 1:
                mismatches.append(f"{name}: {len(log.episodes)} episodes != 1")
                continue
            (ep,) = log.episodes
            se = ep.services[svc]
            if kind == "feasible":
                ok = ep.outcome is Outcome.CORRECTED and se.residual == 0
            else:
                # peers are idle, so their spare is their whole baseline
                spare = sum(engine.kb.baseline_for(n, svc)
                            for n in engine.sim.devices if n != ep.node)
                ok = ep.outcome is Outcome.PARTIAL and se.residual == se.excess_before - spare
            if not ok:
                mismatches.append(f"{name}: outcome {ep.outcome} residual {se.residual}")
    return mismatches


def fingerprint(log, report) -> dict:
    """Simulated statistics of one run; equal runs give equal fingerprints."""
    kinds = trace_kinds(log)
    return {
        "trace_sha256": digest(log),
        "events": sum(kinds[k] for k in EVENT_KINDS),
        "trace_lines": len(log.lines),
        "episodes": {"corrected": report.corrected, "partial": report.partial,
                     "failed": report.failed, "unresolved": report.unresolved},
        "detected": report.detected,
        "injected": report.injected_overloads,
        "lost_requests": report.lost_requests,
        "downtime": sum(report.downtime.values()),
        "drops": report.drops,
        "energy_mj": report.total_energy_mj,
    }


def check_fingerprint(got: dict, recorded: dict | None) -> list[str]:
    """Differences from the recorded fingerprint; none when nothing is recorded."""
    if recorded is None:
        return []
    return [f"fingerprint: {key} {got.get(key)} != recorded {recorded.get(key)}"
            for key in sorted(recorded.keys() | got.keys()) if got.get(key) != recorded.get(key)]
