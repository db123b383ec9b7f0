"""Aggregate a finished run's log into the evaluation quantities:
detection rate, correction outcome counts, Jain fairness, energy
accounting, lost requests, and downtime.

Everything here is a pure function over an immutable RunLog.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .model import Service
from .reconfig import CORRECTED, FAILED, PARTIAL, Outcome
from .simkernel import RunLog


def jain_index(values):
    """Fairness of a list of non-negative ratios: (sum x)^2 / (n * sum x^2).

    Lies in [1/n, 1] and equals 1 iff all entries are equal. An all-zero
    list is perfectly balanced nothing and reports 1 by convention. The
    result always has the type a true division of the inputs gives:
    Fraction inputs stay exact, floats and ints give a float. A list of
    Fractions is computed exactly by ``jain_index_of_pairs`` from each
    value's numerator and denominator.
    """
    if all(isinstance(v, Fraction) for v in values):
        return jain_index_of_pairs([(v.numerator, v.denominator) for v in values])
    return _jain(values, operator.truediv)


def jain_index_of_pairs(pairs):
    """Exact Jain index, as a Fraction, of the ratios load / capacity.

    ``pairs`` holds integer (load, capacity) pairs with positive capacities.
    The ratios are put over one common denominator D, the lcm of the
    capacities, as x_i = a_i / D, so the index is T^2 / (n * S) with T the
    sum of the integer numerators a_i and S the sum of their squares:
    integer sums and a single Fraction at the end. An empty list gets
    ``_jain``'s error, as an empty list of values does.
    """
    caps = [cap for _load, cap in pairs]
    if min(caps, default=1) <= 0:
        raise ValueError("jain_index capacities must be positive")
    common = math.lcm(*caps)
    return _jain([load * (common // cap) for load, cap in pairs], Fraction)


def _jain(values, divide):
    """(sum x)^2 / (n * sum x^2) as ``divide`` gives it; 1 when every x is 0."""
    if not values:
        raise ValueError("jain_index needs at least one value")
    if min(values) < 0:
        raise ValueError("jain_index values must be non-negative")
    total = sum(values)
    if total == 0:
        one = total + 1
        return divide(one, one)
    squares = sum(map(operator.mul, values, values))
    return divide(total * total, len(values) * squares)


def detection_stats(log: RunLog) -> dict:
    """Injected-above-baseline vs detected counts and their ratio.

    An injection counts toward the denominator only if it pushed the
    observed load strictly above the baseline; it counts as detected if the
    same (node, window, service) shows up overloaded in a verdict. Rate is
    None when nothing qualifying was injected.
    """
    overloaded_index = {
        (v.node, v.window, svc) for v in log.verdicts for svc in v.overloaded
    }
    injected = [r for r in log.injections if r.above_baseline]
    detected = sum(
        1 for r in injected if (r.node, r.window, r.service) in overloaded_index
    )
    rate = detected / len(injected) if injected else None
    return {"injected": len(injected), "detected": detected, "rate": rate}


def energy_report(log: RunLog) -> dict:
    """Per-node consumed millijoules plus per-cluster variance of the same."""
    consumed = {
        nid: log.initial_energy[nid] - log.final_energy.get(nid, log.initial_energy[nid])
        for nid in sorted(log.initial_energy)
    }
    # final cluster assignment wins when a cluster was re-formed mid-run
    latest: dict[int, tuple[int, ...]] = {}
    for _tick, head, members in log.cluster_records:
        latest[head] = members
    variance = {}
    for head in sorted(latest):
        nodes = [head, *latest[head]]
        values = [consumed[n] for n in nodes if n in consumed]
        variance[head] = _pvariance(values) if values else 0.0
    return {"consumed": consumed, "cluster_variance": variance}


def _pvariance(values):
    """``statistics.pvariance`` of integers from integer sums, without Fractions.

    The variance is (n * sum x^2 - (sum x)^2) / n^2: an int when n^2 divides
    the numerator, else the correctly rounded float, as pvariance gives it.
    """
    n, total = len(values), sum(values)
    num, den = n * sum(v * v for v in values) - total * total, n * n
    return num // den if num % den == 0 else num / den


@dataclass
class RunReport:
    """One run's headline numbers, stable-ordered for diffing."""

    injected_overloads: int = 0
    detected: int = 0
    detection_rate: float | None = None
    episodes: int = 0
    corrected: int = 0
    partial: int = 0
    failed: int = 0
    unresolved: int = 0
    jain_pairs: list[tuple[Service, object, object]] = field(default_factory=list)
    cluster_variance: dict[int, int | float] = field(default_factory=dict)
    total_energy_mj: int = 0
    lost_requests: int = 0
    downtime: dict[int, int] = field(default_factory=dict)
    alerts: int = 0
    drops: int = 0
    windows: int = 0


def build_report(log: RunLog) -> RunReport:
    det = detection_stats(log)
    outcome_counts = {o: 0 for o in Outcome}
    unresolved = 0
    jain_pairs = []
    for ep in log.episodes:
        if ep.outcome is None:
            unresolved += 1
        else:
            outcome_counts[ep.outcome] += 1
        for svc in ep.services:
            jain_pairs.append((svc, ep.jain_before[svc], ep.jain_after[svc]))
    energy = energy_report(log)
    return RunReport(
        injected_overloads=det["injected"],
        detected=det["detected"],
        detection_rate=det["rate"],
        episodes=len(log.episodes),
        corrected=outcome_counts[CORRECTED],
        partial=outcome_counts[PARTIAL],
        failed=outcome_counts[FAILED],
        unresolved=unresolved,
        jain_pairs=jain_pairs,
        cluster_variance=energy["cluster_variance"],
        total_energy_mj=sum(energy["consumed"].values()),
        lost_requests=log.lost_requests,
        downtime=dict(log.downtime),
        alerts=sum(1 for v in log.verdicts if v.alerted),
        drops=log.drops,
        windows=log.windows_completed,
    )


def format_summary(report: RunReport) -> str:
    rate = "n/a" if report.detection_rate is None else f"{report.detection_rate:.2f}"
    lines = [
        f"windows completed     {report.windows}",
        f"overloads injected    {report.injected_overloads}",
        f"overloads detected    {report.detected} (rate {rate})",
        f"alerts raised         {report.alerts}",
        f"correction episodes   {report.episodes} "
        f"(corrected {report.corrected}, partial {report.partial}, "
        f"failed {report.failed}, unresolved {report.unresolved})",
        f"lost requests         {report.lost_requests}",
        f"downtime ticks        {sum(report.downtime.values())}",
        f"energy consumed (mJ)  {report.total_energy_mj}",
    ]
    return "\n".join(lines)


SUMMARY_COLUMNS = [
    "seed", "ticks", "window", "mode", "nodes", "clusters", "windows",
    "injected", "detected", "detection_rate", "alerts", "episodes",
    "corrected", "partial", "failed", "lost_requests", "downtime_ticks",
    "energy_mj", "drops",
]


def summary_row(report: RunReport, scenario) -> list:
    return [
        scenario.run.seed, scenario.run.ticks, scenario.run.window,
        scenario.run.mode, len(scenario.nodes), len(report.cluster_variance),
        report.windows, report.injected_overloads, report.detected,
        "" if report.detection_rate is None else f"{report.detection_rate:.4f}",
        report.alerts, report.episodes, report.corrected, report.partial,
        report.failed, report.lost_requests, sum(report.downtime.values()),
        report.total_energy_mj, report.drops,
    ]
