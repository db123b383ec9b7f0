"""A disjoint-union oracle: a run over k copies of a network must equal the
lone run on every copy.

``union(scenario, k)`` lays k copies of a scenario side by side. Copy c's
node ids, and the ids its edges, workload and injections name, are shifted
by c times the stride, the largest id plus one; the copies share the
services, the energy costs and the run settings. No rule couples two parts
of a network that share no edge, and the kernel dispatches a tick's events
in the order they were scheduled and bills and samples devices in id order,
so each copy's events keep the lone run's order. ``project(log, stride)``
takes what a finished run holds of each copy, with its ids shifted back:
its trace lines without their seq (the one ``boundary`` line of a window
serves every copy), its initial, final and per-window energies and served
samples, its downtime, verdicts, episodes, cluster records and injections.
The run's counters must be k times the lone run's.

Only ``drop=0`` runs are compared. With ``drop>0`` every send draws from
the kernel's one seeded generator, which the copies share by design, so a
copy's drops depend on the draws of every copy that sent before it.

The oracle needs nothing recorded, so it still holds in a change that
re-records every digest; and an ordering fault that a small network hides,
such as iterating a set of node ids, shows on a larger union.
``tests/storms.py`` runs it on ``large-net`` x 16 (25,600 nodes).
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

import pytest

from ubisim.detection import DetectionVerdict
from ubisim.engine import Engine
from ubisim.scenario import InjectItem, NodeSpec, Scenario, WorkloadItem, parse_scenario
from ubisim.simkernel import KERNEL, RunLog

from test_invariants import SEEDS, hostile_scenario_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import scengen  # noqa: E402

# the detail fields of a trace line that name nodes; ``members`` is a list
NODE_FIELDS = re.compile(r"\b(to|from|head|node|members)=([\d,]*)")
PER_NODE = ("initial_energy", "final_energy", "window_energy", "window_served", "downtime")
COUNTERS = ("lost_requests", "drops", "dead_letters", "total_debited")


def stride_of(scenario: Scenario) -> int:
    return max(n.id for n in scenario.nodes) + 1


def union(scenario: Scenario, k: int) -> Scenario:
    """``k`` disjoint copies of ``scenario``; copy c's ids are shifted by c strides."""
    offsets = [c * stride_of(scenario) for c in range(k)]
    return Scenario(
        services=scenario.services,
        nodes=[NodeSpec(n.id + o, n.energy, n.overrides) for o in offsets for n in scenario.nodes],
        edges=[(a + o, b + o) for o in offsets for a, b in scenario.edges],
        energy=scenario.energy,
        workload=[WorkloadItem(w.at, w.node + o, w.service, w.n)
                  for o in offsets for w in scenario.workload],
        injections=[InjectItem(i.at, i.node + o, i.service, i.load)
                    for o in offsets for i in scenario.injections],
        run=scenario.run,
    )


def unshift(line: str, stride: int) -> tuple[int | None, str]:
    """The copy a trace line belongs to (None for a boundary, which has no
    node) and the line without its seq, each node id shifted into copy 0."""
    tick, _seq, target, rest = line.split(" ", 3)
    ids = [] if target == KERNEL else [int(target)]

    def shift(match) -> str:
        nodes = [int(n) for n in match[2].split(",") if n]
        ids.extend(nodes)
        return f"{match[1]}=" + ",".join(str(n % stride) for n in nodes)

    rest = NODE_FIELDS.sub(shift, rest)
    copies = {n // stride for n in ids}
    assert len(copies) <= 1, f"one line names nodes of two copies: {line}"
    if target != KERNEL:
        target = str(ids[0] % stride)
    return (copies.pop() if copies else None), f"{tick} {target} {rest}"


def project(log: RunLog, stride: int) -> dict[int, dict]:
    """Each copy's records in ``log``, keyed by copy, with node ids shifted
    into copy 0; episode ids (node, window) shift with their node."""
    records = {
        "verdicts": ((v.node, DetectionVerdict(v.node % stride, v.window, v.overloaded,
                                               v.energy_anomaly)) for v in log.verdicts),
        "episodes": ((e.node, dataclasses.replace(
            e, node=e.node % stride, head=e.head % stride,
            involved=tuple(n % stride for n in e.involved))) for e in log.episodes),
        "cluster_records": ((head, (tick, head % stride, tuple(m % stride for m in members)))
                            for tick, head, members in log.cluster_records),
        "injections": ((i.node, dataclasses.replace(i, node=i.node % stride))
                       for i in log.injections),
    }
    facts = {c: {"lines": [], **{name: {} for name in PER_NODE}, **{name: [] for name in records}}
             for c in {n // stride for n in log.initial_energy}}
    for line in log.lines:
        copy, text = unshift(line, stride)
        for c in facts if copy is None else (copy,):
            facts[c]["lines"].append(text)
    for name in PER_NODE:
        for n, value in getattr(log, name).items():
            facts[n // stride][name][n % stride] = value
    for name, shifted in records.items():
        for node, record in shifted:
            facts[node // stride][name].append(record)
    return facts


def union_mismatches(scenario: Scenario, k: int) -> list[str]:
    """What the run of ``union(scenario, k)`` holds of any copy that the lone
    run of ``scenario`` does not; empty when every copy matches."""
    assert scenario.run.drop == 0.0, "drop > 0 couples the copies through one generator"
    stride = stride_of(scenario)
    lone = Engine(scenario).run()
    whole = Engine(union(scenario, k)).run()
    want = project(lone, stride)[0]
    found = [f"{name}: {getattr(whole, name)} != {k} x {getattr(lone, name)}"
             for name in COUNTERS if getattr(whole, name) != k * getattr(lone, name)]
    if whole.windows_completed != lone.windows_completed:
        found.append("windows_completed")
    for copy, got in project(whole, stride).items():
        found += [f"copy {copy}: {name}" for name in want if got[name] != want[name]]
    return found


def hostile(seed: int, mode: str) -> Scenario:
    scenario = parse_scenario(hostile_scenario_text(seed))
    scenario.run.mode = mode
    return scenario


DROP_FREE_SEEDS = [seed for seed in SEEDS if hostile(seed, "dynamic").run.drop == 0.0]


def test_the_drop_free_seeds_are_the_known_ones():
    assert len(DROP_FREE_SEEDS) == 155


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_hostile_drop_free_union_of_three(mode):
    found = {seed: union_mismatches(hostile(seed, mode), 3) for seed in DROP_FREE_SEEDS}
    assert {seed: diffs for seed, diffs in found.items() if diffs} == {}


@pytest.mark.parametrize("workload", ["large-net", "long-horizon"])
def test_benchmark_workload_union_of_four(workload):
    assert union_mismatches(parse_scenario(scengen.generate(workload, 1)), 4) == []


def test_union_shifts_every_id_of_a_line():
    assert unshift("7 3 KERNEL cluster head=12 members=10,13", 5) == (
        2, "7 KERNEL cluster head=2 members=0,3")
    assert unshift("7 4 KERNEL boundary window=0", 5) == (None, "7 KERNEL boundary window=0")
    assert unshift("9 8 11 plan node=13 window=0 directives=1 moved=2 residual=0", 5) == (
        2, "9 1 plan node=3 window=0 directives=1 moved=2 residual=0")
    with pytest.raises(AssertionError):
        unshift("9 8 11 send to=3 kind=report", 5)
