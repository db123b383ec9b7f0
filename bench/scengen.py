"""Deterministic synthetic scenarios for the benchmark workloads.

``generate(workload, seed)`` returns scenario text (the ``.scn`` format) and
nothing else, so the simulator sees only what a user could hand it. The same
(workload, seed) always gives the same bytes: every random choice draws from
one ``random.Random`` seeded with a string, which Python hashes with SHA-512
rather than the per-process string hash.

Every workload uses two services and a connected topology: a ring (which
guarantees connectivity) plus two random chords per node, so the mean degree
is about 6 and the minimum about 4. Each node gets a standing demand at t=0
below its capacity; injections add demand on top, which the kernel keeps
until the controller migrates it away. Batteries, standing demands and
injected loads are evenly spaced values dealt out in seeded random order, so
seeds differ in where load and charge sit, not in how much there is: the
cost of a run varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SERVICES = {"S0": 40, "S1": 20}  # name -> default capacity (requests/window)
DEMAND_PCT = (25, 75)  # standing load per node at t=0, % of capacity


@dataclass(frozen=True)
class Workload:
    nodes: int
    ticks: int
    window: int
    mode: str
    injections_per_window: float
    energy: tuple[int, int]  # battery range (mJ), inclusive
    inject_load: tuple[int, int] = (50, 100)  # injected load, % of capacity
    latency: int = 1
    drop: float = 0.0

    @property
    def windows(self) -> int:
        return self.ticks // self.window


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "large-net": Workload(
        nodes=1600, ticks=60, window=10, mode="dynamic",
        injections_per_window=32, energy=(8_000, 12_000),
    ),
    "long-horizon": Workload(
        nodes=200, ticks=5000, window=100, mode="dynamic",
        injections_per_window=0.1, energy=(30_000, 40_000),
    ),
    "overload-storm": Workload(
        nodes=300, ticks=400, window=10, mode="static",
        injections_per_window=30, energy=(3_000, 9_000), inject_load=(100, 200),
        latency=2, drop=0.05,
    ),
}


def _edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for a in range(n):
        for _ in range(2):
            b = rng.randrange(n - 1)
            b += b >= a  # any node but a itself
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n evenly spaced values from lo to hi, in random order."""
    values = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(workload: str, seed: int) -> str:
    """Scenario text for ``workload`` drawn from ``seed``."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    services = sorted(SERVICES)
    out = ["[services]"]
    out += [f"name={s} capacity={SERVICES[s]}" for s in services]
    out += ["", "[nodes]"]
    out += [f"id={i} energy={e}" for i, e in enumerate(_spread(rng, *w.energy, w.nodes))]
    out += ["", "[edges]"]
    out += [f"a={a} b={b}" for a, b in _edges(rng, w.nodes)]
    out += ["", "[energy]", "idle=1 tx=2 rx=1 request=5", "", "[workload]"]
    demand = {s: _spread(rng, *(SERVICES[s] * pct // 100 for pct in DEMAND_PCT), w.nodes)
              for s in services}
    for i in range(w.nodes):
        out += [f"at=0 node={i} service={s} n={demand[s][i]}" for s in services]
    out += ["", "[inject]"]
    total = int(w.windows * w.injections_per_window)
    loads = {s: _spread(rng, *(SERVICES[s] * pct // 100 for pct in w.inject_load), total)
             for s in services}
    for j in range(total):  # injection j lands in window j * windows // total
        s = services[j % len(services)]
        at = j * w.windows // total * w.window + rng.randrange(w.window)
        out.append(f"at={at} node={rng.randrange(w.nodes)} service={s} load={loads[s][j]}")
    out += [
        "",
        "[run]",
        f"ticks={w.ticks} window={w.window} mode={w.mode} seed={seed} "
        f"latency={w.latency} drop={w.drop} report_every=1 quiesce_ticks=2 "
        f"staleness_max=2 energy_tolerance=0.1",
    ]
    return "\n".join(out) + "\n"
