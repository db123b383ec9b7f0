import random

import pytest

from ubisim.model import DeviceState, EnergySpec
from ubisim.scenario import parse_scenario


@pytest.fixture
def params():
    return EnergySpec(idle=1, tx=2, rx=1, request_default=5)


def make_device(nid=0, energy=10_000, capacities=None, neighbors=(), **kw):
    return DeviceState(
        id=nid,
        neighbors=set(neighbors),
        energy_mj=energy,
        capacities=dict(capacities or {"Print": 34}),
        **kw,
    )


TWO_NODE_SCENARIO = """
[services]
name=View capacity=123

[nodes]
id=0
id=1

[edges]
a=0 b=1

[energy]
idle=1 tx=2 rx=1 request=5

[inject]
at=12 node=1 service=View load={load}

[run]
ticks=30 window=10 mode=dynamic seed=1
"""


def two_node_scenario(load):
    return parse_scenario(TWO_NODE_SCENARIO.format(load=load))


def random_scenario_text(seed):
    """Small random but valid scenario; connected topology, mixed injections."""
    rng = random.Random(seed)
    n_nodes = rng.randint(4, 8)
    services = [f"S{i}" for i in range(rng.randint(2, 3))]
    caps = {s: rng.randint(5, 30) for s in services}
    lines = ["[services]"]
    lines += [f"name={s} capacity={caps[s]}" for s in services]
    lines.append("[nodes]")
    lines += [f"id={i} energy={rng.randint(3000, 10000)}" for i in range(n_nodes)]
    lines.append("[edges]")
    edges = set()
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        edges.add((j, i))
    for _ in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(range(n_nodes), 2)
        edges.add((min(a, b), max(a, b)))
    lines += [f"a={a} b={b}" for a, b in sorted(edges)]
    lines.append("[energy]")
    lines.append("idle=1 tx=2 rx=1 request=3")
    lines.append("[workload]")
    for _ in range(rng.randint(0, 4)):
        lines.append(
            f"at={rng.randint(0, 15)} node={rng.randrange(n_nodes)} "
            f"service={rng.choice(services)} n={rng.randint(0, 8)}"
        )
    lines.append("[inject]")
    for _ in range(rng.randint(0, 3)):
        svc = rng.choice(services)
        lines.append(
            f"at={rng.randint(10, 19)} node={rng.randrange(n_nodes)} "
            f"service={svc} load={rng.randint(0, 2 * caps[svc])}"
        )
    mode = rng.choice(["dynamic", "static"])
    lines.append("[run]")
    lines.append(f"ticks=40 window=10 mode={mode} seed={seed}")
    return "\n".join(lines) + "\n"
