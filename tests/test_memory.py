"""What a finished run keeps grows by a bounded amount per node-window.

A steady run, in which every node serves the same load every window, is
built and run under tracemalloc at W and at 4W windows. The bytes still
traced once ``Engine.run`` returns, with the engine and its log alive, are
compared: their difference over the 3W extra windows is what each extra
node-window keeps. That is its verdict line, its periodic report's send and
deliver lines, its ``DetectionVerdict``, and one slot each in
``window_energy`` and ``window_served``. A steady node-window's served
sample is the one its node archived first, and a normal verdict's
``overloaded`` is the shared empty map, so neither costs a new dict.

The bound sits between the two. On Python 3.10 to 3.13 (x86-64) the run
keeps 316-368 B per extra node-window when it shares them, and 562-663 B
when each node-window holds its own served dict and empty overload map.
The module needs no pytest: ``python tests/test_memory.py`` prints the
figure under any interpreter.
"""

import gc
import tracemalloc

from ubisim.engine import Engine
from ubisim.scenario import parse_scenario

NODES, WINDOW, WINDOWS = 40, 10, 10
BOUND = 450  # bytes retained per extra node-window


def steady_scenario_text(windows):
    """``NODES`` nodes on a ring, each given 10 requests of one service at
    tick 0 and none after, run for ``windows`` windows; every node reports
    every window, no verdict alerts and no battery runs low."""
    lines = ["[services]", "name=S capacity=30", "[nodes]"]
    lines += [f"id={i} energy=1000000" for i in range(NODES)]
    lines.append("[edges]")
    lines += [f"a={i} b={i + 1}" for i in range(NODES - 1)]
    lines.append(f"a=0 b={NODES - 1}")
    lines += ["[energy]", "idle=1 tx=2 rx=1 request=1", "[workload]"]
    lines += [f"at=0 node={i} service=S n=10" for i in range(NODES)]
    lines += ["[run]", f"ticks={windows * WINDOW} window={WINDOW} mode=dynamic seed=1"]
    return "\n".join(lines) + "\n"


def retained_bytes(windows):
    """Bytes traced after a steady run of ``windows`` windows, counted from
    before its engine was built."""
    scenario = parse_scenario(steady_scenario_text(windows))
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(scenario)
        log = engine.run()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert log.windows_completed == windows and not log.episodes
    del engine, log
    return kept


def bytes_per_extra_node_window():
    extra = retained_bytes(4 * WINDOWS) - retained_bytes(WINDOWS)
    return extra / (NODES * 3 * WINDOWS)


def test_steady_runs_keep_a_bounded_tail():
    per_node_window = bytes_per_extra_node_window()
    assert per_node_window < BOUND, per_node_window


if __name__ == "__main__":
    print(f"{bytes_per_extra_node_window():.0f} B per extra node-window, bound {BOUND}")
