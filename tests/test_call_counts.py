"""How many times a run calls each function the benchmark harness times.

The harness counts its layers by wrapping these names where they are looked
up (``bench/spans.py``); a fold on the hot path that skipped or doubled one
of them would change its per-layer counts without changing a trace byte.
The counts are pinned for the bundled scenarios and a few hostile seeds, in
both modes, as recorded before the path from the window-end bill to a
report's delivery was last made cheaper.
"""

import ubisim.engine
import ubisim.reconfig
import ubisim.simkernel
from ubisim.cli import bundled_scenario_text
from ubisim.engine import run_scenario
from ubisim.scenario import parse_scenario

from test_invariants import hostile_scenario_text
from test_trace_digests import BUNDLED

COUNTED = (
    (ubisim.engine, "collect"),
    (ubisim.engine, "control_compare"),
    (ubisim.reconfig, "control_compare"),
    (ubisim.engine, "report_alert"),
    (ubisim.engine, "plan_reconfiguration"),
    (ubisim.engine, "apply_dynamic"),
    (ubisim.engine, "apply_static"),
    (ubisim.simkernel, "consume_energy"),
    (ubisim.simkernel.Simulation, "step"),
    (ubisim.simkernel.Simulation, "send"),
)

HOSTILE = (5, 12, 37, 55, 848, 2251)
MARGIN = (19, 27)


def texts():
    """(label, text) of each counted scenario."""
    found = [(name, bundled_scenario_text(name)) for name in sorted(BUNDLED)]
    found += [(f"hostile {seed}", hostile_scenario_text(seed)) for seed in HOSTILE]
    found += [(f"margin {seed}", hostile_scenario_text(seed, margin=True)) for seed in MARGIN]
    return found


def counted_run(monkeypatch, text, mode):
    """The calls of each ``COUNTED`` name, in order, in one run of ``text``."""
    counts = [0] * len(COUNTED)
    for i, (owner, name) in enumerate(COUNTED):
        original = getattr(owner, name)

        def counting(*args, _i=i, _original=original, **kwargs):
            counts[_i] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    scenario = parse_scenario(text)
    scenario.run.mode = mode
    run_scenario(scenario)
    monkeypatch.undo()
    return tuple(counts)


# (label, mode) -> the calls of each COUNTED name, in order
PINNED = {
    ("fig3_family/feasible_print.scn", "dynamic"): (12, 12, 1, 12, 1, 1, 0, 12, 14, 13),
    ("fig3_family/feasible_print.scn", "static"): (12, 12, 1, 12, 1, 0, 1, 12, 16, 13),
    ("fig3_family/feasible_scan.scn", "dynamic"): (12, 12, 1, 12, 1, 1, 0, 12, 14, 13),
    ("fig3_family/feasible_scan.scn", "static"): (12, 12, 1, 12, 1, 0, 1, 12, 18, 13),
    ("fig3_family/feasible_sendemail.scn", "dynamic"): (12, 12, 1, 12, 1, 1, 0, 12, 14, 13),
    ("fig3_family/feasible_sendemail.scn", "static"): (12, 12, 1, 12, 1, 0, 1, 12, 17, 13),
    ("fig3_family/feasible_updatebdd.scn", "dynamic"): (12, 12, 1, 12, 1, 1, 0, 12, 14, 13),
    ("fig3_family/feasible_updatebdd.scn", "static"): (12, 12, 1, 12, 1, 0, 1, 12, 16, 13),
    ("fig3_family/feasible_view.scn", "dynamic"): (12, 12, 1, 12, 1, 1, 0, 12, 14, 13),
    ("fig3_family/feasible_view.scn", "static"): (12, 12, 1, 12, 1, 0, 1, 12, 16, 13),
    ("fig3_family/saturated_print.scn", "dynamic"): (6, 6, 1, 6, 1, 1, 0, 6, 8, 5),
    ("fig3_family/saturated_print.scn", "static"): (6, 6, 1, 6, 1, 0, 1, 6, 10, 5),
    ("fig3_family/saturated_scan.scn", "dynamic"): (6, 6, 1, 6, 1, 1, 0, 6, 8, 5),
    ("fig3_family/saturated_scan.scn", "static"): (6, 6, 1, 6, 1, 0, 1, 6, 10, 5),
    ("fig3_family/saturated_sendemail.scn", "dynamic"): (6, 6, 1, 6, 1, 1, 0, 6, 8, 5),
    ("fig3_family/saturated_sendemail.scn", "static"): (6, 6, 1, 6, 1, 0, 1, 6, 10, 5),
    ("fig3_family/saturated_updatebdd.scn", "dynamic"): (6, 6, 1, 6, 1, 1, 0, 6, 8, 5),
    ("fig3_family/saturated_updatebdd.scn", "static"): (6, 6, 1, 6, 1, 0, 1, 6, 10, 5),
    ("fig3_family/saturated_view.scn", "dynamic"): (6, 6, 1, 6, 1, 1, 0, 6, 8, 5),
    ("fig3_family/saturated_view.scn", "static"): (6, 6, 1, 6, 1, 0, 1, 6, 10, 5),
    ("table3.scn", "dynamic"): (24, 24, 5, 24, 5, 5, 0, 24, 34, 30),
    ("table3.scn", "static"): (24, 24, 5, 24, 5, 0, 5, 24, 40, 30),
    ("hostile 5", "dynamic"): (4, 4, 0, 4, 1, 1, 0, 9, 8, 4),
    ("hostile 5", "static"): (4, 4, 0, 4, 1, 0, 1, 9, 8, 4),
    ("hostile 12", "dynamic"): (9, 9, 3, 9, 5, 4, 0, 12, 11, 4),
    ("hostile 12", "static"): (9, 9, 3, 9, 5, 0, 4, 12, 13, 4),
    ("hostile 37", "dynamic"): (30, 30, 3, 30, 9, 6, 0, 36, 25, 10),
    ("hostile 37", "static"): (30, 30, 3, 30, 9, 0, 6, 36, 27, 10),
    ("hostile 55", "dynamic"): (8, 8, 5, 8, 7, 7, 0, 10, 16, 6),
    ("hostile 55", "static"): (8, 8, 5, 8, 7, 0, 7, 10, 18, 6),
    ("hostile 848", "dynamic"): (16, 16, 0, 16, 2, 2, 0, 18, 21, 8),
    ("hostile 848", "static"): (16, 16, 0, 16, 2, 0, 2, 18, 21, 8),
    ("hostile 2251", "dynamic"): (6, 6, 0, 6, 1, 1, 0, 8, 18, 1),
    ("hostile 2251", "static"): (6, 6, 0, 6, 1, 0, 1, 8, 18, 1),
    ("margin 19", "dynamic"): (7, 7, 0, 7, 0, 0, 0, 15, 19, 10),
    ("margin 19", "static"): (7, 7, 0, 7, 0, 0, 0, 15, 19, 10),
    ("margin 27", "dynamic"): (12, 12, 0, 12, 0, 0, 0, 27, 14, 7),
    ("margin 27", "static"): (12, 12, 0, 12, 0, 0, 0, 27, 14, 7),
}


def test_call_counts_are_pinned(monkeypatch):
    counts = {(label, mode): counted_run(monkeypatch, text, mode)
              for label, text in texts() for mode in ("dynamic", "static")}
    assert counts == PINNED
