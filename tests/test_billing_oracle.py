"""Event-driven billing against the per-tick reference kernel.

``billing_oracle.compare`` runs a scenario on both kernels; they must agree
on the trace, the final and per-window energies and the total debited, and
every bill the real kernel makes off a window's last tick must be one that
the per-tick charges show was needed. Here that holds over the hostile
seeds of both generator modes in both run modes, and over the pinned
scenarios: the bundled ones, random seeds 0-99 and the hostile billing
cases. ``python tests/billing_oracle.py`` runs seeds 0-2999.
"""

import pytest

from ubisim.cli import bundled_scenario_text

from billing_oracle import BillRecorder, run_on, sweep
from conftest import random_scenario_text
from test_billing import CASES
from test_invariants import SEEDS, hostile_scenario_text
from test_trace_digests import BUNDLED


# Past SEEDS, the first seeds of each generator mode whose runs differ when
# a settling ``Simulation.energy`` read bills the radio of the open tick
OPEN_TICK_SEEDS = {False: [862, 1422], True: [367, 789]}


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("margin", [False, True], ids=["hostile", "margin"])
def test_per_tick_billing_agrees_on_hostile_seeds(margin, mode):
    seeds = [*SEEDS, *OPEN_TICK_SEEDS[margin]]
    texts = [(seed, hostile_scenario_text(seed, margin=margin)) for seed in seeds]
    assert sweep(texts, modes=(mode,)) == {}


def test_per_tick_billing_agrees_on_pinned_scenarios():
    texts = [(name, bundled_scenario_text(name)) for name in sorted(BUNDLED)]
    texts += [(seed, random_scenario_text(seed)) for seed in range(100)]
    texts += sorted((name, text) for name, (text, _digest) in CASES.items())
    assert len(texts) == 119
    assert sweep(texts, modes=(None,)) == {}


def test_margin_space_bills_radio_before_the_window_ends():
    # the margin mode reaches what it is for: in many of its runs some live
    # device is billed mid-window and survives the bill, which only radio
    # past its margin causes
    runs = 0
    for seed in SEEDS:
        text = hostile_scenario_text(seed, margin=True)
        sim, log = run_on(BillRecorder, text)
        assert sim.horizon % sim.window, seed
        depletions = set()
        for line in log.lines:
            tick, _seq, node, kind = line.split(" ", 4)[:4]
            if kind == "depleted":
                depletions.add((int(node), int(tick)))
        runs += any(bill not in depletions for bill in sim.early)
    assert runs >= 50
