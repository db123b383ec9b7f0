"""Energy billing pinned on hostile settings, and its cost at long horizons.

Each golden digest is the sha256 of ``RunLog.serialize()``, ``final_energy``
and ``window_energy`` as recorded with the per-tick billing loop, which
billed every live device once per tick in id order. Billing idle spans in
closed form, and radio at a later bill of the same window, must reproduce
those bytes exactly.
"""

import hashlib

import pytest

import ubisim.simkernel
from ubisim.clustering import Cluster
from ubisim.engine import run_scenario
from ubisim.model import EnergySpec
from ubisim.scenario import parse_scenario
from ubisim.simkernel import Resume, Simulation

from conftest import make_device
from test_invariants import SEEDS, hostile_scenario_text


def scenario_text(*, nodes, edges, energy="idle=1 tx=2 rx=1 request=1",
                  workload=(), inject=(), run="ticks=40 window=10 mode=dynamic seed=1"):
    lines = ["[services]", "name=P capacity=20", "name=Q capacity=8", "[nodes]"]
    lines += [f"id={i} energy={e}" for i, e in enumerate(nodes)]
    lines.append("[edges]")
    lines += [f"a={a} b={b}" for a, b in edges]
    lines += ["[energy]", energy, "[workload]", *workload, "[inject]", *inject]
    lines += ["[run]", run]
    return "\n".join(lines) + "\n"


STAR = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]
LOAD = ["at=0 node=1 service=P n=12", "at=3 node=2 service=Q n=5"]
OVERLOAD = ["at=12 node=1 service=P load=30", "at=14 node=4 service=Q load=11"]

CASES = {
    "idle_zero": (
        scenario_text(nodes=[900, 300, 40, 25, 500], edges=STAR,
                      energy="idle=0 tx=3 rx=2 request=1", workload=LOAD, inject=OVERLOAD),
        "f6fa7f58d5a51d5941e38a59f47cb7fafe113624c95beba56ab7ee463d6656b1",
    ),
    "idle_exceeds_battery": (
        scenario_text(nodes=[900, 5, 7, 6, 500], edges=STAR,
                      energy="idle=7 tx=2 rx=1 request=1", workload=LOAD, inject=OVERLOAD),
        "ee5b8fe982979d3cd86f5c0d5702ebd1f56517a85a7a16849fbdf2b878572c0d",
    ),
    "batteries_0_and_1": (
        scenario_text(nodes=[600, 0, 1, 0, 300], edges=STAR, workload=LOAD, inject=OVERLOAD),
        "79e0114e6176005305ac088572e2e29eb75b215feffa56b8e28aa528c13f9605",
    ),
    "ticks_not_multiple_of_window": (
        scenario_text(nodes=[700, 250, 130, 64, 200], edges=STAR,
                      energy="idle=3 tx=2 rx=1 request=2", workload=LOAD, inject=OVERLOAD,
                      run="ticks=47 window=10 mode=dynamic seed=2"),
        "11825b3ad46420b202b7481649b9048b3aa1e7946efb9a4f87bba86b41268361",
    ),
    "latency_longer_than_window": (
        scenario_text(nodes=[800, 300, 90, 150, 400], edges=STAR,
                      energy="idle=2 tx=2 rx=1 request=1", workload=LOAD, inject=OVERLOAD,
                      run="ticks=45 window=5 mode=dynamic seed=3 latency=13"),
        "8321cdae644519925c4831bdaed208e01a26443be74e857a0dbebcb64672e1ec",
    ),
    "drop_all": (
        scenario_text(nodes=[500, 300, 90, 150, 400], edges=STAR,
                      energy="idle=2 tx=2 rx=1 request=1", workload=LOAD, inject=OVERLOAD,
                      run="ticks=40 window=10 mode=dynamic seed=4 drop=1.0"),
        "f455db4094661e845e042b82083f9b743e66e87b0f4219f8726a4ae5ee853760",
    ),
    "quiesce_zero": (
        scenario_text(nodes=[900, 400, 300, 200, 600], edges=STAR,
                      energy="idle=2 tx=2 rx=1 request=1", workload=LOAD, inject=OVERLOAD,
                      run="ticks=40 window=10 mode=static seed=5 quiesce_ticks=0"),
        "3189200547d9b75de097bc5022087a44517c94669b12274a6ed89f39e5902158",
    ),
    # Head 1 runs dry at tick 25, mid-window, while members 0 and 2 have
    # equal charge. At that moment member 0 (below the head's id) has been
    # billed through tick 25 and member 2 (above it) only through tick 24,
    # so member 2 holds more charge and wins the re-election.
    "head_depletes_mid_window_tie": (
        scenario_text(nodes=[95, 100, 95], edges=[(0, 1), (1, 2), (0, 2)],
                      energy="idle=2 tx=2 rx=1 request=1",
                      workload=["at=0 node=1 service=P n=20"],
                      run="ticks=40 window=10 mode=dynamic seed=3"),
        "55781a5652c07e8b27a05e6a0fe553b445146bd2294b0174ec9725b32b91deee",
    ),
}


def run_digest(text):
    _report, log = run_scenario(parse_scenario(text))
    h = hashlib.sha256(log.serialize().encode())
    h.update(repr(sorted(log.final_energy.items())).encode())
    h.update(repr(sorted(log.window_energy.items())).encode())
    return h.hexdigest(), log


@pytest.mark.parametrize("name", sorted(CASES))
def test_hostile_case_matches_per_tick_billing(name):
    text, golden = CASES[name]
    digest, log = run_digest(text)
    assert digest == golden
    consumed = sum(log.initial_energy[n] - log.final_energy[n] for n in log.initial_energy)
    assert consumed == log.total_debited


def test_mid_window_reelection_reads_energies_at_the_billing_cursor():
    _digest, log = run_digest(CASES["head_depletes_mid_window_tie"][0])
    assert "25 26 1 depleted" in log.lines
    assert "21 27 KERNEL cluster head=2 members=0" in log.lines


def _billing_calls(monkeypatch, window):
    calls = []
    original = ubisim.simkernel.consume_energy

    def counting(device, activity, params):
        calls.append(device.id)
        return original(device, activity, params)

    monkeypatch.setattr(ubisim.simkernel, "consume_energy", counting)
    text = scenario_text(
        nodes=[90_000, 80_000, 80_000, 70_000, 70_000], edges=STAR,
        workload=[f"at={w * window} node=1 service=P n=4" for w in range(4)],
        inject=[f"at={w * window + 2} node=2 service=P load=25" for w in range(4)],
        run=f"ticks={6 * window} window={window} mode=dynamic seed=7",
    )
    _report, log = run_scenario(parse_scenario(text))
    assert log.windows_completed == 6
    return len(calls)


def test_billing_calls_scale_with_activity_not_ticks(monkeypatch):
    short = _billing_calls(monkeypatch, 10)
    long = _billing_calls(monkeypatch, 100)
    assert short == long


def test_radio_rides_the_window_end_bill(monkeypatch):
    # every member reports every window and no battery runs low
    assert _billing_calls(monkeypatch, 10) == 5 * 6


def _member_bills(monkeypatch, battery, ticks):
    """The run's digest and, for each bill of member 1, the tick it was
    billed through, the messages it sent in it and the charge it left."""
    bills = []
    original = ubisim.simkernel.consume_energy

    def recording(device, activity, params):
        debit = original(device, activity, params)
        if device.id == 1:
            through = (bills[-1][0] if bills else -1) + activity.ticks
            bills.append((through, activity.msgs_tx, device.energy_mj))
        return debit

    monkeypatch.setattr(ubisim.simkernel, "consume_energy", recording)
    digest, _log = run_digest(scenario_text(
        nodes=[10_000, battery], edges=[(0, 1)], energy="idle=1 tx=2 rx=0 request=0",
        run=f"ticks={ticks} window=10 mode=dynamic seed=1"))
    return digest, bills


# Member 1 is billed at tick 9 and sends its window-0 report at tick 10.
# The report's 2 mJ may be owed as long as the member keeps 1 mJ at the tick
# before its next bill: tick 18 before the window-end bill at 19, a charge of
# 12 after tick 9, or tick 13 before the horizon at 14, a charge of 7.
@pytest.mark.parametrize("battery, ticks, golden, bills", [
    (22, 30, "981c7df23183b92b42b8ba455a78411bf1113406d9df78330269df860bd307d9",
     [(9, 0, 12), (19, 1, 0)]),   # exactly at the margin: owed until tick 19
    (21, 30, "95ee5d3d303bc1efa34afcbcd793821171adf79fd7ff1966efb2237b1e5d6abb",
     [(9, 0, 11), (10, 1, 8), (18, 0, 0)]),   # 1 mJ past it: billed at tick 10
    (13, 30, "bad6676707422483f37430e7af84472155c44451074c03912eefc5b8cc25c1ad",
     [(9, 0, 3), (10, 1, 0)]),   # the report empties the battery at tick 10
    (17, 14, "e2953aa5ffefdb88283231a7f490d1ad82b1a30b63ce45c7310fb60c62b096f0",
     [(9, 0, 7), (13, 1, 1)]),   # at the margin the horizon sets: owed to the end
], ids=["at_margin", "past_margin", "empties", "at_horizon_margin"])
def test_report_is_billed_at_its_tick_only_past_the_margin(monkeypatch, battery, ticks,
                                                           golden, bills):
    digest, member_bills = _member_bills(monkeypatch, battery, ticks)
    assert digest == golden
    assert member_bills == bills


def test_radio_past_the_horizon_is_never_billed():
    devs = [make_device(0, energy=1_000), make_device(1, energy=1_000, neighbors={0})]
    sim = Simulation(devs, EnergySpec(idle=1, tx=5, rx=3), window=10, horizon=15)
    sim.install_clusters([Cluster(0, frozenset({1}))])
    for tick in (17, 19):
        sim.schedule(tick, Resume(0))
        sim.step()
        sim.send(1, 0, "report")
    log = sim.run_until(30)
    assert log.final_energy == {0: 985, 1: 985}
    assert log.total_debited == 30


def test_hostile_seeds_keep_their_ledgers():
    # 862 and 1422 re-elect a head mid-tick while a member has radio owed at
    # the open tick, which the re-election must not read
    h = hashlib.sha256()
    for seed in [*SEEDS, 862, 1422]:
        _report, log = run_scenario(parse_scenario(hostile_scenario_text(seed)))
        h.update(log.serialize().encode())
        h.update(repr(sorted(log.final_energy.items())).encode())
        h.update(repr(sorted(log.window_energy.items())).encode())
        h.update(repr(log.total_debited).encode())
    assert h.hexdigest() == "8e6d68466546abdd59e3a39c311b98086d6c0be69648606e21a765821916c022"


def test_energy_reads_settle_through_the_tick_before_the_clock():
    devs = [make_device(0, energy=1_000), make_device(1, energy=1_000, neighbors={0})]
    sim = Simulation(devs, EnergySpec(idle=3), window=100, horizon=100)
    sim.schedule(50, Resume(0))  # node 0 is running: a no-op event
    sim.step()
    assert sim.devices[1].energy_mj == 1_000  # ticks 0-49 not billed yet
    assert sim.energy(1) == 1_000 - 3 * 50
    assert sim.log.total_debited == 3 * 50
    log = sim.run_until(100)
    assert log.final_energy == {0: 700, 1: 700}
    assert log.total_debited == 600
