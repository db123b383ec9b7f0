"""Run invariants over seeded random scenarios from the hostile space.

Each seed builds a small scenario with settings the happy-path tests avoid:
latency up to 20 (often above the window), drop rates up to 1.0, batteries
from 0 mJ with idle draw that can exceed them, horizons that are not a
multiple of the window, ``quiesce_ticks=0`` and ``staleness_max=0``, in both
modes. Every run must finish and keep the energy ledger, per-service load
in dynamic plans, demand and the message count exact. At every boundary the
routing registry names a live head for every live node, which is where its
agent reports, and a node that depletes is installed as a head at most once
after, as a singleton. ``assert_run_keeps_invariants`` checks all of this
for one scenario text, so any generator can feed it; ``tests/storms.py``
runs it on large re-formation storms.

A node-window's served sample is one object shared by the agent's sample,
the controller's view and ``RunLog.window_served``, and by later windows of
its node that served the same load; the overloads every verdict saw must
still be what the log archived, here and on the bundled scenarios. Sharing
an equal sample keeps the trace bytes only while every device's load keys
are its capacity keys in capacity order, and every sample archived for it
has those keys in that order or is the one ``NOTHING_SERVED``; every run
checks both.
There too, an episode that moved nothing keeps its before totals and Jain
indices as its after ones, and every live controller's view holds its
cluster's nodes in id order. Every run also has one archived draw and
served sample per node and completed window, and each node's draws add up
to what it consumed (to at most that, when the horizon ends mid-window).
"""

import random

import pytest

from ubisim.cli import bundled_scenario_text
from ubisim.engine import Engine, run_scenario
from ubisim.model import Status
from ubisim.scenario import parse_scenario
from ubisim.simkernel import NOTHING_SERVED, Simulation

from test_trace_digests import BUNDLED

# 848, 1380 and 2251 are the first seeds past 299 in which a head depletes
# while its agent deploy to a member is in flight; the member, re-clustered
# under a new head, must report there and not to the sender of the deploy
REROUTED_SEEDS = [848, 1380, 2251]
SEEDS = [*range(300), *REROUTED_SEEDS]


def hostile_scenario_text(seed, *, margin=False):
    """One scenario of the hostile space. ``margin=True`` stresses the
    margin up to which event-driven billing lets a device owe its radio:
    every horizon ends mid-window, every battery holds one to four windows
    of idle draw and a few messages more, and a message costs up to 9 mJ to
    send and to receive, which a head pays for each report of its members."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 7)
    services = [f"S{i}" for i in range(rng.randint(1, 3))]
    caps = {s: rng.randint(1, 30) for s in services}
    window = rng.randint(2 if margin else 1, 12)
    ticks = rng.randint(window, 6 * window + 5)
    if margin:
        if ticks % window == 0:
            ticks += 1
        idle, tx, rx = rng.randint(1, 4), rng.randint(0, 9), rng.randint(1, 9)
    lines = ["[services]"]
    lines += [f"name={s} capacity={caps[s]}" for s in services]
    lines.append("[nodes]")
    for i in range(n_nodes):
        if margin:
            energy = idle * window * rng.randint(1, 4) + rng.randint(0, 4 * (tx + rx))
        else:
            energy = rng.choice([0, 1, rng.randint(2, 60), rng.randint(500, 5000),
                                 rng.randint(500, 5000)])
        lines.append(f"id={i} energy={energy}")
    lines.append("[edges]")
    edges = {(rng.randrange(i), i) for i in range(1, n_nodes)}
    for _ in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(range(n_nodes), 2)
        edges.add((min(a, b), max(a, b)))
    lines += [f"a={a} b={b}" for a, b in sorted(edges)]
    lines.append("[energy]")
    if not margin:
        idle = rng.choice([0, 1, 2, rng.randint(3, 70)])
        tx, rx = rng.randint(0, 4), rng.randint(0, 3)
    lines.append(f"idle={idle} tx={tx} rx={rx} request={rng.randint(0, 3)}")
    lines.append("[workload]")
    for _ in range(rng.randint(0, 6)):
        lines.append(f"at={rng.randint(0, ticks)} node={rng.randrange(n_nodes)} "
                     f"service={rng.choice(services)} n={rng.randint(0, 10)}")
    lines.append("[inject]")
    for _ in range(rng.randint(0, 6)):
        svc = rng.choice(services)
        lines.append(f"at={rng.randint(0, ticks)} node={rng.randrange(n_nodes)} "
                     f"service={svc} load={rng.randint(0, 3 * caps[svc])}")
    drop = rng.choice([0.0, 0.0, round(rng.random(), 3), 1.0])
    lines.append("[run]")
    lines.append(
        f"ticks={ticks} window={window} mode={rng.choice(['dynamic', 'static'])} "
        f"seed={seed} latency={rng.choice([1, 1, rng.randint(1, 20)])} drop={drop} "
        f"report_every={rng.randint(1, 3)} quiesce_ticks={rng.randint(0, 4)} "
        f"staleness_max={rng.randint(0, 3)} "
        f"energy_tolerance={rng.choice(['0', '0.1', '0.15', '0.5'])}"
    )
    return "\n".join(lines) + "\n"


def in_flight(log, latency, horizon):
    """Sends due after the horizon, which are still queued when the run ends."""
    late = 0
    for line in log.lines:
        tick, _seq, _target, kind = line.split(" ", 4)[:4]
        if kind == "send" and int(tick) + latency > horizon:
            late += 1
    return late


def observed_run(scenario, monkeypatch):
    """``run_scenario`` with its engine kept, the radio counted and each
    boundary's stray heads listed.

    A ``Simulation.send`` that returns has transmitted (and possibly dropped)
    one message; every message that reaches the engine's hook over the air
    was received. A stray head is a depleted node that ``sim.head_of`` names
    for a live node when a boundary's agents are about to report.
    """
    engines, radio, strays = [], {"tx": 0, "rx": 0}, []
    send, on_message, run = Simulation.send, Engine._on_message, Engine.run
    on_boundary = Engine._on_boundary

    def counting_send(self, *args):
        send(self, *args)
        radio["tx"] += 1

    def counting_on_message(self, msg):
        if msg.sender != msg.receiver:
            radio["rx"] += 1
        on_message(self, msg)

    def keeping_run(self):
        engines.append(self)
        return run(self)

    def checking_on_boundary(self, window):
        devices, head_of = self.sim.devices, self.sim.head_of
        strays.extend((window, n, head_of[n]) for n, dev in devices.items()
                      if dev.status is not Status.DEPLETED
                      and devices[head_of[n]].status is Status.DEPLETED)
        on_boundary(self, window)

    monkeypatch.setattr(Simulation, "send", counting_send)
    monkeypatch.setattr(Engine, "_on_message", counting_on_message)
    monkeypatch.setattr(Engine, "run", keeping_run)
    monkeypatch.setattr(Engine, "_on_boundary", checking_on_boundary)
    report, log = run_scenario(scenario)
    return engines[0], report, log, radio, strays


def heads_installed_after_depletion(log):
    """Per node with a ``depleted`` line: the member lists of each cluster
    installed with it as head after that line."""
    installed = {}
    for line in log.lines:
        _tick, _seq, target, kind, *details = line.split()
        if kind == "depleted":
            installed[int(target)] = []
        elif kind == "cluster":
            head, members = (d.split("=")[1] for d in details)
            if int(head) in installed:
                installed[int(head)].append(members)
    return installed


def assert_overloads_match_served(log):
    """Each verdict's overloads equal the served counts the log archived."""
    for v in log.verdicts:
        served = log.window_served[v.node][v.window]
        for svc, o in v.overloaded.items():
            assert o.observed == served[svc], (v.node, v.window, svc)


def assert_samples_keep_key_order(engine, log):
    """Each device's load keys are its capacity keys, in capacity order, and
    each served sample its node archived is ``NOTHING_SERVED`` or has those
    keys in that order, so equal samples iterate alike."""
    assert NOTHING_SERVED == {}
    for nid, dev in engine.sim.devices.items():
        keys = list(dev.capacities)
        assert list(dev.load) == keys, nid
        for window, sample in enumerate(log.window_served[nid]):
            assert sample is NOTHING_SERVED or list(sample) == keys, (nid, window)


def assert_each_window_archived_once(log, run):
    """Each node has one draw and one served sample for each completed
    window, and its draws add up to what it consumed: all of it when the
    horizon ends a window, and at most all of it otherwise, since the bills
    of a last, partial window go to no archive."""
    assert log.windows_completed == run.ticks // run.window
    for nid, initial in log.initial_energy.items():
        draws = log.window_energy[nid]
        assert len(draws) == len(log.window_served[nid]) == log.windows_completed, nid
        consumed = initial - log.final_energy[nid]
        if run.ticks % run.window == 0:
            assert sum(draws) == consumed, nid
        else:
            assert sum(draws) <= consumed, nid


def assert_correction_bookkeeping(engine, log):
    """Episodes' books and the controllers' views are consistent.

    Each episode service's excess is either moved or left as residual, and
    an episode that moved nothing changed no total or Jain index. Every
    controller is a live head's, every live head that ``sim.head_of`` routes
    to has one, and its view's entries are, in id order, the nodes
    ``head_of`` routes to it: ``Engine._on_depleted`` looks the controller
    up by ``head_of`` alone, and re-forms from the view's entries.
    """
    for ep in log.episodes:
        for svc, se in ep.services.items():
            assert se.moved + se.residual == se.excess_before, (ep.node, ep.window, svc)
        if all(se.moved == 0 for se in ep.services.values()):
            assert ep.jain_after == ep.jain_before, (ep.node, ep.window)
            assert ep.totals_after == ep.totals_before, (ep.node, ep.window)
    sim = engine.sim
    routed = {}
    for n in sorted(sim.head_of):
        routed.setdefault(sim.head_of[n], []).append(n)
    live = {h for h in routed if sim.devices[h].status is not Status.DEPLETED}
    assert engine.controllers.keys() == live
    for head, view in engine.controllers.items():
        assert list(view.entries) == routed[head], head


def assert_run_keeps_invariants(text, mode=None):
    """Run scenario ``text`` (in ``mode``, if given) and check every run
    invariant: the energy ledger, load conservation in dynamic plans,
    non-negative demand, the served samples' key order, one archived record
    per node-window, the correction books and controller views, the message
    count, no stray head at any boundary, and no depleted node installed
    again as the head of anything but its own singleton."""
    scenario = parse_scenario(text)
    if mode is not None:
        scenario.run.mode = mode
    with pytest.MonkeyPatch.context() as monkeypatch:
        engine, _report, log, radio, strays = observed_run(scenario, monkeypatch)

    consumed = sum(log.initial_energy[n] - log.final_energy[n] for n in log.initial_energy)
    assert consumed == log.total_debited
    assert all(e >= 0 for e in log.final_energy.values())

    for ep in log.episodes:
        if ep.mode == "dynamic":
            assert ep.totals_before == ep.totals_after, (ep.node, ep.window)

    sim = engine.sim
    assert all(v >= 0 for dev in sim.devices.values() for v in dev.load.values())
    assert_overloads_match_served(log)
    assert_samples_keep_key_order(engine, log)
    run = scenario.run
    assert_each_window_archived_once(log, run)
    assert_correction_bookkeeping(engine, log)

    queued = in_flight(log, run.latency, run.ticks)
    assert radio["tx"] == radio["rx"] + log.drops + log.dead_letters + queued

    assert strays == []
    for node, installs in heads_installed_after_depletion(log).items():
        assert installs in ([], [""]), (node, installs)


@pytest.mark.parametrize("seed", SEEDS)
def test_hostile_run_keeps_invariants(seed):
    assert_run_keeps_invariants(hostile_scenario_text(seed))


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_overloads_match_served(name, mode):
    scenario = parse_scenario(bundled_scenario_text(name))
    scenario.run.mode = mode
    engine = Engine(scenario)
    log = engine.run()
    assert_overloads_match_served(log)
    assert_samples_keep_key_order(engine, log)
    assert_correction_bookkeeping(engine, log)


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_one_episode_per_alerting_node_window(mode):
    # an agent alerts at most once a boundary and re-formation replaces the
    # view, so no controller plans a node-window twice
    planned = 0
    for seed in SEEDS:
        scenario = parse_scenario(hostile_scenario_text(seed))
        scenario.run.mode = mode
        _report, log = run_scenario(scenario)
        keys = [(ep.node, ep.window) for ep in log.episodes]
        assert len(keys) == len(set(keys)), seed
        planned += len(keys)
    assert planned


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_rerouted_seeds_plan_at_the_live_head(mode):
    # 848: node 4 heads itself after head 1 depletes and 1's agent deploy to
    # it arrives late; its window-4 overload is planned all the same. 2251:
    # node 1's window-5 overload is planned where it now reports
    plans = {}
    for seed in (848, 2251):
        scenario = parse_scenario(hostile_scenario_text(seed))
        scenario.run.mode = mode
        _report, log = run_scenario(scenario)
        plans[seed] = [line.split(" ", 4)[4] for line in log.lines
                       if line.split()[3] == "plan"]
    assert any(p.startswith("node=4 window=4 ") for p in plans[848])
    assert any(p.startswith("node=1 window=5 ") for p in plans[2251])


def test_space_reaches_the_hostile_settings():
    runs = [parse_scenario(hostile_scenario_text(seed)).run for seed in SEEDS]
    assert any(r.latency > r.window for r in runs)
    assert any(r.drop == 1.0 for r in runs)
    assert any(r.ticks % r.window for r in runs)
    assert any(r.quiesce_ticks == 0 and r.mode == "static" for r in runs)
    assert any(r.staleness_max == 0 for r in runs)
    assert {r.mode for r in runs} == {"dynamic", "static"}
