"""A per-tick reference kernel: the live oracle for event-driven billing.

``PerTickSimulation`` bills the way the kernel did before its billing went
event-driven: every live device at every tick, in id order, with each
tick's radio in that tick's own ``consume_energy`` call, and a device's
charge read as it stands. ``compare`` runs one scenario on the real kernel
and then on it, and lists what differs:

- the trace, ``final_energy``, ``window_energy`` and ``total_debited``;
- any bill the real kernel made off a window's last tick that was not
  needed. Such a bill is needed only when, by idle draw alone from that
  tick on, the device's per-tick charge would fall below 1 mJ by the tick
  before its next window-end bill or the horizon, whichever comes first.

Run as a script, it compares hostile seeds 0-2999 of both generator modes,
each run in both modes. It also hashes the real kernel's trace,
``final_energy``, ``cluster_records`` and report of every hostile run into
one sha256 and checks it against ``HOSTILE_DIGEST``, so drift on any of
those seeds shows even where both kernels drift alike. Then it compares
seeds 1-3 of each benchmark workload (``bench/scengen.py``: up to 1,600
nodes, draining batteries) in both modes, outside the digest. It exits
non-zero on any difference, and prints its peak RSS last::

    PYTHONPATH=src python tests/billing_oracle.py
"""

from __future__ import annotations

import hashlib
import resource
import sys
from functools import partial
from pathlib import Path

import ubisim.engine
from ubisim.engine import Engine
from ubisim.metrics import build_report
from ubisim.model import Activity, Status, consume_energy
from ubisim.scenario import parse_scenario
from ubisim.simkernel import NOTHING_SERVED, Simulation

from test_invariants import hostile_scenario_text


# sha256 over the real kernel's outputs of the runs ``main`` compares, in order
HOSTILE_DIGEST = "93682653cc2a7f5046460de8d960389bed558e91b2c3f0ec6ae62a3b158812ec"


class PerTickSimulation(Simulation):
    """The kernel with per-tick billing; ``charge[node, tick]`` is a live
    device's charge after its bill for that tick, kept only for the
    (node, tick) pairs of ``keep``. It archives each node-window itself, at
    the node's bill on the window's last tick: ``drawn`` is what each node
    has been debited since its last archive."""

    def __init__(self, *args, keep, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._radio: dict[int, dict[int, list[int]]] = {}  # tick -> node -> [tx, rx]
        self._keep = keep
        self.charge: dict[tuple[int, int], int] = {}
        self.drawn = dict.fromkeys(self.devices, 0)

    def _owe(self, node: int, tx: int, rx: int) -> None:
        if self.clock < self.horizon:
            radio = self._radio.setdefault(self.clock, {}).setdefault(node, [0, 0])
            radio[0] += tx
            radio[1] += rx

    def energy(self, node: int) -> int:
        return self.devices[node].energy_mj

    def _flush_through(self, t: int) -> None:
        t = min(t, self.horizon - 1)
        while self._flushed_through < t:
            tt = self._flushed_through + 1
            radio = self._radio.pop(tt, {})
            window_last = (tt + 1) % self.window == 0
            log = self.log
            for nid in self._ids:
                dev = self.devices[nid]
                served = NOTHING_SERVED
                if dev.status is not Status.DEPLETED:
                    tx, rx = radio.get(nid, (0, 0))
                    if window_last and dev.status is Status.RUNNING:
                        served = dict(dev.load)
                        act = Activity(served, tx, rx)
                    else:
                        act = Activity(msgs_tx=tx, msgs_rx=rx)
                        if window_last:  # quiesced devices serve nothing
                            served = dict.fromkeys(dev.load, 0)
                    debit = consume_energy(dev, act, self.params)
                    log.total_debited += debit
                    self.drawn[nid] += debit
                    if (nid, tt) in self._keep:
                        self.charge[nid, tt] = dev.energy_mj
                    if dev.status is Status.DEPLETED:
                        self.emit(tt, nid, "depleted", "")
                        self.on_depleted(nid)
                if window_last:
                    log.window_energy[nid].append(self.drawn[nid])
                    self.drawn[nid] = 0
                    log.window_served[nid].append(served)
            if window_last:
                log.windows_completed = (tt + 1) // self.window
            self._flushed_through = tt


class BillRecorder(Simulation):
    """The real kernel, noting ``early``: the (node, tick) of each bill off a
    window's last tick that is not a settling ``energy`` read."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.early: list[tuple[int, int]] = []
        self._reading = False

    def energy(self, node: int) -> int:
        self._reading = True
        try:
            return super().energy(node)
        finally:
            self._reading = False

    def _bill(self, dev, act, tick: int) -> None:
        if not self._reading and (tick + 1) % self.window:
            self.early.append((dev.id, tick))
        super()._bill(dev, act, tick)


def run_on(kernel, text: str, mode: str | None = None):
    """Run ``text`` (in ``mode``, if given) with ``kernel``, a Simulation
    class or a factory of one, as the Engine's Simulation; return the kernel
    and its log."""
    scenario = parse_scenario(text)
    if mode is not None:
        scenario.run.mode = mode
    saved = ubisim.engine.Simulation
    ubisim.engine.Simulation = kernel
    try:
        engine = Engine(scenario)
    finally:
        ubisim.engine.Simulation = saved
    return engine.sim, engine.run()


def compare(text: str, mode: str | None = None, digest=None) -> list[str]:
    """What differs between per-tick billing and the real kernel on ``text``.
    The real kernel's trace, ``final_energy``, ``cluster_records`` and report
    are fed to ``digest``, if given. The oracle keeps the charge only where
    the real kernel billed early, the only charges read here."""
    real, got = run_on(BillRecorder, text, mode)
    oracle, want = run_on(partial(PerTickSimulation, keep=set(real.early)), text, mode)
    trace = got.serialize()
    if digest is not None:
        digest.update(f"{trace}\0{got.final_energy!r}\0{got.cluster_records!r}\0"
                      f"{build_report(got)!r}\0".encode())
    diffs = [name for name in ("final_energy", "window_energy", "total_debited")
             if getattr(got, name) != getattr(want, name)]
    if trace != want.serialize():
        diffs.insert(0, "trace")
    window, idle = real.window, real.params.idle
    for node, tick in real.early:
        end = min(tick // window * window + window - 1, real.horizon)
        if oracle.charge.get((node, tick), 0) - idle * (end - 1 - tick) >= 1:
            diffs.append(f"unneeded bill of node {node} at tick {tick}")
    return diffs


def sweep(texts, modes=("dynamic", "static"), digest=None) -> dict:
    """``{(label, mode): differences}`` for each ``(label, text)`` of ``texts``
    that differs in any of ``modes``; ``digest`` is passed to ``compare``."""
    found = {}
    for label, text in texts:
        for mode in modes:
            diffs = compare(text, mode, digest)
            if diffs:
                found[label, mode] = diffs
    return found


def main() -> int:
    seeds = range(3000)
    digest = hashlib.sha256()
    found = sweep([((seed, margin), hostile_scenario_text(seed, margin=margin))
                   for margin in (False, True) for seed in seeds], digest=digest)
    for key, diffs in sorted(found.items()):
        print(key, diffs)
    print(f"{4 * len(seeds)} runs compared, {len(found)} differ")
    print(f"real kernel digest {digest.hexdigest()}, recorded {HOSTILE_DIGEST}")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import scengen

    workloads = sorted(scengen.WORKLOADS)
    bench = sweep([((workload, seed), scengen.generate(workload, seed))
                   for workload in workloads for seed in (1, 2, 3)])
    for key, diffs in sorted(bench.items()):
        print(key, diffs)
    print(f"{6 * len(workloads)} benchmark runs compared, {len(bench)} differ")
    print_peak_rss()
    return 1 if found or bench or digest.hexdigest() != HOSTILE_DIGEST else 0


def print_peak_rss() -> None:
    """Print this process's peak resident set size, as ``getrusage`` gives it
    in KiB on Linux."""
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")


if __name__ == "__main__":
    sys.exit(main())
