"""Spans recorded around calls into the simulator, from outside it.

``Tracer.installed(ubisim)`` replaces the public functions the engine calls,
two ``Simulation`` methods, ``Topology.neighbors`` and (through
``Tracer.wrap_hooks``) the engine's kernel hooks with wrappers that record a
span per call, and restores every original on exit. Nothing inside the
program changes.

A span is (name, parent, start, end) with nanosecond ``perf_counter``
stamps. Spans are kept in memory as parallel arrays, because a long run
bills a million ticks, and written out at the end. The simulator is
single-threaded and every wrapped call returns before its caller does, so
spans nest strictly: a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

# (module attribute or class, attribute name, span name). Functions the engine
# imported by name are patched in the engine's namespace, where it looks them up.
PATCHES = (
    ("engine", "control_compare", "detection.compare"),
    ("engine", "collect", "detection.collect"),
    ("engine", "report_alert", "detection.report_alert"),
    ("engine", "build_knowledge_base", "detection.build_kb"),
    ("engine", "plan_reconfiguration", "reconfig.plan"),
    ("engine", "apply_dynamic", "reconfig.apply"),
    ("engine", "apply_static", "reconfig.apply"),
    ("engine", "form_clusters", "clustering.form_clusters"),
    ("engine", "deploy_agents", "clustering.deploy_agents"),
    ("engine", "reform_cluster", "clustering.reform"),
    ("reconfig", "control_compare", "detection.compare"),
    ("clustering", "form_clusters", "clustering.form_clusters"),
    ("simkernel", "consume_energy", "model.consume_energy"),
    ("clustering.Topology", "neighbors", "clustering.neighbors"),
    ("simkernel.Simulation", "step", "simkernel.step"),
    ("simkernel.Simulation", "send", "simkernel.send"),
)

HOOKS = (
    ("on_boundary", "engine.on_boundary"),
    ("on_message", "engine.on_message"),
    ("on_depleted", "engine.on_depleted"),
)


@dataclass
class Totals:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")  # summed durations of direct children
        self._stack: list[int] = []
        # counts taken where the work happens
        self.bill_calls_active = 0
        self.billed_mj = 0
        self.queue_peak = 0

    # -- recording --

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.child_ns.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        now = perf_counter_ns()
        self.end[idx] = now
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += now - self.start[idx]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        make = {
            "model.consume_energy": self._wrap_billing,
            "simkernel.step": self._wrap_step,
        }.get(name, self._wrap_plain)
        return make(self._name_id(name), fn)

    def _wrap_plain(self, name_id: int, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_billing(self, name_id: int, fn):
        open_, close = self._open, self._close

        def traced(device, activity, params):
            if activity.requests_served or activity.msgs_tx or activity.msgs_rx:
                self.bill_calls_active += 1
            idx = open_(name_id)
            try:
                debit = fn(device, activity, params)
            finally:
                close(idx)
            self.billed_mj += debit
            return debit

        return traced

    def _wrap_step(self, name_id: int, fn):
        open_, close = self._open, self._close

        def traced(sim):
            self.queue_peak = max(self.queue_peak, len(sim.queue))
            idx = open_(name_id)
            try:
                return fn(sim)
            finally:
                close(idx)

        return traced

    # -- installation --

    @contextmanager
    def installed(self, ubisim):
        """Patch every call site in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for owner_path, attr, name in PATCHES:
                owner = ubisim
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap_hooks(self, sim) -> None:
        """Wrap the protocol hooks an Engine installed on its Simulation."""
        for attr, name in HOOKS:
            setattr(sim, attr, self.wrap(name, getattr(sim, attr)))

    # -- results --

    def self_ns(self, idx: int) -> int:
        return self.end[idx] - self.start[idx] - self.child_ns[idx]

    def totals(self) -> dict[str, Totals]:
        out = {name: Totals() for name in self.names}
        for idx, name_id in enumerate(self.name):
            t = out[self.names[name_id]]
            t.calls += 1
            t.total_ns += self.end[idx] - self.start[idx]
            t.self_ns += self.self_ns(idx)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names, parent, start, end = self.names, self.parent, self.start, self.end
            for idx, name_id in enumerate(self.name):
                fh.write(f"{idx},{parent[idx]},{names[name_id]},{start[idx]},{end[idx]}\n")
