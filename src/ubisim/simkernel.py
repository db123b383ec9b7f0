"""Deterministic discrete-event engine.

A virtual integer clock, a (time, seq)-ordered event heap, and
neighbor-constrained message delivery. One Simulation instance is strictly
single-threaded; identical (scenario, seed) pairs replay to byte-identical
traces because every stochastic choice draws from the kernel's single seeded
generator in dispatch order and every iteration over devices is id-sorted.

The trace is one line per happening, ``tick seq target kind details``,
written only by ``Simulation.emit``. A dispatched event's line carries the
seq it was scheduled with; every other line draws the next seq when it is
written. Its target is the payload's own node: a message's receiver, the
``node`` of a ``[workload]`` or ``[inject]`` line (the scenario's own
``WorkloadItem`` or ``InjectItem``, scheduled as the payload), the node of a
resume, and ``KERNEL`` for a window boundary. ``_dispatch`` delivers a
``Message`` itself: a live receiver owes its rx and is passed to
``on_message``, and a missing or depleted one makes a dead letter. A head's
own report is a ``Message`` to itself, passed to ``on_message`` at once
without the radio. The kernel never mutates a payload, so one ``Scenario``
can be run twice.

Energy accounting is event-driven. Every device records the last tick it
was billed through, and is billed at the last tick of every measurement
window (where each running device also pays for serving its current load,
which is recorded as the window's served sample) and at the tick its idle
draw alone empties its battery. A message's tx or rx cost is owed, and rides
the device's next bill: the window-end bill, a depletion bill or a settling
``Simulation.energy`` read. The one exception is a device whose radio debt
exceeds its margin, its charge at its last bill less the idle draw through
the tick before its next window end (or the horizon) less 1 mJ: it is billed
at the tick of that message, since it could otherwise run dry unbilled. So a
live device is billed once per window unless its battery runs low. Each
bill charges the idle cost of every tick skipped since the last one, and
the radio owed, in the same ``consume_energy`` call, which debits exactly
what billing every tick would have: a skipped span cannot empty the battery
before its last tick. Ticks are settled when the clock first moves past
them; within a tick, devices are billed in id order, so ``depleted`` lines
and the ``on_depleted`` hook keep their place in the trace. Radio at or past
the horizon is never billed.

The protocol hooks are the engine's only for the length of ``Engine.run``,
which puts the kernel's no-ops back when it returns or raises, so a finished
Simulation holds no reference to its engine.
"""

from __future__ import annotations

import itertools
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .model import (
    DEPLETED,
    QUIESCED,
    RUNNING,
    Activity,
    DeviceState,
    DeviceUnavailable,
    EnergySpec,
    Service,
    SimulationError,
    apply_requests,
    consume_energy,
)
from .scenario import InjectItem, WorkloadItem

KERNEL = "KERNEL"


class PastEvent(SimulationError):
    """An event was scheduled before the current clock."""


class Unreachable(SimulationError):
    """Sender and receiver are not head/member of the same cluster."""


class SenderDepleted(SimulationError):
    """The sending device has no charge left."""


# --- event payloads ---------------------------------------------------------


@dataclass(slots=True)
class WindowBoundary:
    window: int


@dataclass(slots=True)
class Resume:
    node: int


@dataclass(slots=True)
class Message:
    """A message from ``sender`` to ``receiver``. ``Simulation.send`` builds
    every radio message, never one to its own sender; a message with
    ``sender == receiver`` is a head's own report, from ``local_deliver``."""

    sender: int
    receiver: int
    kind: str  # "report" | "alert" | "reconfigure" | "agent_deploy"
    payload: object = None


# A workload or inject payload is the scenario's parsed item itself.
Payload = Union[Message, WindowBoundary, WorkloadItem, InjectItem, Resume]


class Event(NamedTuple):
    """One scheduled happening and the heap entry itself, ordered by
    (time, seq); the seq is unique, so payloads are never compared. The
    payload is held, not copied, and dispatch only reads it.

    ``Simulation.schedule`` builds each one with ``tuple.__new__(Event, ...)``:
    the NamedTuple's own ``__new__`` is a Python function that costs
    0.42-0.56 us a call on every Python from 3.10 to 3.13, about twice the
    direct call, and a long run builds thousands of events. The result is
    the same ``Event``."""

    time: int
    seq: int
    payload: Payload


# --- structured run records --------------------------------------------------


@dataclass(slots=True)
class InjectionRecord:
    window: int
    node: int
    service: Service
    load_after: int
    baseline: int

    @property
    def above_baseline(self) -> bool:
        return self.load_after > self.baseline


@dataclass
class RunLog:
    """Everything a finished run produced, in dispatch order.

    ``lines`` is the line-oriented trace (`tick seq target kind details...`);
    the typed lists mirror the protocol-level happenings for the metrics
    module. Serialization is deterministic, so equal logs mean equal runs.

    ``window_served[node][window]`` is the one served dict of that
    node-window: the sample, the agent's report, the controller's view and
    the window-end bill hold the same object, and none of them mutates it in
    place.
    ``verdicts`` holds each compared node-window's ``DetectionVerdict``
    itself, the object the agent reported, in boundary and host order.
    """

    lines: list[str] = field(default_factory=list)
    injections: list[InjectionRecord] = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # detection.DetectionVerdict
    episodes: list = field(default_factory=list)  # engine.EpisodeRecord
    cluster_records: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)
    window_energy: dict[int, list[int]] = field(default_factory=dict)
    window_served: dict[int, list[dict[Service, int]]] = field(default_factory=dict)
    downtime: dict[int, int] = field(default_factory=dict)
    lost_requests: int = 0
    drops: int = 0
    dead_letters: int = 0
    initial_energy: dict[int, int] = field(default_factory=dict)
    final_energy: dict[int, int] = field(default_factory=dict)
    total_debited: int = 0
    windows_completed: int = 0

    def serialize(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


# --- the kernel ---------------------------------------------------------------


def _no_hook(_arg: object) -> None:
    """A protocol hook that ignores its window, message or node."""


class Simulation:
    """Single-threaded deterministic simulation instance.

    The kernel owns the devices, the clock, the event queue, the seeded
    generator and the routing table (``head_of``) used for reachability
    checks. A node's standing demand is its ``DeviceState.load``, which
    arrivals and migrations change in place; there is no separate demand
    table. ``demand`` maps each node id to that same load dict, not a copy,
    under the name the benchmark gate reads. Protocol behavior (agents,
    controllers) is attached through the
    ``on_boundary``/``on_message``/``on_depleted`` hooks, which are no-ops
    until an engine installs its own and again after ``clear_hooks``.
    """

    def __init__(
        self,
        devices: list[DeviceState],
        params: EnergySpec,
        *,
        window: int = 10,
        horizon: int = 100,
        latency: int = 1,
        drop_p: float = 0.0,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self.devices: dict[int, DeviceState] = {d.id: d for d in devices}
        if len(self.devices) != len(devices):
            raise ValueError("duplicate device ids")
        self.params = params
        self.window = window
        self.horizon = horizon
        self.latency = latency
        self.drop_p = drop_p
        self.rng = random.Random(seed)
        self.clock = 0
        self.queue: list[Event] = []  # a heapq
        self._next_seq = itertools.count().__next__
        self.log = RunLog()
        self._write = self.log.lines.append
        self.demand: dict[int, dict[Service, int]] = {d.id: d.load for d in devices}
        self.head_of: dict[int, int] = {}
        # event-driven billing state; see the module docstring
        self._ids = sorted(self.devices)
        self._billed: dict[int, int] = dict.fromkeys(self._ids, -1)
        self._owed: dict[int, list[int]] = {}  # node -> [tx, rx, margin left]
        self._open: dict[int, tuple[int, int]] = {}  # owed (tx, rx) before tick ``clock``
        # heap of (tick, node): idle depletions and radio debts past the margin
        self._depletions: list[tuple[int, int]] = []
        self._flushed_through = -1
        self._cursor: Optional[int] = None  # node being billed mid-tick
        self._queue_depletions(self._ids, -1)
        self.window_acc: dict[int, int] = dict.fromkeys(self._ids, 0)
        self.served_snapshot: dict[int, dict[Service, int]] = {}
        self.log.initial_energy = {d.id: d.energy_mj for d in devices}
        for d in devices:
            self.log.window_energy[d.id] = []
            self.log.window_served[d.id] = []
            self.log.downtime[d.id] = 0
        self.on_boundary: Callable[[int], None]
        self.on_message: Callable[[Message], None]
        self.on_depleted: Callable[[int], None]
        self.clear_hooks()

    def clear_hooks(self) -> None:
        """Install the no-op protocol hooks every Simulation starts with."""
        self.on_boundary = self.on_message = self.on_depleted = _no_hook

    # -- logging --

    def emit(self, tick: int, target: Union[int, str], kind: str, details: str = "",
             seq: Optional[int] = None) -> None:
        """Append one trace line; a dispatched event passes its own ``seq``."""
        if seq is None:
            seq = self._next_seq()
        if details:
            self._write(f"{tick} {seq} {target} {kind} {details}")
        else:
            self._write(f"{tick} {seq} {target} {kind}")

    # -- scheduling and stepping --

    def schedule(self, time: int, payload: Payload) -> Event:
        """Enqueue a payload for dispatch at ``time``; FIFO within a tick. The
        payload names the node its trace line is written under."""
        if time < self.clock:
            raise PastEvent(f"cannot schedule at t={time}, clock is {self.clock}")
        ev = tuple.__new__(Event, (time, self._next_seq(), payload))
        heapq.heappush(self.queue, ev)
        return ev

    def step(self) -> Optional[Event]:
        """Process the minimal (time, seq) event; None when idle."""
        if not self.queue:
            return None
        ev = heapq.heappop(self.queue)
        if ev.time > self.clock:
            self._flush_through(ev.time - 1)
            self._open = {}
            self.clock = ev.time
        self._dispatch(ev)
        return ev

    def run_until(self, t_end: int) -> RunLog:
        """Step until the queue is empty or the next event is past ``t_end``."""
        if t_end < self.clock:
            raise PastEvent(f"t_end={t_end} is before clock={self.clock}")
        queue, step = self.queue, self.step
        while queue and queue[0][0] <= t_end:
            step()
        self._flush_through(min(t_end, self.horizon) - 1)
        self.log.final_energy = {nid: self.energy(nid) for nid in self._ids}
        return self.log

    # -- messaging --

    def reachable(self, a: int, b: int) -> bool:
        """Intra-cluster rule: members talk to their head and vice versa."""
        if a == b:
            return False
        return self.head_of.get(a) == b or self.head_of.get(b) == a

    def send(self, sender: int, receiver: int, kind: str, payload: object = None) -> None:
        if self.devices[sender].status is DEPLETED:
            raise SenderDepleted(f"node {sender} cannot send, battery depleted")
        if not self.reachable(sender, receiver):
            raise Unreachable(f"node {receiver} is not cluster-reachable from {sender}")
        self._owe(sender, 1, 0)
        clock, drop_p = self.clock, self.drop_p
        if drop_p > 0.0 and self.rng.random() < drop_p:
            self.log.drops += 1
            self.emit(clock, KERNEL, "drop", f"from={sender} to={receiver} kind={kind}")
            return
        self.emit(clock, sender, "send", f"to={receiver} kind={kind}")
        self.schedule(clock + self.latency, Message(sender, receiver, kind, payload))

    def local_deliver(self, node: int, kind: str, payload: object = None) -> None:
        """Pass ``node``'s own report to ``on_message`` now, as a ``Message``
        to itself: no radio, no cost, no event (head-hosted agent path)."""
        self.emit(self.clock, node, "local", f"kind={kind}")
        self.on_message(Message(node, node, kind, payload))

    # -- routing table --

    def install_clusters(self, clusters) -> None:
        """Route each cluster's head and members to its head; trace each cluster."""
        for cluster in clusters:
            head = cluster.head
            members = tuple(sorted(cluster.members))
            self.head_of[head] = head
            for m in members:
                self.head_of[m] = head
            ms = ",".join(map(str, members))
            self.emit(self.clock, KERNEL, "cluster", f"head={head} members={ms}")
            self.log.cluster_records.append((self.clock, head, members))

    def drop_cluster(self, head: int, members) -> None:
        """Remove the routes of ``head`` and its ``members``."""
        self.head_of.pop(head, None)
        for m in members:
            self.head_of.pop(m, None)

    # -- energy accounting --

    def _owe(self, node: int, tx: int, rx: int) -> None:
        """Add a message's radio to what ``node`` owes; queue a bill at this
        tick only once the debt could empty it before its next window end."""
        clock, horizon = self.clock, self.horizon
        if clock >= horizon:
            return  # never billed
        p, owed = self.params, self._owed.get(node)
        if owed is None:  # nothing owed since the last bill, which set the margin
            billed = self._billed[node]
            end = min(self._window_last_after(billed), horizon)
            margin = self.devices[node].energy_mj - p.idle * (end - 1 - billed) - 1
            owed = self._owed[node] = [0, 0, margin]
        opened = self._open
        if node not in opened:
            opened[node] = (owed[0], owed[1])
        owed[0] += tx
        owed[1] += rx
        left = owed[2] = owed[2] - p.tx * tx - p.rx * rx
        if left < 0:
            heapq.heappush(self._depletions, (clock, node))

    def energy(self, node: int) -> int:
        """The node's charge as billing every tick would leave it now.

        Between events every device is settled through the tick before the
        clock. While a tick is being billed, nodes with a lower id than the
        one being billed are settled through that tick and the others
        through the tick before. Settling bills the idle ticks and the radio
        owed for ticks up to the one settled; the open tick's radio stays
        owed when settling only through the tick before it. That cannot
        empty the battery: an idle depletion is billed at its tick, and radio
        past the margin at the message's tick.
        """
        dev = self.devices[node]
        through = self._flushed_through
        if self._cursor is not None and node < self._cursor:
            through += 1
        if dev.status is not DEPLETED and self._billed[node] < through:
            tx, rx, left = self._owed.pop(node, (0, 0, 0))
            before = self._open.get(node) if through < self.clock else None
            if before is not None:  # the open tick's radio stays owed
                self._owed[node] = [tx - before[0], rx - before[1], left]
                self._open[node] = (0, 0)
                tx, rx = before
            self._bill(dev, Activity({}, tx, rx), through)
        return dev.energy_mj

    def _bill(self, dev: DeviceState, act: Activity, tick: int) -> None:
        """Charge ``act`` plus the idle ticks since the last bill, through ``tick``."""
        nid, billed = dev.id, self._billed
        act.ticks = tick - billed[nid]
        debit = consume_energy(dev, act, self.params)
        billed[nid] = tick
        self.log.total_debited += debit
        self.window_acc[nid] += debit

    def _flush_through(self, t: int) -> None:
        """Settle every tick up to ``t`` (bounded by horizon).

        Only ticks where some device must be billed are visited: the last
        tick of each window, projected idle depletions and radio debts past
        the margin, whichever comes first.
        """
        t = min(t, self.horizon - 1)
        while True:
            done = self._flushed_through
            tt = self._window_last_after(done)
            if self._depletions and self._depletions[0][0] < tt:
                tt = self._depletions[0][0]
            if tt > t:
                break
            self._bill_tick(tt)
        self._flushed_through = max(self._flushed_through, t)

    def _window_last_after(self, t: int) -> int:
        """The first tick after ``t`` that ends a measurement window."""
        return (t + 1) // self.window * self.window + self.window - 1

    def _queue_depletions(self, nodes, tick: int) -> None:
        """Queue the tick idle draw alone empties each of ``nodes``.

        The nodes are billed through ``tick``. Only a depletion before the
        next window's last tick is queued; a later one is found when that
        tick bills the device.
        """
        idle = self.params.idle
        if idle <= 0:
            return
        before = min(self._window_last_after(tick), self.horizon)
        for nid in nodes:
            dev = self.devices[nid]
            if dev.status is not DEPLETED:
                dies = tick - (-dev.energy_mj // idle)
                if dies < before:
                    heapq.heappush(self._depletions, (dies, nid))

    def _bill_tick(self, tt: int) -> None:
        """Bill, in id order, every device that must be billed at ``tt``."""
        self._flushed_through = tt - 1
        depletions = self._depletions
        due = set()
        while depletions and depletions[0][0] == tt:
            due.add(heapq.heappop(depletions)[1])
        window_last = (tt + 1) % self.window == 0
        billed = self._ids if window_last else sorted(due)
        devices, owed, served, bill = self.devices, self._owed, self.served_snapshot, self._bill
        for nid in billed:
            dev = devices[nid]
            status = dev.status
            if status is DEPLETED:
                continue
            tx, rx, _left = owed.pop(nid, (0, 0, 0))
            if window_last and status is RUNNING:
                act = Activity(dict(dev.load), tx, rx)
                served[nid] = act.requests_served
            else:
                act = Activity({}, tx, rx)
                if window_last:  # quiesced devices serve nothing
                    served[nid] = dict.fromkeys(dev.load, 0)
            self._cursor = nid
            bill(dev, act, tt)
            if dev.status is DEPLETED:
                self.emit(tt, nid, "depleted", "")
                self.on_depleted(nid)
        self._cursor = None
        self._flushed_through = tt
        self._queue_depletions(billed, tt)

    # -- dispatch --

    def _dispatch(self, ev: Event) -> None:
        """Write the event's trace line under its own seq, then apply it; a
        message is delivered here (see the module docstring)."""
        p = ev.payload
        if isinstance(p, Message):
            time, receiver, kind = ev.time, p.receiver, p.kind
            self.emit(time, receiver, "deliver", f"from={p.sender} kind={kind}", ev.seq)
            dev = self.devices.get(receiver)
            if dev is None or dev.status is DEPLETED:
                self.log.dead_letters += 1
                self.emit(time, KERNEL, "dead_letter", f"to={receiver} kind={kind}")
                return
            self._owe(receiver, 0, 1)
            self.on_message(p)
        elif isinstance(p, WorkloadItem):
            self.emit(ev.time, p.node, "arrival", f"service={p.service} n={p.n}", ev.seq)
            self._apply_arrival(p.node, p.service, p.n, False)
        elif isinstance(p, InjectItem):
            self.emit(ev.time, p.node, "inject", f"service={p.service} amount={p.load}", ev.seq)
            self._apply_arrival(p.node, p.service, p.load, True)
        elif isinstance(p, WindowBoundary):
            self.emit(ev.time, KERNEL, "boundary", f"window={p.window}", ev.seq)
            self.on_boundary(p.window)
            self._close_window(p.window)
        elif isinstance(p, Resume):
            self.emit(ev.time, p.node, "resume", "", ev.seq)
            dev = self.devices[p.node]
            if dev.status is QUIESCED:
                dev.status = RUNNING
        else:
            raise TypeError(f"unknown event payload {p!r}")

    def _apply_arrival(self, node: int, service: Service, n: int, injected: bool) -> None:
        dev = self.devices[node]
        try:
            apply_requests(dev, service, n)
        except DeviceUnavailable:
            self.log.lost_requests += n
            self.emit(self.clock, node, "lost", f"service={service} n={n}")
            return
        if injected:
            self.log.injections.append(
                InjectionRecord(
                    window=self.clock // self.window,
                    node=node,
                    service=service,
                    load_after=dev.load[service],
                    baseline=dev.capacities.get(service, 0),
                )
            )

    def _close_window(self, window: int) -> None:
        """Archive the window's energy and served samples; reset the accumulators.

        Each served dict is archived as the object ``_bill_tick`` built, not a
        copy; nothing mutates it afterwards. Device loads carry over to the
        next window as they stand.
        """
        window_energy, window_served = self.log.window_energy, self.log.window_served
        drawn, served = self.window_acc, self.served_snapshot
        for nid in self._ids:
            window_energy[nid].append(drawn[nid])
            window_served[nid].append(served[nid] if nid in served else {})
        self.window_acc = dict.fromkeys(self._ids, 0)
        self.served_snapshot = {}
        self.log.windows_completed = window + 1
