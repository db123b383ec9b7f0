"""Deterministic discrete-event engine.

A virtual integer clock, a (time, seq)-ordered event heap, and
neighbor-constrained message delivery. One Simulation instance is strictly
single-threaded; identical (scenario, seed) pairs replay to byte-identical
traces because every stochastic choice draws from the kernel's single seeded
generator in dispatch order and every iteration over devices is id-sorted.

The trace is one line per happening, ``tick seq target kind details``,
written only by ``Simulation.emit``. A dispatched event's line carries the
seq it was scheduled with; every other line draws the next seq when it is
written.

Energy accounting is event-driven. Every device records the last tick it
was billed through, and is billed only at a tick where it sends or receives
a message, at the last tick of every measurement window (where each running
device also pays for serving its current load, which is recorded as the
window's served sample), and at the tick its idle draw alone empties its
battery. Each bill charges the idle cost of every tick skipped since the
last one in the same ``consume_energy`` call, which debits exactly what
billing every tick would have: a skipped span cannot empty the battery
before its last tick. Ticks are settled when the clock first moves past
them; within a tick, devices are billed in id order, so ``depleted`` lines
and the ``on_depleted`` hook keep their place in the trace.

The protocol hooks are the engine's only for the length of ``Engine.run``,
which puts the kernel's no-ops back when it returns or raises, so a finished
Simulation holds no reference to its engine.
"""

from __future__ import annotations

import itertools
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .model import (
    Activity,
    DeviceState,
    DeviceUnavailable,
    EnergyParams,
    Service,
    SimulationError,
    Status,
    apply_requests,
    consume_energy,
)

KERNEL = "KERNEL"


class PastEvent(SimulationError):
    """An event was scheduled before the current clock."""


class Unreachable(SimulationError):
    """Sender and receiver are not head/member of the same cluster."""


class SenderDepleted(SimulationError):
    """The sending device has no charge left."""


# --- event payloads ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WindowBoundary:
    window: int


@dataclass(frozen=True, slots=True)
class Arrival:
    node: int
    service: Service
    count: int


@dataclass(frozen=True, slots=True)
class InjectOverload:
    node: int
    service: Service
    amount: int


@dataclass(frozen=True, slots=True)
class Resume:
    node: int


@dataclass(slots=True)
class Message:
    sender: int
    receiver: int
    kind: str  # "report" | "alert" | "reconfigure" | "agent_deploy"
    payload: object = None
    sent_at: int = 0

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise ValueError("a message cannot be sent to its own sender")


@dataclass(frozen=True, slots=True)
class LocalDelivery:
    """Head-local report from the head's own agent; bypasses the radio."""

    node: int
    kind: str
    payload: object = None


Payload = Union[Message, WindowBoundary, Arrival, InjectOverload, Resume]


@dataclass(slots=True)
class Event:
    time: int
    seq: int
    target: Union[int, str]
    payload: Payload


# --- structured run records --------------------------------------------------


@dataclass(slots=True)
class InjectionRecord:
    tick: int
    window: int
    node: int
    service: Service
    amount: int
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
    node-window: the sample, the agent's report and the controller's view
    hold the same object, and none of them mutates it in place.
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
    generator and the cluster registry used for reachability checks. A
    node's standing demand is its ``DeviceState.load``, which arrivals and
    migrations change in place; there is no separate demand table.
    ``demand`` maps each node id to that same load dict, not a copy, under
    the name the benchmark gate reads. Protocol behavior (agents,
    controllers) is attached through the
    ``on_boundary``/``on_message``/``on_depleted`` hooks, which are no-ops
    until an engine installs its own and again after ``clear_hooks``.
    """

    def __init__(
        self,
        devices: list[DeviceState],
        params: EnergyParams,
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
        self.queue: list[tuple[int, int, Event]] = []  # heapq of (time, seq, event)
        self._seq = itertools.count()
        self.log = RunLog()
        self.demand: dict[int, dict[Service, int]] = {d.id: d.load for d in devices}
        self.clusters: dict[int, set[int]] = {}
        self.head_of: dict[int, int] = {}
        # event-driven billing state; see the module docstring
        self._ids = sorted(self.devices)
        self._billed: dict[int, int] = dict.fromkeys(self._ids, -1)
        self._activity: dict[int, Activity] = {}  # tick ``clock``'s, unbilled
        self._depletions: list[tuple[int, int]] = []  # heap of (tick, node)
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
        self.on_message: Callable[[object], None]
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
            seq = next(self._seq)
        line = f"{tick} {seq} {target} {kind}"
        if details:
            line += f" {details}"
        self.log.lines.append(line)

    # -- scheduling and stepping --

    def schedule(self, time: int, target: Union[int, str], payload: Payload) -> Event:
        """Enqueue a payload for dispatch at ``time``; FIFO within a tick."""
        if time < self.clock:
            raise PastEvent(f"cannot schedule at t={time}, clock is {self.clock}")
        ev = Event(time, next(self._seq), target, payload)
        heapq.heappush(self.queue, (time, ev.seq, ev))
        return ev

    def step(self) -> Optional[Event]:
        """Process the minimal (time, seq) event; None when idle."""
        if not self.queue:
            return None
        ev = heapq.heappop(self.queue)[2]
        if ev.time > self.clock:
            self._flush_through(ev.time - 1)
            self._activity = {}  # an unbilled tick left is past the horizon or settled
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
        sdev = self.devices[sender]
        if sdev.status is Status.DEPLETED:
            raise SenderDepleted(f"node {sender} cannot send, battery depleted")
        if not self.reachable(sender, receiver):
            raise Unreachable(f"node {receiver} is not cluster-reachable from {sender}")
        self._bucket(sender).msgs_tx += 1
        if self.drop_p > 0.0 and self.rng.random() < self.drop_p:
            self.log.drops += 1
            self.emit(self.clock, KERNEL, "drop", f"from={sender} to={receiver} kind={kind}")
            return
        self.emit(self.clock, sender, "send", f"to={receiver} kind={kind}")
        msg = Message(sender, receiver, kind, payload, sent_at=self.clock)
        self.schedule(self.clock + self.latency, receiver, msg)

    def local_deliver(self, node: int, kind: str, payload: object = None) -> None:
        """Zero-cost delivery from a node to itself (head-hosted agent path)."""
        self.emit(self.clock, node, "local", f"kind={kind}")
        self.on_message(LocalDelivery(node, kind, payload))

    # -- cluster registry --

    def install_clusters(self, clusters) -> None:
        """Record head/member assignments for routing and the trace."""
        for cluster in clusters:
            head = cluster.head
            members = set(cluster.members)
            self.clusters[head] = members
            self.head_of[head] = head
            for m in members:
                self.head_of[m] = head
            ms = ",".join(str(m) for m in sorted(members))
            self.emit(self.clock, KERNEL, "cluster", f"head={head} members={ms}")
            self.log.cluster_records.append((self.clock, head, tuple(sorted(members))))

    def drop_cluster(self, head: int) -> None:
        members = self.clusters.pop(head, set())
        self.head_of.pop(head, None)
        for m in members:
            self.head_of.pop(m, None)

    # -- energy accounting --

    def _bucket(self, node: int) -> Activity:
        act = self._activity.get(node)
        if act is None:
            act = self._activity[node] = Activity()
        return act

    def energy(self, node: int) -> int:
        """The node's charge as billing every tick would leave it now.

        Between events every device is settled through the tick before the
        clock. While a tick is being billed, nodes with a lower id than the
        one being billed are settled through that tick and the others
        through the tick before. Settling bills idle ticks only, which
        cannot empty the battery: an idle depletion is billed at its tick.
        """
        dev = self.devices[node]
        through = self._flushed_through
        if self._cursor is not None and node < self._cursor:
            through += 1
        if dev.status is not Status.DEPLETED and self._billed[node] < through:
            self._bill(dev, Activity(), through)
        return dev.energy_mj

    def _bill(self, dev: DeviceState, act: Activity, tick: int) -> None:
        """Charge ``act`` plus the idle ticks since the last bill, through ``tick``."""
        act.ticks = tick - self._billed[dev.id]
        debit = consume_energy(dev, act, self.params)
        self._billed[dev.id] = tick
        self.log.total_debited += debit
        self.window_acc[dev.id] += debit

    def _flush_through(self, t: int) -> None:
        """Settle every tick up to ``t`` (bounded by horizon).

        Only ticks where some device must be billed are visited: the open
        tick's activity, the last tick of each window and projected idle
        depletions, whichever comes first.
        """
        t = min(t, self.horizon - 1)
        while True:
            done = self._flushed_through
            tt = self._window_last_after(done)
            if self._activity and done < self.clock < tt:
                tt = self.clock
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
        idle = self.params.idle_per_tick
        if idle <= 0:
            return
        before = min(self._window_last_after(tick), self.horizon)
        for nid in nodes:
            dev = self.devices[nid]
            if dev.status is not Status.DEPLETED:
                dies = tick - (-dev.energy_mj // idle)
                if dies < before:
                    heapq.heappush(self._depletions, (dies, nid))

    def _bill_tick(self, tt: int) -> None:
        """Bill, in id order, every device that must be billed at ``tt``."""
        self._flushed_through = tt - 1
        acts: dict[int, Activity] = {}
        if tt == self.clock:
            acts, self._activity = self._activity, {}
        due = set(acts)
        while self._depletions and self._depletions[0][0] == tt:
            due.add(heapq.heappop(self._depletions)[1])
        window_last = (tt + 1) % self.window == 0
        billed = self._ids if window_last else sorted(due)
        for nid in billed:
            dev = self.devices[nid]
            if dev.status is Status.DEPLETED:
                continue
            act = acts.get(nid) or Activity()
            if window_last:
                if dev.status is Status.RUNNING:
                    served = dict(dev.load)
                    act.requests_served = {s: c for s, c in served.items() if c}
                else:  # quiesced devices serve nothing
                    served = dict.fromkeys(dev.load, 0)
                self.served_snapshot[nid] = served
            self._cursor = nid
            self._bill(dev, act, tt)
            if dev.status is Status.DEPLETED:
                self.emit(tt, nid, "depleted", "")
                self.on_depleted(nid)
        self._cursor = None
        self._flushed_through = tt
        self._queue_depletions(billed, tt)

    # -- dispatch --

    def _dispatch(self, ev: Event) -> None:
        """Write the event's trace line under its own seq, then apply it."""
        p = ev.payload
        if isinstance(p, Message):
            self.emit(ev.time, ev.target, "deliver", f"from={p.sender} kind={p.kind}", ev.seq)
            self._deliver(p)
        elif isinstance(p, Arrival):
            self.emit(ev.time, ev.target, "arrival", f"service={p.service} n={p.count}", ev.seq)
            self._apply_arrival(p.node, p.service, p.count, injected=False)
        elif isinstance(p, InjectOverload):
            self.emit(ev.time, ev.target, "inject", f"service={p.service} amount={p.amount}",
                      ev.seq)
            self._apply_arrival(p.node, p.service, p.amount, injected=True)
        elif isinstance(p, WindowBoundary):
            self.emit(ev.time, ev.target, "boundary", f"window={p.window}", ev.seq)
            self.on_boundary(p.window)
            self._close_window(p.window)
        elif isinstance(p, Resume):
            self.emit(ev.time, ev.target, "resume", "", ev.seq)
            dev = self.devices[p.node]
            if dev.status is Status.QUIESCED:
                dev.status = Status.RUNNING
        else:
            raise TypeError(f"unknown event payload {p!r}")

    def _apply_arrival(self, node: int, service: Service, n: int, *, injected: bool) -> None:
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
                    tick=self.clock,
                    window=self.clock // self.window,
                    node=node,
                    service=service,
                    amount=n,
                    load_after=dev.load[service],
                    baseline=dev.capacities.get(service, 0),
                )
            )

    def _deliver(self, msg: Message) -> None:
        dev = self.devices.get(msg.receiver)
        if dev is None or dev.status is Status.DEPLETED:
            self.log.dead_letters += 1
            self.emit(self.clock, KERNEL, "dead_letter", f"to={msg.receiver} kind={msg.kind}")
            return
        self._bucket(msg.receiver).msgs_rx += 1
        self.on_message(msg)

    def _close_window(self, window: int) -> None:
        """Archive the window's energy and served samples; reset the accumulators.

        Each served dict is archived as the object ``_bill_tick`` built, not a
        copy; nothing mutates it afterwards. Device loads carry over to the
        next window as they stand.
        """
        window_energy, window_served = self.log.window_energy, self.log.window_served
        served = self.served_snapshot
        for nid in self._ids:
            window_energy[nid].append(self.window_acc[nid])
            window_served[nid].append(served.get(nid, {}))
        self.window_acc = dict.fromkeys(self._ids, 0)
        self.served_snapshot = {}
        self.log.windows_completed = window + 1
