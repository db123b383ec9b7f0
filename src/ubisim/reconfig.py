"""Controller logic: turn alerts into migration plans and apply them.

Planning is greedy water-filling: each overloaded service's excess is poured
onto cluster peers in descending spare-capacity order (ties to the lowest
id), never exceeding a peer's spare; whatever no peer can absorb is recorded
as residual. For loads divisible at request granularity this matches the
brute-force optimum residual of max(0, excess - total spare).

Plans are applied in one of two modes: dynamic moves load while everything
keeps running; static quiesces the involved devices for a configured number
of ticks, moves the load, then resumes them (recording the downtime and any
arrivals rejected while quiesced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .detection import DetectionVerdict, KnowledgeBase, control_compare
from .model import Service, SimulationError, Status
from .simkernel import Resume, SenderDepleted, Unreachable


class StaleView(SimulationError):
    """Every peer entry is older than the staleness limit; plan deferred."""


class TargetUnavailable(SimulationError):
    """A directive's endpoint depleted between planning and application."""


class Mode(Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


@dataclass
class ViewEntry:
    """Controller-side knowledge of one cluster node."""

    node: int
    capacities: dict[Service, int]
    load: dict[Service, int] | None = None  # None until first report
    status: Status = Status.RUNNING
    window: int = -1  # window of the last update; -1 = never

    def spare(self, service: Service) -> int:
        if self.load is None:
            return 0
        return max(0, self.capacities.get(service, 0) - self.load.get(service, 0))


@dataclass
class ClusterView:
    head: int
    entries: dict[int, ViewEntry] = field(default_factory=dict)

    def observe(self, node: int, load: dict[Service, int], window: int) -> None:
        """Take ``load`` as the node's last-known load, without copying it.

        ``load`` is a node-window's one served dict, shared with the sample
        and the run log, so the view never mutates it in place.
        """
        entry = self.entries[node]
        entry.load = load
        entry.window = window
        entry.status = Status.RUNNING

    def adjust(self, service: Service, source: int, dest: int, amount: int) -> None:
        """Fold an applied directive back into the last-known loads.

        Each changed entry gets a new dict: the old one may be a shared
        served dict (see ``observe``).
        """
        for node, delta in ((source, -amount), (dest, amount)):
            entry = self.entries.get(node)
            if entry is not None and entry.load is not None:
                entry.load = {**entry.load, service: entry.load.get(service, 0) + delta}


@dataclass(frozen=True)
class MigrationDirective:
    service: Service
    source: int
    dest: int
    amount: int

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValueError("directive source and destination must differ")
        if self.amount < 1:
            raise ValueError("directive amount must be >= 1")


@dataclass
class ReconfigPlan:
    head: int
    node: int
    window: int
    mode: Mode
    directives: list[MigrationDirective] = field(default_factory=list)
    residual: dict[Service, int] = field(default_factory=dict)
    excess: dict[Service, int] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.directives


def plan_reconfiguration(view: ClusterView, verdict: DetectionVerdict, *,
                         mode: Mode = Mode.DYNAMIC, staleness_max: int = 2) -> ReconfigPlan:
    """Water-fill each overloaded service's excess onto the freshest peers.

    Pure in (view, verdict): identical inputs yield the identical directive
    list. Raises StaleView when peers exist but none has been heard from
    within ``staleness_max`` windows of the verdict's window.
    """
    plan = ReconfigPlan(head=view.head, node=verdict.node, window=verdict.window, mode=mode)
    overloaded = verdict.overloaded
    if not overloaded:
        return plan
    peers = [e for e in view.entries.values() if e.node != verdict.node]
    eligible = [
        e for e in peers
        if e.status is Status.RUNNING and e.load is not None
        and verdict.window - e.window <= staleness_max
    ]
    if peers and not eligible:
        raise StaleView(f"no fresh view of any peer of node {verdict.node}")
    for service in sorted(overloaded):
        remaining = plan.excess[service] = overloaded[service].excess
        for neg_spare, node in sorted((-e.spare(service), e.node) for e in eligible):
            take = min(remaining, -neg_spare)
            if take < 1:
                break
            plan.directives.append(
                MigrationDirective(service=service, source=verdict.node, dest=node, amount=take)
            )
            remaining -= take
        plan.residual[service] = remaining
    return plan


@dataclass
class ApplyResult:
    moved: dict[Service, int]
    residual: dict[Service, int]
    involved: tuple[int, ...]
    executed: list[tuple[MigrationDirective, int]] = field(default_factory=list)
    skipped: int = 0


def _execute(directive: MigrationDirective, sim) -> int:
    """Move the directive's load and demand; returns the amount moved."""
    src = sim.devices[directive.source]
    dst = sim.devices[directive.dest]
    if dst.status is Status.DEPLETED:
        raise TargetUnavailable(f"destination {directive.dest} depleted")
    if src.status is Status.DEPLETED:
        raise TargetUnavailable(f"source {directive.source} depleted")
    amount = min(directive.amount, src.load.get(directive.service, 0))
    if amount:
        src.load[directive.service] -= amount
        dst.load[directive.service] = dst.load.get(directive.service, 0) + amount
        sim.move_demand(directive.service, directive.source, directive.dest, amount)
    sim.emit(
        sim.clock, directive.source, "migrate",
        f"service={directive.service} to={directive.dest} amount={amount}",
    )
    return amount


def _apply(plan: ReconfigPlan, sim) -> ApplyResult:
    moved: dict[Service, int] = {s: 0 for s in plan.excess}
    residual = dict(plan.residual)
    involved: set[int] = set()
    executed: list[tuple[MigrationDirective, int]] = []
    skipped = 0
    for directive in plan.directives:
        try:
            amount = _execute(directive, sim)
        except TargetUnavailable:
            residual[directive.service] = residual.get(directive.service, 0) + directive.amount
            skipped += 1
            sim.emit(sim.clock, directive.source, "skip",
                     f"service={directive.service} to={directive.dest} amount={directive.amount}")
            continue
        executed.append((directive, amount))
        moved[directive.service] = moved.get(directive.service, 0) + amount
        if amount < directive.amount:
            residual[directive.service] = residual.get(directive.service, 0) + directive.amount - amount
        involved.update((directive.source, directive.dest))
    _notify(plan, sim)
    return ApplyResult(moved=moved, residual=residual,
                       involved=tuple(sorted(involved)), executed=executed, skipped=skipped)


def _notify(plan: ReconfigPlan, sim) -> None:
    """One reconfigure message per plan, head to the reconfigured node."""
    if plan.empty or plan.node == plan.head:
        return
    try:
        sim.send(plan.head, plan.node, "reconfigure", plan)
    except (Unreachable, SenderDepleted):
        pass


def apply_dynamic(plan: ReconfigPlan, sim) -> ApplyResult:
    """Apply every directive atomically within the current tick, no downtime."""
    if plan.mode is not Mode.DYNAMIC:
        raise ValueError("plan is not a dynamic-mode plan")
    return _apply(plan, sim)


def apply_static(plan: ReconfigPlan, sim, quiesce_ticks: int = 2) -> ApplyResult:
    """Quiesce the involved devices, move the load, then schedule their resume.

    Quiesced devices reject arrivals (counted as lost by the kernel) and
    serve nothing while stopped; each records ``quiesce_ticks`` of downtime.
    """
    if plan.mode is not Mode.STATIC:
        raise ValueError("plan is not a static-mode plan")
    live = [
        d for d in plan.directives
        if sim.devices[d.source].status is not Status.DEPLETED
        and sim.devices[d.dest].status is not Status.DEPLETED
    ]
    involved = sorted({n for d in live for n in (d.source, d.dest)})
    for nid in involved:
        dev = sim.devices[nid]
        if dev.status is Status.RUNNING:
            dev.status = Status.QUIESCED
            sim.log.downtime[nid] = sim.log.downtime.get(nid, 0) + quiesce_ticks
            sim.emit(sim.clock, nid, "quiesce", f"ticks={quiesce_ticks}")
            sim.schedule(sim.clock + quiesce_ticks, nid, Resume(nid))
    return _apply(plan, sim)


class Outcome(Enum):
    CORRECTED = "corrected"
    PARTIAL = "partial"
    FAILED = "failed"


@dataclass(frozen=True)
class CorrectionResult:
    outcome: Outcome
    remaining: dict[Service, int]


def correction_outcome(verdict: DetectionVerdict, post_window_sample,
                       kb: KnowledgeBase) -> CorrectionResult:
    """Judge a correction by the node's next-window behavior.

    Corrected iff no service is overloaded any more; Partial iff some excess
    remains but strictly less than before; Failed otherwise. The energy axis
    does not participate.
    """
    post = control_compare(post_window_sample, kb)
    after = {s: o.excess for s, o in post.overloaded.items()}
    if not after:
        return CorrectionResult(Outcome.CORRECTED, {})
    before_total = sum(o.excess for o in verdict.overloaded.values())
    after_total = sum(after.values())
    if 0 < after_total < before_total:
        return CorrectionResult(Outcome.PARTIAL, after)
    return CorrectionResult(Outcome.FAILED, after)


def service_outcome(excess_before: int, excess_after: int) -> Outcome:
    """Per-service refinement of the episode outcome, used by the stats."""
    if excess_after == 0:
        return Outcome.CORRECTED
    if excess_after < excess_before:
        return Outcome.PARTIAL
    return Outcome.FAILED
