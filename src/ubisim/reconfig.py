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
from .model import DEPLETED, QUIESCED, RUNNING, Service, SimulationError, Status
from .simkernel import Resume


class StaleView(SimulationError):
    """Every peer entry is older than the staleness limit; plan deferred."""


@dataclass
class ViewEntry:
    """Controller-side knowledge of one cluster node."""

    node: int
    capacities: dict[Service, int]
    load: dict[Service, int] | None = None  # None until first report
    status: Status = Status.RUNNING
    window: int = -1  # window of the last update; -1 = never

    def spare(self, service: Service) -> int:
        """Capacity left for ``service``; the load must have been reported."""
        return max(0, self.capacities[service] - self.load[service])


@dataclass
class ClusterView:
    head: int
    entries: dict[int, ViewEntry] = field(default_factory=dict)

    def observe(self, node: int, load: dict[Service, int], window: int) -> None:
        """Take ``load`` as the node's last-known load, without copying it.

        ``load`` is a node-window's served sample, shared with the sample,
        the run log and equal later samples, so the view never mutates it.
        """
        entry = self.entries[node]
        entry.load = load
        entry.window = window
        entry.status = RUNNING

    def adjust(self, service: Service, source: int, dest: int, amount: int) -> None:
        """Fold an applied directive back into the last-known loads.

        Both endpoints have a reported load: the source is the alerting node
        and the destination an eligible peer. Each changed entry gets a new
        dict: the old one may be a shared served dict (see ``observe``).
        """
        for node, delta in ((source, -amount), (dest, amount)):
            entry = self.entries[node]
            entry.load = {**entry.load, service: entry.load[service] + delta}


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class ReconfigPlan:
    """The directives planned for one alerting node, and what they leave.

    ``residual`` has one key per overloaded service, in sorted order, so it
    is also the plan's service list. The excess each service started with is
    owned by the verdict's ``Overload.excess``.
    """

    head: int
    node: int
    directives: list[MigrationDirective] = field(default_factory=list)
    residual: dict[Service, int] = field(default_factory=dict)


def plan_reconfiguration(view: ClusterView, verdict: DetectionVerdict, *,
                         staleness_max: int) -> ReconfigPlan:
    """Water-fill each overloaded service's excess onto the freshest peers.

    ``verdict`` overloads at least one service. Pure in (view, verdict):
    identical inputs yield the identical directive list. Raises StaleView
    when peers exist but none has been heard from within ``staleness_max``
    windows of the verdict's window.
    """
    plan = ReconfigPlan(head=view.head, node=verdict.node)
    overloaded = verdict.overloaded
    node, oldest = verdict.node, verdict.window - staleness_max
    eligible = [
        e for e in view.entries.values()
        if e.node != node and e.status is RUNNING and e.load is not None
        and e.window >= oldest
    ]
    if not eligible and len(view.entries) > (node in view.entries):  # peers, none fresh
        raise StaleView(f"no fresh view of any peer of node {node}")
    for service in sorted(overloaded):
        remaining = overloaded[service].excess
        for neg_spare, dest in sorted([(-e.spare(service), e.node) for e in eligible]):
            take = min(remaining, -neg_spare)
            if take < 1:
                break
            plan.directives.append(MigrationDirective(service, node, dest, take))
            remaining -= take
        plan.residual[service] = remaining
    return plan


def _live(directive: MigrationDirective, sim) -> bool:
    """Neither endpoint has depleted since planning; otherwise the directive is skipped."""
    return (sim.devices[directive.source].status is not DEPLETED
            and sim.devices[directive.dest].status is not DEPLETED)


def _execute(directive: MigrationDirective, sim) -> int:
    """Move the directive's load between the two devices; returns the amount moved."""
    src = sim.devices[directive.source]
    dst = sim.devices[directive.dest]
    amount = min(directive.amount, src.load[directive.service])
    if amount:
        src.load[directive.service] -= amount
        dst.load[directive.service] += amount
    sim.emit(
        sim.clock, directive.source, "migrate",
        f"service={directive.service} to={directive.dest} amount={amount}",
    )
    return amount


def _notify(plan: ReconfigPlan, sim) -> None:
    """One reconfigure message per plan, head to the reconfigured node."""
    if not plan.directives or plan.node == plan.head:
        return
    sim.send(plan.head, plan.node, "reconfigure")


def apply_dynamic(plan: ReconfigPlan, sim) -> list[tuple[MigrationDirective, int]]:
    """Apply every directive atomically within the current tick, no downtime.

    Returns each executed directive with the amount it moved, which is less
    than planned when the source holds less. A directive whose endpoint has
    depleted is skipped, with one ``skip`` trace line.
    """
    executed = []
    for directive in plan.directives:
        if not _live(directive, sim):
            sim.emit(sim.clock, directive.source, "skip",
                     f"service={directive.service} to={directive.dest} amount={directive.amount}")
            continue
        executed.append((directive, _execute(directive, sim)))
    _notify(plan, sim)
    return executed


def apply_static(plan: ReconfigPlan, sim,
                 quiesce_ticks: int) -> list[tuple[MigrationDirective, int]]:
    """Quiesce the involved devices and schedule their resume, then move the
    load with ``apply_dynamic``.

    Quiesced devices reject arrivals (counted as lost by the kernel) and
    serve nothing while stopped; each records ``quiesce_ticks`` of downtime.
    A plan with no directive involves no device.
    """
    involved = sorted({n for d in plan.directives if _live(d, sim) for n in (d.source, d.dest)})
    for nid in involved:
        dev = sim.devices[nid]
        if dev.status is RUNNING:
            dev.status = QUIESCED
            sim.log.downtime[nid] += quiesce_ticks
            sim.emit(sim.clock, nid, "quiesce", f"ticks={quiesce_ticks}")
            sim.schedule(sim.clock + quiesce_ticks, Resume(nid))
    return apply_dynamic(plan, sim)


class Outcome(Enum):
    CORRECTED = "corrected"
    PARTIAL = "partial"
    FAILED = "failed"


# module constants; see the model module's docstring
CORRECTED, PARTIAL, FAILED = Outcome.CORRECTED, Outcome.PARTIAL, Outcome.FAILED


def correction_outcome(post_window_sample, kb: KnowledgeBase) -> dict[Service, int]:
    """The excess each service still shows in the node's next-window sample.

    Only services still overloaded are listed, so each value is at least 1.
    The energy axis does not participate; ``service_outcome`` judges the
    numbers.
    """
    post = control_compare(post_window_sample, kb)
    return {s: o.excess for s, o in post.overloaded.items()}


def service_outcome(excess_before: int, excess_after: int) -> Outcome:
    """The one outcome rule, for one service or for a whole episode's sums.

    Corrected iff no excess remains; Partial iff some remains but strictly
    less than before; Failed otherwise.
    """
    if excess_after == 0:
        return CORRECTED
    if excess_after < excess_before:
        return PARTIAL
    return FAILED
