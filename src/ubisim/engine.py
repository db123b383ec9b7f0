"""Run orchestration: build a simulation from a scenario, drive the
agent/controller protocol, and emit the output artifacts.

Per window each live agent samples its host, compares against the knowledge
base, and reports (alerting on any overload) to the head the kernel's routing
table, ``Simulation.head_of``, names; the engine keeps no copy of it. A live
head's members are recorded only in its controller's view. When a head
depletes, its running members are re-clustered at once, so the table names a
live head for every live node. The controller path relies on that: a report,
an alert or a depletion finds its head's controller and its node's view entry
by lookup alone, so a broken route raises where it is met instead of dropping
the message. Alerts reach the cluster-head controller one latency tick later.
An agent alerts at most once a window, so the controller plans at most one
reconfiguration per alerting node per window; it applies it in the configured
mode, and the episode is judged against the node's next-window sample.

``Engine.__init__`` installs the engine's bound methods as the kernel's
protocol hooks, so the engine and its Simulation refer to each other.
``Engine.run`` puts the kernel's no-op hooks back when it returns or raises:
a finished run holds no reference cycle, and reference counting alone frees
it. Staged ``engine.sim.run_until`` calls keep the engine's hooks, because
they do not go through ``Engine.run``. A run makes no cyclic garbage either,
so ``Engine.__init__`` and ``Engine.run`` pause the cyclic collector, whose
full passes would otherwise walk every record the run keeps, and restore the
caller's setting when they return or raise.
"""

from __future__ import annotations

import csv
import gc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import metrics
from .clustering import deploy_agents, form_clusters, reform_cluster
from .detection import (
    DetectionVerdict,
    build_knowledge_base,
    collect,
    control_compare,
    report_alert,
)
from .model import DEPLETED, DeviceState, Service
from .reconfig import (
    ClusterView,
    StaleView,
    ViewEntry,
    apply_dynamic,
    apply_static,
    correction_outcome,
    plan_reconfiguration,
    service_outcome,
)
from .scenario import DYNAMIC, Mode, Scenario
from .simkernel import RunLog, Simulation, WindowBoundary


@dataclass(slots=True)
class ServiceEpisode:
    excess_before: int
    moved: int
    residual: int
    outcome: object = None  # reconfig.Outcome once resolved


@dataclass(slots=True)
class EpisodeRecord:
    """One applied reconfiguration plan and its eventual outcome.

    ``services`` owns the per-service books: each service's excess at the
    verdict, what moved and what was left. The episode's outcome is
    ``service_outcome`` of their summed excess and the summed excess the
    next-window sample still shows. When no directive moved a non-zero
    amount, the only way a plan changes loads, the cluster is not read again:
    the after totals and Jain indices are copies of the before ones. They are
    copies, not the same dicts, so each of the four is its own record and a
    change to one (as the benchmark gate's planted conservation fault makes
    to ``totals_after``) leaves the others as they were.
    """

    window: int
    node: int
    head: int
    mode: str
    services: dict[Service, ServiceEpisode]
    involved: tuple[int, ...]
    downtime_ticks: int
    totals_before: dict[Service, int]
    totals_after: dict[Service, int]
    jain_before: dict[Service, Fraction]
    jain_after: dict[Service, Fraction]
    outcome: object = None
    post_window: int | None = None


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector; restore the caller's setting on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Engine:
    """One scenario wired into one Simulation instance."""

    @_collector_paused()
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        run = scenario.run
        capacities = scenario.capacities()
        topo = scenario.topology()
        devices = [
            DeviceState(
                id=n.id,
                neighbors=topo.neighbors(n.id),
                energy_mj=n.energy,
                capacities=capacities[n.id],
            )
            for n in scenario.nodes
        ]
        self.sim = Simulation(
            devices,
            scenario.energy,
            window=run.window,
            horizon=run.ticks,
            latency=run.latency,
            drop_p=run.drop,
            seed=run.seed,
        )
        mode = Mode(run.mode)  # an unknown mode name raises here
        self.dynamic = mode is DYNAMIC
        self.mode = mode.value  # the name every episode records
        clusters = form_clusters(self.sim.log.initial_energy, topo.neighbors)
        self.sim.install_clusters(clusters)
        self.kb = build_knowledge_base(scenario, capacities, clusters)
        self.controllers: dict[int, ClusterView] = {}
        self.agents: set[int] = set()
        self._control(clusters)
        deploy_agents(self.sim, clusters)
        self.pending: dict[int, list[EpisodeRecord]] = {}
        for k in range(run.ticks // run.window):
            self.sim.schedule((k + 1) * run.window, WindowBoundary(k))
        for item in (*scenario.workload, *scenario.injections):
            self.sim.schedule(item.at, item)
        self.sim.on_boundary = self._on_boundary
        self.sim.on_message = self._on_message
        self.sim.on_depleted = self._on_depleted

    @_collector_paused()
    def run(self) -> RunLog:
        try:
            return self.sim.run_until(self.scenario.run.ticks)
        finally:
            self.sim.clear_hooks()

    # -- boundary processing --

    def _on_boundary(self, window: int) -> None:
        sim, kb = self.sim, self.kb
        devices, served, drawn = sim.devices, sim.served_snapshot, sim.window_acc
        emit, record, clock = sim.emit, sim.log.verdicts.append, sim.clock
        samples = {}
        verdicts = {}
        normal = f"window={window} normal"
        for host in sorted(self.agents):
            if devices[host].status is DEPLETED:
                continue
            sample = collect(host, window, served[host], drawn[host])
            verdict = control_compare(sample, kb)
            samples[host] = sample
            verdicts[host] = verdict
            record(verdict)
            if not verdict.alerted:
                emit(clock, host, "verdict", normal)
                continue
            detail = " ".join(
                f"{svc}={o.observed}/{o.baseline}" for svc, o in verdict.overloaded.items()
            )
            if verdict.energy_anomaly is not None:
                a = verdict.energy_anomaly
                detail = (detail + f" energy={a.drawn}/{a.expected}").strip()
            emit(clock, host, "verdict", f"window={window} overload {detail}")
        if self.pending:
            self._resolve_pending(window, samples)
        report_every = self.scenario.run.report_every
        for host, verdict in verdicts.items():  # filled in host order
            report_alert(host, verdict, samples[host], sim, report_every)

    def _resolve_pending(self, window: int, samples) -> None:
        for node in sorted(self.pending.keys() & samples.keys()):
            after = correction_outcome(samples[node], self.kb)
            after_total = sum(after.values())
            for ep in self.pending.pop(node):  # every one is from an earlier window
                before_total = 0
                for svc, se in ep.services.items():
                    se.outcome = service_outcome(se.excess_before, after.get(svc, 0))
                    before_total += se.excess_before
                ep.outcome = service_outcome(before_total, after_total)
                ep.post_window = window
                self.sim.emit(self.sim.clock, node, "outcome",
                              f"window={ep.window} result={ep.outcome.value}")

    # -- message handling --

    def _on_message(self, msg) -> None:
        """Reports and alerts update the head's view, alerts are planned, an
        agent deploy starts an agent; a reconfigure only notifies."""
        kind = msg.kind
        if kind == "report" or kind == "alert":
            view = self.controllers[msg.receiver]
            verdict, sample = msg.payload
            view.observe(sample.node, sample.observed, sample.window)
            if kind == "alert":
                self._handle_alert(view, verdict)
        elif kind == "agent_deploy":
            self.agents.add(msg.receiver)

    def _handle_alert(self, view: ClusterView, verdict: DetectionVerdict) -> None:
        """Plan, apply and record one correction; the cluster's loads are read
        again after the plan only when a directive moved a non-zero amount."""
        sim = self.sim
        if not verdict.overloaded:
            return  # energy-only alert: nothing to migrate
        try:
            plan = plan_reconfiguration(view, verdict,
                                        staleness_max=self.scenario.run.staleness_max)
        except StaleView:
            sim.emit(sim.clock, view.head, "defer", f"node={verdict.node} window={verdict.window}")
            return
        totals_before, jain_before = self._balance(view.entries, plan.residual)
        if self.dynamic:
            executed = apply_dynamic(plan, sim)
            downtime = 0
        else:
            executed = apply_static(plan, sim, self.scenario.run.quiesce_ticks)
            downtime = self.scenario.run.quiesce_ticks if executed else 0
        moved = dict.fromkeys(plan.residual, 0)
        involved = set()
        for directive, amount in executed:
            involved.update((directive.source, directive.dest))
            if amount:
                view.adjust(directive.service, directive.source, directive.dest, amount)
                moved[directive.service] += amount
        total_moved = sum(moved.values())
        if total_moved:
            totals_after, jain_after = self._balance(view.entries, plan.residual)
        else:
            totals_after, jain_after = dict(totals_before), dict(jain_before)
        services = {}
        residual = 0
        for svc, n in moved.items():
            excess = verdict.overloaded[svc].excess
            services[svc] = ServiceEpisode(excess_before=excess, moved=n, residual=excess - n)
            residual += excess - n
        episode = EpisodeRecord(
            window=verdict.window,
            node=verdict.node,
            head=plan.head,
            mode=self.mode,
            services=services,
            involved=tuple(sorted(involved)),
            downtime_ticks=downtime,
            totals_before=totals_before,
            totals_after=totals_after,
            jain_before=jain_before,
            jain_after=jain_after,
        )
        sim.log.episodes.append(episode)
        self.pending.setdefault(verdict.node, []).append(episode)
        sim.emit(sim.clock, plan.head, "plan",
                 f"node={verdict.node} window={verdict.window} "
                 f"directives={len(plan.directives)} moved={total_moved} residual={residual}")

    def _balance(self, nodes, services):
        """Per service: the total load over ``nodes`` and the exact Jain index
        of their load/capacity ratios, nodes without capacity left out of the
        index but not the total. One walk over the nodes per service gives
        both."""
        devices = self.sim.devices
        totals: dict[Service, int] = {}
        jain: dict[Service, Fraction] = {}
        for svc in services:
            total = 0
            pairs = []
            for n in nodes:
                d = devices[n]
                load = d.load.get(svc, 0)
                total += load
                cap = d.capacities.get(svc, 0)
                if cap > 0:
                    pairs.append((load, cap))
            totals[svc] = total
            jain[svc] = metrics.jain_index_of_pairs(pairs)
        return totals, jain

    # -- depletion / re-formation --

    def _on_depleted(self, node: int) -> None:
        self.controllers[self.sim.head_of[node]].entries[node].status = DEPLETED
        if node in self.controllers:  # a live head
            self._reform(node)

    def _reform(self, old_head: int) -> None:
        view = self.controllers.pop(old_head)
        self._control(reform_cluster(self.sim, old_head, view.entries.keys() - {old_head}))

    def _control(self, clusters) -> None:
        """Give each live head of ``clusters`` its agent and its controller: a
        view keyed by the cluster's nodes in id order, each entry holding the
        knowledge base's capacity dict for its node."""
        devices, capacities = self.sim.devices, self.kb.capacities
        for cluster in clusters:
            head = cluster.head
            if devices[head].status is DEPLETED:
                continue
            entries = {n: ViewEntry(n, capacities[n]) for n in sorted(cluster.nodes)}
            self.controllers[head] = ClusterView(head=head, entries=entries)
            self.agents.add(head)


def run_scenario(scenario: Scenario, out_dir=None):
    """Build, run, aggregate, and (optionally) write artifacts.

    Returns (RunReport, RunLog).
    """
    engine = Engine(scenario)
    log = engine.run()
    report = metrics.build_report(log)
    if out_dir is not None:
        write_outputs(scenario, log, report, Path(out_dir))
    return report, log


def write_outputs(scenario: Scenario, log: RunLog, report, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.log").write_text(log.serialize())
    with open(out_dir / "clusters.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "head", "members"])
        for tick, head, members in log.cluster_records:
            w.writerow([tick, head, ";".join(str(m) for m in members)])
    with open(out_dir / "detections.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "node", "service", "observed", "baseline", "verdict"])
        for v in log.verdicts:
            if not v.alerted:
                continue
            for svc, o in v.overloaded.items():
                w.writerow([v.window, v.node, svc, o.observed, o.baseline, "overloaded"])
    with open(out_dir / "corrections.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "node", "service", "excess_before", "moved",
                    "residual", "outcome", "downtime_ticks"])
        for ep in log.episodes:
            for svc, se in ep.services.items():
                outcome = se.outcome.value if se.outcome is not None else "pending"
                w.writerow([ep.window, ep.node, svc, se.excess_before, se.moved,
                            se.residual, outcome, ep.downtime_ticks])
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(metrics.SUMMARY_COLUMNS)
        w.writerow(metrics.summary_row(report, scenario))
    (out_dir / "summary.txt").write_text(metrics.format_summary(report) + "\n")
