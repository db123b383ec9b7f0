"""Run orchestration: build a simulation from a scenario, drive the
agent/controller protocol, and emit the output artifacts.

Per window each live agent samples its host, compares against the knowledge
base, and reports (alerting on any overload). Alerts reach the cluster-head
controller one latency tick later. An agent alerts at most once a window,
so the controller plans at most one reconfiguration per alerting node per
window; it applies it in the configured mode, and the episode is judged
against the node's next-window sample.

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
    DetectionAgent,
    DetectionVerdict,
    build_knowledge_base,
    collect,
    control_compare,
    report_alert,
)
from .model import DeviceState, Service, Status
from .reconfig import (
    ClusterView,
    Mode,
    StaleView,
    ViewEntry,
    apply_dynamic,
    apply_static,
    correction_outcome,
    plan_reconfiguration,
    service_outcome,
)
from .scenario import Scenario
from .simkernel import RunLog, Simulation, Unreachable, WindowBoundary


@dataclass
class ServiceEpisode:
    excess_before: int
    moved: int
    residual: int
    outcome: object = None  # reconfig.Outcome once resolved


@dataclass
class EpisodeRecord:
    """One applied reconfiguration plan and its eventual outcome.

    ``services`` owns the per-service books: each service's excess at the
    verdict, what moved and what was left. The episode's outcome is
    ``service_outcome`` of their summed excess and the summed excess the
    next-window sample still shows. The after totals and Jain indices are
    copies of the before ones when no directive moved a non-zero amount, the
    only way a plan changes loads.
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


def _controller(head: int, nodes, kb) -> ClusterView:
    """A cluster head's controller, which is its view of the cluster.

    The entries are keyed by the cluster's nodes, head included, in id
    order; each holds the knowledge base's capacity dict for its node.
    Re-formation replaces the view.
    """
    entries = {n: ViewEntry(node=n, capacities=kb.capacities[n]) for n in sorted(nodes)}
    return ClusterView(head=head, entries=entries)


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
        self.mode = Mode(run.mode)
        energies = {n.id: n.energy for n in scenario.nodes}
        clusters = form_clusters(topo, energies)
        self.sim.install_clusters(clusters)
        self.kb = build_knowledge_base(scenario, capacities, clusters)
        self.controllers = {c.head: _controller(c.head, c.nodes, self.kb) for c in clusters}
        self.agents: dict[int, DetectionAgent] = deploy_agents(self.sim, clusters)
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
        sim = self.sim
        samples = {}
        verdicts = {}
        normal = f"window={window} normal"
        for host in sorted(self.agents):
            agent = self.agents[host]
            if sim.devices[host].status is Status.DEPLETED:
                continue
            sample = collect(agent, window, sim.served_snapshot[host], sim.window_acc[host])
            verdict = control_compare(sample, self.kb)
            samples[host] = sample
            verdicts[host] = verdict
            sim.log.verdicts.append(verdict)
            if not verdict.alerted:
                sim.emit(sim.clock, host, "verdict", normal)
                continue
            detail = " ".join(
                f"{svc}={o.observed}/{o.baseline}" for svc, o in verdict.overloaded.items()
            )
            if verdict.energy_anomaly is not None:
                a = verdict.energy_anomaly
                detail = (detail + f" energy={a.drawn}/{a.expected}").strip()
            sim.emit(sim.clock, host, "verdict", f"window={window} overload {detail}")
        self._resolve_pending(window, samples)
        for host, verdict in verdicts.items():  # filled in host order
            agent = self.agents[host]
            try:
                report_alert(agent, verdict, samples[host], sim,
                             report_every=self.scenario.run.report_every)
            except Unreachable:
                sim.emit(sim.clock, host, "unreachable", f"controller={agent.controller}")
                self._reform(agent.controller)

    def _resolve_pending(self, window: int, samples) -> None:
        for node in sorted(self.pending):
            if node not in samples:
                continue
            after = correction_outcome(samples[node], self.kb)
            for ep in self.pending.pop(node):  # every one is from an earlier window
                for svc, se in ep.services.items():
                    se.outcome = service_outcome(se.excess_before, after.get(svc, 0))
                ep.outcome = service_outcome(
                    sum(se.excess_before for se in ep.services.values()), sum(after.values()))
                ep.post_window = window
                self.sim.emit(self.sim.clock, node, "outcome",
                              f"window={ep.window} result={ep.outcome.value}")

    # -- message handling --

    def _on_message(self, msg) -> None:
        kind = msg.kind
        if kind == "agent_deploy":
            self.agents[msg.receiver] = DetectionAgent(host=msg.receiver, controller=msg.sender)
            return
        if kind == "reconfigure":
            return  # notification only; the kernel already billed the radio
        if kind in ("report", "alert"):
            view = self.controllers.get(msg.receiver)
            if view is None:
                return
            verdict, sample = msg.payload
            if sample.node in view.entries:
                view.observe(sample.node, sample.observed, sample.window)
            if kind == "alert":
                self._handle_alert(view, verdict)

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
        if self.mode is Mode.DYNAMIC:
            executed = apply_dynamic(plan, sim)
            downtime = 0
        else:
            executed = apply_static(plan, sim, self.scenario.run.quiesce_ticks)
            downtime = self.scenario.run.quiesce_ticks if executed else 0
        moved = dict.fromkeys(plan.residual, 0)
        for directive, amount in executed:
            if amount:
                view.adjust(directive.service, directive.source, directive.dest, amount)
                moved[directive.service] += amount
        if any(moved.values()):
            totals_after, jain_after = self._balance(view.entries, plan.residual)
        else:
            totals_after, jain_after = dict(totals_before), dict(jain_before)
        episode = EpisodeRecord(
            window=verdict.window,
            node=verdict.node,
            head=plan.head,
            mode=self.mode.value,
            services={
                svc: ServiceEpisode(
                    excess_before=verdict.overloaded[svc].excess,
                    moved=moved[svc],
                    residual=verdict.overloaded[svc].excess - moved[svc],
                )
                for svc in plan.residual
            },
            involved=tuple(sorted({n for d, _amount in executed for n in (d.source, d.dest)})),
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
                 f"directives={len(plan.directives)} moved={sum(moved.values())} "
                 f"residual={sum(se.residual for se in episode.services.values())}")

    def _balance(self, nodes, services):
        """Per service: the total load over ``nodes`` and the exact Jain index
        of their load/capacity ratios, nodes without capacity left out."""
        devices = [self.sim.devices[n] for n in nodes]
        totals: dict[Service, int] = {}
        jain: dict[Service, Fraction] = {}
        for svc in services:
            pairs = [(d.load.get(svc, 0), d.capacities.get(svc, 0)) for d in devices]
            totals[svc] = sum(load for load, _cap in pairs)
            pairs = [p for p in pairs if p[1] > 0]
            jain[svc] = metrics.jain_index_of_pairs(pairs) if pairs else Fraction(1)
        return totals, jain

    # -- depletion / re-formation --

    def _on_depleted(self, node: int) -> None:
        view = self.controllers.get(self.sim.head_of.get(node))
        if view is not None and node in view.entries:
            view.entries[node].status = Status.DEPLETED
        if node in self.sim.clusters:
            self._reform(node)

    def _reform(self, old_head: int) -> None:
        new_clusters = reform_cluster(self.sim, old_head)
        self.controllers.pop(old_head, None)
        for cluster in new_clusters:
            head_dev = self.sim.devices[cluster.head]
            if head_dev.status is Status.DEPLETED:
                continue
            self.controllers[cluster.head] = _controller(cluster.head, cluster.nodes, self.kb)
            self.agents.setdefault(cluster.head, DetectionAgent(cluster.head, cluster.head))
            for n in cluster.nodes:
                agent = self.agents.get(n)
                if agent is not None:
                    agent.controller = cluster.head


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
