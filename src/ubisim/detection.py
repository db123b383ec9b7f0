"""Knowledge base, behavior sampling, and the control comparison.

Per-node agents capture one BehaviorSample per measurement window and a pure
comparison turns it into a DetectionVerdict: a service is overloaded iff its
observed load strictly exceeds the baseline capacity, and the energy draw is
anomalous iff it exceeds the load-explained expectation by more than the
configured tolerance, both decided in exact integer arithmetic. Agents
alert their cluster-head controller on any non-normal verdict and otherwise
file periodic reports.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

from .model import EnergyParams, Service, SimulationError, Status
from .simkernel import Unreachable


class UnknownNode(SimulationError):
    """The knowledge base has no baselines for the sampled node."""


@dataclass(frozen=True, slots=True)
class Overload:
    observed: int
    baseline: int

    @property
    def excess(self) -> int:
        return self.observed - self.baseline


@dataclass(frozen=True, slots=True)
class EnergyAnomaly:
    drawn: int
    expected: int


@dataclass
class KnowledgeBase:
    """Per-device normal capacities plus the expected-energy model.

    ``baseline`` maps (node, service) to the normal requests-per-window
    capacity. Expected energy for a window is linear in the served load:
    window ticks of idle cost, the per-request cost of everything served,
    plus a fixed per-window allowance for the node's routine protocol
    messages (reports out of members, reports/directives through heads).

    ``baseline`` is read once, at construction, into a per-node index of
    capacities, which is then its only owner, and ``energy_tolerance`` into
    the exact fraction its decimal literal names; nothing in the simulator
    changes either afterwards, and a caller that does must build a new
    KnowledgeBase.
    """

    baseline: InitVar[dict[tuple[int, Service], int]]
    params: EnergyParams
    window: int
    msg_budget: dict[int, int] = field(default_factory=dict)
    energy_tolerance: float = 0.10
    # node -> {service: capacity}, services in sorted order
    _capacities: dict[int, dict[Service, int]] = field(init=False)

    def __post_init__(self, baseline: dict[tuple[int, Service], int]) -> None:
        self._capacities = {}
        for (node, svc), cap in sorted(baseline.items(), key=lambda kv: kv[0][1]):
            self._capacities.setdefault(node, {})[svc] = cap
        self._tolerance = Fraction(str(self.energy_tolerance))

    def nodes(self) -> KeysView[int]:
        """The nodes with at least one baseline, as a read-only view."""
        return self._capacities.keys()

    def capacities(self, node: int) -> dict[Service, int]:
        """A copy of the node's baselines, keyed in sorted service order."""
        return dict(self._capacities.get(node, {}))

    def baseline_for(self, node: int, service: Service) -> int:
        return self._capacities[node][service]

    def expected_energy(self, node: int, served: dict[Service, int]) -> int:
        expected = self.window * self.params.idle_per_tick
        for svc, count in served.items():
            expected += self.params.request_cost(svc) * count
        return expected + self.msg_budget.get(node, 0)


@dataclass(slots=True)
class BehaviorSample:
    """One window's observed per-service load and energy draw for a node."""

    node: int
    window: int
    observed: dict[Service, int]
    energy_drawn: int


@dataclass(frozen=True, slots=True)
class DetectionVerdict:
    """One node-window's comparison result.

    ``overloaded`` holds the services of ``per_service`` that are not None.
    It is built once, at construction, and takes no part in equality or the
    repr; callers must not mutate it.
    """

    node: int
    window: int
    per_service: dict[Service, Overload | None]  # None = normal
    energy_anomaly: EnergyAnomaly | None = None
    overloaded: dict[Service, Overload] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        overloaded = {s: o for s, o in self.per_service.items() if o is not None}
        object.__setattr__(self, "overloaded", overloaded)

    @property
    def all_normal(self) -> bool:
        return not self.overloaded and self.energy_anomaly is None


@dataclass(slots=True)
class DetectionAgent:
    host: int
    controller: int


@dataclass(slots=True)
class VerdictRecord:
    """Trace-side record of one verdict; any non-normal verdict is alerted."""

    window: int
    node: int
    verdict: DetectionVerdict

    @property
    def alerted(self) -> bool:
        return not self.verdict.all_normal


def build_knowledge_base(scenario, capacities, clusters) -> KnowledgeBase:
    """Derive baselines and the energy expectation from the configuration.

    Baselines are ``capacities`` (``Scenario.capacities()``, node to service
    to capacity); the message allowance is sized from the cluster layout.
    """
    baseline = {(node, svc): cap for node, caps in capacities.items()
                for svc, cap in caps.items()}
    params = scenario.energy_params()
    per_msg = params.tx_per_msg + params.rx_per_msg
    budget: dict[int, int] = {}
    for cluster in clusters:
        budget[cluster.head] = per_msg * len(cluster.members)
        for m in cluster.members:
            budget[m] = per_msg
    return KnowledgeBase(
        baseline=baseline,
        params=params,
        window=scenario.run.window,
        msg_budget=budget,
        energy_tolerance=scenario.run.energy_tolerance,
    )


def collect(agent: DetectionAgent, window: int, observed: dict[Service, int],
            energy_drawn: int) -> BehaviorSample:
    """Package the window's served load and energy draw for the agent's host."""
    return BehaviorSample(
        node=agent.host, window=window, observed=dict(observed), energy_drawn=energy_drawn
    )


def control_compare(sample: BehaviorSample, kb: KnowledgeBase) -> DetectionVerdict:
    """Pure comparison of one sample against the knowledge base.

    Overload is strict: observed must exceed the baseline by at least one
    request. The energy check is separate and multiplicative: the draw is
    anomalous iff it exceeds ``expected * (1 + tolerance)``, compared in
    integers, so a draw exactly at that limit is normal.
    """
    caps = kb._capacities.get(sample.node)
    if caps is None:
        raise UnknownNode(f"no baselines for node {sample.node}")
    per_service: dict[Service, Overload | None] = {}
    for svc, observed in sample.observed.items():
        base = caps[svc]
        per_service[svc] = Overload(observed, base) if observed > base else None
    expected = kb.expected_energy(sample.node, sample.observed)
    anomaly = None
    num, den = kb._tolerance.numerator, kb._tolerance.denominator
    if sample.energy_drawn * den > expected * (den + num):
        anomaly = EnergyAnomaly(drawn=sample.energy_drawn, expected=expected)
    return DetectionVerdict(
        node=sample.node, window=sample.window, per_service=per_service,
        energy_anomaly=anomaly,
    )


def report_alert(agent: DetectionAgent, verdict: DetectionVerdict,
                 sample: BehaviorSample, sim, report_every: int = 1) -> str:
    """Send the window's verdict to the agent's controller.

    Non-normal verdicts always go out as an alert; all-normal windows send a
    periodic report every ``report_every`` windows. Returns which message
    kind left ("alert", "report", or "none"). Raises Unreachable when the
    controller is depleted, which the caller resolves by re-forming the
    cluster; the standing overload re-alerts at the next boundary.
    """
    alert = not verdict.all_normal
    if not alert and verdict.window % report_every != 0:
        return "none"
    kind = "alert" if alert else "report"
    if agent.controller == agent.host:
        sim.local_deliver(agent.host, kind, (verdict, sample))
    else:
        controller_dev = sim.devices.get(agent.controller)
        if controller_dev is None or controller_dev.status is Status.DEPLETED:
            raise Unreachable(f"controller {agent.controller} is depleted")
        sim.send(agent.host, agent.controller, kind, (verdict, sample))
    return kind
