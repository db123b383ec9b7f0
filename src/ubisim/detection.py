"""Knowledge base, behavior sampling, and the control comparison.

Per-node agents capture one BehaviorSample per measurement window and a pure
comparison turns it into a DetectionVerdict: a service is overloaded iff its
observed load strictly exceeds the baseline capacity, and the energy draw is
anomalous iff it exceeds the load-explained expectation by more than the
configured tolerance, both decided in exact integer arithmetic and in one
pass over the served load, which sums the expectation as it compares each
service with its baseline. The verdict lists only the overloaded services;
a sampled service it does not list is normal. Agents alert their cluster
head on any non-normal verdict and otherwise file periodic reports; the head
is the one the kernel's routing table, ``Simulation.head_of``, names at
the time of the report. The verdict is also the run's record of the
node-window: ``RunLog.verdicts`` holds the verdicts themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import EnergySpec, Service, SimulationError


class UnknownNode(SimulationError):
    """The knowledge base has no baselines for the sampled node."""


@dataclass(slots=True)
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

    ``capacities`` maps each node to its normal requests-per-window capacity
    per service. An Engine passes the per-node dicts of
    ``Scenario.capacities()``, which the devices and the controllers' views
    hold too; nothing mutates them. Expected energy for a window, which
    ``control_compare`` sums, is linear in the served load: window ticks of
    idle cost, the per-request cost of everything served, plus a fixed
    per-window allowance for the node's routine protocol messages (reports
    out of members, reports/directives through heads).

    ``params`` is the scenario's ``energy`` itself, which the kernel bills
    from too. ``energy_tolerance`` is read once, at construction, into the
    integer numerator and denominator of the exact fraction its decimal
    literal names, and ``window`` and ``params.idle`` into the window's idle
    cost. Nothing in the simulator changes any of them afterwards, and a
    caller that does must build a new KnowledgeBase. ``msg_budget`` and the
    per-request costs are read at each comparison.
    """

    capacities: dict[int, dict[Service, int]]
    params: EnergySpec
    window: int
    energy_tolerance: float
    msg_budget: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        tolerance = Fraction(str(self.energy_tolerance))
        self._tol_num, self._tol_den = tolerance.numerator, tolerance.denominator
        self._idle_per_window = self.window * self.params.idle

    def baseline_for(self, node: int, service: Service) -> int:
        return self.capacities[node][service]


# The ``overloaded`` map of every verdict that overloads nothing. Never mutated.
NOTHING_OVERLOADED: dict[Service, Overload] = {}


@dataclass(slots=True)
class BehaviorSample:
    """One window's observed per-service load and energy draw for a node."""

    node: int
    window: int
    observed: dict[Service, int]
    energy_drawn: int


@dataclass(init=False, slots=True)
class DetectionVerdict:
    """One node-window's comparison result.

    ``overloaded`` holds each overloaded service in sample order, or is the
    shared ``NOTHING_OVERLOADED``; a service it does not hold is normal.
    ``alerted`` says whether the verdict is non-normal, which is when the
    agent alerts. It is set once, in the class's own ``__init__`` (one frame,
    not two with ``__post_init__``), and takes no part in equality or the
    repr; callers must not mutate any field.
    """

    node: int
    window: int
    overloaded: dict[Service, Overload]
    energy_anomaly: EnergyAnomaly | None
    alerted: bool = field(compare=False, repr=False)

    def __init__(self, node: int, window: int, overloaded: dict[Service, Overload],
                 energy_anomaly: EnergyAnomaly | None = None) -> None:
        self.node = node
        self.window = window
        self.overloaded = overloaded
        self.energy_anomaly = energy_anomaly
        self.alerted = bool(overloaded) or energy_anomaly is not None


def build_knowledge_base(scenario, capacities, clusters) -> KnowledgeBase:
    """Derive baselines and the energy expectation from the configuration.

    The baselines are the ``capacities`` mapping itself
    (``Scenario.capacities()``, node to service to capacity), not a copy: the
    knowledge base shares its per-node dicts with the devices and the
    controllers' views, and nothing mutates them. The message allowance is
    sized from the cluster layout.
    """
    params = scenario.energy
    per_msg = params.tx + params.rx
    budget: dict[int, int] = {}
    for cluster in clusters:
        budget[cluster.head] = per_msg * len(cluster.members)
        for m in cluster.members:
            budget[m] = per_msg
    return KnowledgeBase(
        capacities=capacities,
        params=params,
        window=scenario.run.window,
        msg_budget=budget,
        energy_tolerance=scenario.run.energy_tolerance,
    )


def collect(host: int, window: int, observed: dict[Service, int],
            energy_drawn: int) -> BehaviorSample:
    """Package the window's served load and energy draw for ``host``.

    ``observed`` becomes the sample's own field, not a copy: it is the
    node-window's served sample, which no holder mutates in place.
    """
    return BehaviorSample(host, window, observed, energy_drawn)


def control_compare(sample: BehaviorSample, kb: KnowledgeBase) -> DetectionVerdict:
    """Pure comparison of one sample against the knowledge base.

    Overload is strict: observed must exceed the baseline by at least one
    request. The energy check is separate and multiplicative: the draw is
    anomalous iff it exceeds ``expected * (1 + tolerance)``, compared in
    integers, so a draw exactly at that limit is normal. One walk over the
    served dict decides each service's overload and sums the expected
    energy. A verdict that overloads nothing holds ``NOTHING_OVERLOADED``.
    """
    node = sample.node
    caps = kb.capacities.get(node)
    if caps is None:
        raise UnknownNode(f"no baselines for node {node}")
    params = kb.params
    cost, default = params.request.get, params.request_default
    expected = kb._idle_per_window + kb.msg_budget.get(node, 0)
    overloaded: dict[Service, Overload] = {}
    for svc, observed in sample.observed.items():
        base = caps[svc]
        if observed > base:
            overloaded[svc] = Overload(observed, base)
        expected += cost(svc, default) * observed
    anomaly = None
    drawn, den = sample.energy_drawn, kb._tol_den
    if drawn * den > expected * (den + kb._tol_num):
        anomaly = EnergyAnomaly(drawn=drawn, expected=expected)
    return DetectionVerdict(node, sample.window, overloaded or NOTHING_OVERLOADED, anomaly)


def report_alert(host: int, verdict: DetectionVerdict,
                 sample: BehaviorSample, sim, report_every: int) -> str:
    """Send the window's verdict from ``host`` to its cluster head.

    Non-normal verdicts always go out as an alert; all-normal windows send a
    periodic report every ``report_every`` windows. The head is
    ``sim.head_of[host]``, the routing table, which re-formation keeps
    pointing at a live head; a head reports to itself without the radio.
    Returns which message kind left ("alert", "report", or "none").
    """
    if not verdict.alerted and verdict.window % report_every != 0:
        return "none"
    kind = "alert" if verdict.alerted else "report"
    head = sim.head_of[host]
    if head == host:
        sim.local_deliver(host, kind, (verdict, sample))
    else:
        sim.send(host, head, kind, (verdict, sample))
    return kind
