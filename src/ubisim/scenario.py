"""Scenario files: a line-oriented sectioned text format.

Sections are ``[services]``, ``[nodes]``, ``[edges]``, ``[energy]``,
``[workload]``, ``[inject]``, and ``[run]``; entries are whitespace-separated
``key=value`` fields and ``#`` starts a comment. Example::

    [services]
    name=Print capacity=34

    [nodes]
    id=0 energy=10000 cap.Print=40
    id=1

    [edges]
    a=0 b=1

    [workload]
    at=5 node=1 service=Print n=10

    [inject]
    at=12 node=1 service=Print load=50

    [run]
    ticks=40 window=10 mode=dynamic seed=1

Parsing is total: any input either yields a Scenario or a ParseError
carrying the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .clustering import Topology
from .model import EnergySpec, SimulationError


class ParseError(SimulationError):
    """A scenario file problem, pinned to a 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line

    @property
    def code(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        return f"{self.code} line {self.line}: {self.args[0]}"


class MalformedLine(ParseError):
    pass


class UnknownService(ParseError):
    pass


class DuplicateNode(ParseError):
    pass


class DanglingEdge(ParseError):
    pass


class NegativeValue(ParseError):
    pass


class MissingCapacity(SimulationError):
    """A node offers a service with no capacity configured anywhere."""


class Mode(Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


DYNAMIC = Mode.DYNAMIC  # a module constant; see the model module's docstring
MODE_NAMES = tuple(mode.value for mode in Mode)


@dataclass
class ServiceSpec:
    name: str
    capacity: int | None = None


@dataclass
class NodeSpec:
    id: int
    energy: int = 10_000
    overrides: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class WorkloadItem:
    at: int
    node: int
    service: str
    n: int


@dataclass(slots=True)
class InjectItem:
    at: int
    node: int
    service: str
    load: int


@dataclass
class RunSettings:
    ticks: int = 100
    window: int = 10
    mode: str = "dynamic"
    seed: int = 0
    latency: int = 1
    drop: float = 0.0
    report_every: int = 1
    quiesce_ticks: int = 2
    staleness_max: int = 2
    energy_tolerance: float = 0.10


@dataclass
class Scenario:
    services: list[ServiceSpec] = field(default_factory=list)
    nodes: list[NodeSpec] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    energy: EnergySpec = field(default_factory=EnergySpec)
    workload: list[WorkloadItem] = field(default_factory=list)
    injections: list[InjectItem] = field(default_factory=list)
    run: RunSettings = field(default_factory=RunSettings)

    def service_names(self) -> list[str]:
        return [s.name for s in self.services]

    def capacities(self) -> dict[int, dict[str, int]]:
        """Each node's capacity per service, in declaration order: the node's
        override, else the service default; MissingCapacity if neither."""
        out = {n.id: {s.name: n.overrides.get(s.name, s.capacity) for s in self.services}
               for n in self.nodes}
        for nid, caps in out.items():
            for svc, cap in caps.items():
                if cap is None:
                    raise MissingCapacity(
                        f"node {nid} offers {svc!r} but no capacity is configured")
        return out

    def topology(self):
        """The node graph; ``edges`` are already (low, high) pairs, as parsed."""
        return Topology(frozenset(n.id for n in self.nodes), frozenset(self.edges))


@dataclass(slots=True)
class _Parse:
    """One parse in progress: the scenario so far and what it has declared."""

    scenario: Scenario = field(default_factory=Scenario)
    service_names: set[str] = field(default_factory=set)
    node_ids: set[int] = field(default_factory=set)
    # (kind, at, lineno) of items later than all before them; the first past the horizon is one
    item_lines: list[tuple[str, int, int]] = field(default_factory=list)
    latest: int = -1


def _int(fields: dict[str, str], key: str, lineno: int, minimum: int | None = None) -> int:
    raw = fields.pop(key)
    try:
        value = int(raw)
    except ValueError:
        raise MalformedLine(f"{key} must be an integer, got {raw!r}", lineno) from None
    if minimum is not None and value < minimum:
        raise NegativeValue(f"{key} must be >= {minimum}, got {value}", lineno)
    return value


def _float(fields: dict[str, str], key: str, lineno: int, *, minimum: float = 0.0) -> float:
    raw = fields.pop(key)
    try:
        value = float(raw)
    except ValueError:
        raise MalformedLine(f"{key} must be a number, got {raw!r}", lineno) from None
    if not math.isfinite(value):
        raise MalformedLine(f"{key} must be finite, got {raw!r}", lineno)
    if value < minimum:
        raise NegativeValue(f"{key} must be >= {minimum}, got {value}", lineno)
    return value


def _require(fields: dict[str, str], required: tuple[str, ...], lineno: int) -> None:
    """Raise for the first of ``required`` that ``fields`` lacks."""
    for key in required:
        if key not in fields:
            raise MalformedLine(f"missing required field {key!r}", lineno)


def _no_extras(fields: dict[str, str], lineno: int) -> None:
    if fields:
        raise MalformedLine(f"unknown field {sorted(fields)[0]!r}", lineno)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises a ParseError subclass on the first problem.

    Each ``[section]`` header selects the handler its entry lines go to.
    """
    p = _Parse()
    handler = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0][0] == "[":
            line = line.strip()
            if not line.endswith("]"):
                raise MalformedLine("unterminated section header", lineno)
            name = line[1:-1].strip().lower()
            handler = _HANDLERS.get(name)
            if handler is None:
                raise MalformedLine(f"unknown section [{name}]", lineno)
            continue
        if handler is None:
            raise MalformedLine("content before any [section] header", lineno)
        try:
            fields: dict[str, str] = {}
            for token in tokens:
                key, _, value = token.partition("=")
                if not key or not value:  # a token without "=" has no value either
                    raise MalformedLine(f"expected key=value fields, got {token!r}", lineno)
                if key in fields:
                    raise MalformedLine(f"duplicate field {key!r}", lineno)
                fields[key] = value
            handler(p, fields, lineno)
        except ParseError:
            raise
        except Exception as exc:  # defensive: parsing must be total
            raise MalformedLine(f"unparseable line: {exc}", lineno) from None

    scenario = p.scenario
    if not scenario.services:
        raise MalformedLine("no [services] declared", 0)
    if not scenario.nodes:
        raise MalformedLine("no [nodes] declared", 0)
    run = scenario.run
    if run.ticks < run.window:
        raise MalformedLine(f"ticks ({run.ticks}) must be >= window ({run.window})", 0)
    for kind, at, lineno in p.item_lines:
        if at > run.ticks:
            raise MalformedLine(
                f"{kind} at t={at} is beyond the run horizon ({run.ticks})", lineno
            )
    return scenario


def _parse_service(p: _Parse, fields, lineno):
    _require(fields, ("name",), lineno)
    name = fields.pop("name")
    if name in p.service_names:
        raise MalformedLine(f"service {name!r} declared twice", lineno)
    capacity = None
    if "capacity" in fields:
        capacity = _int(fields, "capacity", lineno, 1)
    _no_extras(fields, lineno)
    p.service_names.add(name)
    p.scenario.services.append(ServiceSpec(name, capacity))


def _parse_node(p: _Parse, fields, lineno):
    _require(fields, ("id",), lineno)
    nid = _int(fields, "id", lineno, 0)
    if nid in p.node_ids:
        raise DuplicateNode(f"node {nid} declared twice", lineno)
    node = NodeSpec(nid)
    if "energy" in fields:
        node.energy = _int(fields, "energy", lineno, 0)
    for key in [k for k in fields if k.startswith("cap.")]:
        svc = key[4:]
        if svc not in p.service_names:
            raise UnknownService(f"override for undeclared service {svc!r}", lineno)
        node.overrides[svc] = _int(fields, key, lineno, 1)
    _no_extras(fields, lineno)
    p.node_ids.add(nid)
    p.scenario.nodes.append(node)


def _parse_edge(p: _Parse, fields, lineno):
    _require(fields, ("a", "b"), lineno)
    a = _int(fields, "a", lineno, 0)
    b = _int(fields, "b", lineno, 0)
    _no_extras(fields, lineno)
    if a == b:
        raise MalformedLine(f"self-loop on node {a}", lineno)
    if a not in p.node_ids:
        raise DanglingEdge(f"edge references undeclared node {a}", lineno)
    if b not in p.node_ids:
        raise DanglingEdge(f"edge references undeclared node {b}", lineno)
    p.scenario.edges.append((a, b) if a < b else (b, a))


def _parse_energy(p: _Parse, fields, lineno):
    e = p.scenario.energy
    if "idle" in fields:
        e.idle = _int(fields, "idle", lineno, 0)
    if "tx" in fields:
        e.tx = _int(fields, "tx", lineno, 0)
    if "rx" in fields:
        e.rx = _int(fields, "rx", lineno, 0)
    if "request" in fields:
        e.request_default = _int(fields, "request", lineno, 0)
    for key in [k for k in fields if k.startswith("request.")]:
        svc = key[8:]
        if svc not in p.service_names:
            raise UnknownService(f"energy cost for undeclared service {svc!r}", lineno)
        e.request[svc] = _int(fields, key, lineno, 0)
    _no_extras(fields, lineno)


def _item_parser(kind: str, amount_key: str, make, attr: str):
    """The handler of the ``kind`` section, whose items ``make`` builds from
    at, node, service and ``amount_key`` and appends to ``Scenario.<attr>``."""
    required = ("at", "node", "service", amount_key)

    def parse(p: _Parse, fields, lineno):
        _require(fields, required, lineno)
        at = _int(fields, "at", lineno, 0)
        node = _int(fields, "node", lineno, 0)
        service = fields.pop("service")
        amount = _int(fields, amount_key, lineno, 0)
        _no_extras(fields, lineno)
        if service not in p.service_names:
            raise UnknownService(f"undeclared service {service!r}", lineno)
        if node not in p.node_ids:
            raise MalformedLine(f"undeclared node {node}", lineno)
        if at > p.latest:
            p.latest = at
            p.item_lines.append((kind, at, lineno))
        getattr(p.scenario, attr).append(make(at, node, service, amount))

    return parse


def _parse_run(p: _Parse, fields, lineno):
    r = p.scenario.run
    if "ticks" in fields:
        r.ticks = _int(fields, "ticks", lineno, 1)
    if "window" in fields:
        r.window = _int(fields, "window", lineno, 1)
    if "mode" in fields:
        mode = fields.pop("mode")
        if mode not in MODE_NAMES:
            raise MalformedLine(f"mode must be {' or '.join(MODE_NAMES)}, got {mode!r}", lineno)
        r.mode = mode
    if "seed" in fields:
        r.seed = _int(fields, "seed", lineno)
    if "latency" in fields:
        r.latency = _int(fields, "latency", lineno, 1)
    if "drop" in fields:
        r.drop = _float(fields, "drop", lineno)
        if r.drop > 1.0:
            raise MalformedLine(f"drop must be <= 1.0, got {r.drop}", lineno)
    if "report_every" in fields:
        r.report_every = _int(fields, "report_every", lineno, 1)
    if "quiesce_ticks" in fields:
        r.quiesce_ticks = _int(fields, "quiesce_ticks", lineno, 0)
    if "staleness_max" in fields:
        r.staleness_max = _int(fields, "staleness_max", lineno, 0)
    if "energy_tolerance" in fields:
        r.energy_tolerance = _float(fields, "energy_tolerance", lineno)
    _no_extras(fields, lineno)


_HANDLERS = {
    "services": _parse_service,
    "nodes": _parse_node,
    "edges": _parse_edge,
    "energy": _parse_energy,
    "workload": _item_parser("workload", "n", WorkloadItem, "workload"),
    "inject": _item_parser("inject", "load", InjectItem, "injections"),
    "run": _parse_run,
}


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text for a Scenario; parse(serialize(s)) == s."""
    out = ["[services]"]
    for s in scenario.services:
        line = f"name={s.name}"
        if s.capacity is not None:
            line += f" capacity={s.capacity}"
        out.append(line)
    out.append("")
    out.append("[nodes]")
    for n in scenario.nodes:
        line = f"id={n.id} energy={n.energy}"
        for svc, cap in n.overrides.items():
            line += f" cap.{svc}={cap}"
        out.append(line)
    out.append("")
    out.append("[edges]")
    for a, b in scenario.edges:
        out.append(f"a={a} b={b}")
    out.append("")
    e = scenario.energy
    out.append("[energy]")
    line = f"idle={e.idle} tx={e.tx} rx={e.rx} request={e.request_default}"
    for svc, cost in e.request.items():
        line += f" request.{svc}={cost}"
    out.append(line)
    out.append("")
    out.append("[workload]")
    for w in scenario.workload:
        out.append(f"at={w.at} node={w.node} service={w.service} n={w.n}")
    out.append("")
    out.append("[inject]")
    for i in scenario.injections:
        out.append(f"at={i.at} node={i.node} service={i.service} load={i.load}")
    out.append("")
    r = scenario.run
    out.append("[run]")
    out.append(
        f"ticks={r.ticks} window={r.window} mode={r.mode} seed={r.seed} "
        f"latency={r.latency} drop={r.drop} report_every={r.report_every} "
        f"quiesce_ticks={r.quiesce_ticks} staleness_max={r.staleness_max} "
        f"energy_tolerance={r.energy_tolerance}"
    )
    return "\n".join(out) + "\n"
