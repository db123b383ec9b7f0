"""Domain types shared by every other module: devices, services, loads,
and the energy-consumption model.

Loads and capacities are integers (requests per measurement window).
Energy is tracked in whole millijoules and only ever decreases; a debit
saturates at the remaining charge and a device whose charge reaches zero
is permanently depleted.

The energy costs are an ``EnergySpec``, the scenario's parsed ``[energy]``
section itself: ``idle`` is charged once per tick a device is powered on,
``tx``/``rx`` once per message sent/received, and serving one request of a
service costs ``request[service]``, else ``request_default``. The field
metadata are the section's bounds (see ``scenario``). The kernel, the
knowledge base and ``consume_energy`` all read ``Scenario.energy`` and none
of them mutates it.

Functions read enum members through module constants bound next to the
enum: ``RUNNING``, ``QUIESCED`` and ``DEPLETED`` here, ``DYNAMIC`` in
``scenario`` (the layer that reads ``[run] mode``) and the ``Outcome``
members in ``reconfig``. On Python 3.10 and 3.11 the enum's metaclass
defines ``__getattr__``, so each ``Status.DEPLETED`` read inside a
function costs 0.17 us (3.10) or 0.11-0.16 us (3.11), against 0.03 us for a
module constant, which is also what 3.12 and 3.13 pay for the member (a
2-CPU x86-64 VM). A run reads a member about 4.5 times per node-window. A
class-body field default is read once and may name the member itself;
``tests/test_stdlib_only.py`` fails on any other read through the class.
Likewise the kernel builds its ``Event`` tuples through ``tuple.__new__``
to skip the NamedTuple's Python-level constructor (see ``simkernel.Event``),
and the per-event calls pass their arguments by position: a keyword-built
``Activity`` costs about twice a positional one (0.40 us against 0.20 us).
Records read by field name are slots dataclasses: on 3.11-3.13, building a
``Message`` and reading six fields costs 0.21-0.29 us, and 0.28-0.39 us as a
NamedTuple built through ``tuple.__new__``, whose field reads are slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

# Service identifier, unique within a scenario (e.g. "Print", "View").
Service = str


class SimulationError(Exception):
    """Base class for all simulation-domain errors."""


class UnknownService(SimulationError):
    """A service was named that the device's capacity profile doesn't contain."""


class DeviceUnavailable(SimulationError):
    """The device is quiesced or depleted and cannot take the requested action."""


class Status(Enum):
    RUNNING = "running"
    QUIESCED = "quiesced"
    DEPLETED = "depleted"


# module constants, read by every function; see the module docstring
RUNNING, QUIESCED, DEPLETED = Status.RUNNING, Status.QUIESCED, Status.DEPLETED


@dataclass
class EnergySpec:
    """Per-activity energy costs in millijoules; see the module docstring."""

    idle: int = field(default=1, metadata={"min": 0})
    tx: int = field(default=2, metadata={"min": 0})
    rx: int = field(default=1, metadata={"min": 0})
    request_default: int = field(default=5, metadata={"min": 0, "key": "request"})
    request: dict[Service, int] = field(default_factory=dict)


@dataclass(slots=True)
class Activity:
    """A device's billable activity over a span of ``ticks`` ticks.

    The idle draw is charged once per tick of the span; the served requests
    and messages are charged once each. Requests are served on the span's
    last tick; messages may fall on any of its ticks. A span of one tick
    (the default) is a single tick's activity.
    """

    requests_served: dict[Service, int] = field(default_factory=dict)
    msgs_tx: int = 0
    msgs_rx: int = 0
    ticks: int = 1


@dataclass
class DeviceState:
    """A node's identity, links, battery, capacities, and current load.

    ``load`` holds the requests currently assigned for the window in
    progress. Its keys are the capacity keys, set here in capacity order
    and never deleted, so every load read indexes it directly.
    """

    id: int
    neighbors: set[int] | frozenset[int] = field(default_factory=set)
    energy_mj: int = 10_000
    capacities: dict[Service, int] = field(default_factory=dict)
    load: dict[Service, int] = field(default_factory=dict)
    status: Status = Status.RUNNING

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"node id must be non-negative, got {self.id}")
        if self.id in self.neighbors:
            raise ValueError(f"node {self.id} lists itself as a neighbor")
        if self.energy_mj < 0:
            raise ValueError("energy_mj must be non-negative")
        for svc in self.capacities:
            self.load.setdefault(svc, 0)
        if self.energy_mj == 0:
            self.status = DEPLETED


def apply_requests(device: DeviceState, service: Service, n: int) -> None:
    """Add ``n`` incoming requests for ``service`` to the device's load.

    Only the named service's entry changes. Raises DeviceUnavailable when the
    device is not running (quiesced or depleted) and UnknownService when the
    service is not in its capacity profile.
    """
    if n < 0:
        raise ValueError(f"request count must be non-negative, got {n}")
    if device.status is not RUNNING:
        raise DeviceUnavailable(
            f"node {device.id} is {device.status.value}, cannot accept requests"
        )
    if service not in device.capacities:
        raise UnknownService(f"node {device.id} does not offer service {service!r}")
    device.load[service] += n


def consume_energy(device: DeviceState, activity: Activity, params: EnergySpec) -> int:
    """Debit the cost of ``activity`` under ``params`` from the device battery.

    Returns the amount actually debited, which is the full activity cost
    unless the battery saturates first. A device that reaches zero charge
    transitions to DEPLETED; depletion is a state change, not an error.
    """
    if device.status is DEPLETED:
        raise DeviceUnavailable(f"node {device.id} is depleted")
    cost, default = params.request.get, params.request_default
    delta = params.idle * activity.ticks + params.tx * activity.msgs_tx
    delta += params.rx * activity.msgs_rx
    for svc, count in activity.requests_served.items():
        delta += cost(svc, default) * count
    debit = min(delta, device.energy_mj)
    device.energy_mj -= debit
    if device.energy_mj == 0:
        device.status = DEPLETED
    return debit
