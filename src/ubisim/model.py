"""Domain types shared by every other module: devices, services, loads,
and the energy-consumption model.

Loads and capacities are integers (requests per measurement window).
Energy is tracked in whole millijoules and only ever decreases; a debit
saturates at the remaining charge and a device whose charge reaches zero
is permanently depleted.
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


@dataclass
class EnergyParams:
    """Per-activity energy costs in millijoules.

    ``idle_per_tick`` is charged once per simulated tick a device is powered
    on; ``per_request`` gives the cost of serving one request of a given
    service, falling back to ``default_per_request`` for services without an
    explicit entry; ``tx_per_msg``/``rx_per_msg`` are charged per message
    sent/received.
    """

    idle_per_tick: int = 1
    per_request: dict[Service, int] = field(default_factory=dict)
    tx_per_msg: int = 2
    rx_per_msg: int = 1
    default_per_request: int = 5


@dataclass(slots=True)
class Activity:
    """A device's billable activity over a span of ``ticks`` ticks.

    The idle draw is charged once per tick of the span; the served requests
    and messages are charged once, as they all fall on the span's last tick.
    A span of one tick (the default) is a single tick's activity.
    """

    requests_served: dict[Service, int] = field(default_factory=dict)
    msgs_tx: int = 0
    msgs_rx: int = 0
    ticks: int = 1


@dataclass
class DeviceState:
    """A node's identity, links, battery, capacities, and current load.

    ``load`` holds the requests currently assigned for the window in
    progress.
    """

    id: int
    neighbors: set[int] = field(default_factory=set)
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
            self.status = Status.DEPLETED


def apply_requests(device: DeviceState, service: Service, n: int) -> None:
    """Add ``n`` incoming requests for ``service`` to the device's load.

    Only the named service's entry changes. Raises DeviceUnavailable when the
    device is not running (quiesced or depleted) and UnknownService when the
    service is not in its capacity profile.
    """
    if n < 0:
        raise ValueError(f"request count must be non-negative, got {n}")
    if device.status is not Status.RUNNING:
        raise DeviceUnavailable(
            f"node {device.id} is {device.status.value}, cannot accept requests"
        )
    if service not in device.capacities:
        raise UnknownService(f"node {device.id} does not offer service {service!r}")
    device.load[service] = device.load.get(service, 0) + n


def energy_delta(activity: Activity, params: EnergyParams) -> int:
    """Millijoules ``activity`` costs under ``params``, idle span included."""
    delta = params.idle_per_tick * activity.ticks
    cost, default = params.per_request.get, params.default_per_request
    for svc, count in activity.requests_served.items():
        delta += cost(svc, default) * count
    delta += params.tx_per_msg * activity.msgs_tx
    delta += params.rx_per_msg * activity.msgs_rx
    return delta


def consume_energy(device: DeviceState, activity: Activity, params: EnergyParams) -> int:
    """Debit ``activity`` from the device battery.

    Returns the amount actually debited, which is the full activity cost
    unless the battery saturates first. A device that reaches zero charge
    transitions to DEPLETED; depletion is a state change, not an error.
    """
    if device.status is Status.DEPLETED:
        raise DeviceUnavailable(f"node {device.id} is depleted")
    debit = min(energy_delta(activity, params), device.energy_mj)
    device.energy_mj -= debit
    if device.energy_mj == 0:
        device.status = Status.DEPLETED
    return debit
