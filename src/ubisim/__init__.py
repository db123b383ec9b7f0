"""Deterministic simulator of clustered device networks with per-service
overload detection and controller-driven load migration."""

from .clustering import Cluster, Topology, deploy_agents, elect_head, form_clusters
from .detection import (
    BehaviorSample,
    DetectionVerdict,
    KnowledgeBase,
    build_knowledge_base,
    collect,
    control_compare,
    report_alert,
)
from .engine import Engine, run_scenario
from .metrics import build_report, detection_stats, energy_report, jain_index
from .model import (
    Activity,
    DeviceState,
    EnergySpec,
    Service,
    Status,
    apply_requests,
    consume_energy,
)
from .reconfig import (
    ClusterView,
    MigrationDirective,
    Outcome,
    ReconfigPlan,
    apply_dynamic,
    apply_static,
    correction_outcome,
    plan_reconfiguration,
)
from .scenario import Mode, ParseError, Scenario, parse_scenario, serialize_scenario
from .simkernel import Event, Message, RunLog, Simulation

__version__ = "0.1.0"
