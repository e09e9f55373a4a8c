"""Fluid-model network simulator and verification harness for decentralized
weighted bandwidth allocation, with a centralized water-filling oracle."""

from .baselines import AimdConfig, aimd_window
from .control import (
    ControlParams,
    LemmaReport,
    check_lemma_conditions,
    inverse_target,
    target_delay,
    update_ratio,
)
from .fluid import FluidSimulation, SimConfig, Trace
from .metrics import ConvergenceReport, convergence_time
from .model import (
    FlowSpec,
    Link,
    Topology,
    fat_tree,
    route_flow,
    star,
)
from .oracle import AllocationResult, water_fill
from .scenario import (
    Scenario,
    ScenarioError,
    build_topology,
    load_scenario,
    scenario_from_dict,
)

__all__ = [
    "AimdConfig",
    "AllocationResult",
    "ControlParams",
    "ConvergenceReport",
    "FlowSpec",
    "FluidSimulation",
    "LemmaReport",
    "Link",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "Topology",
    "Trace",
    "aimd_window",
    "build_topology",
    "check_lemma_conditions",
    "convergence_time",
    "fat_tree",
    "inverse_target",
    "load_scenario",
    "route_flow",
    "scenario_from_dict",
    "star",
    "target_delay",
    "update_ratio",
    "water_fill",
]

__version__ = "0.1.0"
