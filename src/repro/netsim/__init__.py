"""Network-level scenario simulation.

The paper measures one link (or one contending pair) at a time; a hybrid
network operator needs the next level up — many concurrent flows sharing
the PLC contention domains and the WiFi channel. :mod:`repro.netsim` runs
such scenarios at airtime-share granularity on top of the measured link
models, which is exactly the use the paper projects for its metrics
("routing and load balancing algorithms", §4.3).
"""

from repro.netsim.scenario import (
    SCENARIO_LIBRARY,
    FlowRequest,
    FlowResult,
    Scenario,
    build_scenario,
    register_scenario,
)
from repro.netsim.runner import (
    RunnerStats,
    ScenarioRunner,
    WorkConservationError,
)

__all__ = ["FlowRequest", "FlowResult", "RunnerStats", "Scenario",
           "ScenarioRunner", "WorkConservationError", "SCENARIO_LIBRARY",
           "build_scenario", "register_scenario"]
