"""Simulation time and randomness.

Two small pieces every other subsystem builds on: a mains-cycle-aware
clock helper (:mod:`repro.sim.clock`) and named deterministic random
streams (:mod:`repro.sim.random`). The simulators themselves are
round-based (:class:`~repro.plc.csma.CsmaSimulator`,
:class:`~repro.netsim.runner.ScenarioRunner`), so there is no event queue.
"""

from repro.sim.clock import MainsClock, tone_map_slot_at
from repro.sim.random import RandomStreams

__all__ = [
    "MainsClock",
    "tone_map_slot_at",
    "RandomStreams",
]
