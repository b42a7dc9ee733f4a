"""Time-stepped simulation substrate (Figure 1 and Section 2).

"Given a model and an initial state, simulations calculate and approximate
the subsequent states of the model in discrete time steps. ... during the
simulation phase analysis/update queries are executed to update the model and
during the monitoring phase analysis queries are executed to monitor the
progress of the simulation."

* :class:`~repro.sim.engine.TimeSteppedSimulation` — the Figure 1 loop:
  compute (update queries) → index maintenance → monitor (analysis queries),
  with per-phase timing and counter attribution;
* :mod:`~repro.sim.models` — the model protocol plus the paper's neuroscience
  workloads: neural plasticity and neuron co-growth with synapse formation;
* :mod:`~repro.sim.monitors` — in-situ analysis: random-window range
  monitors, density probes, visualization sampling and nearest-neighbour
  (nearest-synapse) probes, each reading through the simulation's query
  session.
"""

from repro.sim.engine import StepReport, TimeSteppedSimulation
from repro.sim.models import SimulationModel
from repro.sim.plasticity import PlasticityModel
from repro.sim.growth import GrowthModel
from repro.sim.monitors import (
    ContinuousDensityMonitor,
    DensityMonitor,
    NearestNeighborMonitor,
    RangeMonitor,
    VisualizationMonitor,
)

__all__ = [
    "TimeSteppedSimulation",
    "StepReport",
    "SimulationModel",
    "PlasticityModel",
    "GrowthModel",
    "RangeMonitor",
    "DensityMonitor",
    "ContinuousDensityMonitor",
    "NearestNeighborMonitor",
    "VisualizationMonitor",
]
