"""Behavioral simulation of Ovonic-threshold-switch dendrite-like circuits."""

from .device import OtsParams, OtsState, default_params, ots_current, ots_step
from .engine import (
    ConvergenceError,
    SimulationError,
    SingularSystemError,
    SpikeTrain,
    Trace,
    dynamic_iv,
    extract_spikes,
    firing_rate,
    transient,
)
from .netlist import Netlist, NetlistError
from .waveforms import Dc, PiecewiseLinear, Pulse, Triangle

__all__ = [
    "ConvergenceError",
    "Dc",
    "Netlist",
    "NetlistError",
    "OtsParams",
    "OtsState",
    "PiecewiseLinear",
    "Pulse",
    "SimulationError",
    "SingularSystemError",
    "SpikeTrain",
    "Trace",
    "Triangle",
    "default_params",
    "dynamic_iv",
    "extract_spikes",
    "firing_rate",
    "ots_current",
    "ots_step",
    "transient",
]

__version__ = "0.1.0"
