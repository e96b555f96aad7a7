"""The measurement rig: input bias through a bias resistor, a capacitor in
parallel with the switch, and a ground-side series resistor for current
sensing.  Biased above threshold it behaves as a relaxation oscillator whose
spike rate encodes the input bias."""

from __future__ import annotations

from dataclasses import dataclass

from .device import DT_DEVICE, OtsParams, default_params
from .engine import SpikeTrain, Trace, extract_spikes, firing_rate, transient
from .netlist import Netlist
from .waveforms import Dc, SourceSpec

R_BIAS = 9.1e3    # bias resistor
C_PAR = 1e-9      # capacitor in parallel with the switch
R_SERIES = 100.0  # ground-side series resistor
SPIKE_THRESHOLD = 0.5    # V at the sense node, upward crossings count as spikes
SPIKE_REFRACTORY = 1e-6  # shortest gap between two counted spikes
CHARGE_UP = 20e-6        # initial interval skipped before spikes are counted
OSC_DURATION = 300e-6    # default simulated time of an oscillator run

IN_NODE = "in"
TOP_NODE = "top"   # switch + capacitor node
MID_NODE = "mid"   # series-resistor sense node
OTS_NAME = "OTS1"


def measurement_netlist(source: SourceSpec | float,
                        p: OtsParams | None = None) -> Netlist:
    """Bias source -> R_d -> (C_p parallel OTS) -> R_s -> ground."""
    p = p or default_params()
    spec = Dc(source) if isinstance(source, (int, float)) else source
    net = Netlist()
    net.add_source("VIN", IN_NODE, "0", spec)
    net.add_resistor("RD", IN_NODE, TOP_NODE, R_BIAS)
    net.add_capacitor("CP", TOP_NODE, "0", C_PAR)
    net.add_ots(OTS_NAME, TOP_NODE, MID_NODE, p)
    net.add_resistor("RS", MID_NODE, "0", R_SERIES)
    return net


@dataclass(frozen=True)
class OscillationResult:
    v_in: float
    spikes: SpikeTrain
    rate: float
    trace: Trace


def run_oscillator(v_in: float, duration: float = OSC_DURATION, *,
                   p: OtsParams | None = None, dt: float = DT_DEVICE) -> OscillationResult:
    """Constant-bias run; spikes are upward crossings at the sense node
    after the initial charge-up interval is skipped."""
    net = measurement_netlist(v_in, p)
    tr = transient(net, duration, dt)
    st = extract_spikes(tr, MID_NODE, SPIKE_THRESHOLD, SPIKE_REFRACTORY, window=(CHARGE_UP, duration))
    return OscillationResult(v_in, st, firing_rate(st), tr)


def rate_sweep(v_values, duration: float = OSC_DURATION, *,
               p: OtsParams | None = None, dt: float = DT_DEVICE) -> list[tuple[float, float]]:
    return [(v, run_oscillator(v, duration, p=p, dt=dt).rate) for v in v_values]
