"""Energy accounting: per-spike energy from simulated waveforms, per-image
operation counts and totals, and feature-size scaling projections, with the
published comparison table reproduced from its cited per-operation figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .engine import Trace
from .netlist import Netlist


@dataclass(frozen=True)
class EnergyRow:
    label: str
    energy_per_op: float  # joules
    op_count: int
    method: str           # "XOR" or "Sobel3x3"
    source: str           # "PaperTable" | "Scaled"

    @property
    def total(self) -> float:
        return self.energy_per_op * self.op_count


@dataclass
class EnergyReport:
    width: int
    height: int
    rows: list[EnergyRow] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "image": {"width": self.width, "height": self.height},
                "rows": [
                    {
                        "label": r.label,
                        "energy_per_op_pJ": r.energy_per_op * 1e12,
                        "op_count": r.op_count,
                        "total_uJ": r.total * 1e6,
                        "method": r.method,
                        "source": r.source,
                    }
                    for r in self.rows
                ],
                "annotations": self.annotations,
            },
            indent=2,
        )

    def to_text(self) -> str:
        head = f"Edge-detection energy, {self.width}x{self.height} image"
        cols = ["processor", "E/op (pJ)", "method", "ops", "total (uJ)"]
        body = [
            [
                r.label,
                f"{r.energy_per_op * 1e12:.4g}",
                r.method,
                f"{r.op_count:,}",
                f"{r.total * 1e6:.4g}",
            ]
            for r in self.rows
        ]
        widths = [max(len(c), *(len(b[i]) for b in body)) for i, c in enumerate(cols)]
        lines = [head, ""]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for b in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(b, widths)))
        for note in self.annotations:
            lines.append("")
            lines.append("note: " + note)
        return "\n".join(lines)


# Cited per-operation energies of the digital baselines (external processor
# measurements) and the experimental per-spike figure of the switch-based
# XOR at its fabricated 6 um feature size.
PROCESSOR_TABLE: list[tuple[str, float, str]] = [
    ("K20 (Nvidia, 2012)", 290e-12, "Sobel3x3"),
    ("V100 (Nvidia, 2017)", 75e-12, "Sobel3x3"),
    ("H100 (Nvidia, 2022)", 20e-12, "Sobel3x3"),
    ("Xeon E5-2650 (Intel, 2012)", 2071e-12, "Sobel3x3"),
]

OTS_XOR_EXPERIMENTAL = ("OTS-XOR (d = 6 um, exp.)", 467e-12, "XOR")
OTS_FEATURE_SIZE = 6e-6


@dataclass(frozen=True)
class ScalingLaw:
    """Energy ~ (feature size)^n with n between 1.6 and 2.1."""

    exponent: float = 1.6

    def __post_init__(self) -> None:
        if not (1.6 <= self.exponent <= 2.1):
            raise ValueError(f"scaling exponent {self.exponent} outside [1.6, 2.1]")


def scale_energy(law: ScalingLaw, d_target: float) -> float:
    """Project the experimental per-operation energy of the XOR from its
    fabricated feature size to d_target."""
    if d_target <= 0.0:
        raise ValueError("target feature size must be positive")
    return OTS_XOR_EXPERIMENTAL[1] * (d_target / OTS_FEATURE_SIZE) ** law.exponent


def xor_op_count(width: int, height: int) -> int:
    """One XOR per pixel per shift direction."""
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    return width * height * 2


def sobel_op_count(width: int, height: int) -> int:
    """3x3 kernel, both gradient directions."""
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    return width * height * 9 * 2


def table1_report(width: int, height: int, *,
                  node: float | None = None,
                  exponent: float = ScalingLaw.exponent) -> EnergyReport:
    """The published energy comparison for a width x height image, plus an
    optional scaled projection row."""
    n_sobel = sobel_op_count(width, height)
    n_xor = xor_op_count(width, height)
    rows = [EnergyRow(lbl, e, n_sobel, m, "PaperTable") for lbl, e, m in PROCESSOR_TABLE]
    lbl, e, m = OTS_XOR_EXPERIMENTAL
    rows.append(EnergyRow(lbl, e, n_xor, m, "PaperTable"))
    report = EnergyReport(width, height, rows)

    if node is not None:
        law = ScalingLaw(exponent=exponent)
        scaled = scale_energy(law, node)
        report.rows.append(
            EnergyRow(f"OTS-XOR (d = {_fmt_size(node)}, scaled n={exponent:g})",
                      scaled, n_xor, "XOR", "Scaled")
        )
        if abs(node - 16e-9) < 1e-12 and abs(exponent - 1.6) < 1e-12:
            report.annotations.append(
                "published-table inconsistency: direct d^1.6 scaling of 467 pJ from 6 um to "
                f"16 nm gives {scaled * 1e12:.4f} pJ/op, 10x below the printed 0.356 pJ/op; "
                "the printed cells are also mutually inconsistent "
                "(0.356 pJ x 524,288 ops = 0.187 uJ, not the printed 0.0032 uJ, and the "
                "body text's 3.2 nJ matches neither at n = 1.6); "
                "this report keeps the directly computed projection"
            )
    return report


def _fmt_size(d: float) -> str:
    if d >= 1e-6:
        return f"{d * 1e6:g} um"
    return f"{d * 1e9:g} nm"


# ---------------------------------------------------------------------------
# per-spike energy from simulated waveforms
# ---------------------------------------------------------------------------


def branch_energy(net: Netlist, tr: Trace, element: str,
                  bounds: tuple[float, float]) -> float:
    """Trapezoid integral of v(t)*i(t) over `bounds` for a two-terminal
    element (energy dissipated in it); ValueError naming any other element."""
    el = net.element(element)
    if len(el.terminals) != 2:
        raise ValueError(f"element {element!r} has {len(el.terminals)} terminals; branch energy needs two")
    lo, hi = bounds
    if lo >= hi:
        raise ValueError("bounds must satisfy t0 < t1")
    if lo < tr.times[0] - 1e-15 or hi > tr.times[-1] + 1e-15:
        raise ValueError("bounds extend outside the trace")
    a, b = el.terminals[0], el.terminals[1]
    mask = (tr.times >= lo) & (tr.times <= hi)
    v = tr.voltages[mask, a] - tr.voltages[mask, b]
    i = tr.currents[element][mask]
    return float(np.trapezoid(v * i, tr.times[mask]))


def count_conduction_bursts(tr: Trace, ots_name: str,
                            bounds: tuple[float, float]) -> int:
    """Number of contiguous on-phase intervals that begin inside bounds."""
    if ots_name not in tr.ots_on:
        raise ValueError(f"no switch named {ots_name!r} in the trace")
    on = tr.ots_on[ots_name]
    starts = np.flatnonzero(np.diff(on.astype(np.int8)) > 0) + 1
    if len(on) and on[0]:
        starts = np.concatenate([[0], starts])
    times = tr.times[starts]
    lo, hi = bounds
    return int(np.count_nonzero((times >= lo) & (times <= hi)))


def spike_energy(net: Netlist, tr: Trace, ots_name: str,
                 bounds: tuple[float, float]) -> float:
    """Energy dissipated in the switch over a window containing exactly one
    conduction burst (one output spike)."""
    n = count_conduction_bursts(tr, ots_name, bounds)
    if n != 1:
        raise ValueError(f"bounds contain {n} spikes; spike_energy needs exactly 1")
    return branch_energy(net, tr, ots_name, bounds)
