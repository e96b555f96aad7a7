"""Circuit description: a node registry plus an ordered element list.

Node 0 is ground and is always named "0".  Other nodes may be referred to by
arbitrary string names; indices are assigned in order of first use.  Every
non-ground node must be reachable from ground through element terminals,
otherwise the nodal matrix would be singular.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import OtsParams
from .waveforms import SourceSpec, require_finite


class NetlistError(ValueError):
    pass


@dataclass(frozen=True)
class Resistor:
    name: str
    ohms: float

    def __post_init__(self) -> None:
        require_finite(self.name, NetlistError, ohms=self.ohms)
        if self.ohms <= 0.0:
            raise NetlistError(f"{self.name}: resistance must be positive")


@dataclass(frozen=True)
class Capacitor:
    name: str
    farads: float
    ic: float = 0.0  # initial branch voltage

    def __post_init__(self) -> None:
        require_finite(self.name, NetlistError, farads=self.farads, ic=self.ic)
        if self.farads <= 0.0:
            raise NetlistError(f"{self.name}: capacitance must be positive")


@dataclass(frozen=True)
class VoltageSource:
    name: str
    spec: SourceSpec


@dataclass(frozen=True)
class Diode:
    """Piecewise-linear diode with reverse (Zener) breakdown.

    Off between -v_z and v_f carrying zero current; conducts with slope
    1/r_series beyond either knee.  Defaults model a 1N4744A used as a
    plain rectifier (15 V breakdown never reached at 5 V logic levels).
    """

    name: str
    v_f: float = 0.7
    v_z: float = 15.0
    r_series: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self.name, NetlistError, v_f=self.v_f, v_z=self.v_z, r_series=self.r_series)
        if self.v_f <= 0.0 or self.v_z <= 0.0 or self.r_series <= 0.0:
            raise NetlistError(f"{self.name}: diode parameters must be positive")


@dataclass(frozen=True)
class Ots:
    name: str
    params: OtsParams


@dataclass(frozen=True)
class Comparator:
    """Ideal comparator: output node driven to v_out_high through r_out when
    v(plus) > v(minus), else to v_out_low.  Input pins draw no current."""

    name: str
    v_out_high: float = 5.0
    v_out_low: float = 0.0
    r_out: float = 50.0

    def __post_init__(self) -> None:
        require_finite(self.name, NetlistError, v_out_high=self.v_out_high,
                       v_out_low=self.v_out_low, r_out=self.r_out)
        if self.v_out_high <= self.v_out_low:
            raise NetlistError(f"{self.name}: require v_out_high > v_out_low")
        if self.r_out <= 0.0:
            raise NetlistError(f"{self.name}: r_out must be positive")


ElementKind = Resistor | Capacitor | VoltageSource | Diode | Ots | Comparator


@dataclass(frozen=True)
class Element:
    kind: ElementKind
    terminals: tuple[int, ...]  # R/C/V/OTS: (n+, n-); diode: (anode, cathode); comparator: (v+, v-, out)

    @property
    def name(self) -> str:
        return self.kind.name


class Netlist:
    """Mutable builder; treat as immutable once handed to the simulator."""

    def __init__(self) -> None:
        self._node_names: list[str] = ["0"]
        self._node_index: dict[str, int] = {"0": 0}
        self.elements: list[Element] = []

    # -- nodes ------------------------------------------------------------

    def node(self, name: str | int) -> int:
        """Return the index for a node name, creating it on first use."""
        if isinstance(name, int):
            if not (0 <= name < len(self._node_names)):
                raise NetlistError(f"unknown node index {name}")
            return name
        name = str(name)
        idx = self._node_index.get(name)
        if idx is None:
            idx = len(self._node_names)
            self._node_names.append(name)
            self._node_index[name] = idx
        return idx

    @property
    def node_count(self) -> int:
        return len(self._node_names)

    @property
    def node_names(self) -> list[str]:
        return list(self._node_names)

    # -- elements ---------------------------------------------------------

    def _add(self, kind: ElementKind, *nodes: str | int) -> Element:
        if any(e.name == kind.name for e in self.elements):
            raise NetlistError(f"duplicate element name {kind.name!r}")
        el = Element(kind, tuple(self.node(n) for n in nodes))
        self.elements.append(el)
        return el

    def add_resistor(self, name: str, np: str | int, nn: str | int, ohms: float) -> Element:
        return self._add(Resistor(name, ohms), np, nn)

    def add_capacitor(self, name: str, np: str | int, nn: str | int, farads: float, ic: float = 0.0) -> Element:
        return self._add(Capacitor(name, farads, ic), np, nn)

    def add_source(self, name: str, np: str | int, nn: str | int, spec: SourceSpec) -> Element:
        return self._add(VoltageSource(name, spec), np, nn)

    def add_diode(self, name: str, anode: str | int, cathode: str | int, *,
                  v_f: float = Diode.v_f, v_z: float = Diode.v_z, r_series: float = Diode.r_series) -> Element:
        return self._add(Diode(name, v_f, v_z, r_series), anode, cathode)

    def add_ots(self, name: str, np: str | int, nn: str | int, params: OtsParams) -> Element:
        return self._add(Ots(name, params), np, nn)

    def add_comparator(self, name: str, vp: str | int, vn: str | int, out: str | int,
                       *, v_out_high: float = Comparator.v_out_high, v_out_low: float = Comparator.v_out_low,
                       r_out: float = Comparator.r_out) -> Element:
        return self._add(Comparator(name, v_out_high, v_out_low, r_out), vp, vn, out)

    def element(self, name: str) -> Element:
        for el in self.elements:
            if el.name == name:
                return el
        raise NetlistError(f"no element named {name!r}")

    def ots_elements(self) -> list[Element]:
        return [el for el in self.elements if isinstance(el.kind, Ots)]

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check terminal indices and ground connectivity.

        Comparator inputs are ideal (no current), so only the output pin
        counts as a conductive terminal for reachability.
        """
        adjacency: dict[int, set[int]] = {i: set() for i in range(self.node_count)}
        for el in self.elements:
            for t in el.terminals:
                if not (0 <= t < self.node_count):
                    raise NetlistError(f"{el.name}: terminal {t} out of range")
            if isinstance(el.kind, Comparator):
                # output is tied to the rails through r_out; model as grounded
                adjacency[el.terminals[2]].add(0)
                adjacency[0].add(el.terminals[2])
                continue
            a, b = el.terminals[0], el.terminals[1]
            adjacency[a].add(b)
            adjacency[b].add(a)

        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        floating = [self._node_names[i] for i in range(self.node_count) if i not in seen]
        if floating:
            raise NetlistError(f"floating node(s) not reachable from ground: {', '.join(floating)}")
