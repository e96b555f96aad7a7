"""Line-oriented netlist text format.

One element per line; `#` starts a comment.  Node names are arbitrary
tokens, `0` is ground.  All numeric fields accept SI suffixes
(f p n u m k M G, case-sensitive where it matters: m = milli, M = mega).
Numbers are exact both ways: a field reads as the float nearest the
decimal written (`50n` is `50e-9`), and the writer prints each float so it
reads back bit for bit, so a netlist survives the text unchanged.

    R   <name> <n+> <n-> <ohms>
    C   <name> <n+> <n-> <farads> [ic=<volts>]
    V   <name> <n+> <n-> dc <volts>
    V   <name> <n+> <n-> pwl <t1> <v1> [<t2> <v2> ...]
    V   <name> <n+> <n-> pulse <v_low> <v_high> <delay> <width> <period> [<repeat>]
    V   <name> <n+> <n-> tri <v_peak> <t_rise> <t_fall>
    D   <name> <anode> <cathode> [vf=<V>] [vz=<V>] [rs=<ohms>]
    OTS <name> <n+> <n-> [vth=] [vhold=] [ron=] [goff=] [ihold=] [tauon=] [tauoff=]
    CMP <name> <v+> <v-> <out> [vhigh=] [vlow=] [rout=]
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from decimal import Decimal

from .device import OtsParams, default_params
from .netlist import Capacitor, Comparator, Diode, Netlist, Ots, Resistor, VoltageSource
from .waveforms import Dc, PiecewiseLinear, Pulse, Triangle

# Decimal exponent of each magnitude suffix
_SI = {"f": -15, "p": -12, "n": -9, "u": -6, "m": -3, "": 0, "k": 3, "K": 3, "M": 6, "G": 9}
_SUFFIX = {exp: suffix for suffix, exp in _SI.items() if suffix != "K"}  # the writer's choice

_NUM_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?([fpnumkKMG]?)$")

# Option keywords of each element kind and the field each one sets (on
# OtsParams for OTS); the reader accepts them and the writer emits them.
_OPTIONS: dict[str, dict[str, str]] = {
    "C": {"ic": "ic"},
    "D": {"vf": "v_f", "vz": "v_z", "rs": "r_series"},
    "OTS": {"vth": "v_th", "vhold": "v_hold", "ron": "r_on", "goff": "g_off",
            "ihold": "i_hold", "tauon": "tau_on", "tauoff": "tau_off"},
    "CMP": {"vhigh": "v_out_high", "vlow": "v_out_low", "rout": "r_out"},
}


class NetlistParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def parse_si(token: str) -> float:
    """Parse a number with an optional SI magnitude suffix into the float
    nearest its decimal value (`50n` is exactly `50e-9`)."""
    m = _NUM_RE.match(token.strip())
    if not m:
        raise ValueError(f"cannot parse quantity {token!r}")
    mantissa, exp, suffix = m.groups()
    value = float(f"{mantissa}e{int(exp or 0) + _SI[suffix]}")
    if math.isinf(value):
        raise ValueError(f"quantity {token!r} is out of range")
    return value


def format_si(value: float) -> str:
    """Shortest text, with an SI suffix from f to G, that `parse_si` reads
    back as exactly `value`; magnitudes outside 1f..1000G use an exponent."""
    if value == 0.0:
        return "0"
    digits = Decimal(repr(value)).normalize()
    exp = 3 * (digits.adjusted() // 3)
    if exp not in _SUFFIX:
        return format(digits, "e")
    return format(digits.scaleb(-exp), "f") + _SUFFIX[exp]


def _parse_options(tokens: list[str], n_fixed: int, kind: str, line_no: int) -> dict[str, float]:
    """Fields set by the key=value options that follow the `n_fixed` leading
    tokens of a `kind` line."""
    allowed = _OPTIONS[kind]
    _expect(tokens, n_fixed, n_fixed + len(allowed), line_no)
    out: dict[str, float] = {}
    for tok in tokens[n_fixed:]:
        if "=" not in tok:
            raise NetlistParseError(line_no, f"expected key=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        key = key.lower()
        if key not in allowed:
            raise NetlistParseError(line_no, f"unknown option {key!r} (allowed: {sorted(allowed)})")
        out[allowed[key]] = _num(raw, line_no)
    return out


def parse_netlist(text: str, *, default_ots: OtsParams | None = None) -> Netlist:
    """Build a netlist from its text form; errors carry the line number."""
    base = default_ots or default_params()
    net = Netlist()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].upper()
        try:
            if kind == "R":
                _expect(tokens, 5, 5, line_no)
                net.add_resistor(tokens[1], tokens[2], tokens[3], _num(tokens[4], line_no))
            elif kind == "C":
                kv = _parse_options(tokens, 5, kind, line_no)
                net.add_capacitor(*tokens[1:4], _num(tokens[4], line_no), **kv)
            elif kind == "V":
                _expect(tokens, 5, None, line_no)
                net.add_source(tokens[1], tokens[2], tokens[3], _parse_source(tokens[4:], line_no))
            elif kind == "D":
                net.add_diode(*tokens[1:4], **_parse_options(tokens, 4, kind, line_no))
            elif kind == "OTS":
                kv = _parse_options(tokens, 4, kind, line_no)
                net.add_ots(*tokens[1:4], replace(base, **kv) if kv else base)
            elif kind == "CMP":
                net.add_comparator(*tokens[1:5], **_parse_options(tokens, 5, kind, line_no))
            else:
                raise NetlistParseError(line_no, f"unknown element kind {tokens[0]!r}")
        except NetlistParseError:
            raise
        except ValueError as exc:
            raise NetlistParseError(line_no, str(exc)) from None
    net.validate()
    return net


def _expect(tokens: list[str], lo: int, hi: int | None, line_no: int) -> None:
    if len(tokens) < lo or (hi is not None and len(tokens) > hi):
        want = f"{lo}" if hi == lo else f"{lo}..{hi or 'n'}"
        raise NetlistParseError(line_no, f"expected {want} fields, got {len(tokens)}")


def _num(token: str, line_no: int) -> float:
    try:
        return parse_si(token)
    except ValueError as exc:
        raise NetlistParseError(line_no, str(exc)) from None


def _parse_source(tokens: list[str], line_no: int):
    mode = tokens[0].lower()
    args = [_num(t, line_no) for t in tokens[1:]]
    if mode == "dc":
        if len(args) != 1:
            raise NetlistParseError(line_no, "dc source takes one value")
        return Dc(args[0])
    if mode == "pwl":
        if len(args) < 2 or len(args) % 2:
            raise NetlistParseError(line_no, "pwl source takes time/value pairs")
        return PiecewiseLinear(tuple(zip(args[0::2], args[1::2])))
    if mode == "pulse":
        if len(args) not in (5, 6):
            raise NetlistParseError(line_no, "pulse takes v_low v_high delay width period [repeat]")
        if len(args) == 6 and not args[5].is_integer():
            raise NetlistParseError(line_no, f"pulse repeat must be a whole number, got {tokens[6]!r}")
        return Pulse(*args[:5], int(args[5]) if len(args) == 6 else None)
    if mode == "tri":
        if len(args) != 3:
            raise NetlistParseError(line_no, "tri takes v_peak t_rise t_fall")
        return Triangle(args[0], args[1], args[2])
    raise NetlistParseError(line_no, f"unknown source mode {mode!r}")


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _source_text(spec) -> str:
    if isinstance(spec, Dc):
        return f"dc {format_si(spec.value)}"
    if isinstance(spec, PiecewiseLinear):
        return "pwl " + " ".join(f"{format_si(t)} {format_si(v)}" for t, v in spec.points)
    if isinstance(spec, Pulse):
        if spec.bits is not None:
            raise TypeError("cannot serialize a Pulse with a bit pattern: the pulse line has no field for it")
        parts = [format_si(x) for x in (spec.v_low, spec.v_high, spec.delay, spec.width, spec.period)]
        if spec.repeat is not None:
            parts.append(str(spec.repeat))
        return "pulse " + " ".join(parts)
    if isinstance(spec, Triangle):
        return f"tri {format_si(spec.v_peak)} {format_si(spec.t_rise)} {format_si(spec.t_fall)}"
    raise TypeError(f"cannot serialize source waveform {type(spec).__name__}")


def _options_text(kind: str, values) -> str:
    return " ".join(f"{key}={format_si(getattr(values, name))}" for key, name in _OPTIONS[kind].items())


def netlist_to_text(net: Netlist, header: str = "") -> str:
    """Serialize a netlist to the text format (device parameters written
    explicitly so the file is self-contained); `parse_netlist` reads it
    back to equal elements."""
    lines = [f"# {ln}" if ln else "#" for ln in header.splitlines()] if header else []
    names = net.node_names
    for el in net.elements:
        k = el.kind
        t = " ".join(names[i] for i in el.terminals)
        if isinstance(k, Resistor):
            lines.append(f"R {k.name} {t} {format_si(k.ohms)}")
        elif isinstance(k, Capacitor):
            suffix = f" {_options_text('C', k)}" if k.ic else ""
            lines.append(f"C {k.name} {t} {format_si(k.farads)}{suffix}")
        elif isinstance(k, VoltageSource):
            lines.append(f"V {k.name} {t} {_source_text(k.spec)}")
        elif isinstance(k, Diode):
            lines.append(f"D {k.name} {t} {_options_text('D', k)}")
        elif isinstance(k, Ots):
            lines.append(f"OTS {k.name} {t} {_options_text('OTS', k.params)}")
        elif isinstance(k, Comparator):
            lines.append(f"CMP {k.name} {t} {_options_text('CMP', k)}")
    return "\n".join(lines) + "\n"
