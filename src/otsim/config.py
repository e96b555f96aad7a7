"""Run configuration: a flat key=value file, with `--set` items applied over
it, covering device overrides, solver settings, logic encoding, pipeline
knobs, and the scaling exponent.  Unknown keys are rejected.  Each default
is the one of the type or function the setting feeds."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .device import DT_DEVICE, OtsParams, default_params
from .energy import ScalingLaw
from .gates import DT_LOGIC, LogicEncoding
from .imaging import BINARIZE_THRESHOLD, check_threshold
from .netlist_io import parse_si
from .pipeline import GRADIENT_WINDOW, StreamSettings


@dataclass(frozen=True)
class RunConfig:
    # device parameter overrides (None = calibrated default)
    v_th: float | None = None
    v_hold: float | None = None
    r_on: float | None = None
    g_off: float | None = None
    i_hold: float | None = None
    tau_on: float | None = None
    tau_off: float | None = None
    # solver
    dt_device: float = DT_DEVICE   # device-physics runs (I-V, oscillator)
    dt_logic: float = DT_LOGIC     # logic and pipeline runs
    # logic encoding
    v_high: float = LogicEncoding.v_high
    bit_width: float = LogicEncoding.bit_width
    settle: float = LogicEncoding.settle
    # pipeline
    binarize_threshold: int = BINARIZE_THRESHOLD
    otsu: bool = False
    segment_clocks: int = StreamSettings.segment_clocks
    gradient_window: float = GRADIENT_WINDOW
    # energy scaling
    exponent: float = ScalingLaw.exponent

    def __post_init__(self) -> None:
        """Build what the settings derive, so that a bad value fails here
        with a ConfigError naming its key."""
        for keys, derive in (
            (_OTS_KEYS, self.device_params),
            (("v_high", "bit_width", "settle"), self.encoding),
            (("dt_device", "dt_logic", "gradient_window", "settle", "bit_width"), self._check_times),
            (("segment_clocks", "dt_logic"), self.stream_settings),
            (("binarize_threshold",), lambda: check_threshold(self.binarize_threshold)),
            (("exponent",), lambda: ScalingLaw(self.exponent)),
        ):
            try:
                derive()
            except ValueError as exc:
                named = [k for k in keys if getattr(self, k) != _DEFAULTS[k]]
                raise ConfigError(", ".join(f"{k} = {getattr(self, k)!r}" for k in named) + f": {exc}") from None

    def _check_times(self) -> None:
        if not (0.0 < self.dt_device < math.inf and 0.0 < self.dt_logic < math.inf):
            raise ValueError("time steps must be positive and finite")
        if self.gradient_window <= self.settle:
            raise ValueError("gradient_window must exceed settle")
        if self.dt_logic > min(self.settle + self.bit_width, self.gradient_window):
            raise ValueError(f"dt_logic is longer than settle + bit_width ({self.settle + self.bit_width:g} s) "
                             f"or gradient_window ({self.gradient_window:g} s)")

    def device_params(self) -> OtsParams:
        overrides = {k: getattr(self, k) for k in _OTS_KEYS if getattr(self, k) is not None}
        return replace(default_params(), **overrides) if overrides else default_params()

    def encoding(self) -> LogicEncoding:
        return LogicEncoding(v_high=self.v_high, bit_width=self.bit_width, settle=self.settle)

    def stream_settings(self) -> StreamSettings:
        return StreamSettings(dt=self.dt_logic, segment_clocks=self.segment_clocks)


class ConfigError(ValueError):
    pass


_OTS_KEYS = tuple(f.name for f in fields(OtsParams))
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), origin=path)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_TYPE_PARSERS = {"float": parse_si, "float | None": parse_si, "int": int, "bool": lambda v: _BOOLS[v.lower()]}
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotations, as strings


def parse_setting(line: str, origin: str) -> tuple[str, object]:
    """Key and value of one ``key = value`` setting, parsed by the type of
    the key's field; errors start with `origin`."""
    key, eq, raw = line.partition("=")
    key, raw = key.strip(), raw.strip()
    if not eq:
        raise ConfigError(f"{origin}: expected key=value, got {line!r}")
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{origin}: unknown key {key!r}")
    parse = _TYPE_PARSERS[kind]
    try:
        return key, parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{origin}: {key} expects {kind.removesuffix(' | None')}, got {raw!r}") from None


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = parse_setting(line, f"{origin}:{line_no}")
            values[key] = value
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from None
