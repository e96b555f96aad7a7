"""Command-line front end.

Subcommands: iv, oscillate, gate, edge, gradient, energy.  All physical
quantities accept SI suffixes (e.g. 9.1k, 100n, 5u).  Configuration
precedence: --set items > --config file > built-in defaults.

Exit codes: 0 success and all checks passed; 1 a check failed (truth-table
or oracle mismatch); 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import circuits as circuit_files
from .config import ConfigError, RunConfig, load_config, parse_setting
from .energy import table1_report
from .engine import SimulationError, dynamic_iv
from .gates import GateKind, build_gate, evaluate, gate_arity, truth_table
from .imaging import ColorImage, ImageError, binarize, color_to_gray, load_image, otsu_threshold, reference_edges, save_pgm
from .netlist import NetlistError
from .netlist_io import NetlistParseError, format_si, parse_netlist, parse_si
from .pipeline import detect_edges, fit_linear, mismatch_report, sweep_gradient
from .rig import OSC_DURATION, measurement_netlist, rate_sweep, run_oscillator
from .waveforms import Triangle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _si(text: str) -> float:
    try:
        return parse_si(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_dt(key: str, dt: float, t_stop: float, what: str) -> None:
    """Refuse a time step that does not fit in the run it steps."""
    if dt > t_stop:
        raise CliError(f"{key} = {dt!r}: longer than {what} ({t_stop:g} s)")


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            cfg = load_config(args.config)
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from None
    items = getattr(args, "set", None) or []
    return replace(cfg, **dict(parse_setting(item, f"--set {item!r}") for item in items))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_iv(args) -> int:
    cfg = _build_config(args)
    p = cfg.device_params()
    if args.netlist:
        try:
            with open(args.netlist, "r", encoding="utf-8") as fh:
                net = parse_netlist(fh.read(), default_ots=p)
        except OSError as exc:
            raise CliError(f"cannot read netlist: {exc}") from None
        except (NetlistParseError, NetlistError) as exc:
            raise CliError(f"{args.netlist}: {exc}") from None
    else:
        net = measurement_netlist(0.0, p)
    ots = net.ots_elements()
    if len(ots) != 1:
        raise CliError(f"dynamic I-V needs exactly one OTS, netlist has {len(ots)}")
    ramp = Triangle(args.peak, args.rise, args.fall if args.fall else args.rise)
    _check_dt("dt_device", cfg.dt_device, ramp.duration, "the ramp (--rise plus --fall)")
    pts = dynamic_iv(net, ramp, ots[0].name, dt=cfg.dt_device)
    _write_csv(args.out, "v,i", pts)
    print(f"wrote {len(pts)} (v, i) samples to {args.out}")
    return EXIT_OK


def cmd_oscillate(args) -> int:
    cfg = _build_config(args)
    p = cfg.device_params()
    _check_dt("dt_device", cfg.dt_device, args.duration, "--duration")
    if args.sweep:
        try:
            v0, v1, steps = args.sweep.split(":")
            v_values = np.linspace(float(v0), float(v1), int(steps))
        except ValueError:
            raise CliError("--sweep expects v0:v1:steps") from None
        rows = rate_sweep(v_values, args.duration, p=p, dt=cfg.dt_device)
        _write_csv(args.out, "v_in,rate_hz", rows)
        print(f"wrote {len(rows)} (v_in, rate) samples to {args.out}")
        return EXIT_OK
    result = run_oscillator(args.vin, args.duration, p=p, dt=cfg.dt_device)
    result.trace.to_csv(args.out)
    print(f"v_in={args.vin} V: {result.spikes.count} spikes, rate {result.rate:.4g} Hz; trace in {args.out}")
    tr = result.trace
    print(f"solved {tr.solved_steps} of {len(tr.times)} steps; period {tr.period or 'none'}")
    return EXIT_OK


def cmd_gate(args) -> int:
    cfg = _build_config(args)
    p = cfg.device_params()
    enc = cfg.encoding()
    try:
        kind = GateKind.parse(args.kind)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    if args.inputs is not None:
        bits = tuple(int(c) for c in args.inputs if c in "01")
        if len(bits) != gate_arity(kind) or len(bits) != len(args.inputs):
            raise CliError(f"{kind.value} takes {gate_arity(kind)} bits, got {args.inputs!r}")
        row = evaluate(kind, bits, enc, p, dt=cfg.dt_logic)
        if args.waveforms:
            row.trace.to_csv(args.waveforms)
        names = [out.name for out in build_gate(kind).outputs]
        print(" ".join(f"{n}={b}" for n, b in zip(names, row.measured)))
        return EXIT_OK if row.ok else EXIT_CHECK_FAILED

    table = truth_table(kind, enc, p, dt=cfg.dt_logic, keep_traces=bool(args.waveforms))
    payload = table.to_json()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.waveforms:
        _write_table_waveforms(table, enc, args.waveforms)
    status = "all rows match" if table.ok else "MISMATCH"
    print(f"{kind.value}: {status}", file=sys.stderr)
    return EXIT_OK if table.ok else EXIT_CHECK_FAILED


def _write_table_waveforms(table, enc, path) -> None:
    """Concatenated per-row traces, rows offset by the evaluation period.
    A row's first sample falls at the time of the previous row's last one,
    so every row after the first starts at its second sample."""
    period = enc.settle + enc.bit_width
    chunks = []
    header = None
    for i, row in enumerate(table.rows):
        tr = row.trace
        names = [n for n in tr.node_names if n != "0"]
        header = "t," + ",".join(names)
        block = np.column_stack([tr.times + i * period] + [tr.voltage(n) for n in names])
        chunks.append(block[1:] if i else block)
    np.savetxt(path, np.vstack(chunks), delimiter=",", header=header, comments="", fmt="%.9g")


def cmd_edge(args) -> int:
    cfg = _build_config(args)
    p = cfg.device_params()
    try:
        img = load_image(args.input)
    except (OSError, ImageError) as exc:
        raise CliError(f"{args.input}: {exc}") from None
    gray = color_to_gray(img) if isinstance(img, ColorImage) else img
    threshold = otsu_threshold(gray) if cfg.otsu else cfg.binarize_threshold
    binary = binarize(gray, threshold)
    edges = detect_edges(binary, cfg.encoding(), p, cfg.stream_settings())
    save_pgm(edges, args.out)
    print(f"edge map written to {args.out} (binarize threshold {threshold})")
    if not args.oracle_check:
        return EXIT_OK
    report = mismatch_report(edges, reference_edges(binary))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"oracle check: {report['total']} mismatching pixel(s)")
    return EXIT_OK if report["total"] == 0 else EXIT_CHECK_FAILED


def cmd_gradient(args) -> int:
    cfg = _build_config(args)
    p = cfg.device_params()
    deltas = _parse_sweep_list(args.sweep)
    samples = sweep_gradient(deltas, cfg.gradient_window, p, cfg.encoding(), dt=cfg.dt_logic)
    lines = ["delta_c,rate_hz"] + [f"{s.delta_c:g},{s.rate:.6g}" for s in samples]
    if args.fit:
        try:
            fit = fit_linear(samples)
            lines += [
                f"# slope_hz_per_unit={fit.slope:.6g}",
                f"# floor_contrast={fit.floor:.6g}",
                f"# r2={fit.r2:.6f}",
            ]
            print(f"fit: slope {fit.slope / 1e3:.3g} kHz/unit, floor {fit.floor:.3g}, R^2 {fit.r2:.4f}")
        except ValueError as exc:
            raise CliError(f"fit failed: {exc}") from None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _parse_sweep_list(text: str) -> list[float]:
    """Values of `start:stop:step` up to the last one not above stop (stop
    itself if it is a whole number of steps from start, within rounding),
    or of a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if not step > 0:
                raise ValueError
            count = math.floor((stop - start) / step + 1e-9) + 1
            out = list(start + step * np.arange(max(count, 0)))
        else:
            out = [float(x) for x in text.split(",") if x.strip()]
    except (ValueError, OverflowError):
        raise CliError(f"cannot parse sweep {text!r} (use v0:v1:step or a comma list)") from None
    if not out or any(not (0 <= v <= 255) for v in out):
        raise CliError("sweep values must lie in [0, 255]")
    return out


def cmd_energy(args) -> int:
    cfg = _build_config(args)
    try:
        report = table1_report(args.width, args.height, node=args.node, exponent=cfg.exponent)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(report.to_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK


def cmd_seed_circuits(directory: str) -> int:
    paths = circuit_files.write_all(directory)
    for path in paths:
        print(path)
    return EXIT_OK


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.9g}" for x in row) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp) -> None:
    sp.add_argument("--config", help="flat key=value configuration file")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one configuration key (repeatable)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="otsim",
        description="Threshold-switch dendritic-circuit simulator: device dynamics, "
                    "Boolean logic, XOR edge detection, and energy accounting.",
    )
    ap.add_argument("--seed-circuits", metavar="DIR",
                    help="dump all built-in gate netlists as text files and exit")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("iv", help="dynamic I-V under a triangular ramp")
    _add_common(sp)
    sp.add_argument("--netlist", help="netlist file (default: built-in measurement rig)")
    sp.add_argument("--peak", type=_si, default=6.0, help="ramp peak voltage (default 6)")
    sp.add_argument("--rise", type=_si, default=50e-6, help="ramp rise time (default 50u)")
    sp.add_argument("--fall", type=_si, default=None, help="ramp fall time (default = rise)")
    sp.add_argument("--out", required=True, help="output CSV of (v, i) samples")
    sp.set_defaults(func=cmd_iv)

    sp = sub.add_parser("oscillate", help="self-oscillation of the measurement rig")
    _add_common(sp)
    sp.add_argument("--vin", type=_si, default=4.0, help="DC bias (default 4)")
    sp.add_argument("--duration", type=_si, default=OSC_DURATION, help=f"simulated time (default {format_si(OSC_DURATION)})")
    sp.add_argument("--sweep", metavar="V0:V1:STEPS", help="rate-vs-bias sweep instead of a trace")
    sp.add_argument("--out", required=True, help="output CSV")
    sp.set_defaults(func=cmd_oscillate)

    sp = sub.add_parser("gate", help="evaluate a logic gate through circuit simulation")
    _add_common(sp)
    sp.add_argument("--kind", required=True,
                    help="|".join(kind.value for kind in GateKind))
    sp.add_argument("--inputs", help="one combination as a bit string, e.g. 10 (default: the full truth table)")
    sp.add_argument("--json", help="write the truth table as JSON here")
    sp.add_argument("--waveforms", help="write waveform CSV here")
    sp.set_defaults(func=cmd_gate)

    sp = sub.add_parser("edge", help="image edge detection through the XOR circuit")
    _add_common(sp)
    sp.add_argument("--in", dest="input", required=True, help="input PGM (P5) or PPM (P6)")
    sp.add_argument("--out", required=True, help="output edge map (PGM, 0/255)")
    sp.add_argument("--oracle-check", action="store_true",
                    help="also run the software XOR reference and compare")
    sp.add_argument("--report", help="write the mismatch report JSON here")
    sp.set_defaults(func=cmd_edge)

    sp = sub.add_parser("gradient", help="rate-coded contrast-difference estimation")
    _add_common(sp)
    sp.add_argument("--sweep", default="0:255:16", help="contrast differences, v0:v1:step or comma list")
    sp.add_argument("--out", required=True, help="output CSV of (delta_c, rate_hz)")
    sp.add_argument("--fit", action="store_true", help="append the linear fit")
    sp.set_defaults(func=cmd_gradient)

    sp = sub.add_parser("energy", help="energy accounting and scaling projections")
    _add_common(sp)
    sp.add_argument("--width", type=int, default=512)
    sp.add_argument("--height", type=int, default=512)
    sp.add_argument("--node", type=_si, default=None, help="scaled feature size, e.g. 16n")
    sp.add_argument("--json", help="write the report as JSON here")
    sp.set_defaults(func=cmd_energy)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    if args.seed_circuits:
        return cmd_seed_circuits(args.seed_circuits)
    if not getattr(args, "command", None):
        ap.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NetlistParseError, NetlistError, ImageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
