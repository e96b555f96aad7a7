"""otsim benchmark: one seeded workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload edge_stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; otsim is imported from ``src/``.
With ``--trace 0`` the run makes one untimed warm-up call, then runs whole
rounds of seeded inputs for about ``--seconds`` seconds, timing set-up in a
fresh interpreter between them, and reports the end-to-end metrics.  Every
op is followed by a host-speed sample (``calibrate.py``), and times are
scaled to a reference host speed.  With ``--trace 1`` it runs
each op of the first rounds (one round, or four short ones) once untraced
and once with every otsim binding wrapped, and reports the per-layer
metrics.  Every output is checked against its oracle.  Human-readable lines
come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, otsim and the modules built on them are imported inside functions,
# so that a set-up probe's timer starts before their import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _load():
    """Import otsim from this checkout and the workloads built on it."""
    if not (SRC / "otsim" / "__init__.py").is_file():
        raise ImportError(f"no otsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import otsim
    if Path(otsim.__file__).resolve().parent != SRC / "otsim":
        raise ImportError(f"otsim imported from {otsim.__file__}, not from {SRC}")
    import workloads
    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Import and input generation in this (fresh) interpreter."""
    t0 = time.perf_counter()
    wl = _load().WORKLOADS[workload]
    wl.make_round(seed, 0)
    return time.perf_counter() - t0


def _measure_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, which inherits the thread pinning."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git; the
    benchmark may run in an export that has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def round_digest(results: list) -> str:
    """SHA-256 over the outputs of one round's ops, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(len(r.digest).to_bytes(8, "little") + r.digest)
    return h.hexdigest()


def run_round(wl, inputs: list) -> tuple[list, list[float]]:
    """Run one round's ops in order; their results and wall times."""
    results, times = [], []
    for x in inputs:
        t0 = time.perf_counter()
        results.append(wl.run_op(x))
        times.append(time.perf_counter() - t0)
    return results, times


class _Timeline:
    """Times ops and set-up probes with a calibration sample after each, and
    scales each time by CAL_REF_S over the mean of the samples around it."""

    def __init__(self) -> None:
        import calibrate

        self.sample, self.ref = calibrate.sample, calibrate.CAL_REF_S
        self.import_sample, self.import_ref = calibrate.import_sample, calibrate.IMPORT_REF_S
        self.sample()                            # warm-up, not kept
        self.cal = [self.sample()]
        self.busy = 0.0                          # seconds of ops and their samples

    def time(self, fn, *args, op: bool = True):
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        after = self.sample()
        scaled = raw * self.ref / ((self.cal[-1] + after) / 2)
        self.cal.append(after)
        if op:
            self.busy += raw + after
        return out, raw, scaled


def _timed(wl, args) -> tuple[dict, list[str], int, int, bool]:
    wl.warm_up()
    tl = _Timeline()
    setups: list[tuple[float, float]] = []      # (set-up, import sample)

    def probe() -> tuple[float, float]:
        raw = tl.time(_measure_setup, wl.name, args.seed, op=False)[1]
        return raw, tl.import_sample()

    rounds: list[list[tuple[object, float, float]]] = []
    # Whole rounds, at least one, for as close to --seconds as whole rounds
    # allow: another starts while it would end at most half a round late.
    # A set-up probe runs before each round, so that the probes see the
    # host the rounds see.  Input generation is not timed.
    def next_round_fits() -> bool:
        half = statistics.median(sum(o[1] for o in r) for r in rounds) / 2
        return tl.busy + half <= args.seconds

    while not rounds or next_round_fits():
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        rounds.append([tl.time(wl.run_op, x) for x in wl.make_round(args.seed, len(rounds))])
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    ops = [o[0] for r in rounds for o in r]
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    # Op j of every round has the same make-up, so the median over rounds
    # of op j's scaled time, summed over j, is one round's time with bursts
    # of host load left out.
    round_s = sum(statistics.median(r[j][2] for r in rounds) for j in range(len(rounds[0])))
    setup_s = statistics.median(raw * tl.import_ref / imp for raw, imp in setups)
    raw_round_s = statistics.median(sum(o[1] for o in r) for r in rounds)
    steps = sum(r.steps for r in ops) / len(rounds)
    units = sum(r.units for r in ops) / len(rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (round_s, "s"),
        "sim_steps_per_s": (steps / round_s, "1/s"),
        "ops_per_s": (units / round_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"calibration samples: {len(tl.cal)}, median {statistics.median(tl.cal) * 1e3:.3f} ms "
        f"(reference {tl.ref * 1e3:g} ms), min {min(tl.cal) * 1e3:.3f}, max {max(tl.cal) * 1e3:.3f}",
        f"setup probes, raw (s): {' '.join(f'{r:.4f}' for r, _ in setups)}",
        f"import samples (s): {' '.join(f'{i:.4f}' for _, i in setups)} (reference {tl.import_ref:g} s)",
        f"rounds: {len(rounds)}, raw round times (s): "
        + " ".join(f"{sum(o[1] for o in r):.3f}" for r in rounds),
        f"raw_round_s (median, unscaled) = {raw_round_s:.6g}",
        "scaled op times (s): " + " | ".join(" ".join(f"{o[2]:.4f}" for o in r) for r in rounds),
        f"{wl.unit} = ops_per_s = {units / round_s:.6g}",
        f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})",
        f"digest (round 0): {round_digest([o[0] for o in rounds[0]])}",
    ]
    return metrics, notes, attempted, failed, failed == 0


def _traced(wl, args) -> tuple[dict, list[str], int, int, bool]:
    from tracer import Tracer

    wl.warm_up()
    tr = Tracer()
    plain, traced = [], []
    untraced = traced_wall = 0.0
    # Each op of the first trace_rounds rounds runs untraced and then
    # traced, back to back, so that the two times of a pair see the same host.
    for x in [x for k in range(wl.trace_rounds) for x in wl.make_round(args.seed, k)]:
        (r,), (t,) = run_round(wl, [x])
        plain.append(r)
        untraced += t
        with tr:
            (r,), (t,) = run_round(wl, [x])
        traced.append(r)
        traced_wall += t
    metrics, views = tr.metrics(traced_wall, untraced)
    digest, plain_digest = round_digest(traced), round_digest(plain)
    attempted = sum(r.attempted for r in traced)
    failed = sum(r.failed for r in traced)
    kcl = metrics.get("engine.kcl_residual_max", (0.0, "A"))[0]
    correct = failed == 0 and sum(r.failed for r in plain) == 0 and digest == plain_digest and kcl < 1e-9
    notes = [f"{name} = {v:.6g} {unit}" for name, (v, unit) in views.items()]
    notes += [
        f"rounds: {wl.trace_rounds}, untraced {untraced:.3f} s, traced {traced_wall:.3f} s",
        f"spans recorded: {len(tr.spans) // 5}",
        f"missing bindings: {', '.join(tr.missing) or 'none'}",
        f"digest (traced rounds): {digest} "
        f"({'same as' if digest == plain_digest else 'DIFFERS from'} the untraced run)",
    ]
    return metrics, notes, attempted, failed, correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe:
        print(f"{_setup_probe(args.workload, args.seed):.9f}")
        return 0
    try:
        workloads = _load()
    except ImportError as exc:
        print(f"cannot load otsim: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    run = _traced if args.trace else _timed
    metrics, notes, attempted, failed, correct = run(wl, args)

    print(f"# otsim benchmark  workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(_environment())}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
