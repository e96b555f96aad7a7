"""The benchmark's own test: exact counts and outputs repeat, seeds matter.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

For each workload, round 0 runs once untraced and twice traced.  The traced
runs must agree exactly on engine.steps, device.switch_events,
pipeline.segments, engine.trace_bytes and the output digest; the digest
must equal the untraced one, engine.steps must equal the steps the workload
computes from its inputs, and every output must pass its oracle.  A
different seed, and a different round, must give different inputs.  Exits 1
on any failure.  Takes a few minutes; it is not part of the pytest suite.
"""

from __future__ import annotations

import argparse
import pickle
import sys

import run
from tracer import Tracer

EXACT = ("engine.steps", "device.switch_events", "engine.trace_bytes")


def _traced_counts(wl, inputs) -> tuple[dict, str, int]:
    with Tracer() as tr:
        results, _ = run.run_round(wl, inputs)
    metrics, views = tr.metrics(1.0, 1.0)
    counts = {k: metrics[k][0] for k in EXACT}
    counts["pipeline.segments"] = views["pipeline.segments"][0]
    return counts, run.round_digest(results), sum(r.failed for r in results)


def check(wl, seed: int) -> list[str]:
    problems = []
    a, b, c = (pickle.dumps(wl.make_round(s, k)) for s, k in ((seed, 0), (seed + 1, 0), (seed, 1)))
    if a == b:
        problems.append("seeds s and s+1 give the same inputs")
    if a == c:
        problems.append("rounds 0 and 1 give the same inputs")

    inputs = wl.make_round(seed, 0)
    plain, _ = run.run_round(wl, inputs)
    plain_failed = sum(r.failed for r in plain)
    plain_steps = sum(r.steps for r in plain)
    first, digest1, failed1 = _traced_counts(wl, inputs)
    second, digest2, failed2 = _traced_counts(wl, inputs)
    print(f"  {wl.name}: {first}  digest {digest1[:16]}")
    if first != second:
        problems.append(f"counts differ between two traced runs: {first} vs {second}")
    if not (run.round_digest(plain) == digest1 == digest2):
        problems.append("output digests differ between runs")
    if first["engine.steps"] != plain_steps:
        problems.append(f"engine.steps {first['engine.steps']} != {plain_steps} computed from the inputs")
    if plain_failed or failed1 or failed2:
        problems.append(f"oracle failures: {plain_failed}, {failed1}, {failed2}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args()
    workloads = run._load()
    names = args.workload or list(workloads.WORKLOADS)
    bad = 0
    for name in names:
        problems = check(workloads.WORKLOADS[name], args.seed)
        for p in problems:
            print(f"FAIL {name}: {p}")
        bad += bool(problems)
    print("selftest:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
