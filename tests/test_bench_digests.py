"""Round 0 of each benchmark workload at seed 1 produces the outputs pinned
below, bit for bit.  The digests cover edge maps, truth tables, spike
times and spike energies; a change that moves any bit of a trace that
reaches them shows here.  The workloads and the digest are taken from
``bench/`` as they are."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "edge_stream": "f9c6655c14f7f1616e7bbfbd2a13f2545897460110d662996b9b68f1727847ee",
    "logic_tables": "388c77b4178e042087af3eb79996b6cbb102d7648a1f37a70dc4a771fd166a69",
    "osc_long": "fa2b062e3538a6da63135f37f4a2140378eb39ff32db05ef00bbec2453e32e4f",
}


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/workloads.py, imported from the checkout;
    the thread settings run.py puts in the environment are undone."""
    env = os.environ.copy()
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("otsim_bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(env)
    return run, workloads


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_round_zero_digest(bench, name):
    run, workloads = bench
    wl = workloads.WORKLOADS[name]
    results, _ = run.run_round(wl, wl.make_round(1, 0))
    assert sum(r.failed for r in results) == 0
    assert run.round_digest(results) == DIGESTS[name]
