"""Shared fixtures.

Every run factorizes its systems in ``engine._factor``, solves them in
generated Python code and sums its nodal residuals in a written order, with
no BLAS or LAPACK call, so no pinned voltage, current, OTS phase, residual or
step count depends on the host's BLAS kernel.  ``openblas_core`` names the
kernel that a package's bundled OpenBLAS runs with, for the tests that run
LAPACK as a reference or a golden run under another kernel."""

import ctypes
import importlib.util
from pathlib import Path

import pytest

from otsim import engine


def openblas_core(package: str = "numpy") -> str:
    """The kernel name that the OpenBLAS bundled with `package` runs with:
    numpy's, or scipy's, which runs its LAPACK.  Read through ctypes from
    the library, or "unknown"."""
    libs = Path(importlib.util.find_spec(package).origin).parent.parent / f"{package}.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        suffix = "64_" if lib.name.startswith("libscipy_openblas64_") else ""
        try:
            corename = getattr(ctypes.CDLL(str(lib)), f"scipy_openblas_get_corename{suffix}")
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


class SolveCounter:
    """The number of linear solves of the engine since the test started or
    since `count` was last set."""

    count = 0


@pytest.fixture
def solves(monkeypatch) -> SolveCounter:
    """Counts every linear solve of the engine while the test runs: every
    call of a segment set's generated step solves once for each step of its
    stretch it accepts, and once more for the solve it returns.  The test
    starts from an empty shared cache (``engine._solves``), so that every
    segment set compiles through the counting wrapper."""
    counter = SolveCounter()
    straight_line = engine._straight_line

    def counting_straight_line(*args):
        step = straight_line(*args)

        def counting_step(*call):
            rows, xe, stays = step(*call)
            counter.count += 1 + len(rows)
            return rows, xe, stays

        return counting_step

    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", counting_straight_line)
    return counter
