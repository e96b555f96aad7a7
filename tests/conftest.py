"""Shared fixtures.

The pinned digests and counts hold the bits of LAPACK's ``dgetrf`` as
scipy's bundled OpenBLAS computes it, and OpenBLAS picks its kernel for the
host CPU at load time.  Every solve runs in generated Python code from the
``dgetrf`` factors of its segment set, so a run depends on ``dgetrf`` and
on no other LAPACK routine.  The pins were made under the ``SkylakeX``
kernel; another kernel gives other bits.  Every digest and count assertion
therefore names the kernel and the numpy and scipy versions it ran on."""

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy

from otsim import engine


def openblas_core() -> str:
    """The kernel name scipy's OpenBLAS runs with, read through ctypes from
    the library scipy has already loaded, or "unknown"."""
    for lib in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.fixture(scope="session")
def blas_platform() -> str:
    """What a pinned digest or count depends on, for its failure message."""
    return f"OpenBLAS kernel {openblas_core()}, numpy {np.__version__}, scipy {scipy.__version__}"


class SolveCounter:
    """The number of linear solves of the engine since the test started or
    since `count` was last set."""

    count = 0


@pytest.fixture
def solves(monkeypatch) -> SolveCounter:
    """Counts every linear solve of the engine while the test runs.  The
    test starts from an empty shared solve cache (``engine._solves``), so
    that every segment set compiles through the counting wrapper."""
    counter = SolveCounter()
    straight_line = engine._straight_line

    def counting_straight_line(*args):
        solve = straight_line(*args)

        def counting_solve(zl):
            counter.count += 1
            return solve(zl)

        return counting_solve

    monkeypatch.setattr(engine, "_solves", {})
    monkeypatch.setattr(engine, "_straight_line", counting_straight_line)
    return counter
