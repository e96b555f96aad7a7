"""Shared fixtures.

The pinned digests and counts hold the bits of LAPACK's ``dgetrf`` and
``dgetrs`` as scipy's bundled OpenBLAS computes them, and OpenBLAS picks
its kernel for the host CPU at load time.  Step 0 and every step of the
larger circuits (the full adder and the dCaAP cascade) depend on both;
the steps after step 0 of the small circuits (at most
``engine._OWNED_MAX`` unknowns) solve in generated Python code from the
``dgetrf`` factors, so they depend on ``dgetrf`` only.  The pins were made
under the ``SkylakeX`` kernel; another kernel gives other bits.  Every
digest and count assertion therefore names the kernel and the numpy and
scipy versions it ran on."""

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


@pytest.fixture
def solve_paths(monkeypatch) -> list[str]:
    """Every linear solve of the engine while the test runs, in order:
    "dgetrs" for a LAPACK solve and "generated" for a call of a generated
    straight-line solve."""
    log: list[str] = []
    dgetrs, straight_line = engine.dgetrs, engine._straight_line

    def counting_dgetrs(*args):
        log.append("dgetrs")
        return dgetrs(*args)

    def counting_straight_line(*args):
        solve = straight_line(*args)

        def counting_solve(zl):
            log.append("generated")
            return solve(zl)

        return counting_solve

    monkeypatch.setattr(engine, "dgetrs", counting_dgetrs)
    monkeypatch.setattr(engine, "_straight_line", counting_straight_line)
    return log
