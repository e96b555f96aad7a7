"""Shared fixtures.

The pinned digests and counts hold the bits of LAPACK's ``dgetrf`` and
``dgetrs`` as scipy's bundled OpenBLAS computes them, and OpenBLAS picks
its kernel for the host CPU at load time.  The pins were made under the
``SkylakeX`` kernel; another kernel gives other bits.  Every digest and
count assertion therefore names the kernel and the numpy and scipy
versions it ran on."""

import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy


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
