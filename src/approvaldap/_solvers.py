"""The two compiled scipy routines the library calls, loaded without
importing a scipy package.

The library needs LAPACK's symmetric eigensolver ``dsyevr`` (behind
``scipy.linalg.eigh``) and ``linear_sum_assignment``.  Importing
``scipy.linalg`` and ``scipy.optimize`` runs their package ``__init__``s,
which load far more than these two routines (about 0.3 s of start-up), so
this module loads the extension modules ``scipy/linalg/_flapack`` and
``scipy/optimize/_lsap`` straight from their files.  Where a file or a
routine is missing, it imports the public scipy functions instead; the
choice is made once, on import, from the installed files.

:func:`one_blas_thread` runs a block with the OpenBLAS builds bundled with
numpy and scipy on one thread each; the CLI runs every command in it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["eigh", "linear_sum_assignment", "one_blas_thread"]

# environment variables that set OpenBLAS's thread count when it loads
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# (package, library file pattern in <package>.libs, symbol suffix) of each
# bundled OpenBLAS: numpy's is the 64-bit-integer build, scipy's is not
_BUNDLED_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "libscipy_openblas*.so", ""),
)


def _openblas_thread_controls() -> list[tuple]:
    """``(get, set)`` thread-count functions of each OpenBLAS bundled with
    numpy or scipy (the wheel layout), found next to the package without
    importing it; none for a library or symbol that is absent."""
    controls = []
    for package, pattern, suffix in _BUNDLED_OPENBLAS:
        spec = importlib.util.find_spec(package)
        for root in spec.submodule_search_locations if spec is not None else ():
            for path in glob.glob(os.path.join(root + ".libs", pattern)):
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is None or set_ is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with each bundled OpenBLAS on one thread, and restore
    the previous counts after it.

    The products here are at most about 1000 x 200, where a second thread
    costs more than it gives; every output is bitwise the same at any thread
    count.  An ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` in the
    environment wins: then no library is looked up or changed.
    """
    overridden = any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
    controls = [] if overridden else _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _extension(package: str, name: str):
    """The extension module ``scipy.<package>.<name>`` loaded from its file,
    without running a scipy ``__init__``, or ``None`` if no file is found."""
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
    for root in scipy.submodule_search_locations if scipy is not None else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, package, name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(fullname, path)
                spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    return None


_flapack = _extension("linalg", "_flapack")
_lsap = _extension("optimize", "_lsap")

if hasattr(_lsap, "linear_sum_assignment"):
    linear_sum_assignment = _lsap.linear_sum_assignment
else:
    from scipy.optimize import linear_sum_assignment

if hasattr(_flapack, "dsyevr") and hasattr(_flapack, "dsyevr_lwork"):

    def eigh(a) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and Fortran-ordered eigenvectors of a real
        symmetric matrix, read from its lower triangle.

        The same LAPACK calls as ``scipy.linalg.eigh(a)`` with its default
        ``evr`` driver, so the result is bitwise scipy's for float64 input.
        """
        a = np.asarray_chkfinite(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError('expected square "a" matrix')
        work, iwork, info = _flapack.dsyevr_lwork(n=a.shape[0], lower=1)
        if info != 0:
            raise ValueError(f"Internal work array size computation failed: {info}")
        w, v, _, _, info = _flapack.dsyevr(
            a=a, compute_v=1, lower=1, lwork=int(work), liwork=int(iwork), overwrite_a=0
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
        return w, v

else:
    from scipy.linalg import eigh
