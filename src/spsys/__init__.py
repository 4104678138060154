"""Finite-depth subproduct systems over the free semigroup, with numerics.

Subpackages build standard subproduct systems from relations (ideals,
subshifts, q-commutation, quadratic forms), realize their shift tuples on
truncated Fock spaces, and test representation/dilation statements at finite
depth with explicit error windows. Import from the submodules (`spsys.subproduct`,
`spsys.fock`, ...): the package imports none of them itself, so a command
loads only the modules it runs, and `spsys.<module>` imports one on first use.

Set SPSYS_THREADS to cap BLAS parallelism; it must take effect before the
numeric stack loads, hence the environment fixup on the first import.
"""

import importlib
import os as _os

_threads = _os.environ.get("SPSYS_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

_SUBMODULES = ("classify", "cli", "cpmaps", "fock", "formats", "linalg", "ncpoly", "reps",
               "subproduct")


# `spsys.<module>` without an import statement imports that module, as
# `perfbench/clishim.py` reads `spsys.classify` after importing `spsys.cli` alone
def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
