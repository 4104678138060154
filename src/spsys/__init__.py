"""Finite-depth subproduct systems over the free semigroup, with numerics.

Subpackages build standard subproduct systems from relations (ideals,
subshifts, q-commutation, quadratic forms), realize their shift tuples on
truncated Fock spaces, and test representation/dilation statements at finite
depth with explicit error windows.

Set SPSYS_THREADS to cap BLAS parallelism; it must take effect before the
numeric stack loads, hence the environment fixup ahead of any import.
"""

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

from spsys.linalg import Subspace, span, complement, opnorm
from spsys.ncpoly import NCPoly, Word, IdealGens
from spsys.subproduct import SubproductSystem, SubshiftSpec
from spsys.fock import TruncatedFock, ShiftSet, build_fock, build_shifts
from spsys.reps import RepTuple, PoissonKernel

__version__ = "0.1.0"

__all__ = [
    "Subspace",
    "span",
    "complement",
    "opnorm",
    "NCPoly",
    "Word",
    "IdealGens",
    "SubproductSystem",
    "SubshiftSpec",
    "TruncatedFock",
    "ShiftSet",
    "build_fock",
    "build_shifts",
    "RepTuple",
    "PoissonKernel",
    "__version__",
]
