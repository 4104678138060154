"""Shared fixtures: prebuilt systems and random-instance generators.

Everything random is seeded, so the suite is deterministic run to run.
"""

# spsys first: SPSYS_THREADS caps the BLAS threads only before numpy loads
import spsys  # noqa: F401

import sys
import tracemalloc

import numpy as np
import pytest

from spsys import linalg, ncpoly, subproduct
from spsys.reps import RepTuple


# ---------------------------------------------------------------------------
# prebuilt systems, session scoped because construction dominates runtime

@pytest.fixture(scope="session")
def symmetric2_6():
    return subproduct.from_ideal(ncpoly.commutator_gens(2), 6)


@pytest.fixture(scope="session")
def symmetric2_10():
    return subproduct.from_ideal(ncpoly.commutator_gens(2), 10)


@pytest.fixture(scope="session")
def symmetric2_12():
    return subproduct.from_ideal(ncpoly.commutator_gens(2), 12)


@pytest.fixture(scope="session")
def golden_6():
    return subproduct.from_subshift(subproduct.SubshiftSpec(2, ((2, 2),)), 6)


@pytest.fixture(scope="session")
def golden_7():
    return subproduct.from_subshift(subproduct.SubshiftSpec(2, ((2, 2),)), 7)


@pytest.fixture(scope="session")
def full2_6():
    return subproduct.from_full(2, 6)


# ---------------------------------------------------------------------------
# random-instance generators

def random_homogeneous_poly(rng, d, degree):
    """Nonzero homogeneous polynomial with standard-normal complex coefficients."""
    while True:
        coeffs = rng.normal(size=d**degree) + 1j * rng.normal(size=d**degree)
        if np.linalg.norm(coeffs) > 1e-6:
            return ncpoly.NCPoly.from_vector(coeffs, degree, d)


def random_commuting_pair(rng, h, row_norm):
    """Two commuting h x h matrices with the given joint row norm.

    Both are polynomials in one random matrix, so they commute exactly.
    """
    a = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
    mats = []
    for _ in range(2):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        mats.append(c[0] * np.eye(h) + c[1] * a + c[2] * a @ a)
    row = np.hstack(mats)
    scale = row_norm / max(np.linalg.norm(row, 2), 1e-12)
    return RepTuple(tuple(scale * m for m in mats))


def moved_commuting_pair(move: float = 1e-11) -> RepTuple:
    """A commuting pair of symmetric 4 x 4 matrices (seed 3), the first moved by
    `move`: its commutator, the generator residual on the commutator ideal, is
    about 4e-12 at the default 1e-11 (and 4.1e-9 at 1e-8)."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    t1, t2 = a / (2 * np.linalg.norm(a, 2)), a @ a / (2 * np.linalg.norm(a @ a, 2))
    return RepTuple((t1 + move * rng.normal(size=(4, 4)), t2))


def random_row_contraction(rng, d, h, row_norm):
    """d-tuple on C^h with the given joint row norm, no relations imposed."""
    mats = [rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
            for _ in range(d)]
    row = np.hstack(mats)
    scale = row_norm / max(np.linalg.norm(row, 2), 1e-12)
    return RepTuple(tuple(scale * m for m in mats))


def random_stochastic(rng, n):
    m = rng.uniform(size=(n, n)) ** 2
    return m / m.sum(axis=1, keepdims=True)


def random_commuting_stochastic_pair(rng, n):
    """A random stochastic matrix and a random polynomial in it.

    Convex combinations of powers of a stochastic matrix stay stochastic
    and commute with it.
    """
    p = random_stochastic(rng, n)
    w = rng.uniform(size=4)
    w = w / w.sum()
    q = w[0] * np.eye(n) + w[1] * p + w[2] * (p @ p) + w[3] * (p @ p @ p)
    return p, q


# ---------------------------------------------------------------------------
# one traced run against the memory budget

class budget_run:
    """Trace the `with` block with tracemalloc: `peak` is its traced peak above
    the memory traced at its start. With `spy`, every `check_budget` call in
    `spsys` and the oracles is recorded in `checks` as (what, total, terms),
    each term a non-negative int, and `peaks` holds the traced peak from each
    check to the next (the last one to the end of the block); the records are
    traced too. Without `spy` nothing is allocated next to the block, so that a
    test can pin a small peak to the byte."""

    def __init__(self, spy: bool = False):
        self.spy = spy

    def _check(self, terms, what):
        assert all(type(v) is int and v >= 0 for v in terms.values()), (what, terms)
        self._spans.append(tracemalloc.get_traced_memory()[1] - self._base)
        self.checks.append((what, sum(terms.values()), terms))
        tracemalloc.reset_peak()
        return self._original(terms, what)

    def __enter__(self):
        if self.spy:
            self.checks, self._spans, self._original = [], [], linalg.check_budget
            self._patched = [m for m in list(sys.modules.values())
                             if getattr(m, "check_budget", None) is self._original]
            for module in self._patched:
                module.check_budget = self._check
        tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self._base
        tracemalloc.stop()
        if self.spy:
            for module in self._patched:
                module.check_budget = self._original
            self._spans.append(self.peak)
            self.peak, self.peaks = max(self._spans), self._spans[1:]


# ---------------------------------------------------------------------------
# headline summary for the acceptance tests

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance checks")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS):
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{word}  {name}")
