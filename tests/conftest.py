import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oklim import green

_ACCEPTANCE_RESULTS = []


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    """Times an acceptance-criterion block and records one pass/fail line."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _ACCEPTANCE_RESULTS.append((number, description, "FAIL",
                                    time.perf_counter() - t0, budget_s))
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    _ACCEPTANCE_RESULTS.append((number, description, status, elapsed, budget_s))
    assert elapsed < budget_s, f"criterion {number} exceeded budget {budget_s}s ({elapsed:.1f}s)"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, desc, status, elapsed, budget in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number:02d} [{status}] {desc} ({elapsed:.2f}s, budget {budget:g}s)")


@pytest.fixture(scope="session")
def params():
    # the sqrt(pi) splitting the tests were written at; the library's own choice is for_count
    return green.EwaldParameters.for_alpha(math.sqrt(math.pi))


def random_torus_point(rng, dim, min_dist=0.0):
    """Uniform point whose min-image distance from the origin is >= min_dist."""
    while True:
        x = rng.random(dim)
        if np.linalg.norm(green.min_image(x)) >= min_dist:
            return x


def direct_fourier_green(dim, x, kmax=60):
    """Independent oracle for G: the |k| <= kmax mode sum with a Gaussian
    summability factor, the factor's exact linear bias t removed analytically.

    The bare truncated sum converges only like an oscillatory O(1/kmax) and
    cannot reach 1e-8; with t chosen so exp(-4 pi^2 kmax^2 t) < 1e-16 the
    remaining bias is the heat content of the singularity, below 1e-13 for
    min-image distances >= 0.2, which the test points respect.
    """
    t = 16 * math.log(10) / (4 * math.pi**2 * kmax**2)
    rng_k = np.arange(-kmax, kmax + 1)
    gk = np.meshgrid(*([rng_k] * dim), indexing="ij")
    k = np.stack([g.ravel() for g in gk], axis=-1).astype(float)
    k2 = np.sum(k**2, axis=1)
    keep = (k2 > 0) & (k2 <= kmax**2)
    k, k2 = k[keep], k2[keep]
    x = np.asarray(x, dtype=float)
    val = np.sum(np.exp(-4 * math.pi**2 * k2 * t)
                 * np.cos(2 * math.pi * (k @ x)) / (4 * math.pi**2 * k2))
    return val - t
