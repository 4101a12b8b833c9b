"""Multi-start quasi-Newton descent for the pairwise interaction energy on the torus.

Minimizes sum_{i != j} m_i m_j G(x_i - x_j), the pair sum of ``limits``
(``interaction_energy`` and ``interaction_gradient``), over particle positions with
seeded uniform restarts and a deterministic reduction of the restart
results.  Each restart follows the L-BFGS direction (two-loop recursion over
the last 10 step/gradient-change pairs; Liu & Nocedal, Math. Prog. 45, 1989)
with backtracking line search (Armijo 1e-4, shrink 0.5, first trial step 1
capped so no particle moves more than 0.1 of the cell) and a coalescence
guard.  Near the minimum, where the Armijo decrement falls below the
rounding noise of the energy, the decrease is measured instead by the
trapezoid rule on the slopes at both ends of the step.  A direction that is
not a descent direction, or a line search that fails, clears the pair
memory and retries along -grad; a failure along -grad ends the restart.
Outputs are stationary candidates, never certified global minimizers;
explicit lattice arrangements are available for comparison and are injected
as extra starts when commensurate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import IncommensurateCount, NoConvergence
from .limits import PointConfiguration, _pairs, interaction_energy, interaction_gradient

ARMIJO = 1e-4
SHRINK = 0.5
COALESCENCE_GUARD = 1e-4
MAX_ITERATIONS = 100_000
MEMORY = 10  # (s, y) pairs kept by the L-BFGS model
MAX_MOVE = 0.1  # largest particle displacement of a first trial step, in cell lengths


@dataclass(frozen=True)
class OptimizationResult:
    """Best stationary configuration found, with diagnostics."""

    config: PointConfiguration
    energy: float
    grad_norm: float
    iterations: int
    restarts_used: int
    pairwise_distances: tuple
    converged: bool


def _lbfgs_direction(g, memory):
    """Two-loop recursion: -H g for the inverse-Hessian model of the (s, y, 1/s.y) pairs."""
    q = -g.ravel()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q.reshape(g.shape)


def _descend(dim, masses, x0, tol, params, max_iterations):
    x = x0 % 1.0
    energy = interaction_energy(dim, masses, x, params)
    g = interaction_gradient(dim, masses, x, params)
    grad_norm = float(np.linalg.norm(g))
    memory = deque(maxlen=MEMORY)
    iters = 0
    for iters in range(1, max_iterations + 1):
        if grad_norm <= tol:
            return x, energy, grad_norm, iters, True
        p = _lbfgs_direction(g, memory)
        slope = float(np.vdot(p, g))
        if slope >= 0.0:  # not a descent direction: drop the model, take -g
            memory.clear()
            p, slope = -g, -grad_norm**2
        step = min(1.0, MAX_MOVE / float(np.max(np.linalg.norm(p, axis=1))))
        # near the minimum the Armijo decrement c s |p.g| drops below the
        # float resolution of the energy; there the Armijo test is applied to
        # the trapezoid rule on the slopes at both ends of the step, which
        # has no cancellation noise (the energy still may not increase beyond
        # rounding noise)
        noise = 1e-14 * max(1.0, abs(energy))
        accepted = False
        while step > 1e-18:
            x_new = (x + step * p) % 1.0
            if np.min(_pairs(x_new)[3]) < COALESCENCE_GUARD:
                step *= SHRINK  # energy diverges at coalescence; never step there
                continue
            decrement = -ARMIJO * step * slope
            e_new = interaction_energy(dim, masses, x_new, params)
            g_new = None
            if decrement >= noise:
                ok = e_new <= energy - decrement
            else:
                g_new = interaction_gradient(dim, masses, x_new, params)
                change = 0.5 * step * float(np.vdot(p, g + g_new))
                ok = (e_new <= energy + noise and change <= -decrement
                      and not np.array_equal(x_new, x))
            if ok:
                assert e_new <= energy + noise  # descent property of accepted steps
                if g_new is None:
                    g_new = interaction_gradient(dim, masses, x_new, params)
                # the unwrapped step: x_new - x would jump by 1 across the cell faces
                s, y = (step * p).ravel(), (g_new - g).ravel()
                sy = float(s @ y)
                if sy > 0.0:  # keeps the inverse-Hessian model positive definite
                    memory.append((s, y, 1.0 / sy))
                x, energy, g = x_new, min(energy, e_new), g_new
                grad_norm = float(np.linalg.norm(g))
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            if not memory:
                break  # line search along -g exhausted below machine resolution
            memory.clear()  # retry from -g before giving up
    return x, energy, grad_norm, iters, grad_norm <= tol


def square_lattice_positions(dim, n) -> np.ndarray:
    """Axis-aligned square (cubic) lattice arrangement of n points, if commensurate."""
    s = round(n ** (1.0 / dim))
    if s**dim != n:
        raise IncommensurateCount(f"{n} points do not form a square lattice on the torus")
    axes = [np.arange(s) / s] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def triangular_sheared_positions(n) -> np.ndarray:
    """Row-offset triangular packing of n = 2 k^2 points, sheared to the unit cell."""
    k = round(math.sqrt(n / 2.0))
    if 2 * k * k != n:
        raise IncommensurateCount(f"{n} points do not form a 2 k^2 triangular packing")
    pts = []
    for j in range(2 * k):
        for i in range(k):
            pts.append(((i + 0.5 * (j % 2)) / k, j / (2 * k)))
    return np.array(pts)


def lattice_candidate_energy(dim, n, masses_equal, lattice, params=None) -> float:
    """Interaction energy of an explicit lattice arrangement, for comparison tables."""
    if lattice == "square":
        pos = square_lattice_positions(dim, n)
    elif lattice == "triangular-sheared":
        if dim != 2:
            raise IncommensurateCount("the triangular-sheared embedding is 2D only")
        pos = triangular_sheared_positions(n)
    else:
        raise ValueError("lattice must be 'square' or 'triangular-sheared'")
    masses = np.full(n, float(masses_equal))
    return interaction_energy(dim, masses, pos, params)


def place(dim, masses, restarts: int = 10, seed: int = 0, tol: float = 1e-8,
          params=None, max_iterations: int = MAX_ITERATIONS,
          initial_positions=None) -> OptimizationResult:
    """Multi-start descent over particle positions; deterministic in (seed, restarts).

    Runs ``restarts`` seeded uniform starts (plus the square-lattice
    arrangement as an extra start when the count is commensurate and masses
    are equal, and ``initial_positions`` if given) and returns the
    lowest-energy converged result, ties broken by lowest restart index.
    Raises NoConvergence (carrying the best effort) if no start reaches the
    gradient tolerance, and ValueError if ``restarts`` is negative or no
    start applies.
    """
    masses = np.asarray(masses, dtype=float)
    n = masses.size
    if n < 2:
        raise ValueError("placement needs at least two particles")
    if not np.all(np.isfinite(masses) & (masses > 0.0)):
        raise ValueError("masses must be positive finite numbers")
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")

    starts = []
    for idx in range(restarts):
        rng = np.random.default_rng([seed, idx])
        starts.append(rng.random((n, dim)))
    if initial_positions is not None:
        starts.append(np.asarray(initial_positions, dtype=float) % 1.0)
    if float(np.ptp(masses)) == 0.0:
        s = round(n ** (1.0 / dim))
        if s**dim == n:
            starts.append(square_lattice_positions(dim, n))
    if not starts:
        raise ValueError("no starts: restarts is 0 and no lattice or initial positions apply")

    best = None  # (converged_rank, energy, idx, x, grad_norm, iters, conv)
    for idx, x0 in enumerate(starts):
        x, e, gn, iters, conv = _descend(dim, masses, x0, tol, params, max_iterations)
        key = (0 if conv else 1, e, idx)
        if best is None or key < best[0]:
            best = (key, x, e, gn, iters, conv)

    _, x, e, gn, iters, conv = best
    dists = np.sort(_pairs(x)[3])
    result = OptimizationResult(
        config=PointConfiguration(dim, list(zip(masses.tolist(), x))),
        energy=e,
        grad_norm=gn,
        iterations=iters,
        restarts_used=len(starts),
        pairwise_distances=tuple(float(v) for v in dists),
        converged=conv,
    )
    if not conv:
        raise NoConvergence("no restart reached the gradient tolerance", result=result)
    return result
