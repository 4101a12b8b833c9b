"""Per-particle local energies and their subadditive envelope.

A particle of mass M may break into nearby pieces, so the first-order limit
charges each mass with the envelope min_k k e(M/k) of its per-particle
energy e over splittings into k equal parts.  In both dimensions
k e(M/k) = A k^-p + B k^q has one stationary point k* = M / m_opt, so
``envelope`` compares only floor(k*) and the next count, in O(1) and
vectorised in ``envelope_many``.

2D: e(m) = m^2/(2 pi) + 2 sqrt(pi m) (perimeter of the area-m disc plus the
mass-squared long-range coefficient), m_opt = 2^(2/3) pi; the envelope over
arbitrary partitions is attained by equal parts, none below 2^(-2/3) pi.

3D: there is no closed form for the per-particle infimum; e is the ball
ansatz (an upper bound: sphere perimeter 4 pi r^2 plus whole-space H^-1
self-energy 8 pi r^5 / 15), c2 m^(2/3) + c5 m^(5/3) with c2 / c5 = 10 pi,
so m_opt = 5 pi and the envelope, the best equal split of balls, is an
upper bound for the true one.  The module also gives the curvature
coefficient whose sign changes at mass 2 pi, and the mass beyond which two
half-mass balls beat a single ball.

Each particle's radius, perimeter and self energy are written once per
dimension, in the vectorised table ``_particles``: the scalar functions, the
envelope, the radii and energies of ``sharp`` and F0's self terms all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import green
from .breakdown import EnergyBreakdown

#: Below this mass a 2D particle does not split (single-particle threshold).
SINGLE_PARTICLE_THRESHOLD = 2.0 ** (-2.0 / 3.0) * math.pi

#: Per-particle mass of the continuous-relaxation optimum of the 2D envelope.
OPTIMAL_PER_MASS = 2.0 ** (2.0 / 3.0) * math.pi

#: The 3D ball-family energy is strictly concave in the mass below this value.
CONCAVITY_BOUND = 2.0 * math.pi


@dataclass(frozen=True)
class PartitionResult:
    """Best equal-mass partition of a total mass M into n particles (ball ansatz in 3D)."""

    n: int
    per_mass: float
    envelope_value: float


def _check_mass(m) -> float:
    m = float(m)
    if not m > 0.0:
        raise ValueError(f"mass must be positive, got {m}")
    return m


def _particles(dim, masses):
    """Each particle's unit-scale radius, perimeter, scale-free self energy and f0 (vectorized).

    2D: the disc of area m, radius sqrt(m / pi), perimeter 2 sqrt(pi m),
    self energy m^2 / (2 pi) and log self term f0(m).  3D: the ball of
    volume m, radius cbrt(3 m / (4 pi)), perimeter 4 pi r^2, whole-space
    H^-1 self energy 8 pi r^5 / 15 = 8 pi r^3 r^2 / 15 and f0 zero.  The
    one power is np.cbrt, whose array loop rounds a scalar and an array
    entry alike (unlike x ** (1/3)), so a mass has the same bits in every
    layer.
    """
    m = np.asarray(masses, dtype=float)
    if dim == 3:
        cube = 3.0 * m / (4 * math.pi)
        r = np.cbrt(cube)
        return r, 4 * math.pi * r * r, 8 * math.pi * cube * r * r / 15.0, np.zeros(m.shape)
    return (np.sqrt(m / math.pi), 2.0 * np.sqrt(math.pi * m), m * m / (2 * math.pi),
            m * m / (8 * math.pi) * (1.0 - 2.0 * np.log(m / math.pi)))


def _particle(dim, m):
    """The ``_particles`` row of one checked mass, as floats.

    Overflow gives inf without a warning, as plain float arithmetic does
    (e2d(1e200) is inf, f0(1e200) is -inf).
    """
    with np.errstate(over="ignore"):
        return [float(c) for c in _particles(dim, _check_mass(m))]


def _energies(dim, ms) -> np.ndarray:
    """Per-particle energies e(m) of an array of masses (vectorized): perimeter plus self energy."""
    _, perimeter, self_energy, _ = _particles(dim, ms)
    return perimeter + self_energy


# the optimal part mass per dimension (the ball energy c2 m^(2/3) + c5 m^(5/3) has
# c2 / c5 = 10 pi, so 3D's is 5 pi)
_OPTIMAL_MASS = {2: OPTIMAL_PER_MASS, 3: 5.0 * math.pi}


def _best_count(dim, M):
    # k e(M/k) has one critical point, k* = M / m_opt, so the integer optimum
    # is floor(k*) or the next count (at least 1 each)
    green._check_dim(dim)
    lo = np.maximum(np.floor(M / _OPTIMAL_MASS[dim]), 1.0)
    hi = lo + 1.0
    v_lo, v_hi = lo * _energies(dim, M / lo), hi * _energies(dim, M / hi)
    return np.where(v_hi < v_lo, hi, lo), np.minimum(v_lo, v_hi)  # ties to smaller n


def envelope(dim, M) -> PartitionResult:
    """Minimize n * e(M/n) over integer particle counts n >= 1.

    In 2D the optimum over arbitrary partitions has equal parts; in 3D the
    value is the best equal split of balls, an upper bound for the
    envelope.  O(1) in M: the objective is unimodal in n, so only the two
    counts around its continuous minimizer are compared.  Exact ties break
    toward smaller n.
    """
    M = _check_mass(M)
    n, value = _best_count(dim, M)
    return PartitionResult(n=int(n), per_mass=M / int(n), envelope_value=float(value))


def envelope_many(dim, Ms) -> np.ndarray:
    """Envelope values for an array of total masses (vectorized)."""
    return _best_count(dim, np.asarray(Ms, dtype=float))[1]


def e2d(m) -> float:
    """2D per-particle energy m^2/(2 pi) + 2 sqrt(pi m)."""
    _, perimeter, self_energy, _ = _particle(2, m)
    return perimeter + self_energy


def f0(m) -> float:
    """Logarithmic self-interaction -(1/2 pi) II_{BxB} log|x-y| of the area-m disc.

    Closed form m^2/(8 pi) * (1 - 2 log(m/pi)), from the disc's geometric
    mean distance a * exp(-1/4) with a = sqrt(m/pi).
    """
    return _particle(2, m)[3]


def ball_radius_3d(m) -> float:
    """Radius of the ball of volume m."""
    return _particle(3, m)[0]


def e3d_ball(m) -> EnergyBreakdown:
    """Ball-ansatz energy at mass m: perimeter plus whole-space H^-1 self-energy.

    An upper bound for the 3D per-particle infimum (conjecturally sharp);
    never reported as the infimum itself.
    """
    _, perim, self_h1, _ = _particle(3, m)
    return EnergyBreakdown(
        perimeter_term=perim,
        self_h1_term=self_h1,
        regular_self_term=0.0,
        cross_term=0.0,
        total=perim + self_h1,
        dim=3,
    )


def concavity_coefficient(m) -> float:
    """-(2/9) * perimeter + (10/9) * self-energy for the ball of mass m.

    Negative exactly for m < 2 pi: the sign of the second-order dilation
    response of the ball-family energy.
    """
    b = e3d_ball(m)
    return -(2.0 / 9.0) * b.perimeter_term + (10.0 / 9.0) * b.self_h1_term


def splitting_threshold_3d() -> float:
    """Mass m* where one ball and two far-separated half-mass balls tie.

    The ball energy is c2 m^(2/3) + c5 m^(5/3) with c2 / c5 = 10 pi, so
    e3d_ball(m) = 2 e3d_ball(m/2) has the one positive root
    m* = 10 pi (2^(1/3) - 1) / (1 - 2^(-2/3)); for m > m* the split wins
    under the ball ansatz.
    """
    return 10 * math.pi * (2 ** (1.0 / 3.0) - 1) / (1 - 2 ** (-2.0 / 3.0))
