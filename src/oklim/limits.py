"""Limit functionals on weighted point configurations of the torus.

The first-order energy sums per-particle local energies and is blind to
positions.  The second-order energy adds the constant g(0) self terms and
the Coulomb-like pairwise interaction through the periodic Green's function;
in 2D it is defined on equal-mass configurations only.  ``_second_order_parts``
builds its self terms, pair sum and tail bound for F0 and for ``sharp``.

Pair-sum conventions: "ordered" counts both (i, j) and (j, i) in the cross
sum (the convention the finite-scale expansion converges to, in both
dimensions); "halved" multiplies the cross sum by 1/2.  The ordered pair sum
``interaction_energy`` and its gradient serve F0, the finite-scale energy of
``sharp`` (whose ``BallConfiguration`` is a ``PointConfiguration``) and the
placement optimizer; it is exactly permutation invariant.  It is one driver,
``_pair_sum``, over green's split of G in both dimensions: it takes one
min-image pair table and runs one coincidence guard, the per-pair parts
(summed in sorted order, and scattered for the gradient), then the
particle-set long-range part.  Asked for the gradient, it returns the
energy with it from one pass: one per-pair kernel call and one structure
factor.  ``interaction_energy`` and ``interaction_gradient`` wrap it with the
Ewald parameters chosen from n unless given; F0's self terms and tail bound
then use the same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import green, local
from .breakdown import EnergyBreakdown
from .errors import CoincidentPoints, UnequalMasses2D

MASS_EQUALITY_RTOL = 1e-12


@dataclass(frozen=True)
class PointConfiguration:
    """Weighted point masses {(m_i, x_i)} with distinct positions.

    ``masses`` (n,) and ``positions`` (n, d), each coordinate reduced to [0, 1)
    as ``TorusPoint`` reduces it, are read-only arrays built once.
    """

    dim: int
    particles: tuple  # of (mass, TorusPoint)

    def __init__(self, dim, particles):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        parts = []
        for mass, pos in particles:
            m = float(mass)
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError(f"masses must be positive and finite, got {m}")
            if not isinstance(pos, green.TorusPoint):
                pos = green.TorusPoint(pos)
            if pos.dim != dim:
                raise ValueError("particle dimension mismatch")
            if not all(map(math.isfinite, pos.coords)):  # NaN or inf reduce to NaN
                raise ValueError(f"positions must be finite, got {pos.coords}")
            parts.append((m, pos))
        if not parts:
            raise ValueError("configuration must contain at least one particle")
        masses = np.array([m for m, _ in parts])
        positions = np.array([p.coords for _, p in parts])
        masses.flags.writeable = positions.flags.writeable = False
        obj_set = object.__setattr__
        obj_set(self, "dim", dim)
        obj_set(self, "particles", tuple(parts))
        obj_set(self, "masses", masses)
        obj_set(self, "positions", positions)
        _check_distinct(_pairs(positions))

    @property
    def n(self) -> int:
        return len(self.particles)

    def equal_masses(self) -> bool:
        m = self.masses
        return float(np.max(m) - np.min(m)) <= MASS_EQUALITY_RTOL * float(np.max(m))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Whether a configuration's masses form an optimal partition and are compact."""

    is_optimal_partition: bool
    is_compact: bool
    detail: tuple = field(default_factory=tuple)


def e0(config: PointConfiguration) -> float:
    """First-order limit energy: sum of per-particle local energies.

    Position-blind by construction.  In 3D the per-particle value is the
    ball ansatz, an upper bound for the true infimum.
    """
    if config.dim == 2:
        vals = local.envelope_2d_many(config.masses)
    else:
        vals = [local.e3d_ball(m).total for m in config.masses]
    # canonical summation order keeps the value exactly permutation invariant
    return float(np.sum(np.sort(vals)))


@lru_cache(maxsize=64)
def _pair_index(n):
    # cached: np.triu_indices costs more than the rest of an optimizer-sized pair sum
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _pairs(positions):
    """Pairs i < j in np.triu_indices order: (i, j, min-image x_i - x_j, its length)."""
    iu, ju = _pair_index(len(positions))
    diffs = green.min_image(positions[iu] - positions[ju])
    return iu, ju, diffs, np.linalg.norm(diffs, axis=1)


def _check_distinct(pairs):
    """The ``_pairs`` table; CoincidentPoints if two positions are within 1e-9."""
    if (pairs[3] <= green.SINGULAR_GUARD).any():
        raise CoincidentPoints("coincident points (min-image distance <= 1e-9): "
                               "the interaction energy is +inf")
    return pairs


def _pair_sum(dim, masses, positions, pairs, params, gradient=False):
    """The ordered pair sum over the ``_pairs`` table of ``positions``, at resolved ``params``.

    One pass: the per-pair parts (summed in sorted order, and scattered for
    the gradient), then the particle-set long-range part; with ``gradient``,
    (energy, gradient) from one call of each.
    """
    iu, ju, diffs, _ = _check_distinct(pairs)
    if gradient:
        part, grad = green._pair_part(dim, diffs, params, gradient=True)
        long, long_grad = green._set_long_range(dim, masses, positions, params, gradient=True)
    else:
        part = green._pair_part(dim, np.abs(diffs), params)
        long = green._set_long_range(dim, masses, positions, params)
    # row-independent pair terms in a canonical order: exactly permutation invariant
    energy = 2.0 * float(np.sum(np.sort(masses[iu] * masses[ju] * part))) + long
    if not gradient:
        return energy
    w = (2.0 * masses[iu] * masses[ju])[:, None] * grad
    idx, w = np.concatenate([iu, ju]), np.concatenate([w, -w])
    out = np.stack([np.bincount(idx, w[:, d], len(positions)) for d in range(dim)], axis=1)
    return energy, out + long_grad


def interaction_energy(dim, masses, positions, params=None) -> float:
    """Ordered double sum sum_{i != j} m_i m_j G(x_i - x_j) over (n,) masses, (n, d) positions."""
    return _pair_sum(dim, masses, positions, _pairs(positions),
                     green._resolve(params, len(masses)))


def interaction_gradient(dim, masses, positions, params=None) -> np.ndarray:
    """Gradient of the interaction energy with respect to all positions."""
    return _pair_sum(dim, masses, positions, _pairs(positions),
                     green._resolve(params, len(masses)), gradient=True)[1]


def _second_order_parts(dim, masses, positions, params=None):
    """F0's (self, ordered cross, tail bound) over (n,) masses, (n, d) positions.

    self = sum_i m_i^2 g(0), plus f0(m_i) in 2D, in sorted order; masses may differ.
    All three use the same Ewald parameters: ``params``, or those the pair
    sum chooses for n particles (3D; 2D uses none).
    """
    params = green._resolve(params, len(masses))
    vals = masses**2 * green.regular_part_at_zero(dim, params)
    if dim == 2:
        vals += [local.f0(m) for m in masses]
    return (float(np.sum(np.sort(vals))),
            interaction_energy(dim, masses, positions, params),
            green.truncation_bound(dim, params) * float(np.sum(masses))**2)


def f0_energy(config: PointConfiguration, params=None,
              pair_convention: str = "ordered") -> EnergyBreakdown:
    """Second-order limit energy over point positions.

    3D: sum_i g(0) m_i^2 + c * sum_{i != j} m_i m_j G(x_i - x_j).
    2D (equal masses): n (f0(m) + m^2 g(0)) + c m^2 sum_{i != j} G(x_i - x_j).
    c = 1 for the ordered convention (default), 1/2 for halved.  The tail
    bound is G's truncation bound times (sum m)^2.
    """
    if pair_convention not in ("ordered", "halved"):
        raise ValueError("pair_convention must be 'ordered' or 'halved'")
    if config.dim == 2 and not config.equal_masses():
        raise UnequalMasses2D("2D second-order energy requires equal masses")
    self_term, cross, tail = _second_order_parts(config.dim, config.masses,
                                                 config.positions, params)
    if pair_convention == "halved":
        cross *= 0.5
    return EnergyBreakdown(
        perimeter_term=0.0,
        self_h1_term=0.0,
        regular_self_term=self_term,
        cross_term=cross,
        total=self_term + cross,
        dim=config.dim,
        tail_bound=tail,
    )


def _optimal_partition_2d(config: PointConfiguration) -> tuple[bool, list[str]]:
    detail = []
    if not config.equal_masses():
        return False, ["masses are not all equal"]
    m = float(config.masses[0])
    n = config.n
    best = local.envelope_2d(n * m)
    value = n * local.e2d(m)
    ok = value <= best.envelope_value * (1.0 + 1e-12)
    if not ok:
        detail.append(
            f"n={n} equal parts of {m:.6g} cost {value:.12g} > envelope {best.envelope_value:.12g}"
            f" attained at n={best.n}")
    return ok, detail


def _optimal_partition_3d(config: PointConfiguration) -> tuple[bool, list[str]]:
    # Ball-ansatz desk-scale search: equal re-partitions of the total mass
    # into k <= n + 2 parts, and all single-pair merges of the given masses.
    m = config.masses
    total = float(np.sum(m))
    value = float(sum(local.e3d_ball(mi).total for mi in m))
    best = value
    witness = None
    for k in range(1, config.n + 3):
        cand = k * local.e3d_ball(total / k).total
        if cand < best - 1e-12 * abs(best):
            best, witness = cand, f"{k} equal parts of {total / k:.6g}"
    if config.n >= 2:
        singles = np.array([local.e3d_ball(mi).total for mi in m])
        for i in range(config.n):
            for j in range(i + 1, config.n):
                cand = (value - singles[i] - singles[j]
                        + local.e3d_ball(m[i] + m[j]).total)
                if cand < best - 1e-12 * abs(best):
                    best, witness = cand, f"merge of particles {i} and {j}"
    if witness is None:
        return True, []
    return False, [f"ball-ansatz regrouping beats the configuration: {witness}"]


def check_admissible(config: PointConfiguration) -> AdmissibilityReport:
    """Report mass-partition optimality and compactness of a configuration.

    2D: optimal iff all masses are equal and the count matches the envelope
    optimum of the total mass; compact iff a single particle of mass m does
    not split (envelope count 1).  3D: both checks are ball-ansatz
    heuristics and are flagged as such in the detail.
    """
    detail: list[str] = []
    if config.dim == 2:
        opt, d = _optimal_partition_2d(config)
        detail += d
        compact = all(local.envelope_2d(mi).n == 1 for mi in config.masses)
        if not compact:
            detail.append("some mass exceeds the single-particle range (envelope splits it)")
    else:
        opt, d = _optimal_partition_3d(config)
        detail += d
        thresh = local.splitting_threshold_3d()
        compact = bool(np.all(config.masses <= thresh))
        detail.append(
            f"ball-ansatz heuristic: compact iff every mass <= splitting threshold {thresh:.8g}")
        if not opt:
            detail.append("ball-ansatz heuristic: partition optimality is approximate in 3D")
    return AdmissibilityReport(is_optimal_partition=opt, is_compact=compact,
                               detail=tuple(detail))
