"""Limit functionals on weighted point configurations of the torus.

A ``PointConfiguration`` is its validated read-only arrays: the masses, the
positions reduced to [0, 1), and the min-image pair table that its
coincidence guard builds once; every energy above G reads that table.  The
table's differences are gathered coordinate-major into a read-only (d, P)
array and handed out as its (P, d) transpose, so each coordinate column,
which the kernels read one at a time, is contiguous.  The
first-order energy sums the per-mass values of ``local.envelope_many`` in
both dimensions and is blind to positions; admissibility compares the
per-particle energies with the envelope of the total mass, and compactness
asks that the envelope keep every mass whole (ball ansatz in 3D).  The
second-order energy adds the constant g(0) self terms and the Coulomb-like
pairwise interaction through the periodic Green's function; in 2D it is
defined on equal-mass configurations only.  ``_second_order_parts`` builds
its self terms, pair sum (over the configuration's table) and tail bound
for F0 and for ``sharp``.  ``equal_masses`` (relative MASS_EQUALITY_RTOL)
is the one equal-mass rule: 2D F0, admissibility, the 2D expansion and the
placement's lattice start all read it.

Pair-sum conventions: "ordered" counts both (i, j) and (j, i) in the cross
sum (the convention the finite-scale expansion converges to, in both
dimensions); "halved" multiplies the cross sum by 1/2.  The ordered pair sum
``interaction_energy`` and its gradient serve F0, the finite-scale energy of
``sharp`` (whose ``BallConfiguration`` is a ``PointConfiguration``) and the
placement optimizer; it is exactly permutation invariant.  It is one driver,
``_pair_sum``, over green's split of G in both dimensions, and it has one
shape: a stack of R configurations of one set of masses in, (R, n, d)
positions with their (R * P, d) min-image differences, checked by
``_check_distinct`` where each table was built, and arrays out.  It makes
one per-pair kernel call over all R * P rows, sums each configuration's
pair terms by ``local._total`` and each particle's gradient terms over the
pair triangle, then adds the particle-set long-range part per
configuration: the (R,) energies, and at derivative ``order`` 1 the
(R, n, d) gradients with them from the same pass.  At ``order`` 2 it
assembles the (R, n d, n d) Hessians from the per-pair Hessians of G that
the same kernel call returns: each pair's block enters the two diagonal
blocks with + and the two off-diagonal blocks with -, written through the
same pair triangle as the gradient terms (``_triangle``, one flat index per
pair).  Each configuration's entries are bitwise those of its own one-row
stack.  The placement's restarts pass their trial points as the stack; F0
and the raw-array wrappers pass a stack of one and take its row.
``interaction_energy``, ``interaction_gradient`` and
``interaction_hessian`` wrap it over raw arrays
with the Ewald parameters chosen from n unless given, reduce the rows to
[0, 1) by the one position rule ``green._positions``, and raise ValueError
when ``dim`` is not 2 or 3, the positions do not have ``dim`` columns, or
``masses`` does not hold one positive finite entry per position row;
F0's self terms and tail bound use the same parameters as its pair sum.
The mass rule is ``local._check_masses``, applied where masses enter: in
``PointConfiguration`` and in the raw-array wrappers.  Every reported sum
over particles or pairs is a ``local._total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import green, local
from .local import EnergyBreakdown
from .errors import CoincidentPoints, UnequalMasses2D

MASS_EQUALITY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Weighted point masses {(m_i, x_i)} with distinct positions, given as (mass, position) pairs.

    A position is a sequence of ``dim`` numbers.  The configuration is its
    read-only arrays, validated once: ``masses`` (n,), ``positions`` (n, d),
    each coordinate v stored as v % 1.0 in [0, 1) (1.0, which tiny negative
    v round to, is stored as 0.0), and ``pairs``, the min-image pair table
    of ``_pairs``, which the coincidence guard builds and every energy reads.
    """

    dim: int
    masses: np.ndarray
    positions: np.ndarray
    pairs: tuple = field(repr=False)

    def __init__(self, dim, particles):
        particles = list(particles)
        if not particles:
            raise ValueError("configuration must contain at least one particle")
        masses = local._check_masses([m for m, _ in particles])
        positions = green._positions(dim, [p for _, p in particles], "PointConfiguration")
        masses.flags.writeable = positions.flags.writeable = False
        obj_set = object.__setattr__
        obj_set(self, "dim", dim)
        obj_set(self, "masses", masses)
        obj_set(self, "positions", positions)
        obj_set(self, "pairs", _check_distinct(_pairs(positions)))

    @property
    def n(self) -> int:
        return len(self.masses)


def equal_masses(masses) -> bool:
    """Whether the masses agree to MASS_EQUALITY_RTOL relative: the one equal-mass rule."""
    m = np.asarray(masses, dtype=float)
    return float(np.max(m) - np.min(m)) <= MASS_EQUALITY_RTOL * float(np.max(m))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Whether a configuration's masses form an optimal partition and are compact."""

    is_optimal_partition: bool
    is_compact: bool
    detail: tuple = field(default_factory=tuple)


def e0(config: PointConfiguration) -> float:
    """First-order limit energy: the sum of the per-mass envelope values.

    Position-blind by construction.  In 3D the envelope is the best equal
    split of balls, an upper bound for the true one.
    """
    return local._total(local.envelope_many(config.dim, config.masses))


@lru_cache(maxsize=8)
def _pair_index(n):
    # cached: np.triu_indices costs more than the rest of an optimizer-sized pair sum;
    # the third array is each pair's flat index i * n + j into an (n, n) plane
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    for a in (iu, ju, flat):
        a.flags.writeable = False
    return iu, ju, flat


def _pairs(positions):
    """Pairs i < j in np.triu_indices order: (i, j, min-image x_i - x_j, its length), read-only.

    The differences are gathered coordinate-major, a (d, P) array, and
    returned as its (P, d) transpose, so each column ``diffs[:, k]`` is
    contiguous; the lengths sum the squares axis by axis, as a row norm does.
    """
    iu, ju, _ = _pair_index(len(positions))
    cols = positions.T
    diffs = green.min_image(np.take(cols, iu, axis=1) - np.take(cols, ju, axis=1))
    dist = np.sqrt(np.add.reduce(diffs * diffs, axis=0))
    diffs.flags.writeable = dist.flags.writeable = False
    return iu, ju, diffs.T, dist


def _check_distinct(pairs):
    """The ``_pairs`` table; CoincidentPoints if two positions are within 1e-9."""
    if (pairs[3] <= green.SINGULAR_GUARD).any():
        raise CoincidentPoints("coincident points (min-image distance <= 1e-9): "
                               "the interaction energy is +inf")
    return pairs


def _triangle(n, terms):
    """The (R, P, ...) pair terms on the (i < j) triangle of an (R, n, n, ...) array of zeros."""
    t = np.zeros((len(terms), n * n, *terms.shape[2:]))
    t[:, _pair_index(n)[2]] = terms
    return t.reshape(len(terms), n, n, *terms.shape[2:])


def _pair_sum(dim, masses, positions, diffs, params, order=0):
    """The ordered pair sums of a stack of configurations of one set of masses, at ``params``.

    ``positions`` is an (R, n, d) stack and ``diffs`` its (R * P, d) min-image
    pair differences, the transpose of a coordinate-major array, in the pair
    order of ``_pair_index(n)``.  One pass: one per-pair kernel call over all
    R * P rows, each configuration's pair terms summed by ``local._total``,
    then the particle-set long-range part per configuration.  The (R,)
    energies at ``order`` 0; at ``order`` 1 with them the (R, n, d) gradients,
    each particle's pair terms summed over the pair triangle; at ``order`` 2
    also the (R, n d, n d) Hessians in the row order of ``positions[r].ravel()``,
    assembled from the per-pair Hessians of G that the same kernel call
    returns.  Each configuration's entries are bitwise those of its own
    one-configuration stack: the kernels and the sums are row-independent.
    Unchecked: each table passed ``_check_distinct`` where it was built.
    """
    R, n = positions.shape[:2]
    iu, ju, _ = _pair_index(n)
    part = green._pair_part(dim, diffs, params, order)
    long = [green._set_long_range(dim, masses, x, params, order) for x in positions]
    if order:
        part, grad, *hess = part
        long, long_grad = zip(*long)
    mm = masses[iu] * masses[ju]
    energy = 2.0 * local._total(mm * part.reshape(R, -1)) + long
    if order == 0:
        return energy
    # each particle's pair terms over the (i < j) triangle: + along its row, - down its column
    t = _triangle(n, (2.0 * mm)[:, None] * grad.reshape(R, -1, dim))
    gradient = t.sum(axis=2) - t.sum(axis=1) + long_grad
    if order == 1:
        return energy, gradient
    # the pair (i, j) block 2 m_i m_j H(x_i - x_j) enters blocks (i, j) and (j, i) with -
    # (H is even, so both are the same) and blocks (i, i) and (j, j) with +
    t = _triangle(n, (-2.0 * mm)[:, None, None] * hess[0].reshape(R, -1, dim, dim))
    t += t.swapaxes(1, 2)
    t[:, range(n), range(n)] = -t.sum(axis=2)
    return energy, gradient, t.swapaxes(2, 3).reshape(R, n * dim, n * dim)


def _raw_pair_sum(dim, masses, positions, params, order=0):
    # raw arrays: one positive finite mass per position row, the rows reduced to the cell;
    # the pair sums of a stack of this one configuration
    positions = green._positions(dim, positions)
    masses = local._check_masses(masses)
    if masses.shape != (len(positions),):
        raise ValueError(f"masses must hold one entry per position row ({len(positions)}), "
                         f"got shape {masses.shape}")
    return _pair_sum(dim, masses, positions[None], _check_distinct(_pairs(positions))[2],
                     green._resolve(params, len(masses)), order)


def interaction_energy(dim, masses, positions, params=None) -> float:
    """Ordered double sum sum_{i != j} m_i m_j G(x_i - x_j) over (n,) masses, (n, d) positions."""
    return float(_raw_pair_sum(dim, masses, positions, params)[0])


def interaction_gradient(dim, masses, positions, params=None) -> np.ndarray:
    """Gradient of the interaction energy with respect to all positions."""
    return _raw_pair_sum(dim, masses, positions, params, 1)[1][0]


def interaction_hessian(dim, masses, positions, params=None) -> np.ndarray:
    """Hessian of the interaction energy, an (n d, n d) array in the order of ``positions.ravel()``.

    Its rows sum to zero block by block: the d translations are in its null space.
    """
    return _raw_pair_sum(dim, masses, positions, params, 2)[2][0]


def _second_order_parts(config, params=None):
    """F0's (self, ordered cross, tail bound) of a configuration, the cross from its pair table.

    self = sum_i (m_i^2 g(0) + f0(m_i)), f0 the column of ``local._particles`` (zero in
    3D), and the tail bound G's truncation bound times (sum m)^2, both sums
    ``local._total``; masses may differ.
    All three use the same Ewald parameters: ``params``, or those the pair
    sum chooses for n particles (3D; 2D uses none).
    """
    dim, masses = config.dim, config.masses
    params = green._resolve(params, len(masses))
    vals = masses**2 * green.regular_part_at_zero(dim, params) + local._particles(dim, masses)[3]
    return (local._total(vals),
            float(_pair_sum(dim, masses, config.positions[None], config.pairs[2], params)[0]),
            green.truncation_bound(dim, params) * local._total(masses)**2)


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
    if config.dim == 2 and not equal_masses(config.masses):
        raise UnequalMasses2D("2D second-order energy requires equal masses")
    self_term, cross, tail = _second_order_parts(config, params)
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


def _optimal_partition(config: PointConfiguration) -> tuple[bool, list[str]]:
    # optimal iff sum_i e(m_i) reaches the envelope of the total mass
    if config.dim == 2 and not equal_masses(config.masses):
        return False, ["masses are not all equal"]
    value = local._total(local._energies(config.dim, config.masses))
    total = local._total(config.masses)
    best = local.envelope(config.dim, total)
    if value <= best.envelope_value * (1.0 + 1e-12):
        return True, []
    parts = "equal parts of" if equal_masses(config.masses) else "parts of mean mass"
    return False, [f"n={config.n} {parts} {total / config.n:.6g} cost "
                   f"{value:.12g} > envelope {best.envelope_value:.12g} attained at n={best.n}"]


def check_admissible(config: PointConfiguration) -> AdmissibilityReport:
    """Report mass-partition optimality and compactness of a configuration.

    Optimal iff the per-particle energies sum to the envelope of the total
    mass (2D also requires equal masses); compact iff the envelope keeps
    every mass whole (count 1).  3D: both checks rest on the ball ansatz and
    are flagged as such in the detail.
    """
    opt, detail = _optimal_partition(config)
    compact = bool(np.all(local._best_count(config.dim, config.masses)[0] == 1))
    if not compact:
        detail.append("some mass exceeds the single-particle range (envelope splits it)")
    if config.dim == 3:
        detail.append("ball-ansatz heuristic: e(m) is the ball energy, an upper bound for "
                      "the per-particle infimum, and the envelope its best equal split")
    return AdmissibilityReport(is_optimal_partition=opt, is_compact=compact,
                               detail=tuple(detail))
