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
for F0 and for ``sharp``.

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
factor.  Over a leading axis of R configurations of the same masses (the
trial points of the placement restarts, their tables joined by ``_stack``)
it makes one kernel call over all R * P pair rows, sorts and sums per row,
and scatters the gradients through a per-n gather order; each row is bitwise
its own one-configuration call.  ``interaction_energy`` and
``interaction_gradient`` wrap it over raw arrays with the Ewald parameters
chosen from n unless given, and raise ValueError
when ``dim`` is not 2 or 3, the positions do not have ``dim`` columns, or
``masses`` does not hold one positive finite entry per position row;
F0's self terms and tail bound use the same parameters as its pair sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import green, local
from .breakdown import EnergyBreakdown
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
        masses = _check_masses([m for m, _ in particles])
        positions = green._check_dim(dim, [p for _, p in particles], "PointConfiguration")
        positions %= 1.0
        positions[positions == 1.0] = 0.0  # v % 1.0 rounds to 1.0 for tiny negative v
        masses.flags.writeable = positions.flags.writeable = False
        obj_set = object.__setattr__
        obj_set(self, "dim", dim)
        obj_set(self, "masses", masses)
        obj_set(self, "positions", positions)
        obj_set(self, "pairs", _check_distinct(_pairs(positions)))

    @property
    def n(self) -> int:
        return len(self.masses)

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
    """First-order limit energy: the sum of the per-mass envelope values.

    Position-blind by construction.  In 3D the envelope is the best equal
    split of balls, an upper bound for the true one.
    """
    # canonical summation order keeps the value exactly permutation invariant
    return float(np.sum(np.sort(local.envelope_many(config.dim, config.masses))))


def _check_masses(masses):
    """``masses`` as a float array; ValueError unless each is positive and finite."""
    m = np.asarray(masses, dtype=float)
    bad = ~(np.isfinite(m) & (m > 0.0))
    if bad.any():
        raise ValueError(f"masses must be positive and finite, got {m[bad][0]}")
    return m


@lru_cache(maxsize=64)
def _pair_index(n):
    # cached: np.triu_indices costs more than the rest of an optimizer-sized pair sum
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@lru_cache(maxsize=64)
def _scatter_order(n):
    """The rows of the 2P pair terms ``[w; -w]`` that each particle gathers, (n, n - 1), read-only.

    Row k lists the n - 1 entries of concatenate([iu, ju]) equal to k, in
    their order there: summed left to right, each particle's terms add up in
    pair-row order, as ``np.bincount`` over concatenate([iu, ju]) adds them.
    """
    iu, ju = _pair_index(n)
    order = np.argsort(np.concatenate([iu, ju]), kind="stable").reshape(n, n - 1)
    order.flags.writeable = False
    return order


def _pairs(positions):
    """Pairs i < j in np.triu_indices order: (i, j, min-image x_i - x_j, its length), read-only.

    The differences are gathered coordinate-major, a (d, P) array, and
    returned as its (P, d) transpose, so each column ``diffs[:, k]`` is
    contiguous; the lengths sum the squares axis by axis, as a row norm does.
    """
    iu, ju = _pair_index(len(positions))
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


def _stack(tables):
    """The ``_pairs`` tables of R configurations of one size as one table of R * P rows.

    The differences stay the (R * P, d) transpose of a coordinate-major array.
    """
    if len(tables) == 1:
        return tables[0]
    iu, ju = tables[0][:2]
    diffs = np.concatenate([t[2].T for t in tables], axis=1).T
    return iu, ju, diffs, np.concatenate([t[3] for t in tables])


def _pair_sum(dim, masses, positions, pairs, params, gradient=False):
    """The ordered pair sum over the ``_pairs`` table of ``positions``, at resolved ``params``.

    One pass: the per-pair parts (summed in sorted order, and scattered for
    the gradient), then the particle-set long-range part; with ``gradient``,
    (energy, gradient) from one call of each.  ``positions`` may carry a
    leading axis of R configurations of the same masses, with ``pairs`` their
    tables joined by ``_stack``: then a list of R energies and the (R, n, d)
    gradients come from one per-pair kernel call over all R * P rows, and each
    row is bitwise its own one-configuration call (the per-pair kernels and
    the sums are row-independent; the long-range part runs per configuration).
    """
    iu, ju, diffs, _ = _check_distinct(pairs)
    stack = positions.reshape(-1, *positions.shape[-2:])
    R, n = stack.shape[:2]
    if gradient:
        part, grad = green._pair_part(dim, diffs, params, gradient=True)
    else:
        part = green._pair_part(dim, np.abs(diffs), params)
    long = [green._set_long_range(dim, masses, x, params, gradient) for x in stack]
    if gradient:
        long, long_grad = zip(*long)
    # row-independent pair terms in a canonical order: exactly permutation invariant
    mm = masses[iu] * masses[ju]
    sums = np.sum(np.sort(mm * part.reshape(R, -1), axis=1), axis=1).tolist()
    energy = [2.0 * s + e for s, e in zip(sums, long)]
    if positions.ndim == 2:
        energy = energy[0]
    if not gradient:
        return energy
    w = (2.0 * mm)[:, None] * grad.reshape(R, -1, dim)
    # each particle's pair terms, summed in pair-row order
    w = np.take(np.concatenate([w, -w], axis=1), _scatter_order(n), axis=1)
    out = np.add.reduce(w, axis=2)
    for row, g in zip(out, long_grad):
        row += g  # a zero in 2D and for one particle
    return energy, out.reshape(positions.shape)


def _raw_pair_sum(dim, masses, positions, params, gradient=False):
    # raw arrays: one positive finite mass per position row
    positions = green._check_dim(dim, positions)
    masses = _check_masses(masses)
    if masses.shape != (len(positions),):
        raise ValueError(f"masses must hold one entry per position row ({len(positions)}), "
                         f"got shape {masses.shape}")
    return _pair_sum(dim, masses, positions, _pairs(positions),
                     green._resolve(params, len(masses)), gradient)


def interaction_energy(dim, masses, positions, params=None) -> float:
    """Ordered double sum sum_{i != j} m_i m_j G(x_i - x_j) over (n,) masses, (n, d) positions."""
    return _raw_pair_sum(dim, masses, positions, params)


def interaction_gradient(dim, masses, positions, params=None) -> np.ndarray:
    """Gradient of the interaction energy with respect to all positions."""
    return _raw_pair_sum(dim, masses, positions, params, gradient=True)[1]


def _second_order_parts(config, params=None):
    """F0's (self, ordered cross, tail bound) of a configuration, the cross from its pair table.

    self = sum_i (m_i^2 g(0) + f0(m_i)), f0 the column of ``local._particles`` (zero in
    3D), in sorted order; masses may differ.
    All three use the same Ewald parameters: ``params``, or those the pair
    sum chooses for n particles (3D; 2D uses none).
    """
    dim, masses = config.dim, config.masses
    params = green._resolve(params, len(masses))
    vals = masses**2 * green.regular_part_at_zero(dim, params) + local._particles(dim, masses)[3]
    return (float(np.sum(np.sort(vals))),
            _pair_sum(dim, masses, config.positions, config.pairs, params),
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
    if config.dim == 2 and not config.equal_masses():
        return False, ["masses are not all equal"]
    value = float(np.sum(np.sort(local._energies(config.dim, config.masses))))
    total = float(np.sum(config.masses))
    best = local.envelope(config.dim, total)
    if value <= best.envelope_value * (1.0 + 1e-12):
        return True, []
    parts = "equal parts of" if config.equal_masses() else "parts of mean mass"
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
