"""Rescaled sharp-interface energies of ball configurations, and the
second-order quotients whose small-scale limits the library verifies.

The H^-1(T^d) norm of v = sum_i eta^-d chi_{B(x_i, a_i)} is
sum_{i, j} m_i m_j <G>_{ij}, the averages of the periodic Green's function G
over pairs of balls.  For disjoint balls of diameter below 1/2, G minus its
free-space singular part Gamma has constant Laplacian on every ball-pair
difference set, so by the mean-value property (Newton's theorem), with
q = 10 in 3D and 8 in 2D,

    <G>_{ij} = G(x_i - x_j) + (a_i^2 + a_j^2) / q,
    <G>_{ii} = <Gamma>_{ii} + g(0) + 2 a_i^2 / q.

The prefactor pref (eta in 3D, 1/|log eta| in 2D) times m_i^2 <Gamma>_{ii}
is exactly the whole-space self energy of the ball, 8 pi r_i^5 / 15 in 3D
and m_i^2 / (2 pi) + pref f0(m_i) in 2D (r_i = a_i / eta), so the code never
forms it.  The energy is the Gamma-expansion, exact at every eta up to G's
certified truncation bound:

    E_eta = sum_i local(m_i) + pref (F0 parts + eta^2 (2M/q) sum_i m_i r_i^2),

M = sum m, with the F0 parts (self terms and ordered pair sum) from the
helper that ``limits.f0_energy`` uses.  A ``BallConfiguration`` is a
``limits.PointConfiguration`` that also carries eta and the radii.  A
brute-force truncated mode sum over the ball form factors ("direct") shares
nothing with G (it calls nothing in ``green`` or ``limits``) and is kept as
the independent check at moderate scales; ``fourier_cutoff`` is its mode
cutoff.  It runs over the orthant k >= 0 with per-axis cosine tables,
evaluates the form factors once per shell |k|^2, a bounded window of shells
at a time, and bounds its omitted modes by the closed-form integral of a
piecewise power-law envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits, local
from ._special import ball_form_factor
from .breakdown import EnergyBreakdown
from .errors import (CutoffTooSmall, DiameterTooLarge, InadmissibleConfiguration,
                     OverlappingBalls, UnequalMasses2D)

MIN_CUTOFF = 16
TAIL_CONTRACT = 1e-8  # certified tail must stay below this fraction of the total
CLEARANCE = 1e-6
_CHUNK = 1 << 14  # elements per temporary of the direct mode sum


def ball_scale_radius(dim: int, mass: float, eta: float) -> float:
    """Physical radius of the mass-m particle at scale eta."""
    if dim == 3:
        return eta * (3.0 * mass / (4 * math.pi)) ** (1.0 / 3.0)
    return eta * math.sqrt(mass / math.pi)


def gamma_for(dim: int, eta: float) -> float:
    """Long-range coefficient matched to the scale: eta^-3, or (|log eta| eta^3)^-1."""
    if dim == 3:
        return eta**-3
    return eta**-3 / abs(math.log(eta))  # eta**3 would underflow to 0; this raises OverflowError


@dataclass(frozen=True)
class BallConfiguration(limits.PointConfiguration):
    """Disjoint balls of scale eta on the torus, encoding v in BV(T^d; {0, eta^-d}).

    A PointConfiguration whose particle of mass m_i is the ball of radius a_i.
    """

    eta: float

    def __init__(self, dim, eta, particles):
        eta = float(eta)
        if not 0.0 < eta <= 0.25:
            raise ValueError("eta must lie in (0, 0.25]")
        super().__init__(dim, particles)
        object.__setattr__(self, "eta", eta)
        radii = self.radii
        if np.any(2.0 * radii >= 0.5):
            raise DiameterTooLarge("ball diameters must stay below 1/2")
        iu, ju, _, dist = limits._pairs(self.positions)
        gap = dist - (radii[iu] + radii[ju])
        if np.any(gap < CLEARANCE):
            worst = int(np.argmin(gap))
            raise OverlappingBalls(
                f"balls {iu[worst]} and {ju[worst]} violate the disjointness "
                f"clearance ({gap[worst]:.3g} < {CLEARANCE:g})")

    @property
    def radii(self) -> np.ndarray:
        return np.array([ball_scale_radius(self.dim, m, self.eta) for m, _ in self.particles])


# ---------------------------------------------------------------------------
# the independent oracle: a truncated mode sum over the ball form factors
# ---------------------------------------------------------------------------

def _direct_mode_tail(dim, cutoff, masses, radii):
    """Certified bound on the modes |k| > cutoff of the bare form-factor sum.

    |phi_i| <= min(1, f_i) with f_i = sqrt(8/pi) t^-1.5 (2D) or 3 (1 + t)/t^3
    (3D), t = 2 pi |k| a_i, and 1.6 times the radial integral of
    (sum_i m_i min(1, f_i))^2 / (4 pi^2 k^2) over the shell area bounds the
    lattice sum.  Between the kinks where f_i = 1 the envelope is a sum of
    powers of k, so the integral is exact, piece by piece.
    """
    tk = 2 * math.pi * radii  # t per unit |k|
    if dim == 3:
        gold = (1.0 + math.sqrt(5.0)) / 2.0
        t_kink = gold ** (2.0 / 3.0) + gold ** (-2.0 / 3.0)  # the root of t^3 = 3 t + 3
        powers = np.array([0.0, -2.0, -3.0])
        coef = np.stack([masses, 3.0 * masses / tk**2, 3.0 * masses / tk**3])
        measure, scale = 0.0, 1.0 / math.pi  # 4 pi k^2 / (4 pi^2 k^2)
    else:
        t_kink = (8.0 / math.pi) ** (1.0 / 3.0)
        powers = np.array([0.0, -1.5])
        coef = np.stack([masses, math.sqrt(8.0 / math.pi) * masses * tk**-1.5])
        measure, scale = -1.0, 1.0 / (2 * math.pi)  # 2 pi k / (4 pi^2 k^2)
    kink = t_kink / tk
    p = powers[:, None] + powers[None, :] + (measure + 1.0)  # exponents of the antiderivative
    edges = np.unique(np.concatenate([[cutoff], kink[kink > cutoff], [np.inf]]))
    val = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # envelope on [lo, hi): the masses not yet decayed plus the decayed power laws
        decayed = kink <= lo
        c = np.concatenate([[np.sum(coef[0, ~decayed])], np.sum(coef[1:, decayed], axis=1)])
        cc = np.outer(c, c)
        for e, w in zip(p[cc != 0], cc[cc != 0]):
            val += w * (math.log(hi / lo) if e == 0 else (hi**e - lo**e) / e)
    return 1.6 * scale * val  # slack for lattice-shell counts above the continuum


def _pair_sums_direct(config, cutoff):
    """(diag, off, tail): the trace and the off-diagonal sum of the truncated mode sum

        S_ij = sum_{0 < |k| <= cutoff} m_i m_j phi_i phi_j cos(2 pi k.(x_i - x_j)) / (4 pi^2 |k|^2)

    and the bound on its omitted modes.  The sign flips of k add cos(2 pi k.d)
    up to 2^(nonzero coordinates) prod_a cos(2 pi k_a d_a), so k runs over the
    orthant k >= 0 and each axis contributes one row of a cosine table.  The
    form factors phi depend only on the shell s = |k|^2: each pair's phases
    are summed per shell first (row 0, at d = 0, counts the shell's modes),
    and phi is evaluated once per shell.  The shells are walked in windows of
    at most _CHUNK // rows points (k_1, u), u a shell of the remaining axes,
    so a window's temporaries stay within about _CHUNK elements; only a
    one-shell window may hold more.
    """
    dim, n, m, a = config.dim, config.n, config.masses, config.radii
    iu, ju = np.triu_indices(n, 1)
    d = np.concatenate([np.zeros((1, dim)), config.positions[iu] - config.positions[ju]])
    rows = d.shape[0]
    kk = np.arange(cutoff + 1)
    sq = kk * kk
    c2 = cutoff * cutoff
    tab = np.where(kk > 0, 2.0, 1.0) * np.cos(2 * math.pi * d[:, :, None] * kk)
    # the shells u of the axes after the first, with each row's phase sum over them
    if dim == 3:
        k2, k3 = (g.ravel() for g in np.meshgrid(kk, kk, indexing="ij"))
        keep = sq[k2] + sq[k3] <= c2
        k2, k3 = k2[keep], k3[keep]
        u, inv = np.unique(sq[k2] + sq[k3], return_inverse=True)
        rest = np.stack([np.bincount(inv, t[1, k2] * t[2, k3], u.size) for t in tab])
    else:
        u, rest = sq, tab[:, 1]
    budget = max(1, _CHUNK // rows)
    diag = off = 0.0
    s0, width = 1, budget
    while s0 <= c2:
        # the window of shells [s0, s1): per k_1, the run of u with s0 <= k_1^2 + u < s1
        s1 = min(s0 + width, c2 + 1)
        lo = np.searchsorted(u, s0 - sq)
        cnt = np.searchsorted(u, s1 - sq) - lo
        total = int(cnt.sum())
        if total > budget and width > 1:
            width //= 2
            continue
        k1 = np.repeat(kk, cnt)
        j = np.arange(total) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        pos = (sq[k1] + u[j] - s0) + (s1 - s0) * np.arange(rows)[:, None]
        acc = np.bincount(pos.ravel(), (tab[:, 0, k1] * rest[:, j]).ravel(),
                          rows * (s1 - s0)).reshape(rows, s1 - s0)
        shell = np.flatnonzero(acc[0])
        s = (s0 + shell).astype(float)
        phi = m[:, None] * ball_form_factor(dim, 2 * math.pi * np.sqrt(s) * a[:, None])
        w = acc[:, shell] / (4 * math.pi**2 * s)
        diag += float(np.sum(w[0] * phi**2))
        off += 2.0 * float(np.sum(w[1:] * phi[iu] * phi[ju]))
        s0, width = s1, min(2 * width, budget)
    return diag, off, _direct_mode_tail(dim, cutoff, m, a)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def sharp_energy(config: BallConfiguration, fourier_cutoff: int = MIN_CUTOFF,
                 method: str = "ewald", params=None) -> EnergyBreakdown:
    """Rescaled sharp-interface energy of a ball configuration.

    total = eta * total-variation + pref * |v|^2_{H^-1(T^d)} with pref = eta
    in 3D and 1/|log eta| in 2D.  The breakdown separates the exact
    perimeter term, the scale-free self part (whole-space H^-1 norms in 3D,
    the mass-squared log coefficient in 2D), the remaining regular self
    interaction, and the cross interaction.  ``method='ewald'`` evaluates the
    Gamma-expansion of the module docstring through G (``params``: the 3D
    Ewald parameters); its tail bound is pref * truncation_bound * (sum m)^2.
    ``method='direct'`` sums the bare mode sum up to ``fourier_cutoff``
    instead; it is only usable at moderate scales before its certified tail
    violates the accuracy contract.
    """
    if fourier_cutoff < MIN_CUTOFF:
        raise ValueError(f"fourier_cutoff must be >= {MIN_CUTOFF}")
    if method not in ("ewald", "direct"):
        raise ValueError("method must be 'ewald' or 'direct'")

    eta = config.eta
    m = config.masses
    if config.dim == 3:
        pref, q = eta, 10.0
        r = config.radii / eta
        perim = float(np.sum(4 * math.pi * r**2))
        self_h1 = float(np.sum(8 * math.pi * r**5 / 15.0))
    else:
        pref, q = 1.0 / abs(math.log(eta)), 8.0
        perim = float(np.sum(2.0 * np.sqrt(math.pi * m)))
        self_h1 = float(np.sum(m**2) / (2 * math.pi))

    if method == "ewald":
        # F0's parts plus the eta^2 term (2/q) sum_{i, j} m_i m_j a_i^2, a_i = eta r_i,
        # split into its i = j and i != j sums
        self_sum, cross_sum, tail = limits._second_order_parts(
            config.dim, m, config.positions, params)
        a2 = config.radii**2
        regular_self = pref * (self_sum + (2.0 / q) * float(np.sum(m**2 * a2)))
        cross = pref * (cross_sum + (2.0 / q) * float(np.sum(m * a2 * (np.sum(m) - m))))
    else:
        diag, off, tail = _pair_sums_direct(config, fourier_cutoff)
        regular_self = pref * diag - self_h1
        cross = pref * off
    total = perim + self_h1 + regular_self + cross
    tail_scaled = pref * tail
    breakdown = EnergyBreakdown(
        perimeter_term=perim,
        self_h1_term=self_h1,
        regular_self_term=regular_self,
        cross_term=cross,
        total=total,
        eta=eta,
        gamma=gamma_for(config.dim, eta),
        dim=config.dim,
        tail_bound=tail_scaled,
    )
    if tail_scaled > TAIL_CONTRACT * abs(total):
        raise CutoffTooSmall(
            f"certified tail {tail_scaled:.3g} exceeds {TAIL_CONTRACT:g} of total {total:.6g}")
    return breakdown


def rescale_to_original(breakdown: EnergyBreakdown) -> tuple[float, float]:
    """Undo the scale normalization: E(u) = eta^2 E^3d or eta E^2d, plus gamma."""
    if breakdown.eta is None or breakdown.dim is None:
        raise ValueError("breakdown carries no scale metadata")
    power = 2 if breakdown.dim == 3 else 1
    return breakdown.eta**power * breakdown.total, breakdown.gamma


@dataclass(frozen=True)
class ExpansionRow:
    eta: float
    energy: float
    quotient: float


@dataclass(frozen=True)
class ExpansionTable:
    rows: tuple
    reference: float
    reference_kind: str

    @property
    def etas(self) -> np.ndarray:
        return np.array([r.eta for r in self.rows])

    @property
    def quotients(self) -> np.ndarray:
        return np.array([r.quotient for r in self.rows])


def second_order_quotient(template, etas, params=None) -> ExpansionTable:
    """Second-order quotients of a ball-configuration family over a list of etas.

    3D: eta^-1 [E_eta - sum_i ball(m_i)], the reference being the ball
    ansatz for each particle (flagged in ``reference_kind``).  2D:
    |log eta| [E_eta - n e2d(m)], valid because the template is required to
    be an optimal equal partition, so the envelope of the total mass equals
    n e2d(m).  Each E_eta is ``sharp_energy`` at the Ewald parameters ``params``.
    """
    if not isinstance(template, limits.PointConfiguration):  # a BallConfiguration is one
        raise TypeError("template must be a BallConfiguration or PointConfiguration")

    if template.dim == 2:
        if not template.equal_masses():
            raise UnequalMasses2D("2D expansion template requires equal masses")
        report = limits.check_admissible(template)
        if not (report.is_optimal_partition and report.is_compact):
            raise InadmissibleConfiguration(
                "2D template is not an admissible limit configuration: "
                + "; ".join(report.detail))
        mass = float(template.masses[0])
        reference = template.n * local.e2d(mass)
        kind = "n * e2d(m) (optimal equal partition)"
    else:
        reference = float(sum(local.e3d_ball(mi).total for mi in template.masses))
        kind = "sum of ball-ansatz energies (upper bound for the true per-particle infimum)"

    rows = []
    for eta in etas:
        cfg = BallConfiguration(template.dim, float(eta), template.particles)
        bd = sharp_energy(cfg, params=params)
        if template.dim == 3:
            q = (bd.total - reference) / eta
        else:
            q = abs(math.log(eta)) * (bd.total - reference)
        rows.append(ExpansionRow(eta=float(eta), energy=bd.total, quotient=q))
    return ExpansionTable(rows=tuple(rows), reference=reference, reference_kind=kind)


def richardson_extrapolate(etas, quotients) -> tuple[float, float]:
    """Least-squares fit of q = q0 + c * eta; returns (q0, c)."""
    etas = np.asarray(etas, dtype=float)
    q = np.asarray(quotients, dtype=float)
    if etas.size < 2:
        raise ValueError("extrapolation needs at least two scales")
    A = np.stack([np.ones_like(etas), etas], axis=1)
    coef, *_ = np.linalg.lstsq(A, q, rcond=None)
    return float(coef[0]), float(coef[1])


def diameter_estimate(config: BallConfiguration) -> tuple[float, float]:
    """2D concentration bound: (sum of support diameters, eta^2 * total variation).

    For discs the left side is sum 2 a_i and the right side sum 2 pi a_i, so
    the inequality lhs <= rhs holds for every valid configuration.
    """
    if config.dim != 2:
        raise ValueError("the diameter estimate is a 2D statement")
    a = config.radii
    lhs = float(np.sum(2.0 * a))
    rhs = float(config.eta**2 * np.sum(2 * math.pi * a / config.eta**2))
    return lhs, rhs
