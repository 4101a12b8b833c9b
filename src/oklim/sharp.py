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
helper that ``limits.f0_energy`` uses, over the configuration's own pair
table.  So the second-order quotient F_eta, which equals
eta^-1 [E_eta - sum_i ball(m_i)] in 3D and |log eta| [E_eta - n e2d(m)] in
2D in exact arithmetic, is F0 plus the closed-form term eta^2 (2/q)
sum_{i, j} m_i m_j r_i^2: ``second_order_quotient`` computes it that way,
from one call of the helper for the whole eta sweep, and subtracts no
total.  The sweep and its fits therefore restate the mean-value identity
through the same G; the independent evidence is the direct mode sum below
and the benchmark's references (``perfbench/refs.py``).

A ``BallConfiguration`` is a ``limits.PointConfiguration`` that also
carries eta and the radii, a read-only array computed once from the masses
as eta times the unit radii of ``local._particles``, the table whose
perimeters and self energies the breakdown sums; its disjointness check
reads the inherited pair table.  A
brute-force truncated mode sum over the ball form factors ("direct") shares
nothing with G (it calls nothing in ``green`` or ``limits``) and is kept as
the independent check at moderate scales; ``fourier_cutoff`` is its mode
cutoff.  It takes the particles in lexicographic position order, as
``green._set_long_range`` does, so its sums over particles and pairs have
the same bits in every order of the particles; the breakdown sums its
per-particle terms by ``local._total``.  It runs over the orthant k >= 0
with per-axis cosine tables.  A window of shells |k|^2 at a time, it maps
each block of modes to its shell through one shell index that every pair
row shares, evaluates the form factors once per occupied shell, and takes
each row's weights from there; it bounds its omitted modes by the
closed-form integral of a piecewise power-law envelope.  The shells, the
blocks and the shell indices depend on the cutoff alone: they are its plan
(``_direct_plan``), built on the first call at a cutoff and kept until a
call at another cutoff replaces it, and each call evaluates only what
depends on the configuration.  The plan costs memory that grows as c^2:
about 2 c^2 bytes (a uint16 per shell) plus in 3D the (k_2, k_3) shells,
2 MB at c = 1000 in 2D, and the cold call holds it whole beside its working
memory; it saves time only on repeated calls at one cutoff.  The form
factors are ``ball_form_factor``'s; scipy.special's j1 is imported in its
2D branch, once per call, and not at module level, where it would load
scipy on ``import oklim`` while only the 2D direct sum needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import limits, local
from .local import EnergyBreakdown
from .errors import (CutoffTooSmall, DiameterTooLarge, InadmissibleConfiguration,
                     OverlappingBalls, UnequalMasses2D, check_integer)

MIN_CUTOFF = 16
TAIL_CONTRACT = 1e-8  # certified tail must stay below this fraction of the total
CLEARANCE = 1e-6
_CHUNK = 1 << 13  # modes per block of the direct mode sum (a one-row block may hold more)
_WINDOW = 1 << 15  # shells |k|^2 per window (per shell index) of the direct mode sum


def ball_scale_radius(dim: int, masses, eta: float) -> np.ndarray:
    """Physical radii of the particles of the array ``masses`` at scale eta."""
    return eta * local._particles(dim, local._check_masses(masses))[0]


def gamma_for(dim: int, eta: float) -> float:
    """Long-range coefficient matched to the scale: eta^-3, or (|log eta| eta^3)^-1."""
    if dim == 3:
        return eta**-3
    return eta**-3 / abs(math.log(eta))  # eta**3 would underflow to 0; this raises OverflowError


@dataclass(frozen=True, eq=False)
class BallConfiguration(limits.PointConfiguration):
    """Disjoint balls of scale eta on the torus, encoding v in BV(T^d; {0, eta^-d}).

    A PointConfiguration whose particle of mass m_i is the ball of radius
    a_i, the read-only array ``radii``.
    """

    eta: float
    radii: np.ndarray

    def __init__(self, dim, eta, particles):
        eta = float(eta)
        if not 0.0 < eta <= 0.25:
            raise ValueError("eta must lie in (0, 0.25]")
        super().__init__(dim, particles)
        radii = ball_scale_radius(dim, self.masses, eta)
        radii.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "radii", radii)
        if np.any(2.0 * radii >= 0.5):
            raise DiameterTooLarge("ball diameters must stay below 1/2")
        iu, ju, _, dist = self.pairs
        gap = dist - (radii[iu] + radii[ju])
        if np.any(gap < CLEARANCE):
            worst = int(np.argmin(gap))
            raise OverlappingBalls(
                f"balls {iu[worst]} and {ju[worst]} violate the disjointness "
                f"clearance ({gap[worst]:.3g} < {CLEARANCE:g})")


# ---------------------------------------------------------------------------
# the independent oracle: a truncated mode sum over the ball form factors
# ---------------------------------------------------------------------------

def ball_form_factor(dim, t):
    """Fourier profile of the unit-mass ball: 3(sin t - t cos t)/t^3 or 2 J1(t)/t.

    The closed form runs on the whole array; below a small-t threshold (0.1
    in 3D, 1e-4 in 2D), where it cancels or divides 0 by 0, the Taylor
    polynomial overwrites it.  A 0-d ``t`` gives a float.
    """
    t = np.asarray(t, dtype=float)
    if dim == 3:
        threshold = 0.1

        def closed(t):
            return 3.0 * (np.sin(t) - t * np.cos(t)) / t**3

        def taylor(t):
            t2 = t * t
            return 1.0 - t2 / 10.0 + t2 * t2 / 280.0 - t2 * t2 * t2 / 15120.0
    elif dim == 2:
        from scipy.special import j1  # here, not at module level: see the module docstring

        threshold = 1e-4

        def closed(t):
            return 2.0 * j1(t) / t

        def taylor(t):
            return 1.0 - t**2 / 8.0
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    small = t < threshold
    with np.errstate(divide="ignore", invalid="ignore"):  # the small t are overwritten
        out = np.asarray(closed(t))
    out[small] = taylor(t[small])
    return out if out.ndim else float(out)


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


@lru_cache(maxsize=1)
def _direct_plan(dim, cutoff, window, chunk):
    """What the mode sum of ``_pair_sums_direct`` needs of (dim, cutoff, window, chunk) alone.

    (u, windows), every array read-only.  u holds the sorted shells of the
    axes after the first: the squares k_2^2 in 2D, the distinct
    k_2^2 + k_3^2 <= c^2 in 3D.  ``windows`` has one (s0, blocks, shell)
    per window of ``window`` shells s = |k|^2 from s0: the (blocks, 4) rows
    (b0, b1, j0, j1), k_1 in [b0, b1) against u[j0:j1], of at most
    ``chunk`` modes (a one-row block may hold more), that cover the window's
    s = k_1^2 + u; and the shell index, whose entry s - s0 + 1 is 1 plus the
    rank of s among the window's occupied shells, in the smallest unsigned
    type that holds ``window``.  Its two ends, where the s off the window
    land, are 0; so are its other unoccupied entries, which no block reads.
    """
    kk = np.arange(cutoff + 1)
    sq = kk * kk
    c2 = cutoff * cutoff
    if dim == 3:
        occupied = np.zeros(c2 + 1, bool)
        for k2 in range(cutoff + 1):
            occupied[sq[k2] + sq[:math.isqrt(c2 - sq[k2]) + 1]] = True
        u = np.flatnonzero(occupied)
    else:
        u = sq
    windows = []
    for s0 in range(1, c2 + 1, window):
        s1 = min(s0 + window, c2 + 1)
        top = math.isqrt(s1 - 1) + 1
        lo = np.searchsorted(u, s0 - sq[:top]).tolist()
        hi = np.searchsorted(u, s1 - sq[:top]).tolist()
        blocks, b0 = [], 0
        while b0 < top:
            b1 = min(top, b0 + max(1, chunk // max(1, hi[b0] - lo[b0])))
            while b1 - b0 > 1 and (b1 - b0) * (hi[b0] - lo[b1 - 1]) > chunk:
                b1 = b0 + (b1 - b0) // 2
            blocks.append((b0, b1, lo[b1 - 1], hi[b0]))
            b0 = b1
        shell = np.zeros(s1 - s0 + 2, np.min_scalar_type(window))
        for b0, b1, j0, j1 in blocks:
            pos = (sq[b0:b1] - (s0 - 1))[:, None] + u[j0:j1]
            shell[np.minimum(np.maximum(pos, 0, out=pos), s1 - s0 + 1, out=pos)] = 1
        shell[0] = shell[-1] = 0
        occupied = np.flatnonzero(shell > 0)
        shell[occupied] = np.arange(1, occupied.size + 1)
        blocks = np.array(blocks)
        blocks.flags.writeable = shell.flags.writeable = False
        windows.append((s0, blocks, shell))
    u.flags.writeable = False
    return u, tuple(windows)


def _shell_weights(dim, m, a, s0, shell):
    """Per entry of a window's shell index: sum_i p_i^2, then the p_i.

    Column 0, which the unoccupied entries take, is zero; column 1 + rank
    holds p_i = m_i phi_i / (2 pi |k|) at the occupied shell s = |k|^2 of
    that rank.  The form factors run _CHUNK // n shells at a time.
    """
    n = m.size
    occupied = np.flatnonzero(shell > 0)
    w = np.zeros((n + 1, occupied.size + 1))
    step = max(1, _CHUNK // n)
    for c0 in range(0, occupied.size, step):
        k = np.sqrt(occupied[c0:c0 + step] + (s0 - 1.0))
        p = m[:, None] * ball_form_factor(dim, 2 * math.pi * k * a[:, None]) / (2 * math.pi * k)
        w[0, 1 + c0:1 + c0 + k.size] = np.sum(p * p, axis=0)
        w[1:, 1 + c0:1 + c0 + k.size] = p
    return w


def _pair_sums_direct(config, cutoff):
    """(diag, off, tail): the trace and the off-diagonal sum of the truncated mode sum

        S_ij = sum_{0 < |k| <= cutoff} m_i m_j phi_i phi_j cos(2 pi k.(x_i - x_j)) / (4 pi^2 |k|^2)

    and the bound on its omitted modes, with the particles taken in
    lexicographic position order.  The sign flips of k add cos(2 pi k.d)
    up to 2^(nonzero coordinates) prod_a cos(2 pi k_a d_a), so k runs over the
    orthant k >= 0 and each axis contributes one row of a cosine table ``tab``
    (row 0, at d = 0, counts the modes); the axes after the first are folded
    into their sorted shells u first, with each row's phase sum ``rest`` (in
    3D one k_2 row at a time, so the (k_2, k_3) plane is never held whole).
    The form factors phi depend only on the shell s = k_1^2 + u = |k|^2.
    The shells are walked in windows of _WINDOW, and the modes of a window in
    blocks of k_1 rows against a run of u, of at most _CHUNK modes (a
    one-row block may hold more).

    What depends on (dim, cutoff, _WINDOW, _CHUNK) alone is the plan of
    ``_direct_plan``, built on the first call at a cutoff and kept, one
    cutoff at a time: u, the blocks, and each window's shell index, which
    ranks the window's occupied shells.  It keeps about 2 c^2 bytes of shell
    indices (a uint16 per shell) and, in 3D, the int64 u: 0.5 MB at c = 500
    and 2 MB at c = 1000 in 2D, 0.67 MB at c = 400 in 3D.  That cost grows
    as c^2 with no cap on c; the cold call builds every window's index
    before the sum runs, so its peak is the plan plus the working memory.  Each call builds ``tab`` and ``rest``, and per window
    evaluates phi once per occupied shell as the per-particle weight
    p_i = m_i phi_i / (2 pi |k|) (``_shell_weights``); it then maps each
    block's s to its rank, takes the weights there, and adds
    tab[r, 0, block] @ (w_r[rank] @ rest[r, run]) to each row r, with
    w_r = p_i p_j for the pair (i, j) and sum_i p_i^2 for row 0.  The origin
    and the s off the window map to a zero weight.  The working memory is
    about (n + 1) (_WINDOW + _CHUNK) doubles, plus the rows times the shells
    of ``rest``, whose count grows as c^2 / sqrt(log c) in 3D.
    """
    dim, n = config.dim, config.n
    u, windows = _direct_plan(dim, cutoff, _WINDOW, _CHUNK)
    order = np.lexsort(config.positions.T[::-1])
    m, a, x = config.masses[order], config.radii[order], config.positions[order]
    iu, ju = np.triu_indices(n, 1)
    d = np.concatenate([np.zeros((1, dim)), x[iu] - x[ju]])
    kk = np.arange(cutoff + 1)
    sq = kk * kk
    tab = np.where(kk > 0, 2.0, 1.0) * np.cos(2 * math.pi * d[:, :, None] * kk)
    if dim == 3:
        # the shells k_2^2 + k_3^2 of one k_2 row are distinct, so one += adds each once
        rest = np.zeros((d.shape[0], u.size))
        for k2 in range(cutoff + 1):
            top = math.isqrt(cutoff * cutoff - sq[k2]) + 1
            rest[:, np.searchsorted(u, sq[k2] + sq[:top])] += tab[:, 1, k2, None] * tab[:, 2, :top]
    else:
        rest = tab[:, 1]
    acc = np.zeros(d.shape[0])
    for s0, blocks, shell in windows:
        w = _shell_weights(dim, m, a, s0, shell)
        for b0, b1, j0, j1 in blocks.tolist():
            rank = shell.take((sq[b0:b1] - (s0 - 1))[:, None] + u[j0:j1], mode="clip")
            g = w.take(rank, axis=1, mode="clip")  # every rank is in range; "clip" is faster
            acc[0] += tab[0, 0, b0:b1] @ (g[0] @ rest[0, j0:j1])
            for r, (i, j) in enumerate(zip(iu, ju), 1):
                acc[r] += tab[r, 0, b0:b1] @ ((g[i + 1] * g[j + 1]) @ rest[r, j0:j1])
        del w, g  # before the next window's weights are made
    diag, off = float(acc[0]), 2.0 * float(np.sum(acc[1:]))
    return diag, off, _direct_mode_tail(dim, cutoff, m, a)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _pref(dim, eta):
    """The prefactor of the H^-1 term: eta in 3D, 1/|log eta| in 2D."""
    return eta if dim == 3 else 1.0 / abs(math.log(eta))


def _breakdown(config, parts, method="ewald") -> EnergyBreakdown:
    """The energy breakdown of ``config`` from its pair parts (self, ordered cross, tail).

    ``method='ewald'``: F0's parts of ``limits._second_order_parts``, plus the
    eta^2 term (2/q) sum_{i, j} m_i m_j a_i^2, a_i = eta r_i, split into its
    i = j and i != j sums.  ``method='direct'``: the mode sums of
    ``_pair_sums_direct``, whose diagonal holds the whole-space self energy.
    The per-particle terms are summed by ``local._total``.  CutoffTooSmall
    when the scaled tail breaks the accuracy contract.
    """
    eta = config.eta
    m = config.masses
    pref = _pref(config.dim, eta)
    q = 2.0 * config.dim + 4.0  # 8 in 2D, 10 in 3D
    _, perim, self_h1, _ = local._particles(config.dim, m)
    perim, self_h1 = local._total(perim), local._total(self_h1)
    self_sum, cross_sum, tail = parts
    if method == "ewald":
        a2 = config.radii**2
        regular_self = pref * (self_sum + (2.0 / q) * local._total(m**2 * a2))
        cross = pref * (cross_sum + (2.0 / q) * local._total(m * a2 * (local._total(m) - m)))
    else:
        regular_self = pref * self_sum - self_h1
        cross = pref * cross_sum
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
    violates the accuracy contract.  Whatever the method, a ``fourier_cutoff``
    that is not an integer (a bool is not one) or is below MIN_CUTOFF raises
    ValueError.
    """
    fourier_cutoff = check_integer("fourier_cutoff", fourier_cutoff, MIN_CUTOFF)
    if method == "ewald":
        return _breakdown(config, limits._second_order_parts(config, params))
    if method == "direct":
        return _breakdown(config, _pair_sums_direct(config, fourier_cutoff), method)
    raise ValueError("method must be 'ewald' or 'direct'")


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
    f0: float  # the ordered F0 (self + cross) from the parts the sweep is built on

    @property
    def etas(self) -> np.ndarray:
        return np.array([r.eta for r in self.rows])

    @property
    def quotients(self) -> np.ndarray:
        return np.array([r.quotient for r in self.rows])


def second_order_quotient(template, etas, params=None) -> ExpansionTable:
    """Second-order quotients of a ball-configuration family over a list of etas.

    3D: F_eta = eta^-1 [E_eta - sum_i ball(m_i)], the reference being the
    ball ansatz for each particle (flagged in ``reference_kind``).  2D:
    F_eta = |log eta| [E_eta - n e2d(m)], valid because the template is
    required to be an optimal equal partition, so the envelope of the total
    mass equals n e2d(m).  Those equalities hold in exact arithmetic; F_eta
    is computed from F0's parts plus the closed-form eta^2 term, as
    (regular self + cross) / pref of E_eta's breakdown, so no total is
    subtracted.  F0's parts come from one ``limits._second_order_parts``
    call at the Ewald parameters ``params``, and each E_eta is the
    ``sharp_energy`` total; each eta still builds its ``BallConfiguration``,
    whose checks reject balls that overlap or are too large.  The table
    carries F0 (self + ordered cross) from the same parts.  The sweep and
    its fits thus restate the mean-value identity through the same G: the
    independent evidence is the direct mode sum (``method='direct'``).
    """
    if not isinstance(template, limits.PointConfiguration):  # a BallConfiguration is one
        raise TypeError("template must be a BallConfiguration or PointConfiguration")

    if template.dim == 2:
        if not limits.equal_masses(template.masses):
            raise UnequalMasses2D("2D expansion template requires equal masses")
        report = limits.check_admissible(template)
        if not (report.is_optimal_partition and report.is_compact):
            raise InadmissibleConfiguration(
                "2D template is not an admissible limit configuration: "
                + "; ".join(report.detail))
        kind = "n * e2d(m) (optimal equal partition)"
    else:
        kind = "sum of ball-ansatz energies (upper bound for the true per-particle infimum)"
    reference = local._total(local._energies(template.dim, template.masses))

    parts = limits._second_order_parts(template, params)
    rows = []
    for eta in map(float, etas):
        bd = _breakdown(BallConfiguration(template.dim, eta,
                                          zip(template.masses, template.positions)), parts)
        q = (bd.regular_self_term + bd.cross_term) / _pref(template.dim, eta)
        rows.append(ExpansionRow(eta=eta, energy=bd.total, quotient=q))
    return ExpansionTable(rows=tuple(rows), reference=reference, reference_kind=kind,
                          f0=parts[0] + parts[1])


def richardson_extrapolate(etas, quotients) -> tuple[float, float]:
    """Least-squares fit of q = q0 + c * eta; returns (q0, c)."""
    etas = np.asarray(etas, dtype=float)
    q = np.asarray(quotients, dtype=float)
    if np.unique(etas).size < 2:  # one abscissa leaves the slope undetermined
        raise ValueError("extrapolation needs at least two distinct scales")
    A = np.stack([np.ones_like(etas), etas], axis=1)
    coef, *_ = np.linalg.lstsq(A, q, rcond=None)
    return float(coef[0]), float(coef[1])
