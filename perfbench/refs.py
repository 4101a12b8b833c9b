"""Reference computations for the benchmark's output checks, independent of oklim.

Nothing here imports oklim.  The periodic Green's function G of -Laplace on
the unit torus (zero mean), its gradient and the constant g(0) of its regular
part are plain Ewald sums with their own splitting parameter (ALPHA = 2.2,
not oklim's default sqrt(pi)) and their own cutoffs, chosen from analytic
tail bounds.  The closed forms below are the per-particle energies and the
ball mean-value identity for finite-scale energies of disjoint balls: the
regular part of G has constant Laplacian away from lattice points, so its
averages over disjoint ball pairs are point values plus (a^2 + b^2)/10 (3D)
or /8 (2D), and g(0) + a^2/5 resp. a^2/4 over one ball.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, exp1

ALPHA = 2.2
TAIL_TOL = 1e-16
_CHUNK_ELEMENTS = 1_000_000


def _real_kernel(dim, r, alpha):
    if dim == 3:
        return erfc(alpha * r) / (4 * math.pi * r)
    return exp1((alpha * r) ** 2) / (4 * math.pi)


def _real_tail(dim, alpha, cutoff):
    """Bound on the real-space terms outside the cube shell |n|_inf <= cutoff."""
    total = 0.0
    for j in range(cutoff + 1, cutoff + 40):
        count = 24 * j * j + 2 if dim == 3 else 8 * j
        total += count * float(_real_kernel(dim, j - math.sqrt(dim) / 2, alpha))
    return total


def _fourier_tail(dim, alpha, cutoff):
    """Bound on the reciprocal terms with |k| > cutoff (shells of unit width)."""
    total = 0.0
    for j in range(cutoff, cutoff + 60):
        count = (2 * j + 3) ** dim
        total += count * math.exp(-(math.pi * j / alpha) ** 2) / (4 * math.pi**2 * j * j)
    return total


class Ewald:
    """G, grad G and g(0) on the d-torus by the screened splitting at one alpha."""

    def __init__(self, dim, alpha=ALPHA, tol=TAIL_TOL):
        self.dim = dim
        self.alpha = alpha
        rc = 1
        while _real_tail(dim, alpha, rc) > tol:
            rc += 1
        kc = 1
        while _fourier_tail(dim, alpha, kc) > tol:
            kc += 1
        rng = np.arange(-rc, rc + 1, dtype=float)
        self.images = np.stack(
            [g.ravel() for g in np.meshgrid(*([rng] * dim), indexing="ij")], axis=-1)
        rng = np.arange(-kc, kc + 1, dtype=float)
        k = np.stack([g.ravel() for g in np.meshgrid(*([rng] * dim), indexing="ij")], axis=-1)
        k2 = np.sum(k * k, axis=1)
        keep = (k2 > 0) & (k2 <= kc * kc)
        self.k = k[keep]
        self.kcoef = (np.exp(-(math.pi**2) * k2[keep] / alpha**2)
                      / (4 * math.pi**2 * k2[keep]))
        self.background = -1.0 / (4 * alpha**2)

    def _chunks(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X = X - np.rint(X)
        step = max(1, _CHUNK_ELEMENTS // max(len(self.images), len(self.k)))
        for lo in range(0, len(X), step):
            yield lo, X[lo:lo + step]

    def G(self, X):
        """G at an (M, d) array of coordinate differences."""
        X = np.atleast_2d(X)
        out = np.empty(len(X))
        for lo, xb in self._chunks(X):
            r = np.linalg.norm(xb[:, None, :] + self.images[None, :, :], axis=2)
            real = np.sum(_real_kernel(self.dim, r, self.alpha), axis=1)
            four = np.cos(2 * math.pi * (xb @ self.k.T)) @ self.kcoef
            out[lo:lo + len(xb)] = real + four + self.background
        return out

    def grad(self, X):
        """grad G at an (M, d) array of coordinate differences."""
        X = np.atleast_2d(X)
        out = np.empty((len(X), self.dim))
        a = self.alpha
        for lo, xb in self._chunks(X):
            d = xb[:, None, :] + self.images[None, :, :]
            r = np.linalg.norm(d, axis=2)
            if self.dim == 3:
                dk = -(erfc(a * r) / r + 2 * a / math.sqrt(math.pi) * np.exp(-(a * r) ** 2)) / (
                    4 * math.pi * r)
            else:
                dk = -np.exp(-(a * r) ** 2) / (2 * math.pi * r)
            real = np.sum((dk / r)[:, :, None] * d, axis=1)
            sin = np.sin(2 * math.pi * (xb @ self.k.T))
            four = -(sin * self.kcoef) @ (2 * math.pi * self.k)
            out[lo:lo + len(xb)] = real + four
        return out

    def g0(self):
        """Regular part of G at the origin: lim G(x) - singular(x) as x -> 0."""
        a = self.alpha
        far = self.images[np.any(self.images != 0, axis=1)]
        lattice = float(np.sum(_real_kernel(self.dim, np.linalg.norm(far, axis=1), a)))
        if self.dim == 3:
            near = -a / (2 * math.pi**1.5)  # erfc(a r)/(4 pi r) - 1/(4 pi r) at r = 0
        else:
            near = -np.euler_gamma / (4 * math.pi) - math.log(a) / (2 * math.pi)
        return near + lattice + float(np.sum(self.kcoef)) + self.background


# ---------------------------------------------------------------------------
# per-particle closed forms
# ---------------------------------------------------------------------------

def ball_energy(m):
    """3D ball ansatz: perimeter 4 pi r^2 plus whole-space H^-1 energy 8 pi r^5 / 15."""
    r = (3.0 * m / (4 * math.pi)) ** (1.0 / 3.0)
    return 4 * math.pi * r * r + 8 * math.pi * r**5 / 15.0


def e2d(m):
    """2D per-particle energy m^2/(2 pi) + 2 sqrt(pi m)."""
    return m * m / (2 * math.pi) + 2.0 * math.sqrt(math.pi * m)


def f0(m):
    """Log self-interaction of the area-m disc, from its geometric mean distance a e^-1/4."""
    return m * m / (8 * math.pi) * (1.0 - 2.0 * math.log(m / math.pi))


def envelope_2d(M):
    """min over n >= 1 of n e2d(M/n).

    n e2d(M/n) >= 2 sqrt(pi M n), which grows without bound, so the scan can
    stop once that lower bound passes the best value found.
    """
    best = e2d(M)
    n = 1
    while 2.0 * math.sqrt(math.pi * M * (n + 1)) < best:
        n += 1
        best = min(best, n * e2d(M / n))
    return best


def radius(dim, m, eta):
    if dim == 3:
        return eta * (3.0 * m / (4 * math.pi)) ** (1.0 / 3.0)
    return eta * math.sqrt(m / math.pi)


# ---------------------------------------------------------------------------
# limit and finite-scale energies
# ---------------------------------------------------------------------------

def _cross_pairs(positions):
    x = np.asarray(positions, dtype=float)
    iu, ju = np.triu_indices(len(x), k=1)
    return iu, ju, x[iu] - x[ju]


def e0(dim, masses):
    """First-order limit energy: per-particle envelope (2D) or ball ansatz (3D)."""
    if dim == 2:
        return math.fsum(envelope_2d(m) for m in masses)
    return math.fsum(ball_energy(m) for m in masses)


def f0_energy(ewald, masses, positions):
    """Second-order limit energy, ordered pair convention (2D needs equal masses)."""
    m = np.asarray(masses, dtype=float)
    iu, ju, diffs = _cross_pairs(positions)
    cross = 2.0 * math.fsum(m[iu] * m[ju] * ewald.G(diffs))
    g0 = ewald.g0()
    if ewald.dim == 2:
        return math.fsum(f0(mi) + mi * mi * g0 for mi in m) + cross
    return g0 * math.fsum(m * m) + cross


def finite_scale_energy(ewald, eta, masses, positions):
    """Rescaled sharp-interface energy of disjoint balls, by the mean-value identity."""
    dim = ewald.dim
    m = np.asarray(masses, dtype=float)
    a = np.array([radius(dim, mi, eta) for mi in m])
    g0 = ewald.g0()
    iu, ju, diffs = _cross_pairs(positions)
    if dim == 3:
        pref = eta
        base = math.fsum(ball_energy(mi) for mi in m)
        self_part = math.fsum(m * m * (g0 + a * a / 5.0))
        pair_avg = ewald.G(diffs) + (a[iu] ** 2 + a[ju] ** 2) / 10.0
    else:
        pref = 1.0 / abs(math.log(eta))
        base = math.fsum(e2d(mi) for mi in m)
        self_part = math.fsum(f0(mi) + mi * mi * (g0 + ai * ai / 4.0) for mi, ai in zip(m, a))
        pair_avg = ewald.G(diffs) + (a[iu] ** 2 + a[ju] ** 2) / 8.0
    cross = 2.0 * math.fsum(m[iu] * m[ju] * pair_avg)
    return base + pref * (self_part + cross)


def interaction_energy(ewald, masses, positions):
    """sum over i != j of m_i m_j G(x_i - x_j)."""
    m = np.asarray(masses, dtype=float)
    iu, ju, diffs = _cross_pairs(positions)
    return 2.0 * math.fsum(m[iu] * m[ju] * ewald.G(diffs))


def interaction_gradient(ewald, masses, positions):
    """Gradient of interaction_energy with respect to every position."""
    m = np.asarray(masses, dtype=float)
    iu, ju, diffs = _cross_pairs(positions)
    w = (2.0 * m[iu] * m[ju])[:, None] * ewald.grad(diffs)
    out = np.zeros((len(m), ewald.dim))
    np.add.at(out, iu, w)
    np.add.at(out, ju, -w)
    return out


def square_lattice(dim, side):
    """The side^dim axis-aligned lattice arrangement on the unit torus."""
    axes = [np.arange(side) / side] * dim
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
