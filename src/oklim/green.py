"""Periodic Green's function of -Laplace on the unit flat torus, d = 2, 3.

G solves -lap G = delta - 1 with zero mean.  In 2D it is the Jacobi theta
form (Lin & Wang, Ann. Math. 172, 2010), with z = x + iy and q = e^-pi:

    G = -(1/2pi) log|theta1(pi z, q) / eta(i)| + y^2/2
      = -(1/2pi) [log 2 - pi/6 + log|sin pi z|
                  + sum_n log|1 - q^2n e^(2 pi i z)| |1 - q^2n e^(-2 pi i z)|] + y^2/2,

the constant set by the zero mean (Jensen's formula) and the product cut
after THETA_FACTORS pairs.  In 3D it is the Ewald sum, from one value kernel:
a short-range erfc lattice sum, a Gaussian-damped reciprocal sum and the
background constant -1/(4 alpha^2).  The regular part g, G minus -log|x|/2pi
or 1/(4pi|x|), stays smooth through x = 0: the 2D log is taken of
|sin pi z| / |x|; the 3D n = 0 lattice term is combined with the singular
part analytically.  Values are taken at |x| in the centered cell, where G is
even in each coordinate, and reduced row by row, so each value is
independent of its row in the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .errors import SingularPoint

SINGULAR_GUARD = 1e-9

_SQRT_PI = math.sqrt(math.pi)


def min_image(diff):
    """Reduce a coordinate difference into the centered cell [-1/2, 1/2]^d."""
    d = np.asarray(diff, dtype=float)
    return d - np.rint(d)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the unit flat torus; coordinates stored reduced to [0, 1)."""

    coords: tuple

    def __init__(self, coords):
        c = tuple(float(v) % 1.0 for v in coords)
        if len(c) not in (2, 3):
            raise ValueError(f"torus points are 2D or 3D, got {len(c)} coordinates")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def distance(self, other: "TorusPoint") -> float:
        """Min-image metric d(x, y) = min_k |x - y - k|, at most sqrt(d)/2."""
        return float(np.linalg.norm(min_image(self.array - other.array)))


def _theta_tail(factors):
    # for |y| <= 1/2 both a = q^2n e^(-+2 pi y) are <= e^(-pi (2n - 1)), and
    # |log|1 - a e^(it)|| <= -log(1 - a); the terms past n = factors + 40 are < 1e-100
    return sum(-math.log1p(-math.exp(-math.pi * (2 * n - 1)))
               for n in range(factors + 1, factors + 41)) / math.pi


#: Factor pairs kept in the 2D theta product: the fewest whose omitted tail is <= 1e-17.
THETA_FACTORS = next(n for n in range(1, 40) if _theta_tail(n) <= 1e-17)
_THETA_TAIL = _theta_tail(THETA_FACTORS)
# log a = -2 pi n -+ 2 pi y: the exponents of the two factor halves, n = 1..N
_LOG_Q2N = np.tile(-2 * math.pi * np.arange(1, THETA_FACTORS + 1), 2)
_HALF_SIGN = np.repeat([-2 * math.pi, 2 * math.pi], THETA_FACTORS)
_G0_2D = -(2 * math.lgamma(0.25) - math.log(2 * _SQRT_PI)) / (2 * math.pi)


def _theta_factors(x, y):
    """(a, cos 2 pi x, |sin pi z|) per row: a holds q^2n e^(-2 pi y), then q^2n e^(2 pi y)."""
    a = np.multiply.outer(y, _HALF_SIGN)
    a += _LOG_Q2N
    sine = np.hypot(np.sin(math.pi * x), np.sinh(math.pi * y))
    return np.exp(a, out=a), np.cos(2 * math.pi * x)[:, None], sine


def _theta_green(X, scale):
    """G at rows (x, y) >= 0 of the centered cell, with |sin pi z| divided by ``scale``."""
    x, y = X[:, 0], X[:, 1]
    a, c, sine = _theta_factors(x, y)
    bracket = (math.log(2.0) - math.pi / 6 + np.log(sine / scale)
               + 0.5 * np.log1p(a * (a - 2 * c)).sum(axis=1))
    return -bracket / (2 * math.pi) + 0.5 * y * y


def _theta_grad(X):
    """grad G at rows of the centered cell: the derivative of the real logs at |x|."""
    x, y = np.abs(X[:, 0]), np.abs(X[:, 1])
    a, c, sine = _theta_factors(x, y)
    den = 1.0 + a * (a - 2 * c)
    inv = 0.25 / sine**2
    da = a * (a - c) / den
    gx = -np.sin(2 * math.pi * x) * (inv + (a / den).sum(axis=1))
    gy = (-np.sinh(2 * math.pi * y) * inv
          + (da[:, :THETA_FACTORS] - da[:, THETA_FACTORS:]).sum(axis=1) + y)
    return np.sign(X) * np.stack([gx, gy], axis=1)


@dataclass(frozen=True)
class EwaldParameters:
    """Splitting parameter and shell cutoffs of the 3D screened lattice sums.

    Any two admissible parameter sets give the same G to ~1e-12; alpha is a
    pure identity parameter of the splitting.  2D uses none of them.
    """

    alpha: float
    real_cutoff: int
    fourier_cutoff: int

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.real_cutoff < 1 or self.fourier_cutoff < 1:
            raise ValueError("cutoffs must be positive integers")

    @classmethod
    def for_alpha(cls, alpha: float, tol: float = 1e-13) -> "EwaldParameters":
        """Choose the smallest shell cutoffs whose tail bounds are <= tol."""
        alpha = float(alpha)
        rc = 2
        while _real_tail_bound(alpha, rc) > tol and rc < 80:
            rc += 1
        fc = 2
        while _fourier_tail_bound(alpha, fc) > tol and fc < 200:
            fc += 1
        return cls(alpha=alpha, real_cutoff=rc, fourier_cutoff=fc)

    @classmethod
    @lru_cache(maxsize=None)
    def default(cls) -> "EwaldParameters":
        # cached: every params=None call resolves here, and for_alpha's shell
        # sums cost ~20 us, more than a small green_eval_many batch
        return cls.for_alpha(_SQRT_PI)


def _shell_sum(term, start):
    # stops once a shell's term falls below 1e-30 or 1e-17 of the sum: the terms
    # decay like a Gaussian from there on.  A sum whose terms have not fallen
    # that far within 2000 shells is not certified and is returned as inf.
    total = 0.0
    for j in range(start, start + 2000):
        t = term(j)
        total += t
        if t < 1e-30 or t <= 1e-17 * total:
            return total
    return math.inf


def _real_tail_bound(alpha, rc):
    # cube shells |n|_inf = j hold 24 j^2 + 2 sites, each at distance
    # r >= j - sqrt(3)/2 from every point of the centered cell
    def term(j):
        r = j - math.sqrt(3) / 2.0
        return (24 * j * j + 2) * math.erfc(alpha * r) / (4 * math.pi * r)
    return _shell_sum(term, rc + 1)


def _fourier_tail_bound(alpha, fc):
    # spherical shells j < |k| <= j + 1 hold at most 4 pi (j+1)^2 + 6 sites,
    # each with a coefficient below the one at |k| = j
    def term(j):
        cnt = 4 * math.pi * (j + 1) ** 2 + 6
        return cnt * math.exp(-(math.pi * j / alpha) ** 2) / (4 * math.pi**2 * j * j)
    return _shell_sum(term, fc)


def truncation_bound(dim, params=None) -> float:
    """Certified bound on the truncation error of one G evaluation.

    The omitted factors of the 2D theta product, or the 3D shells that the
    cutoffs of ``params`` omit, bounded uniformly over the centered cell; it
    bounds the error of g(0) as well.  A sum of m_i m_j G terms is then off
    by at most this bound times sum |m_i m_j|.
    """
    if dim == 2:
        return _THETA_TAIL
    params = _resolve(params)
    return (_real_tail_bound(params.alpha, params.real_cutoff)
            + _fourier_tail_bound(params.alpha, params.fourier_cutoff))


def _cube(c):
    r = np.arange(-c, c + 1, dtype=float)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


@lru_cache(maxsize=32)
def _tables(real_cutoff: int, fourier_cutoff: int):
    nvecs = _cube(real_cutoff)
    kvecs = _cube(fourier_cutoff)
    k2 = np.sum(kvecs**2, axis=1)
    keep = (k2 > 0) & (k2 <= fourier_cutoff**2)
    return nvecs, nvecs[np.any(nvecs != 0.0, axis=1)], kvecs[keep], k2[keep]


def _resolve(params):
    return params if params is not None else EwaldParameters.default()


def _coords(x, dim):
    arr = x.array if isinstance(x, TorusPoint) else np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"expected {dim} coordinates, got shape {arr.shape}")
    return arr


def _fourier_coef(params, k2):
    a2 = params.alpha**2
    return np.exp(-(math.pi**2) * k2 / a2) / (4 * math.pi**2 * k2)


def _cell(X, name):
    """Rows of X in the centered cell; SingularPoint within 1e-9 of a lattice point."""
    X = min_image(np.atleast_2d(np.asarray(X, dtype=float)))
    if (np.linalg.norm(X, axis=1) < SINGULAR_GUARD).any():
        raise SingularPoint(f"{name} at a lattice point (min-image distance < 1e-9)")
    return X


def _lattice_sum(X, params, images):
    """3D screened sum over ``images``, reciprocal sum and constant at rows x >= 0 of the cell."""
    _, _, kvecs, k2 = _tables(params.real_cutoff, params.fourier_cutoff)
    alpha = params.alpha
    kcoef = _fourier_coef(params, k2)

    out = np.empty(X.shape[0])
    chunk = max(1, int(4e6) // max(len(images), len(kvecs)))
    for lo in range(0, X.shape[0], chunk):
        xb = X[lo:lo + chunk]
        r = np.linalg.norm(xb[:, None, :] + images[None, :, :], axis=2)
        real = np.sum(erfc(alpha * r) / (4 * math.pi * r), axis=1)
        del r  # chunk-sized: free before the reciprocal temporary is made
        four = xb @ kvecs.T
        four *= 2 * math.pi
        np.cos(four, out=four)
        four *= kcoef  # reduced row by row: a matrix-vector product rounds by row position
        out[lo:lo + chunk] = real + four.sum(axis=1) - 1.0 / (4 * alpha**2)
        del four
    return out


def green_eval_many(dim, X, params=None):
    """G evaluated at an (M, d) array of coordinate differences."""
    X = np.abs(_cell(X, "green_eval"))
    if dim == 2:
        return _theta_green(X, 1.0)
    params = _resolve(params)
    return _lattice_sum(X, params, _tables(params.real_cutoff, params.fourier_cutoff)[0])


def green_eval(dim, x, params=None) -> float:
    """Zero-mean periodic Green's function G(x); x is a coordinate difference.

    Even in x and invariant under signed coordinate permutations.  Raises
    SingularPoint within 1e-9 of a lattice point, where G diverges.
    """
    return float(green_eval_many(dim, _coords(x, dim)[None, :], params)[0])


def green_grad_many(dim, X, params=None):
    """grad G at an (M, d) array of coordinate differences."""
    X = _cell(X, "green_grad")
    if dim == 2:
        return _theta_grad(X)
    params = _resolve(params)
    nvecs, _, kvecs, k2 = _tables(params.real_cutoff, params.fourier_cutoff)
    alpha = params.alpha
    kcoef = _fourier_coef(params, k2)

    out = np.empty_like(X)
    chunk = max(1, int(2e6) // max(len(nvecs), len(kvecs)))
    for lo in range(0, X.shape[0], chunk):
        xb = X[lo:lo + chunk]
        d = xb[:, None, :] + nvecs[None, :, :]
        r = np.linalg.norm(d, axis=2)
        w = (erfc(alpha * r) / r + (2 * alpha / _SQRT_PI) * np.exp(-(alpha * r) ** 2)) / (
            4 * math.pi * r * r)
        real = -np.sum(w[:, :, None] * d, axis=1)
        phase = 2 * math.pi * (xb @ kvecs.T)
        four = -(np.sin(phase) * kcoef[None, :]) @ (2 * math.pi * kvecs)
        out[lo:lo + chunk] = real + four
    return out


def green_grad(dim, x, params=None) -> np.ndarray:
    """Gradient of G; antisymmetric under x -> -x."""
    return green_grad_many(dim, _coords(x, dim)[None, :], params)[0]


def _g_smooth_n0(r, alpha):
    # 3D n = 0 lattice term with the singular part removed analytically
    if r < 1e-8:
        z = alpha * r
        return -(alpha / (2 * math.pi**1.5)) * (1.0 - z * z / 3.0)
    return -math.erf(alpha * r) / (4 * math.pi * r)


@lru_cache(maxsize=64)
def regular_part_at_zero(dim, params=None) -> float:
    """g(0), the regular part of G at the origin: the 2D closed form, or the 3D kernel.

    Cached per (dim, params); the cache is write-once and safe under
    concurrent first access.
    """
    return _G0_2D if dim == 2 else regular_part(3, np.zeros(3), params)


def regular_part(dim, x, params=None) -> float:
    """g(x) = G(x) - singular part, with the min-image radius.

    Continuous through x = 0 (returns g(0) there) and smooth on the cell: the
    singular part is divided out inside the 2D log, or combined analytically
    with the n = 0 screened term in 3D, instead of subtracted numerically.
    """
    x = np.abs(min_image(_coords(x, dim)))[None, :]
    r = float(np.linalg.norm(x))
    if dim == 2:
        return _G0_2D if r == 0.0 else float(_theta_green(x, r)[0])
    params = _resolve(params)
    nonzero = _tables(params.real_cutoff, params.fourier_cutoff)[1]
    return _g_smooth_n0(r, params.alpha) + float(_lattice_sum(x, params, nonzero)[0])
