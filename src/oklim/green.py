"""Periodic Green's function of -Laplace on the unit flat torus, d = 2, 3.

G solves -lap G = delta - 1 with zero mean.  Evaluation uses the classical
screened splitting: a short-range lattice sum (complementary error function
kernel in 3D, exponential-integral kernel in 2D), a Gaussian-damped
reciprocal sum, and the neutralizing-background constant -1/(4 alpha^2).
Both sums converge like exp(-c s^2) in their cutoff shells, so modest
cutoffs certify ~1e-13 tails on the unit cell.

One value kernel computes the sums and the constant; G is the kernel over
all images.  The regular part g, G minus the singular part (-log|x|/2pi in
2D, 1/(4pi|x|) in 3D), is the n = 0 lattice term with the singular piece
removed analytically, which keeps g smooth through x = 0, plus the kernel
over the nonzero images; g(0) is g at the origin.  The kernel evaluates at
|x| in the centered cell, where G is even in each coordinate, and reduces
row by row, so each value is independent of its row in the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, exp1

from ._special import e1_plus_log
from .errors import SingularPoint

SINGULAR_GUARD = 1e-9

_SQRT_PI = math.sqrt(math.pi)


def reduce_unit(coords):
    """Reduce coordinates modulo 1 into [0, 1)."""
    return np.asarray(coords, dtype=float) % 1.0


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


@dataclass(frozen=True)
class EwaldParameters:
    """Splitting parameter and shell cutoffs of the screened lattice sums.

    Any two admissible parameter sets give the same G to ~1e-12; alpha is a
    pure identity parameter of the splitting.
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
        """Choose the smallest shell cutoffs whose 3D tail bounds are <= tol.

        The 3D bounds exceed the 2D ones at every alpha whose cutoffs stay
        below the caps; ``truncation_bound`` reports each dimension's own.
        """
        alpha = float(alpha)
        rc = 2
        while _real_tail_bound(3, alpha, rc) > tol and rc < 80:
            rc += 1
        fc = 2
        while _fourier_tail_bound(3, alpha, fc) > tol and fc < 200:
            fc += 1
        return cls(alpha=alpha, real_cutoff=rc, fourier_cutoff=fc)

    @classmethod
    @lru_cache(maxsize=None)
    def default(cls) -> "EwaldParameters":
        # cached: every params=None call resolves here, and for_alpha's shell
        # sums cost ~20 us, more than a small green_eval_many batch
        return cls.for_alpha(_SQRT_PI)


# Each tail sum stops once a shell's term falls below 1e-30 or 1e-17 of the
# sum, whichever is larger: the terms decay like a Gaussian from there on, so
# the rest is negligible.  A sum whose terms have not fallen that far within
# 2000 shells is not certified and is returned as inf.
_MAX_SHELLS = 2000


def _real_tail_bound(dim, alpha, rc):
    # cube shells |n|_inf = j hold 24 j^2 + 2 (3D) or 8 j (2D) sites, each at
    # distance >= j - sqrt(d)/2 from every point of the centered cell
    half_diag = math.sqrt(dim) / 2.0
    total = 0.0
    for j in range(rc + 1, rc + 1 + _MAX_SHELLS):
        r = j - half_diag
        if dim == 3:
            term = (24 * j * j + 2) * math.erfc(alpha * r) / (4 * math.pi * r)
        else:
            term = 8 * j * float(exp1((alpha * r) ** 2)) / (4 * math.pi)
        total += term
        if term < 1e-30 or term <= 1e-17 * total:
            return total
    return math.inf


def _fourier_tail_bound(dim, alpha, fc):
    # spherical shells j < |k| <= j + 1 hold at most 4 pi (j+1)^2 + 6 (3D) or
    # 2 pi (j+1) + 6 (2D) sites, each with a coefficient below the one at |k| = j
    total = 0.0
    for j in range(fc, fc + _MAX_SHELLS):
        cnt = 4 * math.pi * (j + 1) ** 2 + 6 if dim == 3 else 2 * math.pi * (j + 1) + 6
        term = cnt * math.exp(-(math.pi * j / alpha) ** 2) / (4 * math.pi**2 * j * j)
        total += term
        if term < 1e-30 or term <= 1e-17 * total:
            return total
    return math.inf


def truncation_bound(dim, params=None) -> float:
    """Certified bound on the truncation error of one G evaluation.

    The sum of the real-space and reciprocal shells that the cutoffs of
    ``params`` omit, bounded uniformly over the centered cell; it bounds the
    error of g(0) as well.  A sum of m_i m_j G terms is then off by at most
    this bound times sum |m_i m_j|.
    """
    params = _resolve(params)
    return (_real_tail_bound(dim, params.alpha, params.real_cutoff)
            + _fourier_tail_bound(dim, params.alpha, params.fourier_cutoff))


@lru_cache(maxsize=32)
def _tables(dim: int, real_cutoff: int, fourier_cutoff: int):
    rng = np.arange(-real_cutoff, real_cutoff + 1)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    nvecs = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    nonzero = nvecs[np.any(nvecs != 0.0, axis=1)]

    rng_k = np.arange(-fourier_cutoff, fourier_cutoff + 1)
    gk = np.meshgrid(*([rng_k] * dim), indexing="ij")
    kvecs = np.stack([g.ravel() for g in gk], axis=-1).astype(float)
    k2 = np.sum(kvecs**2, axis=1)
    keep = (k2 > 0) & (k2 <= fourier_cutoff**2)
    kvecs = kvecs[keep]
    k2 = k2[keep]
    return nvecs, nonzero, kvecs, k2


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


def _guard(r, name):
    if np.any(r < SINGULAR_GUARD):
        raise SingularPoint(f"{name} at a lattice point (min-image distance < 1e-9)")


def _lattice_sum(dim, X, params, images):
    """Screened sum over ``images``, reciprocal sum and constant at |x| for each row x of X."""
    _, _, kvecs, k2 = _tables(dim, params.real_cutoff, params.fourier_cutoff)
    X = np.abs(min_image(np.atleast_2d(np.asarray(X, dtype=float))))
    alpha = params.alpha
    kcoef = _fourier_coef(params, k2)

    out = np.empty(X.shape[0])
    chunk = max(1, int(4e6) // max(len(images), len(kvecs)))
    for lo in range(0, X.shape[0], chunk):
        xb = X[lo:lo + chunk]
        r = np.linalg.norm(xb[:, None, :] + images[None, :, :], axis=2)
        _guard(r, "green_eval")
        if dim == 3:
            real = np.sum(erfc(alpha * r) / (4 * math.pi * r), axis=1)
        else:
            real = np.sum(exp1((alpha * r) ** 2) / (4 * math.pi), axis=1)
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
    params = _resolve(params)
    images = _tables(dim, params.real_cutoff, params.fourier_cutoff)[0]
    return _lattice_sum(dim, X, params, images)


def green_eval(dim, x, params=None) -> float:
    """Zero-mean periodic Green's function G(x); x is a coordinate difference.

    Even in x and invariant under signed coordinate permutations.  Raises
    SingularPoint within 1e-9 of a lattice point, where G diverges.
    """
    return float(green_eval_many(dim, _coords(x, dim)[None, :], params)[0])


def green_grad_many(dim, X, params=None):
    """grad G at an (M, d) array of coordinate differences."""
    params = _resolve(params)
    nvecs, _, kvecs, k2 = _tables(dim, params.real_cutoff, params.fourier_cutoff)
    X = min_image(np.atleast_2d(np.asarray(X, dtype=float)))
    alpha = params.alpha
    kcoef = _fourier_coef(params, k2)

    out = np.empty_like(X)
    chunk = max(1, int(2e6) // max(len(nvecs), len(kvecs)))
    for lo in range(0, X.shape[0], chunk):
        xb = X[lo:lo + chunk]
        d = xb[:, None, :] + nvecs[None, :, :]
        r = np.linalg.norm(d, axis=2)
        _guard(r, "green_grad")
        if dim == 3:
            w = (erfc(alpha * r) / r + (2 * alpha / _SQRT_PI) * np.exp(-(alpha * r) ** 2)) / (
                4 * math.pi * r * r)
        else:
            w = np.exp(-(alpha * r) ** 2) / (2 * math.pi * r * r)
        real = -np.sum(w[:, :, None] * d, axis=1)
        phase = 2 * math.pi * (xb @ kvecs.T)
        four = -(np.sin(phase) * kcoef[None, :]) @ (2 * math.pi * kvecs)
        out[lo:lo + chunk] = real + four
    return out


def green_grad(dim, x, params=None) -> np.ndarray:
    """Gradient of G; antisymmetric under x -> -x."""
    return green_grad_many(dim, _coords(x, dim)[None, :], params)[0]


def _g_smooth_n0(dim, r, alpha):
    # n = 0 lattice term with the singular part removed analytically
    if dim == 3:
        if r < 1e-8:
            z = alpha * r
            return -(alpha / (2 * math.pi**1.5)) * (1.0 - z * z / 3.0)
        return -math.erf(alpha * r) / (4 * math.pi * r)
    return float(e1_plus_log((alpha * r) ** 2)) / (4 * math.pi) - math.log(alpha) / (2 * math.pi)


@lru_cache(maxsize=64)
def _regular_part_at_zero_cached(dim, params):
    return regular_part(dim, np.zeros(dim), params)


def regular_part_at_zero(dim, params=None) -> float:
    """g(0), the regular part of G at the origin.

    Cached per (dim, params); the cache is write-once and safe under
    concurrent first access.
    """
    return _regular_part_at_zero_cached(dim, _resolve(params))


def regular_part(dim, x, params=None) -> float:
    """g(x) = G(x) - singular part, with the min-image radius.

    Continuous through x = 0 (returns g(0) there) and smooth on the cell:
    the n = 0 screened term and the singular part are combined analytically
    instead of subtracted numerically.
    """
    params = _resolve(params)
    x = _coords(x, dim)
    nonzero = _tables(dim, params.real_cutoff, params.fourier_cutoff)[1]
    r = float(np.linalg.norm(min_image(x)))
    return _g_smooth_n0(dim, r, params.alpha) + float(_lattice_sum(dim, x, params, nonzero)[0])


def singular_part(dim, r: float) -> float:
    """The free-space singular part: -log(r)/(2 pi) in 2D, 1/(4 pi r) in 3D."""
    if dim == 3:
        return 1.0 / (4 * math.pi * r)
    return -math.log(r) / (2 * math.pi)
