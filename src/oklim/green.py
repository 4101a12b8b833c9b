"""Periodic Green's function of -Laplace on the unit flat torus, d = 2, 3.

G solves -lap G = delta - 1 with zero mean.  In 2D it is the Jacobi theta
form (Lin & Wang, Ann. Math. 172, 2010), with z = x + iy, w = pi z and
q = e^-pi:

    G = -(1/2pi) log|theta1(w, q) / eta(i)| + y^2/2
      = -(1/2pi) [log 2 - pi/4 - log eta(i) + log|sin w| + log|B|] + y^2/2,

where B = theta1(w) / (2 q^(1/4) sin w) = sum_n (-1)^n q^(n(n+1)) U_2n(cos w)
is the Fourier series of theta1 (DLMF 20.2.1) over the Chebyshev
polynomials U_2n, a polynomial in cos^2 w cut after THETA_TERMS terms.  In
3D it is the Ewald sum: a short-range erfc image sum, a Gaussian-damped
reciprocal sum and the background constant -1/(4 alpha^2).

Every evaluation is one split (Ewald, Ann. Phys. 369, 1921; Essmann et al.,
J. Chem. Phys. 103, 1995): G = per-pair part + long-range part.
``_pair_part`` is the whole theta form in 2D and the 3D image sum.  The
3D image sum is taken at |x| in [0, 1/2]^3 over the images n in o(c)^3,
c = real_cutoff offsets per axis, o(c) = {-floor(c/2), ..., ceil(c/2) - 1}:
growing c to c + 1 adds the offset ceil(c/2) or -floor(c/2) - 1, each at
distance >= c/2 from |x|, so the omitted tail is at most
sum_{L >= c} ((L+1)^3 - L^3) erfc(alpha L / 2) / (2 pi L); its gradient is
sign(x) times the gradient at |x|.  The long-range part is zero in 2D; in
3D it is the reciprocal sum and the background over one k-space, the octant
k >= 0: c_k is even in each coordinate of k, so each octant entry stands
for the mu(k) = 2^(nonzero coordinates) vectors its sign flips give.  Its
weights mu c_k are ``_structure_weights``, and the real per-axis tables of
``_trig_tables`` hold cos and sin of 2 pi k x_d, with no trig per k-vector.
``_long_range`` contracts them per point; ``_set_long_range`` forms from them
the eight real sums over particles that replace the structure factor S(k)
of the pair sum sum_{i != j} m_i m_j G of n particles, so that sum costs
O(pairs * images + n * K) rather than O(pairs * (images + K)), with real
matrix products whose bits do not depend on the BLAS thread count.  Without
explicit parameters, alpha is chosen from n among PAIR_SUM_ALPHAS (2.75 up
to n = 13, 5.5 up to 209, 10.7 above), and a per-point G takes the choice
for one pair, n = 2.
Each part has its gradient; ``_pair_part`` and ``_set_long_range`` form
it together with the value, from one set of shared factors.  The regular
part g, G minus -log|x|/2pi or 1/(4pi|x|), stays smooth through x = 0: the
2D log is taken of |sin pi z| / |x|; the 3D n = 0 image term is combined
with the singular part analytically.  Values are taken at |x| in the
centered cell, where G is even in each coordinate, and reduced row by row,
so each value is independent of its row in the batch.  The pair sum's
rows arrive as the (M, d) transpose of a coordinate-major (d, M) array
(``limits._pairs``), so each X[:, k] is contiguous; the 2D kernel's
temporaries are (M,) rows, real but for cos^2 w and the cubics in it.
Non-finite coordinates raise ValueError before the reduction to the cell,
which would make them NaN; so do a ``dim`` other than 2 or 3 and rows
without ``dim`` coordinates, at every entry point (``_check_dim``).

scipy.special's erfc is imported inside ``_real_space``, once per call, and
not at module level: the 3D image sum is its only user, and a module-level
import would load scipy on ``import oklim`` and on every 2D command, where it
is most of a cold start.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import SingularPoint

SINGULAR_GUARD = 1e-9
_TAIL_TOL = 1e-13  # for_alpha's bound on the certified tail of each of its two shell sums
_MAX_REAL_CUTOFF = 161  # for_alpha's cap on the image offsets per axis: at most 161^3 images

_SQRT_PI = math.sqrt(math.pi)


def min_image(diff):
    """Reduce a coordinate difference into the centered cell [-1/2, 1/2]^d."""
    d = np.asarray(diff, dtype=float)
    return d - np.rint(d)


def _theta_tail(terms):
    # for |y| <= 1/2, |U_2n(cos w)| <= (2n + 1) e^(n pi), so with r_n = (2n + 1) e^(-pi n^2)
    # the terms of B from n = terms on sum to at most sum_{n >= terms} r_n, and B and its
    # partial sums stay >= 1 - sum_{n >= 1} r_n > 0.87 in modulus; r_n past terms + 40 is 0
    r = [(2 * n + 1) * math.exp(-math.pi * n * n) for n in range(terms + 41)]
    return -math.log1p(-sum(r[terms:]) / (1.0 - sum(r[1:]))) / (2 * math.pi)


#: Terms kept in the 2D theta series: the fewest whose omitted tail is <= 1e-17 (four).
THETA_TERMS = next(n for n in range(1, 40) if _theta_tail(n) <= 1e-17)
_THETA_TAIL = _theta_tail(THETA_TERMS)
# U_0, U_2, U_4, U_6 of cos w in powers of C = cos^2 w, from U_2n+2 = (4C - 2) U_2n - U_2n-2
_U = np.array([[1, 0, 0, 0], [-1, 4, 0, 0], [1, -12, 16, 0], [-1, 24, -80, 64]])
# the cubics in C of B = theta1(w) / (2 q^(1/4) sin w) = sum_n (-1)^n q^(n(n+1)) U_2n and of
# -D / 2, D = theta1'(w) / (2 q^(1/4) cos w) = B - 2 (1 - C) dB/dC, lowest power first
_B = ([(-1) ** n * math.exp(-math.pi * n * (n + 1)) for n in range(THETA_TERMS)]
      @ _U[:THETA_TERMS]).tolist()
_D = [(k + 1) * bn - (k + 0.5) * bk for k, (bk, bn) in enumerate(zip(_B, _B[1:] + [0.0]))]
# log 2 - pi/4 - log eta(i), eta(i) = Gamma(1/4) / (2 pi^(3/4)), correctly rounded from
# mpmath at 40 digits: 2*log(2) - pi/4 - log(gamma(1/4)) + 3/4*log(pi).  Its terms cancel
# to 0.17, so summing them in floating point lands 10 ulps off, an offset that a pair
# sum adds once per pair.
_LOG_CONST = 0.17142108741141499
# g(0) = -(2*log(gamma(1/4)) - log(2*sqrt(pi))) / (2*pi), correctly rounded from mpmath
_G0_2D = -0.2085777932435014


def _theta_green(X, scale, gradient=False):
    """G at rows (x, y) of the centered cell, with |sin w| divided by ``scale``.

    With w = pi z, C = cos^2 w and the cubics B, D of the theta series:
    G = -(1/2pi) [log 2 - pi/4 - log eta(i) + log|sin w| + log|B(C)|] + y^2/2,
    from the real sin, cos and sinh of pi x and pi y (cosh = sqrt(1 + sinh^2)),
    complex only for C, B and D.  With ``gradient``, (G, grad G) at signed
    rows, the gradient at |x| times sign(x): F = d/dz log theta1(w) =
    pi cot w D(C) / B(C), d/dx G = -Re F / 2pi and d/dy G = Im F / 2pi + y.
    The kernel takes conj(C), so B, D and cot w come conjugated, and
    -conj(F) / 2pi = (d/dx G, d/dy G - y) as a complex number.
    """
    px, py = math.pi * np.abs(X).T
    s, c, sh = np.sin(px), np.cos(px), np.sinh(py)
    sh2 = sh * sh
    ch = np.sqrt(1.0 + sh2)
    sine2 = s * s + sh2  # |sin w|^2
    cos2 = (c * ch + 1j * (s * sh)) ** 2  # conj(cos w)^2
    b = ((_B[3] * cos2 + _B[2]) * cos2 + _B[1]) * cos2 + _B[0]
    log = np.log(np.sqrt(sine2) * np.abs(b) / scale)
    value = (py * py / math.pi - log) / (2 * math.pi) - _LOG_CONST / (2 * math.pi)
    if not gradient:
        return value
    d = ((_D[3] * cos2 + _D[2]) * cos2 + _D[1]) * cos2 + _D[0]  # -conj(D) / 2
    grad = (s * c + 1j * (sh * ch)) * d / (b * sine2)  # -conj(F) / 2pi
    grad.imag += py / math.pi
    return value, np.sign(X) * grad.view(float).reshape(-1, 2)


@dataclass(frozen=True)
class EwaldParameters:
    """Splitting parameter and cutoffs of the 3D screened lattice sums.

    real_cutoff is c, the image offsets per axis: the image sum runs over
    o(c)^3 with o(c) = {-floor(c/2), ..., ceil(c/2) - 1}, c^3 images at |x|
    (odd c is the centred cube of radius (c - 1)/2).  fourier_cutoff bounds
    |k|.  Any two admissible parameter sets give the same G to ~1e-12; alpha
    is a pure identity parameter of the splitting.  2D uses none of them.
    """

    alpha: float
    real_cutoff: int
    fourier_cutoff: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.real_cutoff < 1 or self.fourier_cutoff < 1:
            raise ValueError("cutoffs must be positive integers")

    @classmethod
    def for_alpha(cls, alpha: float) -> "EwaldParameters":
        """Choose the smallest cutoffs whose tail bounds are <= _TAIL_TOL (c at most 161)."""
        alpha = _check_alpha(float(alpha))  # before the shell sums, which a bad alpha makes slow
        rc = 1
        while _real_tail_bound(alpha, rc) > _TAIL_TOL and rc < _MAX_REAL_CUTOFF:
            rc += 1
        fc = 2
        while _fourier_tail_bound(alpha, fc) > _TAIL_TOL and fc < 200:
            fc += 1
        return cls(alpha=alpha, real_cutoff=rc, fourier_cutoff=fc)

    @classmethod
    def for_count(cls, n: int) -> "EwaldParameters":
        """The PAIR_SUM_ALPHAS parameters of an n-particle pair sum.

        Every 3D evaluation without explicit parameters runs these: a pair
        sum with its n, and a per-point G, grad G, g, g(0) or truncation
        bound with n = 2, the parameters of a one-pair sum.  A small alpha
        suits few particles (few k entries per particle), a large one many
        (few images per pair).
        """
        return _pair_sum_params(bisect.bisect_left(_PAIR_SUM_COUNTS, n))


def _check_alpha(alpha):
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


#: Splitting parameters of every 3D G without explicit parameters, chosen
#: from the particle count n (2 for a per-point G): 2.75 (64 images,
#: fourier_cutoff 5; n <= 13), 5.5 (8, 10; n <= 209) and 10.7 (the origin
#: image alone, 19).  Each certifies its image count at the fewest k and lies
#: near the alpha of least certified tail, a little below it for 10.7, since
#: g(0)'s Fourier truncation enters every self term with one sign; at
#: for_alpha's cutoffs (_TAIL_TOL per shell sum) each certifies a total tail
#: <= 1e-13.
PAIR_SUM_ALPHAS = (2.75, 5.5, 10.7)
# the largest n of the first two alphas, from an operation count on an earlier k-space layout:
# past it the images of the pairs (pairs * c^3) cost more than the next alpha's k-space
_PAIR_SUM_COUNTS = (13, 209)


@lru_cache(maxsize=None)
def _pair_sum_params(i):
    # for_alpha's cutoffs of PAIR_SUM_ALPHAS[i], found on the first 3D G that needs them
    return EwaldParameters.for_alpha(PAIR_SUM_ALPHAS[i])


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
    # growing the image set from L to L + 1 offsets per axis adds (L+1)^3 - L^3
    # images, each at distance |x + n| >= L/2 from every |x| in [0, 1/2]^3
    def term(L):
        return ((L + 1)**3 - L**3) * math.erfc(alpha * L / 2) / (2 * math.pi * L)
    return _shell_sum(term, rc)


def _fourier_tail_bound(alpha, fc):
    # spherical shells j < |k| <= j + 1 hold at most 4 pi (j+1)^2 + 6 sites,
    # each with a coefficient below the one at |k| = j
    def term(j):
        cnt = 4 * math.pi * (j + 1) ** 2 + 6
        z = math.pi * j / alpha  # z * z, unlike z ** 2, gives inf rather than OverflowError
        return cnt * math.exp(-z * z) / (4 * math.pi**2 * j * j)
    return _shell_sum(term, fc)


def truncation_bound(dim, params=None) -> float:
    """Certified bound on the truncation error of one G evaluation.

    The omitted terms of the 2D theta series, or the 3D shells that the
    cutoffs of ``params`` omit, bounded uniformly over the centered cell; it
    bounds the error of g(0) as well.  A sum of m_i m_j G terms is then off
    by at most this bound times sum |m_i m_j|.
    """
    _check_dim(dim)
    if dim == 2:
        return _THETA_TAIL
    params = _resolve(params)
    return (_real_tail_bound(params.alpha, params.real_cutoff)
            + _fourier_tail_bound(params.alpha, params.fourier_cutoff))


def _offsets(c):
    """o(c), the c integers -floor(c/2) .. ceil(c/2) - 1: the image offsets of one axis."""
    return np.arange(-(c // 2), (c + 1) // 2, dtype=float)


@lru_cache(maxsize=32)
def _images(c):
    """The c^3 integer vectors of o(c)^3 in lexicographic order, read-only."""
    r = _offsets(c)
    cube = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    cube.flags.writeable = False
    return cube


def _resolve(params, n=2):
    """``params``, or the PAIR_SUM_ALPHAS parameters of an n-particle pair sum.

    The one policy for ``params=None``: a per-point G is a one-pair sum, n = 2.
    """
    return params if params is not None else EwaldParameters.for_count(n)


def _coords(x, dim):
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"expected {dim} coordinates, got shape {arr.shape}")
    return arr


def _check_dim(dim, X=None, name="positions"):
    """X as an (M, dim) array; ValueError unless dim is 2 or 3 and rows hold dim finite floats.

    The one check of ``dim`` and of coordinate rows; a non-finite coordinate
    would turn NaN in the reduction to a cell.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    if X is None:
        return None
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"{name} needs {dim} coordinates per row, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} needs finite coordinates, got {X[~np.isfinite(X)][0]}")
    return X


def _cell(dim, X, name, guard=True):
    """Rows of X, checked by ``_check_dim``, in the centered cell.

    With ``guard``, SingularPoint within 1e-9 of a lattice point.
    """
    X = min_image(_check_dim(dim, X, name))
    if guard and (np.linalg.norm(X, axis=1) < SINGULAR_GUARD).any():
        raise SingularPoint(f"{name} at a lattice point (min-image distance < 1e-9)")
    return X


# elements per chunk of every (rows x images), (rows x k-vectors) and (k-vectors x particles)
# temporary
_CHUNK = 1_000_000


def _by_rows(rows, X, columns, out):
    """out = rows(X) over chunks of rows, with rows * columns <= _CHUNK per chunk."""
    step = max(1, _CHUNK // columns)
    for lo in range(0, len(X), step):
        out[lo:lo + step] = rows(X[lo:lo + step])
    return out


def _image_distances(X, rc):
    """|x + n| over the images n of o(rc)^3, a row per x, in ``_images(rc)`` order.

    The image set is a product of the offsets o(rc) per axis, so |x + n|^2 is
    built from the (rows, 3, rc) squared per-axis terms instead of (rows, images, 3).
    """
    sq = X[:, :, None] + _offsets(rc)
    sq *= sq
    r2 = sq[:, 0, :, None, None] + sq[:, 1, None, :, None]
    r2 = r2 + sq[:, 2, None, None, :]
    return np.sqrt(r2.reshape(len(X), -1))


def _real_space(X, alpha, rc, origin=True, gradient=False):
    """Screened image sum per row |x|: sum_n erfc(alpha r) / (4 pi r), r = |x + n|, n in o(rc)^3.

    ``origin=False`` leaves out the image n = 0.  With ``gradient``, an
    (M, 4) array at signed rows x from one set of image distances and erfc
    terms: the value, then its gradient sign(x) * -sum_n w(r) (|x| + n),
    r = ||x| + n|.
    """
    from scipy.special import erfc  # here, not at module level: see the module docstring

    def rows(x):
        a = np.abs(x) if gradient else x
        r = _image_distances(a, rc)
        if not origin:
            r = np.delete(r, (rc // 2) * (rc * rc + rc + 1), axis=1)  # n = 0 in ``_images(rc)``
        f = erfc(alpha * r) / r
        if not gradient:
            return f.sum(axis=1)
        w = (f + (2 * alpha / _SQRT_PI) * np.exp(-(alpha * r) ** 2)) / (r * r)
        out = np.empty((len(x), 4))
        out[:, 0] = f.sum(axis=1)
        # one (1, images) @ (images, 3) product per row: a matrix product over all
        # rows would round each row by its place in the batch
        out[:, 1:] = -np.sign(x) * (a * w.sum(axis=1)[:, None]
                                    + (w[:, None, :] @ _images(rc))[:, 0])
        return out
    out = np.empty((len(X), 4) if gradient else len(X))
    return _by_rows(rows, X, rc**3, out) / (4 * math.pi)


def _pair_part(dim, X, params, gradient=False):
    """The per-pair part of G at rows |x|, or (G, grad G) at rows x, of the centered cell.

    2D: the whole theta-form G.  3D: the screened image sum of ``_real_space``.
    """
    if dim == 2:
        return _theta_green(X, 1.0, gradient)
    out = _real_space(X, params.alpha, params.real_cutoff, gradient=gradient)
    return (out[:, 0], out[:, 1:]) if gradient else out


@lru_cache(maxsize=32)
def _structure_weights(params):
    """mu(k) c_k over the octant 0 <= k1, k2, k3 <= fc, as a read-only (F, F, F) array, F = fc + 1.

    c_k = e^(-pi^2 |k|^2 / alpha^2) / (4 pi^2 |k|^2), zero at k = 0 and outside
    |k| <= fc; mu(k) = 2^(number of nonzero coordinates of k) counts the sign
    flips of k that the entry stands for.  Symmetric in its three axes.
    """
    fc = params.fourier_cutoff
    k = np.arange(fc + 1, dtype=float)
    ksq = k[:, None, None]**2 + k[:, None]**2 + k**2
    keep = (ksq > 0) & (ksq <= fc * fc)
    ksq = np.where(keep, ksq, 1.0)
    nonzero = (k > 0).astype(int)
    mu = 2.0 ** (nonzero[:, None, None] + nonzero[:, None] + nonzero)
    w = np.where(keep, mu * np.exp(-(math.pi**2) * ksq / params.alpha**2) / (4 * math.pi**2 * ksq),
                 0.0)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=32)
def _wavenumbers(F):
    """2 pi k for k = 0..F-1, and the (2, F) coefficients [-k, k] of the derivative tables.

    Both read-only.
    """
    k = np.arange(F, dtype=float)
    out = (2 * math.pi) * k, np.stack([-k, k])
    for a in out:
        a.flags.writeable = False
    return out


def _trig_tables(positions, F, gradient=False):
    """The per-axis tables P_d = [cos, sin](2 pi k x_jd), k = 0..F-1, as a (1, 3, n, 2F) array.

    ``[0, d, j, :F]`` is the cos table and ``[0, d, j, F:]`` the sin table.
    With ``gradient``, (2, 3, n, 2F): the derivative tables
    D_d = dP_d/dx_d / 2 pi = [-k sin, k cos] follow, P_d with its parities
    swapped and scaled by -k and k.
    """
    two_pi_k, kk = _wavenumbers(F)
    phase = positions.T[:, :, None] * two_pi_k
    out = np.empty((1 + gradient, *phase.shape[:2], 2, F))
    np.cos(phase, out=out[0, :, :, 0])
    np.sin(phase, out=out[0, :, :, 1])
    if gradient:
        np.multiply(out[0, :, :, ::-1], kk, out=out[1])
    return out.reshape(1 + gradient, *phase.shape[:2], 2 * F)


def _long_range(dim, X, params, gradient=False):
    """The per-point long-range part of G at rows |x|, or of grad G at rows x: zero in 2D.

    3D: the reciprocal sum sum_{k != 0} c_k cos(2 pi k.x) minus the background
    1/(4 alpha^2), or its gradient, over the octant weights w of
    ``_structure_weights`` and the tables of ``_trig_tables``.  The sign
    flips of k turn cos(2 pi k.x) into mu(k) C_1 C_2 C_3, the cos.cos.cos
    parity of the structure factor (C = cos, D = -k sin per axis):
    sum w C_1 C_2 C_3 and 2 pi sum w (D_1 C_2 C_3, C_1 D_2 C_3, C_1 C_2 D_3),
    contracted one axis at a time by einsum, which reduces every row in the
    same order (a matrix product rounds by row position).
    """
    if dim == 2:
        return 0.0
    F = params.fourier_cutoff + 1
    w = _structure_weights(params)  # symmetric, so its last axis may stand for k1

    def rows(x):
        tables = _trig_tables(x, F, gradient)[..., :F]
        c1, c2, c3 = tables[0]
        t = np.einsum("bca,ja->jbc", w, c1)  # the k1 sums, (rows, F, F)
        if not gradient:
            return np.einsum("jbc,jb,jc->j", t, c2, c3)
        d1, d2, d3 = tables[1]
        g = np.empty((len(x), 3))
        g[:, 0] = np.einsum("jbc,jb,jc->j", np.einsum("bca,ja->jbc", w, d1), c2, c3)
        g[:, 1] = np.einsum("jbc,jb,jc->j", t, d2, c3)
        g[:, 2] = np.einsum("jbc,jb,jc->j", t, c2, d3)
        return (2 * math.pi) * g
    if gradient:
        return _by_rows(rows, X, 2 * F * F, np.empty_like(X))
    return _by_rows(rows, X, F * F, np.empty(len(X))) - 1.0 / (4 * params.alpha**2)


# m * k * n of the largest matrix product that OpenBLAS's gemm runs on one thread:
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 in its interface/gemm.c
_SERIAL_PRODUCT = 1 << 18


def _serial_matmul(a, b):
    """a @ b, in blocks of the rows of a that BLAS multiplies on one thread each.

    A threaded product splits its output between threads, and the kernels of
    the edge tiles round differently, so its bits change with the thread
    count; a block of at most _SERIAL_PRODUCT multiply-adds is not split.
    """
    rows = max(1, _SERIAL_PRODUCT // (a.shape[1] * b.shape[1]))
    if rows >= len(a):
        return a @ b
    out = np.empty((len(a), b.shape[1]))
    for lo in range(0, len(a), rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
    return out


# the gradient along axis s (column) contracts w T with one table per axis (row): D on
# axis s and P on the others, as indices into the tables [P_1, P_2, P_3, D_1, D_2, D_3]
_GRADIENT_TABLES = np.array([[3, 0, 0], [1, 4, 1], [2, 2, 5]])


def _set_long_range(dim, masses, positions, params, gradient=False):
    """The particle-set long-range part of sum_{i != j} m_i m_j G, and its gradient: zero in 2D.

    3D, with S(k) = sum_j m_j e^(2 pi i k.x_j) and M = sum m:
    sum_{k != 0} c_k (|S(k)|^2 - sum m^2) - (M^2 - sum m^2) / (4 alpha^2),
    the reciprocal and background terms of all ordered pairs i != j at once.
    c_k is even in each coordinate of k, so the sum runs over the octant:
    sum_k c_k |S(k)|^2 = sum_{k >= 0} mu(k) c_k sum_sigma T_sigma(k)^2, with
    the eight real sums T_sigma(k) = sum_j m_j sigma_1(2 pi k1 x_j1)
    sigma_2(..) sigma_3(..), sigma_d in {cos, sin}, each weighted by
    ``_structure_weights`` at its k.  T comes from the tables P_d of
    ``_trig_tables`` (Essmann et al., 1995) by one real matrix product,
    (m P_1 (x) P_2).T @ P_3, over chunks of particles whose (4 F^2, chunk)
    outer products hold at most _CHUNK elements.  The gradient,
    4 pi m_j sum mu c_k T dT/dx_j / (2 pi m_j), contracts Z = mu c_k T back
    through the same tables, once per axis s with the derivative table D_s
    in place of P_s: one product Z @ R.T over the axis-3 factors R of all
    three axes, then the sums with the axis-1 and axis-2 factors, each
    particle's over its own column.  ``gradient`` returns
    (value, gradient) from one set of tables and one T.  Every product is a
    ``_serial_matmul`` and every other sum a numpy reduction, so the bits do
    not depend on the BLAS thread count.  T is formed in the lexicographic
    order of the positions, so the value is exactly permutation invariant.
    Zero for fewer than two particles.
    """
    if dim == 2 or len(masses) < 2:
        return (0.0, 0.0) if gradient else 0.0
    F = params.fourier_cutoff + 1
    w = _structure_weights(params)
    order = np.lexsort(positions.T[::-1])
    m = masses[order]
    tables = _trig_tables(positions[order], F, gradient)
    p1t, p2t, p3 = tables[0, 0].T * m, tables[0, 1].T, tables[0, 2]  # the masses ride on P_1
    step = max(1, _CHUNK // (4 * F * F))  # particles per chunk: (4 F^2, chunk) temporaries
    chunks = [slice(lo, lo + step) for lo in range(0, len(m), step)]
    # T, rows (sigma1, k1, sigma2, k2) and columns (sigma3, k3), summed over the chunks
    t = reduce(np.add, (_serial_matmul((p1t[:, None, c] * p2t[:, c]).reshape(4 * F * F, -1), p3[c])
                        for c in chunks))
    # mu c_k at each entry of T, broadcast over the parities of its (2, F, 2, F, 2, F) view
    z = (t.reshape(2, F, 2, F, 2, F) * w[:, None, :, None, :]).reshape(t.shape)
    mm, total = float(m @ m), float(m.sum())
    # summed pairwise: a running sum of the 8 F^3 terms would lose about 1e-14 relative
    recip = float(np.sum(z * t)) - mm * float(w.sum())
    value = recip - (total * total - mm) / (4 * params.alpha**2)
    if not gradient:
        return value
    tables = tables.reshape(6, len(m), 2 * F)  # P_1, P_2, P_3, D_1, D_2, D_3
    out = np.empty_like(positions)
    step = max(1, step // 12)  # (4 F^2, 3 chunk) temporaries of _CHUNK / 4, which stay in cache
    for lo in range(0, len(m), step):
        c = slice(lo, lo + step)
        factors = tables[:, c][_GRADIENT_TABLES]  # (3 factors, 3 axes, chunk, 2F)
        factors[0] *= m[c, None]
        left, middle, right = factors.reshape(3, -1, 2 * F).transpose(0, 2, 1)  # (2F, 3 chunk)
        y = _serial_matmul(z, right).reshape(2 * F, 2 * F, -1)  # the (sigma3, k3) sums
        g = np.einsum("aj,aj->j", np.einsum("abj,bj->aj", y, middle), left).reshape(3, -1)
        out[order[c]] = (4 * math.pi) * g.T
    return value, out


def green_eval_many(dim, X, params=None):
    """G evaluated at an (M, d) array of coordinate differences."""
    X = np.abs(_cell(dim, X, "green_eval"))
    params = _resolve(params)
    return _pair_part(dim, X, params) + _long_range(dim, X, params)


def green_eval(dim, x, params=None) -> float:
    """Zero-mean periodic Green's function G(x); x is a coordinate difference.

    Even in x and invariant under signed coordinate permutations.  Raises
    SingularPoint within 1e-9 of a lattice point, where G diverges.
    """
    return float(green_eval_many(dim, _coords(x, dim)[None, :], params)[0])


def green_grad_many(dim, X, params=None):
    """grad G at an (M, d) array of coordinate differences."""
    X = _cell(dim, X, "green_grad")
    params = _resolve(params)
    _, grad = _pair_part(dim, X, params, gradient=True)
    return grad + _long_range(dim, X, params, gradient=True)


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
    _check_dim(dim)
    return _G0_2D if dim == 2 else regular_part(3, np.zeros(3), params)


def regular_part(dim, x, params=None) -> float:
    """g(x) = G(x) - singular part, with the min-image radius.

    Continuous through x = 0 (returns g(0) there) and smooth on the cell: the
    singular part is divided out inside the 2D log, or combined analytically
    with the n = 0 screened term in 3D, instead of subtracted numerically.
    """
    x = np.abs(_cell(dim, _coords(x, dim), "regular_part", guard=False))
    r = float(np.linalg.norm(x))
    if dim == 2:
        return _G0_2D if r == 0.0 else float(_theta_green(x, r)[0])
    params = _resolve(params)
    smooth = _real_space(x, params.alpha, params.real_cutoff, origin=False)
    return _g_smooth_n0(r, params.alpha) + float(smooth[0] + _long_range(3, x, params)[0])
