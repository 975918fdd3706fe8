"""Grids, differentiation matrices, quadrature and the background pairing.

Unknowns in this package are nodal samples of closed curves or maps, so all
calculus reduces to matrix algebra against the operators built here.
Periodic grids live on [0, 2*pi) with uniform nodes; interval (dirichlet)
grids include both endpoints. A problem on an interval grid holds its
boundary values as data and takes the interior nodes as its unknowns; the
grid itself imposes no boundary condition.

The spectral differentiation matrix is circulant and trigonometrically
exact; diff1 is exactly antisymmetric, which makes the assembled weighted
Hessians symmetric to machine precision without any fixups.

Periodic grids are spectral and odd only: a periodic finite-difference
diff1 nearly annihilates the near-Nyquist modes, and on an even grid the
sawtooth mode lies in the kernel of the spectral diff1; either way those
modes fake low Jacobi modes. build_grid rounds an even periodic N up by one,
and Grid rejects an even periodic N, so every periodic instance gets the
same odd grid. On it D1 applied twice is the spectral second derivative.
A periodic matrix is a circulant, fixed by one generator row: it is
antisymmetrized as a generator and copied once out of a strided view of
that row. Dirichlet rows get their Fornberg weights in one batched call.

A dirichlet grid keeps diff1 as its band, the diagonals at offsets -b..b,
b = min(order, N - 1), that its Fornberg stencils fill. d1 and d1t apply D1
and D1^T in O(N b), and the Hessians assembled from the band are banded
too. A periodic grid applies its dense circulant. The dense diff1 of
either kind is built on first use.

Band storage is defined here once, for the grid's D1 and the banded Jacobi
alike: a matrix A of half-bandwidth b is the (2b + 1, n) array band[b + k,
i] = A[i, i + k], zero where i + k leaves 0..n-1. For a symmetric A this is
LAPACK's general band storage, and its rows b..2b alone are LAPACK's
symmetric lower band storage, lower[k, j] = A[j + k, j]. band_dense,
band_matvec, band_rmatvec and symmetric_band convert and apply bands for
every module; only the code that fills or rescales a band (the stencils
here, the band Jacobi's assembly and its W^-1/2 scaling) indexes one
itself. Outside this module, only the Jacobi storage classes and jacobi's
choice between them read band or diff1; all else applies D1 by d1 and d1t.

The Jacobi classes' reductions live here too: _Banded of a lower band, in
O(n b) memory, which gives eigenvalues and solves but no eigenvectors, and
_Tridiagonal of a dense matrix in the buffer that LAPACK dsytrd overwrites
with the reflectors dormqr reads in place, the one n x n matrix a routine
holds beside diff1 and a dense Jacobi (a branch, which certifies on a
worker thread, holds five). dsytrd is called through scipy's cython_lapack
export by ctypes, which releases the interpreter lock that scipy.linalg's
f2py wrapper holds, so the certificate overlaps the corrector; the results
are bitwise the wrapper's.
"""

import ctypes
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import (cython_lapack, eigh_tridiagonal, eigvals_banded,
                          lapack, solve_banded)

from .errors import DomainError, UnsupportedError

TWO_PI = 2.0 * np.pi


def fornberg_weights(z, x, m):
    """Finite difference weights on arbitrary nodes.

    For one centre z and nodes x of shape (n,), returns an array c of shape
    (n, m+1); column k holds the weights that approximate the k-th
    derivative at z from samples at the nodes x. Many centres go at once: z
    of shape (K,) with one row of nodes each, x of shape (K, n), gives c of
    shape (K, n, m+1), bitwise equal to the K single-centre calls.
    Classical recursion, exact for polynomials up to degree n-1.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = x.shape[-1]
    c = np.zeros(x.shape + (m + 1,))
    c1 = 1.0
    c4 = x[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1]
                                         - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


def _circulant(gen):
    # D[i, j] = gen[(j - i) mod N], so row i applies the stencil around node
    # i; row i is the window starting at N - i of gen repeated twice, read
    # through a strided view and copied once
    N = len(gen)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(gen, 2)[1:], N)
    return windows[::-1].copy()


def _reversed(gen):
    # circ(gen)^T = circ(gen[(-m) mod N])
    return np.roll(gen[::-1], 1)


def _spectral_generator(N):
    """Stencil generator of the spectral first derivative on an odd grid.

    Built from the Fourier symbol ik applied to a delta column; an odd N
    has no sawtooth (Nyquist) mode. The generator is antisymmetrized, so
    diff1 is exactly antisymmetric.
    """
    k = np.fft.fftfreq(N, d=1.0 / N)
    delta = np.zeros(N)
    delta[0] = 1.0
    # ifft gives the kernel D[i, j] = g[(i - j) mod N], the reverse of the
    # stencil reading gen[(j - i) mod N]
    g = _reversed(np.real(np.fft.ifft(1j * k * np.fft.fft(delta))))
    return 0.5 * (g - _reversed(g))


def _stencil_width(N, order):
    if order == 4:
        return min(5, N)
    if order == 2:
        return min(3, N)
    raise DomainError(f"unsupported dirichlet order {order!r}")


def _dirichlet_band(x, order):
    """diff1's band on the interval nodes x."""
    N = len(x)
    w = _stencil_width(N, order)
    b = w - 1
    rows = np.arange(N)
    lo = np.minimum(np.maximum(rows - w // 2, 0), N - w)
    cols = lo[:, None] + np.arange(w)
    band = np.zeros((2 * b + 1, N))
    band[b + cols - rows[:, None], rows[:, None]] = fornberg_weights(
        x, x[cols], 1)[..., 1]
    return band


def band_dense(band):
    """The n x n matrix A of a band, a new array."""
    b = len(band) // 2
    n = band.shape[1]
    A = np.zeros((n, n))
    for k in range(-b, b + 1):
        i = np.arange(max(0, -k), min(n, n - k))
        A[i, i + k] = band[b + k, i]
    return A


def band_matvec(band, u):
    """A u, in O(n b)."""
    b = len(band) // 2
    out = band[b] * u
    for k in range(1, b + 1):
        out[:-k] += band[b + k, :-k] * u[k:]
        out[k:] += band[b - k, k:] * u[:-k]
    return out


def band_rmatvec(band, v):
    """A^T v, in O(n b)."""
    b = len(band) // 2
    out = band[b] * v
    for k in range(1, b + 1):
        out[k:] += band[b + k, :-k] * v[:-k]
        out[:-k] += band[b - k, k:] * v[k:]
    return out


def symmetric_band(lower):
    """The band of the symmetric A held as its lower band storage lower, a
    new array."""
    b = len(lower) - 1
    n = lower.shape[1]
    band = np.zeros((2 * b + 1, n))
    band[b:] = lower
    for k in range(1, b + 1):
        band[b - k, k:] = lower[k, :n - k]
    return band


def _lapack_check(info, routine):
    if info:
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")


def _capsule_address(capsule):
    # the function address in one of scipy.linalg.cython_lapack's capsules
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p
# dsytrd(uplo, n, a, lda, d, e, tau, work, lwork, info), the routine
# scipy.linalg.lapack wraps, from the same library: the one entry point of
# every dense symmetric reduction here. A CFUNCTYPE call releases the
# interpreter lock, which the f2py wrapper holds.
_DSYTRD = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _INT, _PTR, _INT, _PTR,
                           _PTR, _PTR, _PTR, _INT, _INT)(
    _capsule_address(cython_lapack.__pyx_capi__["dsytrd"]))


def _dsytrd(a):
    """LAPACK dsytrd of the lower triangle of a, in place: returns d, e, tau.

    a must be a writeable Fortran-contiguous float64 square array; it is
    overwritten with the reflectors. e and tau hold n - 1 values, padded to
    max(n - 1, 1). The workspace is the size LAPACK's query asks for, as
    scipy.linalg.lapack.dsytrd_lwork reports it, so the results are bitwise
    those of scipy.linalg.lapack.dsytrd.
    """
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64
            or not (a.flags.f_contiguous and a.flags.writeable)):
        raise ValueError("dsytrd needs a writeable Fortran-ordered float64 "
                         "square array")
    n = a.shape[0]
    d = np.empty(n)
    e = np.zeros(max(n - 1, 1))
    tau = np.zeros(max(n - 1, 1))
    args = (b"L", ctypes.c_int(n), a.ctypes.data, ctypes.c_int(max(n, 1)),
            d.ctypes.data, e.ctypes.data, tau.ctypes.data)
    query = np.empty(1)
    lwork = ctypes.c_int(-1)
    info = ctypes.c_int(0)
    _DSYTRD(*args, query.ctypes.data, lwork, info)
    _lapack_check(info.value, "dsytrd")
    lwork.value = int(query[0])
    work = np.empty(lwork.value)
    _DSYTRD(*args, work.ctypes.data, lwork, info)
    _lapack_check(info.value, "dsytrd")
    return d, e, tau


class _Tridiagonal:
    """One Householder reduction A = Q T Q^T of a symmetric matrix A.

    LAPACK dsytrd reduces the lower triangle to the tridiagonal T; Q is the
    product of the n - 1 reflectors stored below the subdiagonal, applied by
    dormqr and never formed. The eigenvalues of A are T's, ascending, from
    dsterf in O(n^2). Any nonzero LAPACK info raises LinAlgError.

    A Fortran-contiguous float64 A is the caller's reduction buffer: it is
    reduced in place and afterwards holds the reflectors, so the reduction
    makes no n x n copy. Any other A is copied first and left as it was.
    """

    def __init__(self, A):
        n = A.shape[0]
        c = np.require(A, dtype=np.float64, requirements=("F", "W"))
        self._d, self._e, self._tau = _dsytrd(c)
        # the reflectors fill c[1:, :-1]; the Fortran-ordered (n, n - 1) view
        # of c's storage from c[1, 0] on holds them in its columns with
        # leading dimension n, which dormqr reads in place, where the
        # non-contiguous slice would be copied on every call
        self._reflectors = np.ravel(c, order="F")[1:1 + n * (n - 1)].reshape(
            n, n - 1, order="F")
        # T's off-diagonal comes padded to the length max(n - 1, 1) that the
        # f2py wrappers of dsterf and dgtsv expect
        self.eigenvalues, info = lapack.dsterf(self._d, self._e)
        _lapack_check(info, "dsterf")

    def apply_q(self, x, trans="N"):
        """Q x, or Q^T x with trans="T", for a vector or a block of columns."""
        y = np.array(x, dtype=float).reshape(len(x), -1)
        if len(y) > 1:
            # Q = diag(1, Q'), Q' a QR-style product of the stored reflectors
            a, tau = self._reflectors, self._tau
            _, work, info = lapack.dormqr("L", trans, a, tau, y[1:], -1)
            _lapack_check(info, "dormqr")
            y[1:], _, info = lapack.dormqr("L", trans, a, tau, y[1:],
                                           int(work[0]))
            _lapack_check(info, "dormqr")
        return y.reshape(np.shape(x))

    def solve(self, b):
        """A^-1 b = Q T^-1 Q^T b; T by dgtsv, LU with partial pivoting."""
        y = self.apply_q(b, "T").reshape(len(b), -1)
        *_, z, info = lapack.dgtsv(self._e, self._d, self._e, y)
        _lapack_check(info, "dgtsv")
        return self.apply_q(z).reshape(np.shape(b))

    def eigenvectors(self, lo, hi):
        """Orthonormal eigenvectors of A for ascending indices lo..hi."""
        _, z = eigh_tridiagonal(self._d, self._e[:len(self._d) - 1],
                                select="i", select_range=(lo, hi))
        return self.apply_q(z)


class _Banded:
    """A symmetric band matrix A, held as its lower band ab (the symmetric
    lower band storage above) and never formed densely.

    Every eigenvalue, ascending, comes from scipy's eigvals_banded (LAPACK
    dsbevd), the solve from solve_banded (dgbsv, LU with partial pivoting),
    both in O(n b) memory. Asked for eigenvectors, it raises
    UnsupportedError: the band Jacobi has no Killing span to compare kernel
    vectors with, so the certificate reads only the eigenvalues.
    """

    def __init__(self, ab):
        self._ab = ab
        # no finiteness scan, as _Tridiagonal's raw LAPACK calls make none
        self.eigenvalues = eigvals_banded(ab, lower=True, check_finite=False)

    def eigenvectors(self, lo, hi):
        raise UnsupportedError("a banded Jacobi forms no kernel vectors: it "
                               "has no Killing span to compare them with")

    def solve(self, rhs):
        """A^-1 rhs."""
        b = len(self._ab) - 1
        return solve_banded((b, b), symmetric_band(self._ab), rhs,
                            check_finite=False)


def _gregory_weights(N, h):
    # order-4 end-corrected trapezoid; falls back to plain trapezoid when
    # the grid is too short for the three-point correction
    w = np.full(N, h)
    if N >= 7:
        edge = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        w[:3] = edge * h
        w[-3:] = edge[::-1] * h
    else:
        w[0] = 0.5 * h
        w[-1] = 0.5 * h
    return w


@dataclass(frozen=True)
class Grid:
    """A discretized domain with differentiation matrices and quadrature.

    kind is 'periodic' (nodes uniform on [0, 2*pi)) or 'dirichlet' (nodes
    include both endpoints of an interval). quad weights are positive and
    sum to the domain length. band is diff1's band on a dirichlet grid and
    None on a periodic one. diff1 is built on first use and then kept. A
    periodic grid must have an odd N.
    """

    kind: str
    N: int
    nodes: np.ndarray = field(repr=False)
    quad: np.ndarray = field(repr=False)
    band: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "periodic" and self.N % 2 == 0:
            raise DomainError(
                f"periodic grid needs an odd N, got {self.N}; the even-grid "
                "sawtooth mode lies in the kernel of diff1")

    @cached_property
    def diff1(self):
        if self.band is None:
            return _circulant(_spectral_generator(self.N))
        return band_dense(self.band)

    def d1(self, u):
        """D1 u."""
        if self.band is None:
            return self.diff1 @ u
        return band_matvec(self.band, u)

    def d1t(self, v):
        """D1^T v."""
        if self.band is None:
            return self.diff1.T @ v
        return band_rmatvec(self.band, v)


def build_grid(kind, N, order="spectral", a=0.0, b=1.0):
    """Construct a Grid.

    kind='periodic' supports order 'spectral' only and kind='dirichlet'
    supports {2, 4}; any other order raises UnsupportedError on a periodic
    grid, and 'spectral' raises it on a dirichlet grid. A periodic N is
    rounded up to odd, so an even N gets N + 1 nodes.
    """
    N = int(N)
    if kind == "periodic":
        N |= 1
        if N < 8:
            raise DomainError(f"periodic grid needs N >= 8, got {N}")
        if order != "spectral":
            raise UnsupportedError(f"order {order!r} needs an interval grid; "
                                   "periodic grids are spectral")
        nodes = TWO_PI * np.arange(N) / N
        quad = np.full(N, TWO_PI / N)
        return Grid("periodic", N, nodes, quad)
    if kind == "dirichlet":
        if N < 4:
            raise DomainError(f"dirichlet grid needs N >= 4, got {N}")
        if order == "spectral":
            raise UnsupportedError("spectral differentiation needs a periodic grid; use order 4")
        if not b > a:
            raise DomainError(f"empty interval [{a}, {b}]")
        nodes = np.linspace(a, b, N)
        quad = _gregory_weights(N, (b - a) / (N - 1))
        return Grid("dirichlet", N, nodes, quad, _dirichlet_band(nodes, order))
    raise DomainError(f"unknown grid kind {kind!r}")


@dataclass(frozen=True)
class Pairing:
    """Diagonal inner product <u, v> = sum_i weights_i u_i v_i."""

    weights: np.ndarray

    def inner(self, u, v):
        return float(np.dot(self.weights * np.asarray(u), np.asarray(v)))

    def norm(self, u):
        u = np.asarray(u)
        return float(np.sqrt(np.dot(self.weights * u, u)))
