"""Grids, differentiation matrices, quadrature, the background pairing and
the storage of the Jacobi.

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
A periodic matrix is a circulant, fixed by its first column: it is
antisymmetrized as a generator and expanded by scipy.linalg.circulant.
Dirichlet rows get their Fornberg weights in one batched call.

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
band_matvec, band_rmatvec and symmetric_band convert and apply bands; only
the code that fills or rescales a band (the stencils, the band Jacobi's
assembly and its W^-1/2 scaling) indexes one itself. No other module reads
band or diff1: it applies D1 by d1 and d1t.

The background pairing is diag(w) for the weights w of the unknowns, and
wnorm is its norm. The Jacobi J = W^-1 Hess is stored here too. A
JacobiForm holds the second partials of a density at the grid nodes;
JacobiForm.operator reads the grid once and assembles the Hessian W J in the
storage it calls for: a dense JacobiOperator on a periodic grid, and on a
dirichlet grid, whose D1 and so W J are banded, a BandJacobiOperator, which
assembles the lower band in O(n b^2) and forms no n x n array unless its
dense asks. Each class owns the arithmetic its storage changes, reductions
included, so the certificate and the corrector run one code for all. The
band class serves CmcProfile alone, which has no Killing fields: it refuses
a Killing border, and its reduction refuses kernel vectors.

The classes' reductions are _Banded of a lower band, reduced by LAPACK
dsbtrd in O(n b) memory, which gives eigenvalues and solves but no
eigenvectors, and _Tridiagonal of a dense matrix in the buffer that LAPACK
dsytrd overwrites with the reflectors dormqr reads in place. Both end in a
symmetric tridiagonal T, which their base _Spectrum keeps once, scaled
exactly by a power of two to a largest entry in [1/2, 1) and split where
a coupling lies within the reduction's backward error, and reads only
what the certificate and the corrector ask: Sturm counts of the
eigenvalues below a point (dlarrc) and the eigenvalues of an index range,
bisected by dstebz, each in O(n) per eigenvalue, never the whole spectrum.
The kernel vectors (dstein on those eigenvalues) and the dense solves
(dgtsv) read the same T. The dense Jacobi is assembled into that buffer,
BLOCK columns at a time, and its reductions take it in place (scaled by
W^-1/2, or as the top-left block of the bordered matrix), so a routine
holds one n x n matrix beside diff1 (a branch, which certifies on a worker
thread, holds three), and an operator whose storage a reduction took
refuses any later use. A solve against _Tridiagonal costs O(n^2), the two
applications of Q; T itself is solved by dgtsv in O(n) on every solve.
Every LAPACK routine of the reductions (dsytrd, dsbtrd, dlarrc, dstebz,
dormqr, dgtsv, and dstein for eigenvectors; all but the band's solve) is
called through scipy's cython_lapack export by ctypes, from one table of
bindings, _LAPACK. A ctypes call releases the interpreter lock that
scipy.linalg's f2py wrappers hold, so the certificate overlaps the
corrector; the results are bitwise the wrappers'.
"""

import ctypes
from ctypes import c_double, c_int
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import circulant, cython_lapack, solve_banded

from .errors import DomainError, ShapeError, SpentOperator, UnsupportedError

TWO_PI = 2.0 * np.pi
# side of the blocks the symmetry residual pairs with mirrors, and width of
# the column blocks the dense Jacobi is assembled in
BLOCK = 128


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


def _reversed(gen):
    # circulant(gen)^T = circulant(gen[(-m) mod N])
    return np.roll(gen[::-1], 1)


def _spectral_generator(N):
    """Generator of the spectral first derivative on an odd grid: the first
    column g of D[i, j] = g[(i - j) mod N], scipy's circulant(g).

    Built from the Fourier symbol ik applied to a delta column; an odd N
    has no sawtooth (Nyquist) mode. The generator is antisymmetrized, so
    diff1 is exactly antisymmetric.
    """
    k = np.fft.fftfreq(N, d=1.0 / N)
    delta = np.zeros(N)
    delta[0] = 1.0
    g = np.real(np.fft.ifft(1j * k * np.fft.fft(delta)))
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


def _capsule_address(capsule):
    # the function address in one of scipy.linalg.cython_lapack's capsules
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(c_int)
_REAL = ctypes.POINTER(c_double)
# arrays, checked for their dtype and Fortran order on every call
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
_I32 = np.ctypeslib.ndpointer(np.intc, flags="F_CONTIGUOUS")
# The LAPACK routines of the reductions, from the library that
# scipy.linalg.lapack wraps, by their argument types before the trailing
# info. Each is a CFUNCTYPE, whose call releases the interpreter lock that
# the f2py wrappers hold, so the certificate overlaps the corrector.
_LAPACK = {
    name: ctypes.CFUNCTYPE(None, *argtypes, _INT)(
        _capsule_address(cython_lapack.__pyx_capi__[name]))
    for name, argtypes in {
        "dsytrd": (_CHAR, _INT, _F64, _INT, _F64, _F64, _F64, _F64, _INT),
        "dsbtrd": (_CHAR, _CHAR, _INT, _INT, _F64, _INT, _F64, _F64, _F64,
                   _INT, _F64),
        "dlarrc": (_CHAR, _INT, _REAL, _REAL, _F64, _F64, _REAL, _INT, _INT,
                   _INT),
        "dormqr": (_CHAR, _CHAR, _INT, _INT, _INT, _F64, _INT, _F64, _F64,
                   _INT, _F64, _INT),
        "dgtsv": (_INT, _INT, _F64, _F64, _F64, _F64, _INT),
        "dstebz": (_CHAR, _CHAR, _INT, _REAL, _REAL, _INT, _INT, _REAL, _F64,
                   _F64, _INT, _INT, _F64, _I32, _I32, _F64, _I32),
        "dstein": (_INT, _F64, _F64, _INT, _F64, _I32, _I32, _F64, _INT, _F64,
                   _I32, _I32),
    }.items()}


def _lapack(name, *args, allowed=()):
    """Call the LAPACK routine name with args and an info, which raises
    LinAlgError when nonzero and not allowed, and is returned. Integers and
    reals go as c_int and c_double, which the routine may write."""
    info = c_int(0)
    _LAPACK[name](*args, info)
    if info.value and info.value not in allowed:
        raise np.linalg.LinAlgError(
            f"{name} failed with info = {info.value}")
    return info.value


def _workspace(name, *args):
    """(the workspace, its lwork) of the size that name's query with args
    (lwork = -1) asks for, as scipy.linalg.lapack sizes it, so the results
    are bitwise the wrapper's."""
    query = np.empty(1)
    _lapack(name, *args, query, c_int(-1))
    lwork = int(query[0])
    return np.empty(max(lwork, 1)), c_int(lwork)


def _dsytrd(a):
    """LAPACK dsytrd of the lower triangle of a, in place: returns d, e, tau.

    a must be a writeable Fortran-contiguous float64 square array; it is
    overwritten with the reflectors. e and tau hold n - 1 values, padded to
    max(n - 1, 1). The results are bitwise those of scipy.linalg.lapack.dsytrd.
    """
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64
            or not (a.flags.f_contiguous and a.flags.writeable)):
        raise ValueError("dsytrd needs a writeable Fortran-ordered float64 "
                         "square array")
    n = a.shape[0]
    d = np.empty(n)
    e = np.zeros(max(n - 1, 1))
    tau = np.zeros(max(n - 1, 1))
    args = (b"L", c_int(n), a, c_int(max(n, 1)), d, e, tau)
    _lapack("dsytrd", *args, *_workspace("dsytrd", *args))
    return d, e, tau


def _bisect(d, e, lo, hi):
    """LAPACK dstebz's eigenvalues of ascending indices lo..hi of the
    tridiagonal (d, e) (range "I", order "E", absolute tolerance 0),
    ascending, with the diagonal block of T each belongs to and the ends of
    T's blocks, which dstein reads.

    dstebz finds fewer than asked (info 2 or 3) when it cannot split index
    lo or hi off a neighbour, such as an eigenvalue tied to it across T's
    blocks. That is cured as LAPACK prescribes: every eigenvalue is
    bisected (range "A") and lo..hi picked.
    """
    n = len(d)
    m, nsplit = c_int(0), c_int(0)
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.intc)
    isplit = np.empty(n, dtype=np.intc)
    args = (b"E", c_int(n), c_double(0.0), c_double(1.0), c_int(lo + 1),
            c_int(hi + 1), c_double(0.0), d, e, m, nsplit, w, iblock, isplit,
            np.empty(4 * n), np.empty(3 * n, dtype=np.intc))
    if _lapack("dstebz", b"I", *args, allowed=(2, 3)):
        _lapack("dstebz", b"A", *args)
        return w[lo:hi + 1], iblock[lo:hi + 1], isplit
    return w[:m.value], iblock[:m.value], isplit


class _Spectrum:
    """What the certificate and the corrector read of the spectrum of a
    reduced symmetric matrix A = Q T Q^T: counts and a few eigenvalues of
    the symmetric tridiagonal T, diagonal d and subdiagonal e, by bisection
    on Sturm counts at O(n) per count (Barth, Martin & Wilkinson, Numer.
    Math. 9, 1967), never the whole spectrum.

    One T is kept: 2^-k T, for the binary exponent k of T's largest entry,
    which then lies in [1/2, 1). ldexp scales T exactly and never forms
    2^-k, which overflows when T is subnormal. Sturm counts, which square
    T's off-diagonal, then neither underflow nor overflow (LAPACK dstevx
    scales T for the same reason). A coupling of at most n eps |T| is set
    to 0, which splits T. Every count, eigenvalue, eigenvector and solve
    reads this T and unscales its result. The bisection returns finite
    values for a T that holds a NaN, so a T that is not finite raises
    LinAlgError here.
    """

    def __init__(self, d, e):
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise np.linalg.LinAlgError(
                "the reduced tridiagonal holds a non-finite entry")
        size, self._k = np.frexp(max(np.max(np.abs(d)), np.max(np.abs(e))))
        self._d, self._e = np.ldexp(d, -self._k), np.ldexp(e, -self._k)
        # n eps |T|, within the backward error of the reduction and of a
        # Sturm count
        self._nudge = max(len(d) * np.finfo(float).eps * size,
                          np.finfo(float).tiny)
        # a coupling no larger splits T: dstebz splits only relative to the
        # diagonal, so never beside a zero, and in a block it leaves unsplit
        # dstein can return one vector twice for two tied eigenvalues
        self._e[np.abs(self._e) <= self._nudge] = 0.0

    def negcount(self, x):
        """How many eigenvalues lie below x: the Sturm count of T - x I,
        from LAPACK dlarrc. dlarrc counts a pivot of exactly 0 as negative
        and, when it is +0 (x an eigenvalue of a leading block of T), the
        infinite pivot after it too, so it counts one eigenvalue twice. The
        one call counts at x and at x - n eps |T|, a distance within the
        counts' own backward error, and the smaller count is kept, which
        such a tie at either point leaves exact."""
        x = np.ldexp(x, -self._k)
        counts = [c_int(0) for _ in range(3)]
        _lapack("dlarrc", b"T", c_int(len(self._d)),
                c_double(x - self._nudge), c_double(x), self._d, self._e,
                c_double(np.finfo(float).tiny), *counts)
        return min(counts[1].value, counts[2].value)

    def eigenvalues(self, lo, hi):
        """The eigenvalues of ascending indices lo..hi, ascending, bisected
        by dstebz."""
        return np.ldexp(_bisect(self._d, self._e, lo, hi)[0], self._k)

    def norm(self):
        """The 2-norm of A, max |mu|: the top eigenvalue, and the bottom one
        only when an eigenvalue lies below minus the top."""
        n = len(self._d)
        top = float(self.eigenvalues(n - 1, n - 1)[0])
        if not self.negcount(-top):
            return abs(top)
        return max(abs(top), -float(self.eigenvalues(0, 0)[0]))


class _Tridiagonal(_Spectrum):
    """One Householder reduction A = Q T Q^T of a symmetric matrix A.

    LAPACK dsytrd reduces the lower triangle to the tridiagonal T; Q is the
    product of the n - 1 reflectors stored below the subdiagonal, applied by
    dormqr and never formed. The spectrum, the eigenvectors and the solves
    all read _Spectrum's one scaled T. A nonzero LAPACK info raises
    LinAlgError, but where _bisect cures it.

    Every routine is called through mesh's ctypes bindings, which release
    the interpreter lock, and gives bitwise the results of scipy's f2py
    wrappers for the kept T (eigenvectors those of
    eigh_tridiagonal(select="i")).

    A Fortran-contiguous float64 A is the caller's reduction buffer: it is
    reduced in place and afterwards holds the reflectors, so the reduction
    makes no n x n copy. Any other A is copied first and left as it was.

    dormqr's workspace is sized once per column count, so many solves
    against one reduction cost O(n^2) each, the two applications of Q.
    """

    def __init__(self, A):
        n = A.shape[0]
        c = np.require(A, dtype=np.float64, requirements=("F", "W"))
        d, e, self._tau = _dsytrd(c)
        super().__init__(d, e)
        # the reflectors fill c[1:, :-1]; the Fortran-ordered (n, n - 1) view
        # of c's storage from c[1, 0] on holds them in its columns with
        # leading dimension n, which dormqr reads in place, where the
        # non-contiguous slice would be copied on every call
        self._reflectors = np.ravel(c, order="F")[1:1 + n * (n - 1)].reshape(
            n, n - 1, order="F")
        self._work = {}    # dormqr's workspace by (trans, columns)

    def apply_q(self, x, trans="N"):
        """Q x, or Q^T x with trans="T", for a vector or a block of columns."""
        y = np.array(x, dtype=float).reshape(len(x), -1)
        if len(y) > 1:
            # Q = diag(1, Q'), Q' a QR-style product of the stored reflectors
            # applied in place to a Fortran copy of the trailing rows
            a = self._reflectors
            c = np.asfortranarray(y[1:])
            m, cols = c.shape
            args = (b"L", trans.encode(), c_int(m), c_int(cols),
                    c_int(a.shape[1]), a, c_int(len(a)), self._tau, c,
                    c_int(m))
            key = (trans, cols)
            if key not in self._work:
                self._work[key] = _workspace("dormqr", *args)
            _lapack("dormqr", *args, *self._work[key])
            y[1:] = c
        return y.reshape(np.shape(x))

    def solve(self, b):
        """A^-1 b = Q T^-1 Q^T b; the kept 2^-k T by dgtsv, LU with partial
        pivoting of copies of its diagonals, which it overwrites, applied in
        place to the Fortran copy of the right-hand side, and unscaled."""
        n = len(b)
        z = np.array(self.apply_q(b, "T").reshape(n, -1), order="F")
        _lapack("dgtsv", c_int(n), c_int(z.shape[1]), self._e.copy(),
                self._d.copy(), self._e.copy(), z, c_int(n))
        return self.apply_q(np.ldexp(z, -self._k)).reshape(np.shape(b))

    def eigenvectors(self, lo, hi):
        """Orthonormal eigenvectors of A for ascending indices lo..hi, in
        that order.

        dstein forms the vectors of T's eigenvalues lo..hi, as eigenvalues
        bisects them, by inverse iteration; it takes them grouped by T's
        diagonal blocks, ascending within each, and the vectors go back to
        ascending order before Q maps them to A's.
        """
        n = len(self._d)
        w, iblock, isplit = _bisect(self._d, self._e, lo, hi)
        m = len(w)
        blocked = np.lexsort((w, iblock))
        z = np.empty((n, m), order="F")
        _lapack("dstein", c_int(n), self._d, self._e, c_int(m), w[blocked],
                iblock[blocked], isplit, z, c_int(n), np.empty(5 * n),
                np.empty(n, dtype=np.intc), np.empty(m, dtype=np.intc))
        return self.apply_q(z[:, np.argsort(blocked)])


class _Banded(_Spectrum):
    """A symmetric band matrix A, held as its lower band ab (the symmetric
    lower band storage above) and never formed densely.

    LAPACK dsbtrd reduces a copy of the band to the tridiagonal T in O(n b)
    memory, without Q, for _Spectrum's counts and bisections; the solve is
    solve_banded's (dgbsv, LU with partial pivoting). Asked for
    eigenvectors, it raises UnsupportedError: the band Jacobi has no
    Killing span to compare kernel vectors with, so the certificate reads
    only the eigenvalues.
    """

    def __init__(self, ab):
        self._ab = ab
        n = ab.shape[1]
        d = np.empty(n)
        e = np.zeros(max(n - 1, 1))
        # dsbtrd overwrites the band it reduces, so it reduces a copy
        _lapack("dsbtrd", b"N", b"L", c_int(n), c_int(len(ab) - 1),
                np.array(ab, order="F"), c_int(len(ab)), d, e, np.empty(1),
                c_int(1), np.empty(n))
        super().__init__(d, e)

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
            return circulant(_spectral_generator(self.N))
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


def wnorm(weights, u):
    """The pairing norm sqrt(sum_i weights_i u_i^2)."""
    u = np.asarray(u)
    return float(np.sqrt(np.dot(weights * u, u)))


@dataclass(frozen=True, eq=False)
class JacobiForm:
    """The second variation at a state: the density's second partials at
    the grid nodes, in variational.Density's entry convention, and the free
    nodes. W J is the free part of D1^T diag(w Fpp) D1 + diag(w Fup) D1 +
    its transpose + diag(w Fuu), one block per pair of components."""
    grid: Grid
    free: slice
    Fpp: list
    Fup: list
    Fuu: list

    def operator(self, weights, border=0):
        """J for the pairing weights W of the unknowns, in the storage the
        grid calls for: dense W J on a periodic grid, its lower band on a
        dirichlet one, whose D1 and so W J are banded. A dense W J is
        assembled into the top-left block of a Fortran-ordered buffer with
        room for border more rows and columns, which bordered_reduction with
        that many Killing columns fills and reduces in place."""
        if self.grid.band is not None:
            return BandJacobiOperator(BandJacobiOperator.assemble(self),
                                      weights)
        n = len(weights)
        buffer = np.empty((n + border, n + border), order="F")
        return JacobiOperator(JacobiOperator.assemble(self, buffer[:n, :n]),
                              weights, buffer=buffer)


@dataclass(frozen=True, eq=False)
class JacobiOperator:
    """The Jacobi J at a state, carried as the n x n Hessian W J on the
    unknowns; W is diag(weights). The subclass BandJacobiOperator carries a
    band W J. Each class assembles its storage from a JacobiForm and owns
    what its storage changes; JacobiForm.operator picks the class.

    A reduction of the dense class overwrites W J's storage in place, so
    the operator gives the storage up to it: from then on every method
    raises SpentOperator. buffer is the Fortran-ordered array whose
    top-left block hessian is, with room for a border, when JacobiForm made
    the operator; None when the operator was made from a matrix."""
    hessian: np.ndarray
    weights: np.ndarray
    buffer: np.ndarray = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        # a dense store is square and matches the weights
        if self.hessian.shape != 2 * self.weights.shape:
            raise self._misfit()

    def _misfit(self):
        return ShapeError(f"operator of shape {self.hessian.shape} does not "
                          f"act on the weights {self.weights.shape}")

    @staticmethod
    def assemble(form, out=None):
        """W J for a form whose every node is free (a periodic grid's), in
        out (a Fortran-ordered array or a block of one) or else a new
        Fortran-ordered array, which it returns. The columns go about BLOCK
        at a time: a block of D1^T diag(w Fpp) D1 is one gemm of D1^T and an
        n x BLOCK work array, written in place, and constant Fpp blocks
        scale one shared block of D1^T diag(w) D1, so no n x n temporary is
        made. Each entry takes its terms in the order of the whole-matrix
        sum."""
        w = form.grid.quad
        D1 = form.grid.diff1
        n = form.grid.N
        m = len(form.Fpp)
        H = np.empty((m * n, m * n), order="F") if out is None else out
        pairs = [(i, j) for i in range(m) for j in range(m)]
        # round(n / BLOCK) blocks of even width, so an n = 2^k + 1 grid
        # makes no gemm of one column
        count = max(1, round(n / BLOCK))
        edges = [n * b // count for b in range(count + 1)]
        width = -(-n // count)
        # one work block, the gemm's row-major operand and the Fortran
        # columns added into H in turn
        work = np.empty(n * width)
        shared = None    # columns of D1^T diag(w) D1, for constant Fpp
        for c0, c1 in zip(edges, edges[1:]):
            c = slice(c0, c1)
            flat = work[:n * (c1 - c0)]
            rows = flat.reshape(n, -1)
            fcols = flat.reshape(rows.shape, order="F")
            # the columns c of each block of H
            cols = [[H[i * n:(i + 1) * n, j * n + c0:j * n + c1]
                     for j in range(m)] for i in range(m)]
            K = None
            for i, j in pairs:
                a = form.Fpp[i][j]
                if a is None:
                    cols[i][j].fill(0.0)
                elif np.ndim(a) == 0:
                    if K is None:
                        if shared is None:
                            shared = np.empty((n, width), order="F")
                        np.multiply(w[:, None], D1[:, c], out=rows)
                        K = np.matmul(D1.T, rows, out=shared[:, :c1 - c0])
                    np.multiply(a, K, out=cols[i][j])
                else:
                    np.multiply((w * a)[:, None], D1[:, c], out=rows)
                    np.matmul(D1.T, rows, out=cols[i][j])
            for i, j in pairs:
                b = form.Fup[i][j]
                if b is not None:
                    # diag(w b) D1 into block (i, j), its transpose into
                    # (j, i); a copy, then an in-place scaling, lays D1's
                    # columns out as Fortran columns fastest
                    wb = w * b
                    np.multiply(wb[c, None], D1[c], out=fcols.T)
                    cols[j][i] += fcols
                    np.copyto(fcols, D1[:, c])
                    fcols *= wb[:, None]
                    cols[i][j] += fcols
        diag = np.arange(n)
        for i, j in pairs:
            e = form.Fuu[i][j]
            if e is not None:
                H[i * n + diag, j * n + diag] += w * e
        return H

    # the view of the storage H that holds W J's diagonal
    _diagonal = staticmethod(lambda H: np.einsum("ii->i", H))

    def _storage(self):
        if self.hessian is None:
            raise SpentOperator("a reduction took this Jacobi's storage and "
                                "overwrote it; assemble the Jacobi again")
        return self.hessian

    def _spend(self):
        """W J as dense gives it, for a reduction to overwrite: for this
        class the storage itself, which the operator gives up."""
        D = self.dense()
        object.__setattr__(self, "hessian", None)
        object.__setattr__(self, "buffer", None)
        return D

    def dense(self):
        """W J as an n x n matrix: the storage itself, not a copy."""
        return self._storage()

    def matvec(self, v):
        """(W J) v."""
        return self._storage() @ v

    def shifted(self, shift):
        """J + shift I, carried as W J + shift W: a copy of the storage
        with shift W added on its diagonal."""
        H = self._storage().copy(order="A")
        self._diagonal(H)[...] += shift * self.weights
        return replace(self, hessian=H, buffer=None)

    def symmetry_residual(self):
        """|W J - (W J)^T|_F / |W J|_F, 0 when W J vanishes, summed over
        the block pairs on and above the diagonal (an off-diagonal pair
        counts for both mirrors), so no n x n copy is made."""
        H = self._storage()
        denom = np.linalg.norm(H)
        if not denom > 0.0:
            return 0.0
        sq = 0.0
        for i in range(0, len(H), BLOCK):
            for j in range(i, len(H), BLOCK):
                X = H[i:i + BLOCK, j:j + BLOCK] - H[j:j + BLOCK, i:i + BLOCK].T
                sq += (1.0 if i == j else 2.0) * np.vdot(X, X)
        return float(np.sqrt(sq) / denom)

    def scaled_reduction(self):
        """(the reduction of W^-1/2 (W J) W^-1/2, the square roots of W).
        The storage is divided by sqrt(W) on both sides in place and reduced
        as the Fortran buffer it is (storage of another layout is copied
        first); the operator gives it up."""
        sw = np.sqrt(self.weights)
        A = np.require(self._spend(), requirements=("F", "W"))
        A /= sw[:, None]
        A /= sw[None, :]
        return _Tridiagonal(A), sw

    def bordered_reduction(self, B):
        """The reduction of [[W J, W B], [B^T W, 0]] for the k columns B, in
        the Fortran buffer it overwrites and keeps: the operator's own when
        JacobiForm.operator left room for k columns, else a new one that W
        J is copied into. Either way the operator gives its storage up."""
        n, k = B.shape
        M = self.buffer
        D = self._spend()
        if M is None or M.shape != (n + k, n + k):
            M = np.empty((n + k, n + k), order="F")
            M[:n, :n] = D
        WB = self.weights[:, None] * B
        M[:n, n:] = WB
        M[n:, :n] = WB.T
        M[n:, n:] = 0.0
        return _Tridiagonal(M)


@dataclass(frozen=True, eq=False)
class BandJacobiOperator(JacobiOperator):
    """J on a dirichlet grid: hessian is the lower band of W J, shape (b +
    1, n), in mesh's symmetric lower band storage; only dense forms an n x n
    array. With one triangle stored, W J is symmetric by construction."""

    def __post_init__(self):
        # a band store has at most n rows and n columns
        H, w = self.hessian, self.weights
        if H.shape[1:] != w.shape or not 0 < len(H) <= w.size:
            raise self._misfit()

    @staticmethod
    def assemble(form):
        """The lower band of W J for a one-component form (the profile's),
        in O(N b^2); its half-bandwidth is D1's, b. Node i, with D1 row R_i,
        adds w_i Fpp_i R_i^T R_i + w_i Fup_i (e_i R_i + R_i^T e_i^T) + w_i
        Fuu_i e_i e_i^T. The band of the full grid is then cut to the free
        nodes, a slice."""
        band = form.grid.band
        b = len(band) // 2
        N = form.grid.N
        w = form.grid.quad
        L = np.zeros((b + 1, N))
        a, c, e = form.Fpp[0][0], form.Fup[0][0], form.Fuu[0][0]
        if a is not None:
            wa = w * a
            # node i adds wa_i D1[i, i + k] D1[i, i + m] at (i + k, i + m);
            # a row's stencil spans b + 1 columns, so 0 <= k - m <= b
            for k in range(-b, b + 1):
                rk = wa * band[b + k]
                for m in range(max(-b, k - b), k + 1):
                    lo, hi = max(0, -m), min(N, N - k)
                    L[k - m, lo + m:hi + m] += (rk * band[b + m])[lo:hi]
        if c is not None:
            wc = w * c
            L[0] += 2.0 * wc * band[b]
            for k in range(1, b + 1):
                L[k, :-k] += (wc * band[b + k])[:-k]
                L[k, :-k] += (wc * band[b - k])[k:]
        if e is not None:
            L[0] += w * e
        n = len(range(N)[form.free])
        out = np.ascontiguousarray(L[:min(b, n - 1) + 1, form.free])
        for k in range(1, len(out)):
            out[k, n - k:] = 0.0
        return out

    _diagonal = staticmethod(lambda H: H[0])

    def dense(self):
        return band_dense(symmetric_band(self.hessian))

    def matvec(self, v):
        return band_matvec(symmetric_band(self.hessian), v)

    def symmetry_residual(self):
        return 0.0

    def scaled_reduction(self):
        # the lower band of W^-1/2 (W J) W^-1/2, a new array
        sw = np.sqrt(self.weights)
        A = self.hessian / sw
        for k in range(len(A)):
            A[k, :len(sw) - k] /= sw[k:]
        return _Banded(A), sw

    def bordered_reduction(self, B):
        if B.shape[1]:
            raise UnsupportedError(
                "a banded Jacobi cannot be bordered by Killing columns")
        return _Banded(self.hessian)
