"""Grids, differentiation matrices, quadrature and the background pairing.

Unknowns in this package are nodal samples of closed curves or maps, so all
calculus reduces to matrix algebra against the operators built here.
Periodic grids live on [0, 2*pi) with uniform nodes; interval (dirichlet)
grids include both endpoints. A problem on an interval grid holds its
boundary values as data and takes the interior nodes as its unknowns; the
grid itself imposes no boundary condition.

The spectral differentiation matrices are circulant and trigonometrically
exact; diff1 is exactly antisymmetric, which makes the assembled weighted
Hessians symmetric to machine precision without any fixups.

Periodic grids are spectral only: a periodic finite-difference diff1 nearly
annihilates the near-Nyquist modes, which then fake low Jacobi modes. A
periodic matrix is a circulant, fixed by one generator row: it is
symmetrized or antisymmetrized as a generator and copied once out of a
strided view of that row. Dirichlet rows get their Fornberg weights in one
batched call.

A dirichlet grid keeps diff1 as its band, the diagonals at offsets -b..b,
b = min(order, N - 1), that its Fornberg stencils fill. d1 and d1t apply D1
and D1^T in O(N b), and the Hessians assembled from the band are banded
too. A periodic grid applies its dense circulant. The dense diff1 (of
either kind) and diff2, which only geodesic curvature and the tests read,
are built on first use.

Band storage is defined here once, for the grid's D1 and the banded Jacobi
alike: a matrix A of half-bandwidth b is the (2b + 1, n) array band[b + k,
i] = A[i, i + k], zero where i + k leaves 0..n-1. For a symmetric A this is
LAPACK's general band storage, and its rows b..2b alone are LAPACK's
symmetric lower band storage, lower[k, j] = A[j + k, j]. band_dense,
band_matvec, band_rmatvec and symmetric_band convert and apply bands for
every module; only the code that fills or rescales a band (the stencils
here, the Hessian assembly, the certificate's W^-1/2 scaling) indexes one
itself.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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


def _spectral_generators(N):
    """Stencil generators of the spectral first and second derivatives.

    Built from the Fourier symbols ik and -k^2 applied to a delta column.
    For even N the sawtooth (Nyquist) wavenumber is dropped from diff1 and
    kept in diff2, the standard real-valued convention; odd N has no such
    mode. The first generator is antisymmetrized and the second symmetrized,
    so diff1 is exactly antisymmetric and diff2 exactly symmetric.
    """
    k = np.fft.fftfreq(N, d=1.0 / N)
    k1 = k.copy()
    if N % 2 == 0:
        k1[N // 2] = 0.0
    delta = np.zeros(N)
    delta[0] = 1.0
    f = np.fft.fft(delta)
    # ifft gives the kernel D[i, j] = g[(i - j) mod N], the reverse of the
    # stencil reading gen[(j - i) mod N]
    g1 = _reversed(np.real(np.fft.ifft(1j * k1 * f)))
    g2 = _reversed(np.real(np.fft.ifft(-(k ** 2) * f)))
    return 0.5 * (g1 - _reversed(g1)), 0.5 * (g2 + _reversed(g2))


def _fill_stencils(D, x, rows, width, deriv):
    # row i of D gets the weights of the width-node window nearest x[i]
    N = len(x)
    lo = np.minimum(np.maximum(rows - width // 2, 0), N - width)
    cols = lo[:, None] + np.arange(width)
    c = fornberg_weights(x[rows], x[cols], deriv)
    D[rows[:, None], cols] = c[..., deriv]


def _stencil_widths(N, order):
    # w1 for diff1 and the interior rows of diff2, the wider w2b for diff2's
    # edge rows
    if order == 4:
        return min(5, N), min(6, N)
    if order == 2:
        return min(3, N), min(4, N)
    raise DomainError(f"unsupported dirichlet order {order!r}")


def _dirichlet_band(x, order):
    """diff1's band on the interval nodes x."""
    N = len(x)
    w1, _ = _stencil_widths(N, order)
    b = w1 - 1
    rows = np.arange(N)
    lo = np.minimum(np.maximum(rows - w1 // 2, 0), N - w1)
    cols = lo[:, None] + np.arange(w1)
    band = np.zeros((2 * b + 1, N))
    band[b + cols - rows[:, None], rows[:, None]] = fornberg_weights(
        x, x[cols], 1)[..., 1]
    return band


def _dirichlet_diff2(x, order):
    """diff2 on the interval nodes x."""
    N = len(x)
    w1, w2b = _stencil_widths(N, order)
    D = np.zeros((N, N))
    _fill_stencils(D, x, np.arange(N), w1, 2)
    # centered second-derivative stencils lose one order at the edges; widen
    # the window there to keep the nominal order
    half = w1 // 2
    edges = np.r_[0:half, N - half:N]
    D[edges, :] = 0.0
    _fill_stencils(D, x, edges, w2b, 2)
    return D


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


def symmetric_band(lower, top=0):
    """The band of the symmetric A held as its lower band storage lower, a
    new Fortran-ordered array with top zero rows above it, the room LAPACK
    dgbtrf needs for its fill-in."""
    b = len(lower) - 1
    n = lower.shape[1]
    band = np.zeros((top + 2 * b + 1, n), order="F")
    band[top + b:] = lower
    for k in range(1, b + 1):
        band[top + b - k, k:] = lower[k, :n - k]
    return band


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
    include both endpoints of [a, b]). quad weights are positive and sum to
    the domain length. band is diff1's band on a dirichlet grid and None on
    a periodic one. diff1 and diff2 are built on first use and then kept.
    """

    kind: str
    N: int
    order: object
    nodes: np.ndarray = field(repr=False)
    quad: np.ndarray = field(repr=False)
    a: float = 0.0
    b: float = TWO_PI
    band: np.ndarray = field(default=None, repr=False)

    @cached_property
    def diff1(self):
        if self.band is None:
            return _circulant(_spectral_generators(self.N)[0])
        return band_dense(self.band)

    @cached_property
    def diff2(self):
        if self.kind == "periodic":
            return _circulant(_spectral_generators(self.N)[1])
        return _dirichlet_diff2(self.nodes, self.order)

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
    grid, and 'spectral' raises it on a dirichlet grid.
    """
    N = int(N)
    if kind == "periodic":
        if N < 8:
            raise DomainError(f"periodic grid needs N >= 8, got {N}")
        if order != "spectral":
            raise UnsupportedError(f"order {order!r} needs an interval grid; "
                                   "periodic grids are spectral")
        nodes = TWO_PI * np.arange(N) / N
        quad = np.full(N, TWO_PI / N)
        return Grid("periodic", N, order, nodes, quad, 0.0, TWO_PI)
    if kind == "dirichlet":
        if N < 4:
            raise DomainError(f"dirichlet grid needs N >= 4, got {N}")
        if order == "spectral":
            raise UnsupportedError("spectral differentiation needs a periodic grid; use order 4")
        if not b > a:
            raise DomainError(f"empty interval [{a}, {b}]")
        nodes = np.linspace(a, b, N)
        quad = _gregory_weights(N, (b - a) / (N - 1))
        return Grid("dirichlet", N, order, nodes, quad, float(a), float(b),
                    _dirichlet_band(nodes, order))
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
