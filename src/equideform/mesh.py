"""Grids, differentiation matrices, quadrature and the background pairing.

Unknowns in this package are nodal samples of closed curves or maps, so all
calculus reduces to dense matrix algebra against the operators built here.
Periodic grids live on [0, 2*pi) with uniform nodes; interval (dirichlet)
grids include both endpoints, and boundary values are pinned downstream by
the problem, not by the grid.

The spectral differentiation matrices are circulant and trigonometrically
exact; diff1 is exactly antisymmetric, which makes the assembled weighted
Hessians symmetric to machine precision without any fixups.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedError

TWO_PI = 2.0 * np.pi


def fornberg_weights(z, x, m):
    """Finite difference weights on arbitrary nodes.

    Returns an array c of shape (len(x), m+1); column k holds the weights
    that approximate the k-th derivative at z from samples at the nodes x.
    Classical recursion, exact for polynomials up to degree len(x)-1.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _circulant_from_generator(gen):
    # D[i, j] = gen[(j - i) mod N], so row i applies the stencil around node i
    N = len(gen)
    idx = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
    return np.asarray(gen)[idx]


def _spectral_pair(N):
    """Spectral first and second derivative matrices on N uniform nodes.

    Built from the Fourier symbols ik and -k^2 applied to a delta column.
    For even N the sawtooth (Nyquist) wavenumber is dropped from diff1 and
    kept in diff2, the standard real-valued convention; odd N has no such
    mode. diff1 is antisymmetrized and diff2 symmetrized so the circulant
    structure is exact.
    """
    k = np.fft.fftfreq(N, d=1.0 / N)
    k1 = k.copy()
    if N % 2 == 0:
        k1[N // 2] = 0.0
    delta = np.zeros(N)
    delta[0] = 1.0
    f = np.fft.fft(delta)
    g1 = np.real(np.fft.ifft(1j * k1 * f))
    g2 = np.real(np.fft.ifft(-(k ** 2) * f))
    # ifft gives the kernel D[i, j] = g[(i - j) mod N]; the circulant helper
    # wants the stencil reading gen[(j - i) mod N], so reverse the index
    rev = (-np.arange(N)) % N
    D1 = _circulant_from_generator(g1[rev])
    D2 = _circulant_from_generator(g2[rev])
    D1 = 0.5 * (D1 - D1.T)
    D2 = 0.5 * (D2 + D2.T)
    return D1, D2


def _periodic_fd_pair(N, order):
    h = TWO_PI / N
    g1 = np.zeros(N)
    g2 = np.zeros(N)
    if order == 2:
        g1[1], g1[-1] = 1.0 / (2 * h), -1.0 / (2 * h)
        g2[0], g2[1], g2[-1] = -2.0 / h ** 2, 1.0 / h ** 2, 1.0 / h ** 2
    elif order == 4:
        g1[1], g1[2] = 8.0 / (12 * h), -1.0 / (12 * h)
        g1[-1], g1[-2] = -8.0 / (12 * h), 1.0 / (12 * h)
        g2[0] = -30.0 / (12 * h ** 2)
        g2[1] = g2[-1] = 16.0 / (12 * h ** 2)
        g2[2] = g2[-2] = -1.0 / (12 * h ** 2)
    else:
        raise DomainError(f"unsupported periodic order {order!r}")
    return _circulant_from_generator(g1), _circulant_from_generator(g2)


def _dirichlet_pair(N, x, order):
    D1 = np.zeros((N, N))
    D2 = np.zeros((N, N))
    if order == 4:
        w1, w2b = min(5, N), min(6, N)
    elif order == 2:
        w1, w2b = min(3, N), min(4, N)
    else:
        raise DomainError(f"unsupported dirichlet order {order!r}")
    half = w1 // 2
    for i in range(N):
        lo = min(max(i - half, 0), N - w1)
        c = fornberg_weights(x[i], x[lo:lo + w1], 2)
        D1[i, lo:lo + w1] = c[:, 1]
        D2[i, lo:lo + w1] = c[:, 2]
    # centered second-derivative stencils lose one order at the edges;
    # widen the window there to keep the nominal order
    for i in list(range(half)) + list(range(N - half, N)):
        lo = min(max(i - half, 0), N - w2b)
        c = fornberg_weights(x[i], x[lo:lo + w2b], 2)
        D2[i, :] = 0.0
        D2[i, lo:lo + w2b] = c[:, 2]
    return D1, D2


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
    the domain length.
    """

    kind: str
    N: int
    order: object
    nodes: np.ndarray = field(repr=False)
    diff1: np.ndarray = field(repr=False)
    diff2: np.ndarray = field(repr=False)
    quad: np.ndarray = field(repr=False)
    a: float = 0.0
    b: float = TWO_PI


def build_grid(kind, N, order="spectral", a=0.0, b=1.0):
    """Construct a Grid.

    kind='periodic' supports order in {2, 4, 'spectral'}; kind='dirichlet'
    supports {2, 4} and raises UnsupportedError for 'spectral'.
    """
    N = int(N)
    if kind == "periodic":
        if N < 8:
            raise DomainError(f"periodic grid needs N >= 8, got {N}")
        nodes = TWO_PI * np.arange(N) / N
        if order == "spectral":
            D1, D2 = _spectral_pair(N)
        else:
            D1, D2 = _periodic_fd_pair(N, order)
        quad = np.full(N, TWO_PI / N)
        return Grid("periodic", N, order, nodes, D1, D2, quad, 0.0, TWO_PI)
    if kind == "dirichlet":
        if N < 4:
            raise DomainError(f"dirichlet grid needs N >= 4, got {N}")
        if order == "spectral":
            raise UnsupportedError("spectral differentiation needs a periodic grid; use order 4")
        if not b > a:
            raise DomainError(f"empty interval [{a}, {b}]")
        nodes = np.linspace(a, b, N)
        D1, D2 = _dirichlet_pair(N, nodes, order)
        quad = _gregory_weights(N, (b - a) / (N - 1))
        return Grid("dirichlet", N, order, nodes, D1, D2, quad, float(a), float(b))
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
