import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equideform import mesh
from equideform.errors import DomainError, UnsupportedError
from equideform.mesh import TWO_PI, Grid, build_grid, fornberg_weights, wnorm


# --------------------------------------------- reference constructions
# the index-gather circulant and the per-node Fornberg loop the grids were
# first built with; the grids must stay bitwise equal to them


def _reference_fornberg(z, x, m):
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


def _reference_circulant(gen):
    N = len(gen)
    idx = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
    return np.asarray(gen)[idx]


def _reference_spectral(N):
    k = np.fft.fftfreq(N, d=1.0 / N)
    delta = np.zeros(N)
    delta[0] = 1.0
    g1 = np.real(np.fft.ifft(1j * k * np.fft.fft(delta)))
    rev = (-np.arange(N)) % N
    D1 = _reference_circulant(g1[rev])
    return 0.5 * (D1 - D1.T), np.full(N, TWO_PI / N)


def _reference_dirichlet(N, order):
    x = np.linspace(0.0, 1.0, N)
    D1 = np.zeros((N, N))
    w1 = min(5, N) if order == 4 else min(3, N)
    for i in range(N):
        lo = min(max(i - w1 // 2, 0), N - w1)
        D1[i, lo:lo + w1] = _reference_fornberg(x[i], x[lo:lo + w1], 1)[:, 1]
    h = 1.0 / (N - 1)
    quad = np.full(N, h)
    if N >= 7:
        edge = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        quad[:3] = edge * h
        quad[-3:] = edge[::-1] * h
    else:
        quad[0] = quad[-1] = 0.5 * h
    return D1, quad


_REFERENCE_GRIDS = (
    # an even N builds the odd grid N + 1, bitwise
    [(("periodic", N, "spectral"), _reference_spectral, (N | 1,))
     for N in (8, 9, 64, 65, 1024, 1025)]
    + [(("dirichlet", N, order), _reference_dirichlet, (N, order))
       for order in (2, 4) for N in (4, 5, 17, 33, 1024)])


@pytest.mark.parametrize("args, reference, ref_args", _REFERENCE_GRIDS,
                         ids=[f"{k}-{N}-{o}" for (k, N, o), _, _ in
                              _REFERENCE_GRIDS])
def test_grids_are_bitwise_equal_to_the_reference_construction(
        args, reference, ref_args):
    g = build_grid(*args)
    D1, quad = reference(*ref_args)
    for got, want in ((g.diff1, D1), (g.quad, quad)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert g.diff1.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("N", [4, 5, 17, 1024])
def test_band_apply_matches_the_reference_matrix(N, order):
    # d1 and d1t against the per-node reference D1 and its transpose, on
    # every row, the one-sided edge rows included, within the rounding of
    # the two sums over a stencil
    g = build_grid("dirichlet", N, order)
    D1 = _reference_dirichlet(N, order)[0]
    assert g.band.shape == (2 * min(order, N - 1) + 1, N)
    rng = np.random.default_rng(N + order)
    u, v = rng.standard_normal((2, N))
    scale = len(g.band) * np.finfo(float).eps
    for got, M, x in ((g.d1(u), D1, u), (g.d1t(v), D1.T, v)):
        assert got.shape == (N,)
        assert np.all(np.abs(got - M @ x) <= scale * (np.abs(M) @ np.abs(x)))


def test_fornberg_batch_equals_single_centre_calls():
    rng = np.random.default_rng(5)
    for n, m in ((1, 0), (3, 2), (5, 2), (6, 4)):
        x = np.sort(rng.uniform(-1.0, 1.0, (7, n)), axis=1)
        z = rng.uniform(-1.0, 1.0, 7)
        batch = fornberg_weights(z, x, m)
        assert batch.shape == (7, n, m + 1)
        for zi, xi, ci in zip(z, x, batch):
            single = fornberg_weights(zi, xi, m)
            assert single.tobytes() == _reference_fornberg(zi, xi, m).tobytes()
            assert ci.tobytes() == single.tobytes()


def test_fornberg_weights_differentiate_polynomials_exactly():
    # weights on m+1 scattered nodes are exact for degree <= m
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = rng.integers(2, 7)
        x = np.sort(rng.uniform(-1.0, 1.0, m + 1))
        z = rng.uniform(x[0], x[-1])
        coeffs = rng.standard_normal(m + 1)
        w = fornberg_weights(z, x, 2)  # (len(x), 3): columns by derivative
        p = np.polynomial.polynomial.Polynomial(coeffs)
        assert abs(w[:, 0] @ p(x) - p(z)) < 1e-10
        assert abs(w[:, 1] @ p(x) - p.deriv(1)(z)) < 1e-9
        assert abs(w[:, 2] @ p(x) - p.deriv(2)(z)) < 1e-8


def test_spectral_derivatives_exact_on_trig_modes():
    # on an odd grid D1 applied twice is the spectral second derivative
    g = build_grid("periodic", 65)
    for k in (1, 3, 10, 25, 31):
        f = np.cos(k * g.nodes)
        assert np.max(np.abs(g.diff1 @ f + k * np.sin(k * g.nodes))) < 1e-9
        assert np.max(np.abs(g.d1(g.d1(f)) + k * k * f)) < 1e-7


def test_spectral_diff_is_circulant():
    g = build_grid("periodic", 33)
    first = g.diff1[0]
    for i in range(1, 33):
        assert np.allclose(g.diff1[i], np.roll(first, i), atol=1e-12)


def test_dirichlet_diff_exact_on_low_degree_polynomials():
    g = build_grid("dirichlet", 40, order=4, a=0.0, b=2.0)
    x = g.nodes
    f = 1.0 + x - 0.5 * x**2 + 0.125 * x**3
    df = 1.0 - x + 0.375 * x**2
    assert np.max(np.abs(g.diff1 @ f - df)) < 1e-10


def test_gregory_weights_integrate_cubics_exactly():
    for N in (7, 12, 33):
        g = build_grid("dirichlet", N, order=4, a=0.0, b=1.0)
        x = g.nodes
        for p, exact in ((0, 1.0), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25)):
            assert abs(g.quad @ x**p - exact) < 1e-13
        assert np.all(g.quad > 0.0)


def test_periodic_quadrature_is_uniform_and_exact_for_trig():
    g = build_grid("periodic", 25)
    assert np.allclose(g.quad, TWO_PI / 25)
    # int cos^2 = pi, int cos = 0: uniform weights are spectrally exact here
    assert abs(g.quad @ np.cos(g.nodes) ** 2 - np.pi) < 1e-13
    assert abs(g.quad @ np.cos(3 * g.nodes)) < 1e-13


def test_pairing_norm():
    g = build_grid("periodic", 17)
    u = np.cos(g.nodes)
    assert np.dot(g.quad * u, u) == pytest.approx(wnorm(g.quad, u) ** 2)
    assert wnorm(g.quad, u) == pytest.approx(np.sqrt(np.pi))
    assert wnorm(g.quad, u) > 0.0


def test_grid_construction_guards():
    with pytest.raises(DomainError):
        build_grid("periodic", 4)
    with pytest.raises(DomainError):
        build_grid("dirichlet", 3, order=2)
    with pytest.raises(UnsupportedError):
        build_grid("dirichlet", 16, order="spectral")
    for order in (2, 4):
        with pytest.raises(UnsupportedError, match=f"order {order}"):
            build_grid("periodic", 17, order)
    with pytest.raises(DomainError):
        build_grid("dirichlet", 16, order=4, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        build_grid("hexagonal", 16)


def test_periodic_grids_are_odd():
    # an even grid's sawtooth mode lies in the kernel of diff1 and fakes
    # Jacobi kernel and Morse-index modes, so build_grid rounds N up to odd
    # and a Grid refuses an even periodic N
    g = build_grid("periodic", 64)
    assert g.N == 65 and g.nodes.shape == g.quad.shape == (65,)
    with pytest.raises(DomainError, match="odd"):
        Grid("periodic", 64, TWO_PI * np.arange(64) / 64,
             np.full(64, TWO_PI / 64))
    with pytest.raises(DomainError, match="N >= 8"):
        build_grid("periodic", 7)


# ------------------------------------------------ the spectrum of a reduction

# entries of a random symmetric tridiagonal: exact zeros, moduli near 1e-12,
# which split off pairs +-eps from zero diagonals, and order one
ENTRY = st.one_of(st.just(0.0), st.sampled_from([1e-12, -1e-12, 2e-12]),
                  st.floats(-1.0, 1.0, allow_subnormal=False))


@st.composite
def tridiagonals(draw):
    """(d, e) of a symmetric tridiagonal, e padded to max(n - 1, 1) as the
    reductions pad it; n in {1, 2, 3} or larger, and the all-zero T."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    if draw(st.integers(0, 9)) == 0:
        return np.zeros(n), np.zeros(max(n - 1, 1))
    d = np.array(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    e = np.zeros(max(n - 1, 1))
    e[:n - 1] = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
    return d, e


def _dense(d, e):
    n = len(d)
    return np.diag(d) + np.diag(e[:n - 1], 1) + np.diag(e[:n - 1], -1)


SPECTRUM_EXAMPLES = settings(max_examples=300, deadline=None,
                             derandomize=True)


@SPECTRUM_EXAMPLES
@given(T=tridiagonals())
def test_negcount_counts_the_eigenvalues_below_a_point(T):
    # at every point away from the eigenvalues: below and above the
    # spectrum and midway between neighbours that differ
    d, e = T
    mu = np.linalg.eigvalsh(_dense(d, e))
    top = np.max(np.abs(mu))
    away = 1e-13 * max(top, 1.0)
    ends = [mu[0] - 1.0, mu[-1] + 1.0]
    mids = [0.5 * (a + b) for a, b in zip(mu, mu[1:]) if b - a > 2.0 * away]
    spectrum = mesh._Spectrum(d, e)
    for x in ends + mids:
        assert spectrum.negcount(x) == np.count_nonzero(mu < x), x


@SPECTRUM_EXAMPLES
@given(T=tridiagonals(), data=st.data())
def test_bisected_eigenvalues_and_norm_match_eigvalsh(T, data):
    d, e = T
    n = len(d)
    mu = np.linalg.eigvalsh(_dense(d, e))
    top = np.max(np.abs(mu))
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    spectrum = mesh._Spectrum(d, e)
    got = spectrum.eigenvalues(lo, hi)
    assert got.shape == (hi - lo + 1,)
    assert np.max(np.abs(got - mu[lo:hi + 1])) <= 1e-13 * top
    assert abs(spectrum.norm() - top) <= 1e-13 * top


def test_negcount_at_a_zero_pivot():
    # T = [[0, 1], [1, 0]] at 0: the first pivot is +0, on which dlarrc
    # alone counts two eigenvalues below 0
    spectrum = mesh._Spectrum(np.zeros(2), np.ones(1))
    assert spectrum.negcount(0.0) == 1
    assert spectrum.norm() == pytest.approx(1.0, rel=1e-15)


def test_bisection_cures_an_index_dstebz_cannot_split():
    # T = diag(2) + [[1, 0.5], [0.5, 0.5]]: dstebz asked for index 2 alone
    # finds none (info 2), and every eigenvalue is bisected instead
    d, e = np.array([2.0, 1.0, 0.5]), np.array([0.0, 0.5])
    with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
        mesh._bisect(d, e, 2, 2, b"B")
    spectrum = mesh._Spectrum(d, e)
    mu = np.linalg.eigvalsh(_dense(d, e))
    assert np.max(np.abs(spectrum.eigenvalues(1, 2) - mu[1:])) <= 1e-15
    assert spectrum.eigenvalues(2, 2)[0] == 2.0
    assert spectrum.norm() == 2.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["d", "e"])
def test_a_non_finite_tridiagonal_is_refused(where, value):
    # dstebz bisects a T holding a NaN to finite eigenvalues, so the
    # spectrum refuses it before any count
    d, e = np.linspace(0.1, 5.0, 50), np.full(49, 0.5)
    {"d": d, "e": e}[where][7] = value
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        mesh._Spectrum(d, e)
