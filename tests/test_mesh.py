import numpy as np
import pytest

from equideform.errors import DomainError, UnsupportedError
from equideform.mesh import TWO_PI, Pairing, build_grid, fornberg_weights


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
    g = build_grid("periodic", 64)
    for k in (1, 3, 10, 25, 31):
        f = np.cos(k * g.nodes)
        assert np.max(np.abs(g.diff1 @ f + k * np.sin(k * g.nodes))) < 1e-9
        assert np.max(np.abs(g.diff2 @ f + k * k * f)) < 1e-7


def test_spectral_diff_is_circulant():
    g = build_grid("periodic", 32)
    first = g.diff1[0]
    for i in range(1, 32):
        assert np.allclose(g.diff1[i], np.roll(first, i), atol=1e-12)


def test_periodic_fd_orders_converge_at_the_advertised_rate():
    """Error ratio between N and 2N approximates 2^order for smooth data."""
    for order in (2, 4):
        errs = []
        for N in (64, 128):
            g = build_grid("periodic", N, order)
            f = np.exp(np.sin(g.nodes))
            exact = np.cos(g.nodes) * f
            errs.append(np.max(np.abs(g.diff1 @ f - exact)))
        rate = np.log2(errs[0] / errs[1])
        assert rate > order - 0.5


def test_dirichlet_diff_exact_on_low_degree_polynomials():
    g = build_grid("dirichlet", 40, order=4, a=0.0, b=2.0)
    x = g.nodes
    f = 1.0 + x - 0.5 * x**2 + 0.125 * x**3
    df = 1.0 - x + 0.375 * x**2
    d2f = -1.0 + 0.75 * x
    assert np.max(np.abs(g.diff1 @ f - df)) < 1e-10
    assert np.max(np.abs(g.diff2 @ f - d2f)) < 1e-8


def test_gregory_weights_integrate_cubics_exactly():
    for N in (7, 12, 33):
        g = build_grid("dirichlet", N, order=4, a=0.0, b=1.0)
        x = g.nodes
        for p, exact in ((0, 1.0), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25)):
            assert abs(g.quad @ x**p - exact) < 1e-13
        assert np.all(g.quad > 0.0)


def test_periodic_quadrature_is_uniform_and_exact_for_trig():
    g = build_grid("periodic", 24)
    assert np.allclose(g.quad, TWO_PI / 24)
    # int cos^2 = pi, int cos = 0: uniform weights are spectrally exact here
    assert abs(g.quad @ np.cos(g.nodes) ** 2 - np.pi) < 1e-13
    assert abs(g.quad @ np.cos(3 * g.nodes)) < 1e-13


def test_pairing_inner_and_norm():
    g = build_grid("periodic", 16)
    pr = Pairing(g.quad)
    u = np.cos(g.nodes)
    assert pr.inner(u, u) == pytest.approx(pr.norm(u) ** 2)
    assert pr.norm(u) > 0.0


def test_grid_construction_guards():
    with pytest.raises(DomainError):
        build_grid("periodic", 4)
    with pytest.raises(DomainError):
        build_grid("dirichlet", 3, order=2)
    with pytest.raises(UnsupportedError):
        build_grid("dirichlet", 16, order="spectral")
    with pytest.raises(DomainError):
        build_grid("dirichlet", 16, order=4, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        build_grid("hexagonal", 16)
