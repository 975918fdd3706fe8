import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from equideform import variational
from equideform.ambient import quadric_embed, quadric_to_chart, sn_lambda
from equideform.equivariance import rank_basis
from equideform.errors import DomainError, ShapeError, UnsupportedError
from equideform.mesh import TWO_PI, build_grid
from equideform.variational import (PROBLEMS, BandJacobiOperator, CmcCircle,
                                    CmcProfile,
                                    HarmonicSphere, HarmonicTorus, Problem,
                                    ProblemState, act,
                                    circle_seed, cmc_circle_radius,
                                    derived_scalars, geodesic_curvature, jacobi,
                                    killing_jacobi_basis, pairing,
                                    profile_cylinder_seed, residual,
                                    residual_norm, sphere_equator_seed,
                                    torus_line_seed, value)


def _jacobi_matrix(J):
    # J = W^-1 (W J), the Jacobi itself, from the Hessian the operator carries
    return J.dense() / J.pairing.weights[:, None]


def off_center_circle(grid, rho, c):
    # polar graph of a circle of radius rho centered at distance c < rho
    th = grid.nodes
    return ProblemState(c * np.cos(th) + np.sqrt(rho**2 - (c * np.sin(th))**2))


# ---------------------------------------------------------------- values

def test_flat_circle_value_is_length_minus_h_area():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.0, 2.0, g)
    # L - H*A = 2*pi*0.5 - 2*(pi*0.25) = pi/2 with the inward-normal sign
    assert value(prob, st, 0.0) == pytest.approx(np.pi / 2, abs=1e-13)


def test_equator_length_at_unit_curvature():
    g = build_grid("periodic", 65)
    prob = CmcCircle(0.0, g)
    st = ProblemState(np.full(65, np.pi / 2))
    assert value(prob, st, 1.0) == pytest.approx(2 * np.pi, abs=1e-12)


def test_torus_line_energy_half():
    g = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 0), g, np.eye(2), np.eye(2))
    assert value(prob, st, 0.0) == pytest.approx(0.5, abs=1e-13)


def test_nonpositive_radius_rejected():
    g = build_grid("periodic", 65)
    prob = CmcCircle(2.0, g)
    with pytest.raises(DomainError):
        value(prob, ProblemState(np.full(65, 1e-4)), 0.0)
    with pytest.raises(DomainError):
        value(prob, ProblemState(np.full(65, np.nan)), 0.0)
    with pytest.raises(ShapeError):
        value(prob, ProblemState(np.ones(32)), 0.0)


# ------------------------------------------------------------- residuals

def test_flat_circle_residual_small():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.0, 2.0, g)
    assert np.max(np.abs(residual(prob, st, 0.0))) < 1e-10


def test_round_circle_residual_small():
    g = build_grid("periodic", 65)
    prob = CmcCircle(2.0, g)
    st = ProblemState(np.full(65, np.arctan(0.5)))
    assert np.max(np.abs(residual(prob, st, 1.0))) < 1e-10


def test_torus_line_residual_exact():
    g = build_grid("periodic", 65)
    Q = np.array([[3.0, 0.7], [0.7, 1.2]])
    prob, st = torus_line_seed((2, 1), g, Q, Q)
    # fft-built stencil rows do not sum to zero at machine precision, and
    # the floor scales with |Q (p, q)|, so exact zero is not attainable
    assert residual_norm(prob, st, 0.0) < 1e-13


def test_sphere_equator_residual_small():
    g = build_grid("periodic", 65)
    prob, st = sphere_equator_seed(g)
    assert residual_norm(prob, st, 1.0) < 1e-10


def test_circle_residual_matches_curvature_defect():
    """residual == (kappa - H) * sn on constant-radius states."""
    g = build_grid("periodic", 65)
    prob = CmcCircle(2.0, g)
    for lam, rho in ((0.0, 0.8), (1.0, 0.6), (-1.0, 0.7)):
        st = ProblemState(np.full(65, rho))
        res = residual(prob, st, lam)
        kap = geodesic_curvature(prob, st, lam)
        sn = {0.0: rho, 1.0: np.sin(rho), -1.0: np.sinh(rho)}[lam]
        assert np.max(np.abs(res - (kap - 2.0) * sn)) < 1e-9


def test_profile_cylinder_residual_and_boundary():
    g = build_grid("dirichlet", 96, order=4, a=0.0, b=1.0)
    prob, st = profile_cylinder_seed(2.0, g)
    res = residual(prob, st, 0.0)
    assert res.size == 94  # the interior radii are the unknowns
    assert np.max(np.abs(res)) < 1e-10
    with pytest.raises(ShapeError):
        residual(prob, ProblemState(np.full(96, 0.5)), 0.0)


# ---------------------------------------------------------------- jacobi

def test_flat_circle_spectrum_and_kernel_count():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.0, 2.0, g)
    J = jacobi(prob, st, 0.0)
    M = _jacobi_matrix(J)
    eig = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert np.sum(np.abs(eig) < 1e-8) == 2
    # discrete pattern (k^2 - 1)/sn, k = 0, +-1, ..., +-32
    rho = 0.5
    k = np.abs(np.fft.fftfreq(65, 1.0 / 65))
    expect = np.sort((k**2 - 1.0) / rho)
    assert np.max(np.abs(np.sort(eig) - expect)) < 1e-9


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("lam", [1.0, 0.0, -2.0])
def test_circle_seed_on_a_built_grid_has_index_one(n, lam):
    # the geodesic circle's second variation has one negative direction,
    # the dilation; build_grid rounds n up to odd, where an even grid's
    # sawtooth would add a second one
    prob, st = circle_seed(lam, 2.0, build_grid("periodic", n))
    J = jacobi(prob, st, lam)
    s = 1.0 / np.sqrt(J.pairing.weights)
    mu = np.linalg.eigvalsh(s[:, None] * J.hessian * s[None, :])
    assert np.count_nonzero(mu < -1e-8 * np.max(np.abs(mu))) == 1


def test_torus_jacobi_kernel_is_constants():
    g = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 0), g, np.eye(2), np.diag([4.0, 1.0]))
    J = jacobi(prob, st, 0.3)
    M = _jacobi_matrix(J)
    eig, vecs = np.linalg.eigh(0.5 * (M + M.T))
    near = np.abs(eig) < 1e-8
    assert np.sum(near) == 2
    for v in vecs[:, near].T:
        u, w = v[:65], v[65:]
        assert np.std(u) < 1e-8 and np.std(w) < 1e-8


def test_sphere_equator_kernel_dimension_three():
    g = build_grid("periodic", 65)
    prob, st = sphere_equator_seed(g)
    J = jacobi(prob, st, 1.0)
    M = _jacobi_matrix(J)
    eig = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert np.sum(np.abs(eig) < 1e-7) == 3


def test_profile_interior_eigenvalues_follow_dirichlet_modes():
    # modes of the Dirichlet operator on the interior unknowns:
    # 2*pi*(rho0*(m*pi/L)^2 - H).
    # The D1^T w D1 stack on a Dirichlet grid interleaves sawtooth ghost
    # branches between the physical modes (centered stencils annihilate the
    # sawtooth), so each oracle is matched to its nearest eigenvalue.
    from scipy.linalg import eigh

    H, L = 2.0, 1.0
    g = build_grid("dirichlet", 160, order=4, a=0.0, b=L)
    prob, st = profile_cylinder_seed(H, g)
    J = jacobi(prob, st, 0.0)
    w = pairing(prob).weights
    WJ = J.dense()
    mu = np.sort(eigh(0.5 * (WJ + WJ.T), np.diag(w), eigvals_only=True))
    rho0 = 1.0 / H
    assert np.all(mu > 0.0)  # short cylinder is stable: trivial kernel
    for m in (1, 2, 3):
        oracle = 2 * np.pi * (rho0 * (m * np.pi / L) ** 2 - H)
        assert np.min(np.abs(mu - oracle)) / abs(oracle) < 1e-3
    # the bottom of the spectrum is the physical first mode
    assert abs(mu[0] - 2 * np.pi * (rho0 * (np.pi / L) ** 2 - H)) < 1e-3 * mu[0]


def test_w_symmetry_of_jacobi_for_all_instances():
    rng = np.random.default_rng(2)
    for prob, st, lam in _all_instances(rng):
        J = jacobi(prob, st, lam)
        WJ = J.dense()
        assert np.linalg.norm(WJ - WJ.T) / np.linalg.norm(WJ) < 1e-10


def test_jacobi_carries_the_hessian_bits():
    # jacobi hands on the Hessian as hess assembled it, unscaled and not
    # symmetrized
    for prob, st, lam in [(*circle_seed(0.5, 2.0, build_grid("periodic", 301)),
                           0.5),
                          (*profile_cylinder_seed(
                              2.0, build_grid("dirichlet", 300, order=4)), 0.0),
                          (*torus_line_seed((1, 1), build_grid("periodic", 151),
                                            np.eye(2), np.eye(2)), 0.0)]:
        want = prob.hess(st.values, lam)
        assert jacobi(prob, st, lam).hessian.tobytes() == want.tobytes()


def _full_grid_profile(prob, rho, k):
    # residual and Hessian of the profile functional on the full grid, with
    # the boundary nodes counted among the unknowns. p is formed as the
    # discretization forms it, by grid.d1, which test_mesh checks row by row
    # against the dense reference D1: the stencils cancel about 1e3-fold in
    # D1 rho, so a dense product's different rounding of p would move the
    # Hessian by about 1e-13 of its largest entry
    w, D1 = prob.grid.quad, prob.grid.diff1
    p = prob.grid.d1(rho)
    sn, snp = sn_lambda(k, rho)
    S = np.sqrt(1.0 + p * p)
    grad = TWO_PI * (w * (snp * S - prob.H * sn) + D1.T @ (w * sn * p / S))
    a = w * TWO_PI * sn / S ** 3
    b = w * TWO_PI * snp * p / S
    c = w * TWO_PI * (-k * sn * S - prob.H * snp)
    B = b[:, None] * D1
    hess = D1.T @ (a[:, None] * D1) + B + B.T + np.diag(c)
    return grad / w, hess


def _profile_oracle(prob, rho, k):
    # the interior block of the full-grid functional
    full = np.concatenate([prob.boundary_radii[:1], rho, prob.boundary_radii[1:]])
    res, hess = _full_grid_profile(prob, full, k)
    return res[1:-1], hess[1:-1, 1:-1]


# The three oracles below are the hand-written gradients and Hessians each
# periodic instance carried before all four were assembled from their
# pointwise densities; they return the residual and the Hessian.

def _circle_oracle(prob, r, lam):
    w, D1 = prob.grid.quad, prob.grid.diff1
    p = D1 @ r
    sn, snp = sn_lambda(lam, r)
    F = np.sqrt(p * p + sn * sn)
    grad = w * (sn * snp / F - prob.H * sn) + D1.T @ (w * p / F)
    a = w * sn * sn / F ** 3
    b = -w * p * sn * snp / F ** 3
    c = w * ((snp * snp - lam * sn * sn) / F - (sn * snp) ** 2 / F ** 3
             - prob.H * snp)
    B = b[:, None] * D1
    return grad / w, D1.T @ (a[:, None] * D1) + B + B.T + np.diag(c)


def _torus_oracle(prob, vals, t):
    w, D1 = prob.grid.quad / TWO_PI, prob.grid.diff1
    Q = prob.ambient(t).Q
    u, v = np.split(vals, 2)
    p, q = prob.homotopy
    f1, f2 = p + TWO_PI * (D1 @ u), q + TWO_PI * (D1 @ v)
    g1 = TWO_PI * (D1.T @ (w * (Q[0, 0] * f1 + Q[0, 1] * f2)))
    g2 = TWO_PI * (D1.T @ (w * (Q[0, 1] * f1 + Q[1, 1] * f2)))
    K = TWO_PI ** 2 * (D1.T @ (w[:, None] * D1))
    return np.concatenate([g1, g2]) / np.tile(w, 2), np.kron(Q, K)


def _sphere_oracle(prob, vals, lam):
    w, D1 = prob.grid.quad / TWO_PI, prob.grid.diff1
    a, b = np.split(vals, 2)
    alpha, beta = TWO_PI * (D1 @ a), TWO_PI * (1.0 + D1 @ b)
    s, co = np.sin(a), np.cos(a)
    ga = w * (s * co * beta * beta / lam) + TWO_PI * (D1.T @ (w * alpha / lam))
    gb = TWO_PI * (D1.T @ (w * s * s * beta / lam))
    Hab = TWO_PI * ((w * 2.0 * s * co * beta / lam)[:, None] * D1)
    hess = np.block([
        [TWO_PI ** 2 * (D1.T @ ((w / lam)[:, None] * D1))
         + np.diag(w * (co * co - s * s) * beta * beta / lam), Hab],
        [Hab.T, TWO_PI ** 2 * (D1.T @ ((w * s * s / lam)[:, None] * D1))]])
    return np.concatenate([ga, gb]) / np.tile(w, 2), hess


def _oracle_case(name, N):
    # a non-critical state, so that every partial of the density is nonzero
    # somewhere, the three parameter values, and the oracle
    if name == "cmc_profile":
        grid = build_grid("dirichlet", N, order=4, a=0.0, b=1.0)
        rho = 0.6 + 0.05 * np.sin(np.pi * grid.nodes) + 0.02 * grid.nodes
        prob = CmcProfile(H=2.0, grid=grid, boundary_radii=(rho[0], rho[-1]))
        return prob, rho[1:-1], (0.0, 0.7, -0.5), _profile_oracle
    grid = build_grid("periodic", N)
    bump = 0.05 * np.cos(grid.nodes) + 0.03 * np.sin(2.0 * grid.nodes)
    if name == "cmc_circle":
        prob, _ = circle_seed(0.0, 2.0, grid)
        return (prob, off_center_circle(grid, 0.5, 0.1).values + bump,
                (0.5, 0.0, -1.0), _circle_oracle)
    if name == "harmonic_torus":
        prob, st = torus_line_seed((1, 2), grid, np.eye(2),
                                   np.array([[2.0, 0.3], [0.3, 1.0]]))
        return (prob, st.values + np.concatenate([bump, -0.5 * bump]),
                (0.0, 0.4, 1.0), _torus_oracle)
    prob, st = sphere_equator_seed(grid)
    return (prob, st.values + np.concatenate([bump, 2.0 * bump]),
            (0.5, 1.0, 2.0), _sphere_oracle)


# Largest |assembled - oracle| allowed, over the largest oracle entry.
# Hessians: the profile oracle groups its products as the assembly does, up
# to (w 2 pi) a against w (2 pi a), which stays below 1e-15. The circle's
# coefficients are grouped differently ((w sn) sn / F^3 against
# w (sn sn / F^3)), a few ulps each, which D1^T diag(a) D1 carries through
# unamplified: 3e-16 measured, 2e-15 allowed. The harmonic oracles scale by
# (2 pi)^2 and 1 / (2 pi) on either side of the N-term sums where the
# assembly scales once before them, and kron(Q, K) rounds once more: 2.4e-15
# measured at N = 513, 2e-14 allowed.
HESS_TOL = {"cmc_circle": 2e-15, "cmc_profile": 1e-15,
            "harmonic_torus": 2e-14, "harmonic_sphere": 2e-14}
# Residuals: the oracles group w Fp as (w p) / F or 2 pi (w a) where the
# assembly forms w (p / F) and w (2 pi a), a few ulps per summand, and
# D1^T of a smooth field returns about 1 / N of its summands' size. So the
# difference reads about N eps of the residual (at most 2.2 N eps measured,
# harmonic_sphere at N = 513); 8 N eps is allowed.
RES_ULPS = 8


@pytest.mark.parametrize("name, N", [(name, N) for name in sorted(PROBLEMS)
                                     for N in (32, 513)]
                         + [("cmc_profile", 1024)])
def test_jacobi_and_residual_match_the_hand_written_oracles(name, N):
    prob, v, lams, oracle = _oracle_case(name, N)
    st = ProblemState(v)
    res_tol = RES_ULPS * N * np.finfo(float).eps
    for lam in lams:
        res, hess = oracle(prob, v, lam)
        got = jacobi(prob, st, lam).dense()
        assert np.max(np.abs(got - hess)) <= HESS_TOL[name] * np.max(np.abs(hess))
        got = residual(prob, st, lam)
        assert np.max(np.abs(got - res)) <= res_tol * np.max(np.abs(res))


def test_no_instance_defines_its_own_value_grad_or_hess():
    # every instance goes through the one discretization of its density
    for cls in PROBLEMS.values():
        for method in ("value", "grad", "hess"):
            assert getattr(cls, method) is getattr(Problem, method), (cls, method)


# ------------------------------------------------- derivative consistency

def _all_instances(rng, perturb=0.0):
    godd = build_grid("periodic", 65)
    gd = build_grid("dirichlet", 64, order=4, a=0.0, b=1.0)
    out = []
    prob, st = circle_seed(0.5, 2.0, godd)
    vals = st.values + perturb * _smooth(rng, godd.nodes)
    out.append((prob, ProblemState(vals), 0.5))
    prob, st = torus_line_seed((1, 1), godd, np.eye(2), np.diag([2.0, 1.0]))
    vals = st.values + perturb * np.concatenate(
        [_smooth(rng, godd.nodes), _smooth(rng, godd.nodes)])
    out.append((prob, ProblemState(vals), 0.4))
    prob, st = sphere_equator_seed(godd)
    vals = st.values + perturb * np.concatenate(
        [_smooth(rng, godd.nodes), _smooth(rng, godd.nodes)])
    out.append((prob, ProblemState(vals), 1.2))
    prob, st = profile_cylinder_seed(2.0, gd)
    bump = _smooth(rng, 2 * np.pi * gd.nodes[1:-1])
    out.append((prob, ProblemState(st.values + perturb * bump), 0.0))
    return out


def _smooth(rng, nodes):
    out = np.zeros_like(nodes)
    for k in range(1, 4):
        out += rng.normal() * np.cos(k * nodes) + rng.normal() * np.sin(k * nodes)
    return out


def test_gradient_matches_value_differences():
    rng = np.random.default_rng(14)
    h = 1e-5
    for prob, st, lam in _all_instances(rng, perturb=3e-2):
        w = pairing(prob).weights
        for _ in range(4):
            v = np.zeros(st.values.size)
            n = v.size // 2 if v.size % 2 == 0 else v.size
            # perturb every component family with smooth profiles
            if st.values.size == 2 * prob.grid.N:  # two chart components
                half = st.values.size // 2
                v[:half] = _smooth(rng, np.linspace(0, 2 * np.pi, half, endpoint=False))
                v[half:] = _smooth(rng, np.linspace(0, 2 * np.pi, v.size - half, endpoint=False))
            else:
                v = _smooth(rng, np.linspace(0, 2 * np.pi, v.size, endpoint=False))
            fp = value(prob, ProblemState(st.values + h * v), lam)
            fm = value(prob, ProblemState(st.values - h * v), lam)
            fd = (fp - fm) / (2 * h)
            inner = float(np.dot(w * residual(prob, st, lam), v))
            assert abs(fd - inner) / max(abs(inner), 1e-8) < 1e-6


def test_hessian_matches_residual_differences():
    rng = np.random.default_rng(15)
    for prob, st, lam in _all_instances(rng, perturb=3e-2):
        J = jacobi(prob, st, lam)
        h = 1e-6 if isinstance(prob, CmcProfile) else 1e-5
        for _ in range(3):
            v = rng.standard_normal(st.values.size)
            v = np.fft.irfft(np.fft.rfft(v)[:4], st.values.size)  # smooth it
            rp = residual(prob, ProblemState(st.values + h * v), lam)
            rm = residual(prob, ProblemState(st.values - h * v), lam)
            fd = (rp - rm) / (2 * h)
            Jv = _jacobi_matrix(J) @ v
            denom = max(np.linalg.norm(Jv), 1e-10)
            assert np.linalg.norm(fd - Jv) / denom < 1e-5


# --------------------------------------------------------- group actions

def test_value_invariant_under_killing_motions():
    rng = np.random.default_rng(16)
    cases = []
    cases.append(circle_seed(0.5, 2.0, build_grid("periodic", 129)) + (0.5,))
    godd = build_grid("periodic", 65)
    cases.append(torus_line_seed((1, 0), godd, np.eye(2), np.eye(2)) + (0.0,))
    cases.append(sphere_equator_seed(godd) + (1.0,))
    for prob, st, lam in cases:
        f0 = value(prob, st, lam)
        k = len(prob.generators(lam))
        for _ in range(5):
            t = rng.uniform(-0.1, 0.1, k)
            moved = act(prob, st, lam, t)
            assert abs(value(prob, moved, lam) - f0) < 1e-8


def test_act_zero_is_identity_and_shapes_are_checked():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.0, 2.0, g)
    same = act(prob, st, 0.0, np.zeros(2))
    assert np.array_equal(same.values, st.values)
    with pytest.raises(ShapeError):
        act(prob, st, 0.0, np.zeros(3))
    with pytest.raises(DomainError):
        act(prob, st, 0.0, np.array([3.0, 0.0]))  # leaves the radial chart


def test_profile_action_is_trivial():
    g = build_grid("dirichlet", 48, order=4, a=0.0, b=1.0)
    prob, st = profile_cylinder_seed(2.0, g)
    assert len(prob.generators(0.0)) == 0
    moved = act(prob, st, 0.0, np.zeros(0))
    assert np.array_equal(moved.values, st.values)


def test_flat_translation_moves_the_center():
    g = build_grid("periodic", 129)
    prob, st = circle_seed(0.0, 2.0, g)
    moved = act(prob, st, 0.0, np.array([0.07, 0.0]))
    ref = off_center_circle(g, 0.5, 0.07)
    assert np.max(np.abs(moved.values - ref.values)) < 1e-10


def _act_by_brentq(prob, state, lam, t):
    # reference: the full-matrix interpolant and one scalar brentq per node
    gens = prob.generators(lam)
    g = expm(t[0] * gens[0] + t[1] * gens[1])
    n = state.values.size
    coef = np.fft.fft(state.values) / n
    wave = np.fft.fftfreq(n, d=1.0 / n)

    def moved(theta):
        th = np.atleast_1d(theta)
        r = (np.exp(1j * np.outer(th, wave)) @ coef).real
        return quadric_to_chart(lam, g @ quadric_embed(lam, r, th))

    dense = np.linspace(0.0, TWO_PI, 4 * n, endpoint=False)
    shift = np.max(np.abs(variational._wrap_pi(moved(dense)[1] - dense)))
    half = shift + 0.1
    out = np.empty(n)
    for j, target in enumerate(prob.grid.nodes):
        def fj(th):
            return variational._wrap_pi(moved(th)[1][0] - target)

        root = brentq(fj, target - half, target + half, xtol=1e-14, rtol=8.9e-16)
        out[j] = moved(root)[0][0]
    return out


@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [64, 65, 256])
def test_circle_act_matches_per_node_brentq(n, lam):
    g = build_grid("periodic", n)
    prob, st = circle_seed(lam, 2.0, g)
    rng = np.random.default_rng(n)
    for _ in range(2):
        t = rng.uniform(-0.05, 0.05, 2)
        moved = act(prob, st, lam, t)
        assert np.max(np.abs(moved.values - _act_by_brentq(prob, st, lam, t))) < 1e-14


def _interp_error_bound(coef, theta):
    # first-order rounding bound of _trig_interp, u = 2^-53:
    # - z = exp(i theta): cos and sin within one ulp each, |dz| <= 2u
    # - z^k by k - 1 complex products, each within sqrt(5) u (Brent,
    #   Percival & Zimmermann, Math. Comp. 76, 2007): |dz^k| <= (2k +
    #   sqrt(5) (k - 1)) u
    # - the K-term complex dot product with c_1..c_K: sqrt(2) gamma_{K+2}
    #   sum |c_k| (Higham, Accuracy and Stability, 2002, sec. 3.6)
    # - adding c_0: u per add on |result| <= sum |c|
    u = 2.0**-53
    n = coef.size
    K = (n - 1) // 2
    k = np.arange(1, K + 1)
    ck = np.abs(coef[1:K + 1])
    powers = 2.0 * np.sum(ck * (2.0 * k + np.sqrt(5.0) * (k - 1))) * u
    dot = 2.0 * np.sqrt(2.0) * (K + 2) * u / (1 - (K + 2) * u) * np.sum(ck)
    adds = 2 * u * (abs(coef[0]) + 2.0 * np.sum(ck))
    return powers + dot + adds


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("n", [9, 64, 65, 129, 1024, 1025])
def test_trig_interp_matches_a_long_double_cosine_sum(n):
    # n is the size asked of build_grid; an even n gives the odd grid n + 1
    nodes = build_grid("periodic", n).nodes
    rng = np.random.default_rng(n)
    n = nodes.size
    vals = 1.0 + 0.1 * rng.standard_normal(n)
    theta = np.concatenate([nodes, rng.uniform(-np.pi, 3 * np.pi, 3 * n)])
    got = variational._trig_interp(vals)(theta)
    # the reference sums the same coefficients in long double, with
    # a_k cos(k theta) - b_k sin(k theta); k theta is exact there for
    # k < 2^11, and the sum's own rounding is about 2^-11 of the bound below
    coef = np.fft.fft(vals) / n
    K = (n - 1) // 2
    c = coef.astype(np.clongdouble)
    th = theta.astype(np.longdouble)
    ref = np.full(th.shape, c[0].real)
    for k in range(1, K + 1):
        ref += 2 * (c[k].real * np.cos(k * th) - c[k].imag * np.sin(k * th))
    err = np.abs(got.astype(np.longdouble) - ref)
    assert np.all(err <= _interp_error_bound(coef, theta))


def test_circle_act_rejects_an_unconverged_node(monkeypatch):
    real = variational._bracketed_newton

    def one_node_fails(*args, **kwargs):
        x, converged = real(*args, **kwargs)
        converged = converged.copy()
        converged[5] = False
        return x, converged

    monkeypatch.setattr(variational, "_bracketed_newton", one_node_fails)
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.5, 2.0, g)
    with pytest.raises(DomainError, match="1 of 65 nodes"):
        act(prob, st, 0.5, np.array([0.02, -0.01]))


def test_bracketed_newton_bisects_and_flags_a_missing_root():
    # component 0: Newton from 0 overshoots the steep arctan, so bisection
    # steps in; 1: a root at the start; 2: the root 2 lies outside the
    # bracket that is assumed, and no step may call it converged
    def fun(x):
        f = np.array([np.arctan(40.0 * (x[0] - 0.61)), x[1] - 0.25, x[2] - 2.0])
        fp = np.array([40.0 / (1.0 + (40.0 * (x[0] - 0.61)) ** 2), 1.0, 1.0])
        return f, fp

    calls = []

    def counted(x):
        calls.append(x.copy())
        return fun(x)

    x, converged = variational._bracketed_newton(
        counted, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [0.0, 0.25, 0.0])
    assert converged.tolist() == [True, True, False]
    assert abs(x[0] - 0.61) <= 2e-16 and x[1] == 0.25
    assert np.all(np.abs(x) <= 1.0)  # never left the bracket
    assert len(calls) == 100  # the missing root runs all 100 steps


def test_circle_act_memory_is_bounded():
    # the dense 4N-angle check must not build a 4N x N complex matrix
    g = build_grid("periodic", 1025)
    prob, st = circle_seed(0.5, 2.0, g)
    tracemalloc.start()
    try:
        act(prob, st, 0.5, np.array([0.02, -0.01]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ----------------------------------------------------- killing machinery

def test_killing_jacobi_fields_of_centered_flat_circle():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.0, 2.0, g)
    fields = killing_jacobi_basis(prob, st, 0.0)
    assert len(fields) == 3
    # rotation field has zero normal component on a centered circle
    norms = sorted(float(np.max(np.abs(f))) for f in fields)
    assert norms[0] < 1e-12
    span = np.column_stack([np.cos(g.nodes), np.sin(g.nodes)])
    M = np.column_stack(fields)
    coef, res_, _, _ = np.linalg.lstsq(span, M, rcond=None)
    assert np.max(np.abs(span @ coef - M)) < 1e-10


def test_killing_jacobi_annihilation_at_critical_states():
    rng = np.random.default_rng(19)
    for prob, st, lam in _all_instances(rng):
        J = jacobi(prob, st, lam)
        w = pairing(prob).weights
        for hk in killing_jacobi_basis(prob, st, lam):
            hn = np.sqrt(np.dot(w * hk, hk))
            if hn < 1e-12:
                continue
            Jhk = _jacobi_matrix(J) @ hk
            Jh = np.sqrt(np.dot(w * Jhk, Jhk))
            assert Jh < 1e-6 * hn


def test_torus_and_sphere_killing_ranks():
    godd = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 0), godd, np.eye(2), np.eye(2))
    fields = killing_jacobi_basis(prob, st, 0.0)
    assert len(fields) == 3  # two translations plus the pushed-forward rotation
    M = np.column_stack(fields)
    assert np.linalg.matrix_rank(M, tol=1e-8) == 2
    prob, st = sphere_equator_seed(godd)
    fields = killing_jacobi_basis(prob, st, 1.0)
    assert len(fields) == 4
    assert np.linalg.matrix_rank(np.column_stack(fields), tol=1e-8) == 3


def test_orbit_generator_counts():
    godd = build_grid("periodic", 65)
    gd = build_grid("dirichlet", 32, order=4, a=0.0, b=1.0)
    prob, _ = circle_seed(0.0, 2.0, godd)
    assert len(prob.generators(0.0)) == 2
    probt, _ = torus_line_seed((1, 0), godd, np.eye(2), np.eye(2))
    assert len(probt.generators(0.0)) == 2
    probs, _ = sphere_equator_seed(godd)
    assert len(probs.generators(1.0)) == 3
    probp, _ = profile_cylinder_seed(2.0, gd)
    assert len(probp.generators(0.0)) == 0


# ------------------------------------------------------------ curvature

def test_geodesic_curvature_closed_forms():
    g = build_grid("periodic", 65)
    prob = CmcCircle(2.0, g)
    for lam, rho, expect in ((0.0, 0.5, 2.0),
                             (1.0, 0.7, 1.0 / np.tan(0.7)),
                             (-1.0, 0.7, 1.0 / np.tanh(0.7))):
        st = ProblemState(np.full(65, rho))
        kap = geodesic_curvature(prob, st, lam)
        assert np.max(np.abs(kap - expect)) < 1e-10


@pytest.mark.parametrize("lam", [1.0, 0.0, -1.0])
def test_geodesic_curvature_of_a_moved_circle(lam):
    # an off-center geodesic circle has a varying radius, so r'' = D1 D1 r
    # enters kappa; the motion keeps kappa = H at every node
    prob, st = circle_seed(lam, 2.0, build_grid("periodic", 129))
    moved = act(prob, st, lam, np.array([0.04, -0.03]))
    assert np.ptp(moved.values) > 0.05
    kap = geodesic_curvature(prob, moved, lam)
    assert np.max(np.abs(kap - 2.0)) < 1e-10


def test_geodesic_curvature_rejects_other_instances():
    godd = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 0), godd, np.eye(2), np.eye(2))
    with pytest.raises(UnsupportedError):
        geodesic_curvature(prob, st, 0.0)


# ---------------------------------------------------------- convergence

def test_residual_spectral_decay_under_grid_doubling():
    errs = []
    for N in (65, 129):
        g = build_grid("periodic", N)
        prob = CmcCircle(2.0, g)
        st = off_center_circle(g, 0.5, 0.42)
        errs.append(residual_norm(prob, st, 0.0))
    assert errs[0] / errs[1] >= 1e2


# ------------------------------------------------------- derived scalars

def test_derived_scalars_per_instance():
    godd = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, godd)
    d = derived_scalars(prob, st, 1.0)
    assert d["radius"] == pytest.approx(np.arctan(0.5), abs=1e-12)
    probt, stt = torus_line_seed((1, 0), godd, np.eye(2), np.diag([4.0, 1.0]))
    assert derived_scalars(probt, stt, 1.0)["length"] == pytest.approx(2.0, abs=1e-12)
    assert derived_scalars(probt, stt, 0.0)["length"] == pytest.approx(1.0, abs=1e-12)
    probs, sts = sphere_equator_seed(godd)
    d = derived_scalars(probs, sts, 1.7)
    assert d["length_times_sqrt_lambda"] == pytest.approx(2 * np.pi, abs=1e-10)
    gd = build_grid("dirichlet", 64, order=4, a=0.0, b=1.0)
    probp, stp = profile_cylinder_seed(2.0, gd)
    assert derived_scalars(probp, stp, 0.0)["max_H_error"] < 1e-10


def test_cmc_circle_radius_closed_forms_and_domain():
    assert cmc_circle_radius(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert cmc_circle_radius(1.0, 2.0) == pytest.approx(np.arctan(0.5), rel=1e-14)
    assert cmc_circle_radius(-1.0, 2.0) == pytest.approx(np.arctanh(0.5), rel=1e-14)
    with pytest.raises(DomainError):
        cmc_circle_radius(-4.0, 2.0)  # lambda <= -H^2: no closed circle
    with pytest.raises(DomainError):
        cmc_circle_radius(0.0, 0.0)


def test_sphere_rejects_nonpositive_curvature_parameter():
    godd = build_grid("periodic", 65)
    prob, st = sphere_equator_seed(godd)
    with pytest.raises(DomainError):
        value(prob, st, 0.0)
    with pytest.raises(DomainError):
        value(prob, st, -1.0)


# ------------------------------------------------- Jacobi storage contract


def _jacobi_cases():
    # a dense circle, a dense torus, and a band profile bumped off the
    # cylinder so that its band varies along the nodes
    prob, st = circle_seed(0.5, 2.0, build_grid("periodic", 17))
    yield "circle", prob, st, 0.5
    prob, st = torus_line_seed((1, 1), build_grid("periodic", 17), np.eye(2),
                               np.array([[2.0, 0.3], [0.3, 1.0]]))
    yield "torus", prob, st, 0.5
    prob, st = profile_cylinder_seed(2.0, build_grid("dirichlet", 17,
                                                     order=4))
    z = prob.grid.nodes[1:-1]
    bumped = ProblemState(st.values + 0.02 * np.sin(np.pi * z))
    yield "profile", prob, bumped, 0.0


@pytest.mark.parametrize("case", list(_jacobi_cases()), ids=lambda c: c[0])
def test_jacobi_storage_classes_keep_one_contract(case):
    name, prob, st, lam = case
    J = jacobi(prob, st, lam)
    assert isinstance(J, BandJacobiOperator) == (name == "profile")
    w = J.pairing.weights
    D = J.dense()
    n = len(w)
    before = J.hessian.copy()
    shifted = J.shifted(0.37)
    assert type(shifted) is type(J)
    assert np.array_equal(shifted.dense(), D + 0.37 * np.diag(w))
    assert np.array_equal(J.hessian, before)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    assert (np.linalg.norm(J.matvec(v) - D @ v)
            <= 1e-14 * np.linalg.norm(D) * np.linalg.norm(v))
    reduced, sw = J.scaled_reduction()
    assert np.array_equal(sw, np.sqrt(w))
    want = np.linalg.eigvalsh(D / np.outer(sw, sw))
    assert (np.max(np.abs(reduced.eigenvalues - want))
            <= 1e-13 * np.max(np.abs(want)))
    # the band has no Killing columns to border; the dense cases border
    # with their W-orthonormal Killing rank basis
    B = rank_basis(killing_jacobi_basis(prob, st, lam), w)
    assert B.shape[1] == {"circle": 2, "torus": 2, "profile": 0}[name]
    k = B.shape[1]
    WB = w[:, None] * B
    M = np.block([[D, WB], [WB.T, np.zeros((k, k))]])
    rhs = rng.standard_normal(n + k)
    want = np.linalg.solve(M, rhs)
    got = J.bordered_reduction(B).solve(rhs)
    assert (np.linalg.norm(got - want)
            <= 1e-14 * np.linalg.cond(M) * np.linalg.norm(want))
