import configparser

import numpy as np
import pytest

from scipy.linalg import subspace_angles

from equideform import continuation, mesh
from equideform.cli import _build_problem, _Config
from equideform.continuation import (ContinuationConfig, _bordered_update,
                                     continue_branch, corrector_step)
from equideform.errors import (IllConditioned, PreconditionError, ShapeError,
                               UnsupportedError)
from equideform.equivariance import (GAP_FLOOR, _principal_angles,
                                     nondegeneracy_report,
                                     numerical_kernel, operator_diagnostics,
                                     rank_basis, transversality_margin)
from equideform.mesh import (BandJacobiOperator, JacobiOperator,
                             _Tridiagonal, build_grid)
from equideform.variational import (ProblemState, act, circle_seed, jacobi,
                                    killing_jacobi_basis,
                                    profile_cylinder_seed, residual_norm,
                                    sphere_equator_seed, torus_line_seed)


def _flat_circle(N=65, H=2.0):
    g = build_grid("periodic", N)
    prob, st = circle_seed(0.0, H, g)
    return prob, st


def _w_orthonormality_defect(vectors, w):
    if vectors.shape[1] == 0:
        return 0.0
    G = vectors.T @ (w[:, None] * vectors)
    return float(np.max(np.abs(G - np.eye(vectors.shape[1]))))


# --------------------------------------------- tridiagonal reduction


def _random_symmetric(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A + A.T


def _bordered(prob, st, lam):
    # the symmetric matrix corrector_step reduces: [[W J, W B], [B^T W, 0]]
    w = prob.weights()
    B = rank_basis(killing_jacobi_basis(prob, st, lam), w)
    k = B.shape[1]
    WB = w[:, None] * B
    M = np.block([[jacobi(prob, st, lam).dense(), WB],
                  [WB.T, np.zeros((k, k))]])
    return M, k


def _bordered_cases():
    # k = 0: Dirichlet profile; k = 2: round circle; k = 3: sphere equator
    yield _bordered(*profile_cylinder_seed(2.0, build_grid("dirichlet", 64,
                                                           order=4)), 0.0)
    yield _bordered(*circle_seed(1.0, 2.0, build_grid("periodic", 65)), 1.0)
    yield _bordered(*sphere_equator_seed(build_grid("periodic", 33)), 1.0)


def _oracle_matrices():
    for n in (1, 2, 65):
        yield f"random n={n}", _random_symmetric(n, seed=n)
    for M, k in _bordered_cases():
        yield f"bordered k={k}", 0.5 * (M + M.T)


def test_reduction_eigenvalues_match_eigh():
    for name, A in _oracle_matrices():
        mu = np.linalg.eigh(A)[0]
        got = _Tridiagonal(A).eigenvalues(0, len(A) - 1)
        assert np.max(np.abs(got - mu)) <= 1e-13 * np.max(np.abs(mu)), name


def test_reduction_eigenvalues_of_real_operators_match_eigh():
    for prob, st, lam in [(*_flat_circle(), 0.0),
                          (*sphere_equator_seed(build_grid("periodic", 65)),
                           1.0)]:
        A, _ = _scaled(jacobi(prob, st, lam))
        mu = np.linalg.eigh(A)[0]
        got = _Tridiagonal(A).eigenvalues(0, len(A) - 1)
        assert np.max(np.abs(got - mu)) <= 1e-13 * np.max(np.abs(mu))


def test_reduction_solve_matches_spectral_inverse():
    rng = np.random.default_rng(11)
    for name, A in _oracle_matrices():
        mu, Q = np.linalg.eigh(A)
        assert np.max(np.abs(mu)) / np.min(np.abs(mu)) <= 1e8, name
        b = rng.standard_normal(A.shape[0])
        want = Q @ ((Q.T @ b) / mu)
        got = _Tridiagonal(A).solve(b)
        assert got.shape == b.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_reduction_eigenvectors_rebuild_the_matrix():
    for name, A in _oracle_matrices():
        red = _Tridiagonal(A)
        n = A.shape[0]
        V = red.eigenvectors(0, n - 1)
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-13, name
        rebuilt = (V * red.eigenvalues(0, n - 1)) @ V.T
        assert np.max(np.abs(rebuilt - A)) < 1e-13 * np.max(np.abs(A)), name


def _shifted(J, shift):
    # J + shift I, carried as W J + shift W
    return JacobiOperator(hessian=J.hessian + shift * np.diag(J.weights),
                          weights=J.weights)


def _scaled(J):
    # W^-1/2 (W J) W^-1/2 with the square roots of W, divided as
    # scaled_reduction divides
    sw = np.sqrt(J.weights)
    return J.dense() / sw[:, None] / sw[None, :], sw


def _eigh_kernel(J, tol):
    # the kernel the full eigendecomposition gives, in the W geometry
    A, sw = _scaled(J)
    mu, V = np.linalg.eigh(A)
    return V[:, np.abs(mu) < tol] / sw[:, None]


@pytest.mark.parametrize("case, dim", [("shifted circle", 0), ("circle", 2),
                                       ("sphere", 3)])
def test_kernel_vectors_match_eigh_kernel(case, dim):
    if case == "sphere":
        prob, st = sphere_equator_seed(build_grid("periodic", 65))
        J = jacobi(prob, st, 1.0)
    else:
        prob, st = _flat_circle()
        J = jacobi(prob, st, 0.0)
        if case == "shifted circle":
            J = _shifted(J, 0.5)
    # the kernel's reduction takes J's storage, so the oracle reads a copy
    oracle = JacobiOperator(J.dense().copy(), J.weights)
    kb = numerical_kernel(J)
    want = _eigh_kernel(oracle, kb.tolerance)
    assert kb.dim == want.shape[1] == dim
    if dim:
        sw = np.sqrt(J.weights)[:, None]
        angles = subspace_angles(sw * kb.vectors, sw * want)
        assert np.max(angles) <= 1e-12


def _failing_lapack(monkeypatch, name):
    """Make mesh's binding of the LAPACK routine name run, then report info
    = 1 (for dstein, one eigenvector that did not converge)."""
    routine = mesh._LAPACK[name]

    def failing(*args):
        routine(*args)
        args[-1].value = 1

    monkeypatch.setitem(mesh._LAPACK, name, failing)


def test_kernel_reduction_failure_is_ill_conditioned(monkeypatch):
    # each storage's reduction to T, then the counts and bisections the
    # kernel reads from T
    for storage, names in (("dense", ("dsytrd", "dlarrc", "dstebz")),
                           ("band", ("dsbtrd", "dlarrc", "dstebz"))):
        prob, st, lam = _off_critical(storage)
        for name in names:
            with monkeypatch.context() as patch:
                _failing_lapack(patch, name)
                with pytest.raises(IllConditioned,
                                   match=f"{name} failed with info = 1"):
                    numerical_kernel(jacobi(prob, st, lam))


@pytest.mark.parametrize("name", ["dstebz", "dstein", "dormqr"])
def test_kernel_vector_failure_is_ill_conditioned(monkeypatch, name):
    # the flat circle's kernel is its two translations, whose vectors are
    # formed by dstebz + dstein and mapped back by dormqr on first read
    prob, st = _flat_circle()
    kb = numerical_kernel(jacobi(prob, st, 0.0))
    assert kb.dim == 2
    _failing_lapack(monkeypatch, name)
    with pytest.raises(IllConditioned, match=f"{name} failed with info = 1"):
        kb.vectors


def test_corrector_solve_failure_is_ill_conditioned(monkeypatch):
    # a Newton step reduces its bordered matrix, counts T's eigenvalues
    # below 0 for its condition number and, on the dense storage, solves T
    # by dgtsv between the two applications of Q
    for storage, names in (("dense", ("dlarrc", "dgtsv")),
                           ("band", ("dsbtrd", "dlarrc"))):
        prob, st, lam = _off_critical(storage)
        for name in names:
            with monkeypatch.context() as patch:
                _failing_lapack(patch, name)
                with pytest.raises(IllConditioned,
                                   match=f"{name} failed with info = 1"):
                    corrector_step(prob, st, lam, ContinuationConfig.polish(
                        lam, basin_guard=0.05))


# ----------------------------------- the full-spectrum kernel, an oracle


def _full_spectrum_kernel(mu, tol_rel):
    # (dim, tolerance, gap, indeterminate) as numerical_kernel read them
    # from every eigenvalue mu, before it counted and bisected
    n = len(mu)
    order = np.argsort(np.abs(mu))[::-1]
    s = np.abs(mu)[order]
    tol = tol_rel * (s[0] if s.size else 0.0)
    d = int(np.sum(s < tol))
    gap = float(s[n - d - 1] / s[n - d]) if d and s[n - d] > 0.0 else np.inf
    return d, tol, gap, bool(d > 0 and gap < GAP_FLOOR)


# the four instances analyze certifies in the benchmark, as [problem] keys
ORACLE_INSTANCES = {
    "cmc_circle": "h = 2.0\nlambda_hat = 0.5\n",
    "cmc_profile": "h = 2.0\nlength = 1.0\n",
    "harmonic_torus": "",
    "harmonic_sphere": "",
}


@pytest.mark.parametrize("N", [33, 257, 1024])
@pytest.mark.parametrize("instance", sorted(ORACLE_INSTANCES))
def test_kernel_counts_agree_with_the_full_spectrum(instance, N):
    # at the analytic seed, the counted kernel and its verdict against the
    # kernel the whole spectrum of the same operator gives
    cp = configparser.ConfigParser()
    cp.read_string(f"[problem]\ninstance = {instance}\nn = {N}\n"
                   + ORACLE_INSTANCES[instance])
    prob, st, _, lam = _build_problem(_Config(cp))
    J = jacobi(prob, st, lam)
    A, _ = _scaled(J)
    d, tol, gap, indeterminate = _full_spectrum_kernel(
        np.linalg.eigvalsh(A), 1e-8 * len(A))
    rep = nondegeneracy_report(prob, st, lam, operator=J)
    assert rep.kernel_dim == d
    assert rep.tolerances["kernel_tolerance"] == pytest.approx(tol, rel=1e-14)
    assert rep.indeterminate == indeterminate
    if indeterminate:
        # a gap below the floor is a ratio of two resolved moduli; a
        # certified one divides by a kernel modulus at roundoff, which two
        # computations need not share, so only the former is compared
        assert rep.gap == pytest.approx(gap, rel=1e-9)
        verdict = "indeterminate"
    elif d == rep.killing_rank and rep.max_principal_angle < 1e-6:
        verdict = "nondegenerate"
    else:
        verdict = "degenerate"
    assert rep.verdict == verdict


# ------------------------------------------------ non-finite operators


def _poisoned(J, value):
    # J with one diagonal entry of its stored W J set to value, in place
    if isinstance(J, BandJacobiOperator):
        J.hessian[0, 3] = value
    else:
        J.hessian[3, 3] = value
    return J


def _off_critical(storage):
    # (problem, a state one Newton step away from critical, lambda_hat) on
    # the dense storage (the flat circle) or the band (the profile)
    if storage == "dense":
        prob, st = _flat_circle()
        bumped = st.values + 1e-3 * np.cos(3 * prob.grid.nodes)
        return prob, ProblemState(bumped), 0.0
    prob, st = _profile_band_case(33, 4, 1.0, 0.0)
    x = prob.grid.nodes[1:-1]
    return prob, ProblemState(st.values + 1e-3 * np.sin(np.pi * x)), 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("storage", ["dense", "band"])
def test_non_finite_operator_kernel_is_ill_conditioned(storage, value):
    prob, st, lam = _off_critical(storage)
    J = _poisoned(jacobi(prob, st, lam), value)
    with pytest.raises(IllConditioned, match="^numerical_kernel: "):
        numerical_kernel(J)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("storage", ["dense", "band"])
def test_non_finite_bordered_step_is_ill_conditioned(monkeypatch, storage,
                                                     value):
    # the Newton step's bordered reduction of a W J holding a non-finite
    # entry must fail, not step with eigenvalues bisected from NaN
    assemble = continuation.bordered_jacobi

    def poisoned(*args):
        return _poisoned(assemble(*args), value)

    monkeypatch.setattr(continuation, "bordered_jacobi", poisoned)
    prob, st, lam = _off_critical(storage)
    with pytest.raises(IllConditioned, match="^corrector_step: "):
        corrector_step(prob, st, lam,
                       ContinuationConfig.polish(lam, basin_guard=0.05))


# ------------------------------------------------------ band reduction

RP_LENGTH = np.pi / 2.0  # the Rayleigh-Plateau length pi R, R = 1 / H = 0.5


def _profile_band_case(N, order, length, bump):
    # the cylinder of radius 1 / H = 0.5 between equal boundary circles,
    # bumped so that every partial of the density is nonzero somewhere
    g = build_grid("dirichlet", N, order=order, a=0.0, b=length)
    prob, st = profile_cylinder_seed(2.0, g)
    x = g.nodes[1:-1] / length
    v = st.values + bump * np.sin(np.pi * x) * (1.0 + x)
    return prob, ProblemState(v)


def _dense_hess(prob, v, lam):
    # D1^T diag(w Fpp) D1 + diag(w Fup) D1 + its transpose + diag(w Fuu) on
    # the interior nodes, from the coefficients of the form hess returns
    f = prob.hess(v, lam)
    w = prob.grid.quad
    D1 = prob.grid.diff1[:, 1:-1]
    B = (w * f.Fup[0][0])[1:-1, None] * D1[1:-1]
    return (D1.T @ ((w * f.Fpp[0][0])[:, None] * D1) + B + B.T
            + np.diag((w * f.Fuu[0][0])[1:-1]))


# eigenvalues of the band and the tridiagonal reduction agree to this
# fraction of the largest; a ratio of moduli such as the gap or the
# condition number inherits it over the smaller modulus
EIG_TOL = 1e-13
BAND_CASES = [(N, order, length, bump)
              for order in (2, 4) for N in (8, 17, 33, 513, 1024)
              for length, bump in ((1.0, 0.02), (RP_LENGTH, 0.0))]


@pytest.mark.parametrize("N, order, length, bump", BAND_CASES)
def test_band_reduction_matches_the_dense_reduction(N, order, length, bump):
    prob, st = _profile_band_case(N, order, length, bump)
    J = jacobi(prob, st, 0.0)
    n = N - 2
    assert isinstance(J, BandJacobiOperator)
    assert J.hessian.shape == (min(order, n - 1) + 1, n)
    # the band Hessian against the dense assembly from the same density
    H = _dense_hess(prob, st.values, 0.0)
    assert np.max(np.abs(J.dense() - H)) <= 1e-15 * np.max(np.abs(H))

    def dense():
        # a dense operator of the band's W J; each reduction spends one
        return JacobiOperator(J.dense(), J.weights)

    # every eigenvalue, against the tridiagonal reduction of the dense form
    mu = J.scaled_reduction()[0].eigenvalues(0, n - 1)
    want = dense().scaled_reduction()[0].eigenvalues(0, n - 1)
    top = np.max(np.abs(want))
    assert np.max(np.abs(mu - want)) <= EIG_TOL * top
    # kernel count, cut and gap; a ratio of two moduli each known to EIG_TOL
    # * top is known to EIG_TOL * top over each
    kb, kd = numerical_kernel(J), numerical_kernel(dense())
    assert kb.dim == kd.dim
    assert kb.tolerance == pytest.approx(kd.tolerance, rel=EIG_TOL)
    if kd.dim:
        kept = kd.singular_values[0]
        rel = EIG_TOL * top * (1.0 / kept + 1.0 / (kd.gap * kept))
        assert kb.gap == pytest.approx(kd.gap, rel=rel)
    assert kb.indeterminate == kd.indeterminate
    # the corrector's solve and exact condition number
    w = J.weights
    rhs = np.random.default_rng(N).standard_normal(n)
    B = np.zeros((n, 0))
    delta, cond = _bordered_update(J.bordered_reduction(B), w, B, rhs, 0.0)
    want = np.linalg.solve(H, -(w * rhs))
    kappa = np.linalg.cond(H)
    assert cond == pytest.approx(kappa, rel=EIG_TOL * (1.0 + kappa))
    assert (np.linalg.norm(delta - want)
            <= 1e-15 * kappa * np.linalg.norm(want))
    # the diagnostics read the band: symmetric by construction, J v from it
    rep = operator_diagnostics(J, prob, st, 0.0)
    assert rep.symmetry_residual == 0.0
    assert rep.fd_consistency == pytest.approx(
        operator_diagnostics(dense(), prob, st, 0.0).fd_consistency, rel=1e-6)


def _two_neumann_chains(m, b):
    # diag(T, T) for the Neumann path Laplacian T = tridiag(-1, 2, -1) with
    # corners 1, as a band of half-bandwidth b: every eigenvalue of T,
    # 2 - 2 cos(pi j / m), j = 0..m-1, is a double eigenvalue
    n = 2 * m
    ab = np.zeros((b + 1, n))
    ab[0] = 2.0
    ab[0, [0, m - 1, m, n - 1]] = 1.0
    ab[1, :n - 1] = -1.0
    ab[1, m - 1] = 0.0
    return ab


def test_banded_operator_refuses_kernel_vectors():
    # W^1/2 diag(T, T) W^1/2 has a double kernel; the band operator counts
    # it and, like a Killing border, refuses to form its vectors
    m = 20
    ab = _two_neumann_chains(m, b=2)
    w = np.random.default_rng(3).uniform(0.5, 2.0, 2 * m)
    sw = np.sqrt(w)
    L = ab * sw
    for k in range(len(L)):
        L[k, :2 * m - k] *= sw[k:]
    kb = numerical_kernel(BandJacobiOperator(L, w))
    assert kb.dim == 2 and not kb.indeterminate
    with pytest.raises(UnsupportedError, match="kernel vectors"):
        kb.vectors


def test_band_solve_failure_is_ill_conditioned(monkeypatch):
    # a band Newton step solves by solve_banded, whose LinAlgError the
    # corrector reports as IllConditioned
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(mesh, "solve_banded", singular)
    prob, st = _profile_band_case(33, 4, 1.0, 0.02)
    with pytest.raises(IllConditioned, match="singular matrix"):
        corrector_step(prob, st, 0.0,
                       ContinuationConfig.polish(0.0, basin_guard=1.0))


def test_banded_operator_refuses_killing_columns():
    prob, st = _profile_band_case(17, 4, 1.0, 0.0)
    J = jacobi(prob, st, 0.0)
    B = np.zeros((15, 1))
    B[0, 0] = 1.0
    with pytest.raises(UnsupportedError, match="Killing"):
        J.bordered_reduction(B)


# ---------------------------------------------------------------- kernel


def test_kernel_flat_circle_dim_two():
    prob, st = _flat_circle()
    kb = numerical_kernel(jacobi(prob, st, 0.0))
    assert kb.dim == 2
    assert kb.gap > 1e6
    assert not kb.indeterminate
    w = prob.weights()
    assert _w_orthonormality_defect(kb.vectors, w) < 1e-12


def test_kernel_vanishes_after_shift():
    prob, st = _flat_circle()
    J = jacobi(prob, st, 0.0)
    shifted = _shifted(J, 0.5)
    kb = numerical_kernel(shifted)
    assert kb.dim == 0
    assert kb.singular_values.size == 0
    assert kb.gap == np.inf


def test_kernel_sphere_equator_dim_three():
    g = build_grid("periodic", 65)
    prob, st = sphere_equator_seed(g)
    kb = numerical_kernel(jacobi(prob, st, 1.0))
    assert kb.dim == 3
    assert kb.gap > 1e3


def test_kernel_tol_rel_validation():
    prob, st = _flat_circle()
    J = jacobi(prob, st, 0.0)
    for bad in (0.0, -1e-9, 2e-2, 1.0):
        with pytest.raises(PreconditionError):
            numerical_kernel(J, tol_rel=bad)
    # the boundary itself is allowed, but such a wide tolerance sweeps in
    # physical eigenvalues and the gap guard has to flag it
    kb = numerical_kernel(J, tol_rel=1e-2)
    assert kb.dim > 2
    assert kb.indeterminate


def test_rank_basis_drops_dependent_vectors():
    rng = np.random.default_rng(7)
    w = np.full(32, 2 * np.pi / 32)
    u = rng.standard_normal(32)
    v = rng.standard_normal(32)
    B = rank_basis([u, 2.0 * u, v], w)
    assert B.shape == (32, 2)
    assert _w_orthonormality_defect(B, w) < 1e-12
    assert rank_basis([], w).shape == (32, 0)


# -------------------------------------------------------- nondegeneracy


def test_nondegeneracy_round_circle():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, g)
    rep = nondegeneracy_report(prob, st, 1.0)
    assert rep.verdict == "nondegenerate"
    assert rep.kernel_dim == 2
    assert rep.killing_rank == 2
    assert rep.max_principal_angle < 1e-6
    assert rep.residual_norm < 1e-8
    pay = rep.to_payload()
    assert pay["verdict"] == "nondegenerate"
    assert len(pay["principal_angles"]) == 2
    assert set(pay["tolerances"]) == {"tol_rel", "angle_tol", "kernel_tolerance"}


def test_nondegeneracy_profile_trivial_kernel():
    g = build_grid("dirichlet", 64, order=4)
    prob, st = profile_cylinder_seed(2.0, g)
    rep = nondegeneracy_report(prob, st, 0.0)
    assert rep.verdict == "nondegenerate"
    assert rep.kernel_dim == 0
    assert rep.killing_rank == 0
    assert rep.principal_angles.size == 0


def test_profile_kernel_cut_is_relative_to_the_interior_spectrum():
    # the cut scales with the top of the Jacobi spectrum on the interior
    # unknowns, the generalized eigenvalues of (W J, W)
    from scipy.linalg import eigh

    g = build_grid("dirichlet", 64, order=4)
    prob, st = profile_cylinder_seed(2.0, g)
    J = jacobi(prob, st, 0.0)
    w = J.weights
    assert w.size == 62
    H = J.dense()
    mu = eigh(0.5 * (H + H.T), np.diag(w), eigvals_only=True)
    kb = numerical_kernel(J)
    assert kb.tol_rel == 1e-8 * 62
    assert kb.tolerance == pytest.approx(kb.tol_rel * np.max(np.abs(mu)),
                                         rel=1e-12)


def test_nondegeneracy_torus_line():
    g = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 1), g, np.eye(2), np.eye(2))
    rep = nondegeneracy_report(prob, st, 0.0)
    assert rep.verdict == "nondegenerate"
    assert rep.kernel_dim == 2
    assert rep.killing_rank == 2


def test_nondegeneracy_rejects_noncritical_state():
    prob, st = _flat_circle()
    bad = ProblemState(st.values + 1e-3 * np.cos(3 * prob.grid.nodes))
    assert residual_norm(prob, bad, 0.0) >= 1e-8
    with pytest.raises(PreconditionError):
        nondegeneracy_report(prob, bad, 0.0)


def test_nondegeneracy_injected_shift_is_degenerate():
    prob, st = _flat_circle()
    J = jacobi(prob, st, 0.0)
    shifted = _shifted(J, 0.5)
    rep = nondegeneracy_report(prob, st, 0.0, operator=shifted)
    assert rep.verdict == "degenerate"
    assert rep.kernel_dim == 0
    assert rep.killing_rank == 2


@pytest.mark.parametrize("theta", [1e-10, 1e-6])
def test_nondegeneracy_resolves_small_principal_angles(theta):
    # an operator whose kernel leans theta off the Killing span; the cosine
    # of 1e-10 rounds to 1, so an arccos-based angle would read 0
    prob, st = _flat_circle()
    w = prob.weights()
    sw = np.sqrt(w)
    K = sw[:, None] * _killing_basis(prob, st, 0.0)
    n = K.shape[0]
    rng = np.random.default_rng(53)
    Q, _ = np.linalg.qr(np.column_stack([K, rng.standard_normal((n, n - 2))]))
    kernel = Q[:, :2].copy()
    kernel[:, 0] = np.cos(theta) * Q[:, 0] + np.sin(theta) * Q[:, 2]
    Q, _ = np.linalg.qr(np.column_stack([kernel, Q[:, 2:]]))
    spectrum = np.concatenate([np.zeros(2), np.linspace(1.0, 2.0, n - 2)])
    A = (Q * spectrum) @ Q.T
    op = JacobiOperator(hessian=sw[:, None] * A * sw[None, :], weights=w)
    rep = nondegeneracy_report(prob, st, 0.0, operator=op, angle_tol=1.0)
    assert rep.kernel_dim == rep.killing_rank == 2
    assert rep.max_principal_angle == pytest.approx(theta, rel=1e-2)
    assert list(rep.principal_angles) == sorted(rep.principal_angles)


def _bases_at_angles(n, ra, rb, theta, w, rng):
    """W-orthonormal bases of ranks ra and rb whose min(ra, rb) principal
    angles are theta, each mixed within its span by a random rotation."""
    m = min(ra, rb)
    Q, _ = np.linalg.qr(rng.standard_normal((n, ra + rb)))
    A = Q[:, :ra]
    B = np.column_stack([Q[:, :m] * np.cos(theta)
                         + Q[:, ra:ra + m] * np.sin(theta),
                         Q[:, ra + m:ra + rb]])
    sw = np.sqrt(w)[:, None]
    mix = [np.linalg.qr(rng.standard_normal((r, r)))[0] for r in (ra, rb)]
    return A @ mix[0] / sw, B @ mix[1] / sw


@pytest.mark.parametrize("n", [8, 257])
def test_principal_angles_of_w_orthonormal_bases(n):
    # the angles come straight from the W-orthonormal bases, each from its
    # sine below pi/4 and its cosine above; scipy's subspace_angles agrees
    # where it too reads every angle from its sine (all below pi/4), while
    # at mixed sets it pairs the split with the wrong angles and reads a
    # 1e-9 angle beside a large one as 0
    rng = np.random.default_rng(n)
    w = rng.uniform(0.5, 2.0, n)
    sw = np.sqrt(w)[:, None]
    for ra in range(4):
        for rb in range(4):
            m = min(ra, rb)
            for top in (np.pi / 4, np.pi / 2):
                theta = np.sort(rng.uniform(0.0, top, m))
                if m and top > 1.0:
                    theta[0] = 1e-9
                A, B = _bases_at_angles(n, ra, rb, theta, w, rng)
                got = _principal_angles(A, B, w)
                assert got.shape == (m,)
                assert np.max(np.abs(got - theta), initial=0.0) < 1e-15
                if m and top < 1.0:
                    want = np.sort(subspace_angles(sw * A, sw * B))
                    assert np.max(np.abs(got - want)) < 1e-15


def test_principal_angles_on_branch_records_match_scipy():
    prob, st = circle_seed(1.0, 2.0, build_grid("periodic", 65))
    cfg = ContinuationConfig.from_steps(1.0, 0.0, 4, basin_guard=0.05)
    w = prob.weights()
    sw = np.sqrt(w)[:, None]
    bases = []
    for rec in continue_branch(prob, st, cfg):
        J = jacobi(prob, rec.state, rec.lambda_hat)
        K = rank_basis(killing_jacobi_basis(prob, rec.state, rec.lambda_hat),
                       w)
        bases.append(K)
        pairs = [(numerical_kernel(J).vectors, K)]
        if len(bases) > 1:
            pairs.append((K, bases[-2]))
        for A, B in pairs:
            want = np.sort(subspace_angles(sw * A, sw * B))
            got = _principal_angles(A, B, w)
            assert got.shape == want.shape == (2,)
            assert np.max(np.abs(got - want)) < 1e-15


# ------------------------------------------------------- transversality


def _killing_basis(prob, st, lam):
    return rank_basis(killing_jacobi_basis(prob, st, lam), prob.weights())


def _full_svd_margin(basis, reference, w):
    """Reference formula: sigma_min of [sqrt(W) basis | slice], with the slice
    the full-SVD complement of sqrt(W) reference (all of R^n when empty)."""
    sw = np.sqrt(w)
    n = w.size
    if reference.shape[1]:
        U, s, _ = np.linalg.svd(sw[:, None] * reference, full_matrices=True)
        slc = U[:, int(np.sum(s > 1e-10 * s[0])):]
    else:
        slc = np.eye(n)
    M = np.concatenate([sw[:, None] * basis, slc], axis=1)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def _w_orthonormal(rng, w, k):
    sw = np.sqrt(w)[:, None]
    Q, _ = np.linalg.qr(sw * rng.standard_normal((w.size, k)))
    return Q / sw


def test_slice_excludes_torus_constant_fields():
    # the slice is the W-complement of the Killing span, so it excludes the
    # constant translations exactly when they lie in that span
    g = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 1), g, np.eye(2), np.eye(2))
    B = _killing_basis(prob, st, 0.0)
    w = prob.weights()
    N = 65
    for comp in range(2):
        c = np.zeros(2 * N)
        c[comp * N:(comp + 1) * N] = 1.0
        leftover = c - B @ (B.T @ (w * c))
        assert np.sqrt(np.sum(w * leftover**2)) < 1e-10 * np.sqrt(np.sum(w * c**2))


def test_margin_is_one_on_own_slice():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, g)
    B = _killing_basis(prob, st, 1.0)
    m = transversality_margin(B, B, prob.weights())
    assert abs(m - 1.0) < 1e-10


def test_margin_survives_parameter_step():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, g)
    prob2, st2 = circle_seed(0.9, 2.0, g)
    m = transversality_margin(_killing_basis(prob2, st2, 0.9),
                              _killing_basis(prob, st, 1.0),
                              prob.weights())
    assert m > 0.5


def test_margin_matches_full_svd_on_circle_branch():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, g)
    cfg = ContinuationConfig.from_steps(1.0, -1.0, 21, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    assert len(records) == 21
    w = prob.weights()
    bases = [_killing_basis(prob, r.state, r.lambda_hat) for r in records]
    for i, rec in enumerate(records):
        # each record is measured against the previous accepted record
        ref = bases[max(i - 1, 0)]
        expected = _full_svd_margin(bases[i], ref, w)
        assert abs(rec.transversality_margin - expected) < 1e-12
        assert abs(transversality_margin(bases[i], ref, w) - expected) < 1e-12


@pytest.mark.parametrize("instance", ["torus", "sphere"])
def test_margin_matches_full_svd_on_moved_pair(instance):
    g = build_grid("periodic", 33)
    if instance == "torus":
        prob, st = torus_line_seed((1, 1), g, np.eye(2),
                                   np.array([[2.0, 0.3], [0.3, 1.0]]))
        lam, lam2, t = 0.0, 1.0, [0.1, -0.2]
    else:
        prob, st = sphere_equator_seed(g)
        lam, lam2, t = 1.0, 1.0, [0.2, -0.1, 0.3]
    st2 = act(prob, st, lam2, t)
    B, B2 = _killing_basis(prob, st, lam), _killing_basis(prob, st2, lam2)
    w = prob.weights()
    for basis, ref in ((B2, B), (B, B2)):
        m = transversality_margin(basis, ref, w)
        assert abs(m - _full_svd_margin(basis, ref, w)) < 1e-12


@pytest.mark.parametrize("n", [8, 20])
def test_margin_matches_full_svd_on_mixed_ranks(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(0.5, 2.0, n)
    for k in range(4):
        for k_ref in range(4):
            basis = _w_orthonormal(rng, w, k)
            ref = _w_orthonormal(rng, w, k_ref)
            m = transversality_margin(basis, ref, w)
            assert abs(m - _full_svd_margin(basis, ref, w)) < 1e-12
            if k == 0 or k_ref == 0:
                assert m == 1.0


# ----------------------------------------------------------- diagnostics


def test_diagnostics_clean_operator():
    prob, st = _flat_circle()
    rep = operator_diagnostics(jacobi(prob, st, 0.0))
    assert rep.symmetry_residual < 1e-10
    assert rep.index == 0
    assert np.isnan(rep.fd_consistency)
    assert not rep.flagged


def test_diagnostics_fd_consistency_with_context():
    prob, st = _flat_circle()
    rep = operator_diagnostics(jacobi(prob, st, 0.0), problem=prob, state=st,
                               lambda_hat=0.0)
    assert rep.fd_consistency < 1e-5
    assert not rep.flagged


def test_diagnostics_profile_needs_smaller_step():
    g = build_grid("dirichlet", 64, order=4)
    prob, st = profile_cylinder_seed(2.0, g)
    rep = operator_diagnostics(jacobi(prob, st, 0.0), problem=prob, state=st,
                               lambda_hat=0.0, step=1e-6)
    assert rep.fd_consistency < 1e-4
    assert rep.index == 0
    assert not rep.flagged


def test_diagnostics_flags_asymmetry():
    prob, st = _flat_circle()
    J = jacobi(prob, st, 0.0)
    M = J.hessian.copy()
    M[0, 1] += 1.0
    rep = operator_diagnostics(JacobiOperator(hessian=M, weights=J.weights))
    assert rep.symmetry_residual > 1e-8
    assert rep.flagged


def _skewed_assembly(monkeypatch):
    # a dense assembly whose W J is off by 1e-6 in one entry
    assemble = JacobiOperator.assemble

    def skewed(form, out=None):
        H = assemble(form, out)
        H[0, 1] += 1e-6
        return H

    monkeypatch.setattr(JacobiOperator, "assemble", staticmethod(skewed))


def test_diagnostics_flag_an_asymmetric_hessian(monkeypatch):
    _skewed_assembly(monkeypatch)
    prob, st = _flat_circle(N=17)
    rep = operator_diagnostics(jacobi(prob, st, 0.0), problem=prob, state=st,
                               lambda_hat=0.0)
    assert rep.symmetry_residual > 1e-8
    assert rep.flagged


def test_symmetry_residual_matches_the_full_matrix_formula():
    # the residual is summed block pair by block pair, without a copy; up to
    # the order of summation it is |W J - (W J)^T| / |W J| on the full
    # matrices, across block edges and partial last blocks
    rng = np.random.default_rng(6)
    for n in (3, 128, 129, 300):
        w = rng.uniform(0.5, 2.0, n)
        M = rng.standard_normal((n, n))
        M = M + M.T + 1e-9 * rng.standard_normal((n, n))
        W = w[:, None] * M
        want = float(np.linalg.norm(W - W.T) / np.linalg.norm(W))
        rep = operator_diagnostics(JacobiOperator(hessian=W, weights=w))
        assert rep.symmetry_residual == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", ["non_square", "weights_mismatch"])
def test_diagnostics_rejects_mismatched_shapes(case):
    # the operator refuses a misfit storage when it is made, so no
    # diagnostics, certificate or solve ever sees one
    prob, st = _flat_circle()
    J = jacobi(prob, st, 0.0)
    with pytest.raises(ShapeError):
        if case == "non_square":
            JacobiOperator(hessian=J.hessian[:, :-1], weights=J.weights)
        else:
            JacobiOperator(hessian=J.hessian, weights=J.weights[:-1])


@pytest.mark.parametrize("case", ["too_many_rows", "no_rows",
                                  "columns_mismatch", "not_2d"])
def test_band_operator_rejects_a_misfit_band(case):
    prob, st = _profile_band_case(17, 4, 1.0, 0.0)
    J = jacobi(prob, st, 0.0)
    n = J.weights.size
    bad = {"too_many_rows": np.zeros((n + 1, n)),
           "no_rows": np.zeros((0, n)),
           "columns_mismatch": J.hessian[:, :-1],
           "not_2d": J.hessian[0]}[case]
    with pytest.raises(ShapeError):
        BandJacobiOperator(bad, J.weights)
    # a band of at most n rows is every lower band storage of n columns
    BandJacobiOperator(np.zeros((n, n)), J.weights)


def test_diagnostics_payload_roundtrip():
    prob, st = _flat_circle()
    pay = operator_diagnostics(jacobi(prob, st, 0.0)).to_payload()
    assert set(pay) == {"symmetry_residual", "index", "fd_consistency", "flagged"}
    assert pay["index"] == 0
