import numpy as np
import pytest
from scipy.linalg import expm

from equideform import lie_bundle
from equideform.errors import DomainError, PreconditionError
from equideform.lie_bundle import (_match_threshold, _scored_slice_check,
                                   _slice_samples, algebra_basis,
                                   algebra_element, bracket_closure_residual,
                                   complement_basis, deformed_bracket, dexp,
                                   eta_form, group_membership_residual,
                                   invariance_residual, section,
                                   verify_bundle)

LAMBDAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def test_algebra_element_block_layout():
    lam = 0.7
    D = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = np.array([0.3, -0.2])
    X = algebra_element(lam, D, u)
    assert X.shape == (3, 3)
    assert X[0, 0] == 0.0
    assert np.allclose(X[0, 1:], -lam * u)
    assert np.allclose(X[1:, 0], u)
    assert np.allclose(X[1:, 1:], D)
    with pytest.raises(DomainError):
        algebra_element(lam, np.eye(2), u)  # D must be antisymmetric
    with pytest.raises(DomainError):
        algebra_element(lam, D, np.zeros(3))  # u size fixes n, D must match


def test_basis_dimension_and_closure():
    for n in (2, 3):
        dim = n * (n - 1) // 2 + n
        for lam in LAMBDAS:
            basis = algebra_basis(lam, n)
            assert len(basis) == dim
            assert bracket_closure_residual(basis) < 1e-12
    assert bracket_closure_residual([np.eye(3)]) == 0.0


def _closure_by_loop(mats):
    # reference: one lstsq per bracket against the stacked basis
    M = np.column_stack([m.ravel() for m in mats])
    worst = 0.0
    for i, x in enumerate(mats):
        for y in mats[i + 1:]:
            b = (x @ y - y @ x).ravel()
            coef, _, _, _ = np.linalg.lstsq(M, b, rcond=None)
            worst = max(worst, float(np.linalg.norm(M @ coef - b)))
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closure_matches_per_bracket_lstsq(n):
    rng = np.random.default_rng(n)
    cases = []
    for lam in (-1.0, 0.0, 0.5):
        mats = algebra_basis(lam, n)
        broken = [mats[0] + np.diag([1.0, -1.0] + [0.0] * (n - 1))] + mats[1:]
        cases += [mats, broken]
    # a repeated matrix makes the stacked basis rank deficient
    rand = [rng.standard_normal((n + 1, n + 1)) for _ in range(3)]
    cases += [broken + [broken[0]], rand + [rand[0]]]
    for case in cases:
        assert bracket_closure_residual(case) == pytest.approx(
            _closure_by_loop(case), rel=1e-12, abs=1e-14)


def test_frame_invariance_of_basis_elements():
    for n in (2, 3):
        for lam in LAMBDAS:
            basis = algebra_basis(lam, n)
            worst = max(invariance_residual(m, lam) for m in basis)
            assert worst < 1e-12


def test_invariance_residual_of_identity_matrix():
    # identity is symmetric, not eta-antisymmetric: residual |2*eta|_F = 2*sqrt(3)
    assert invariance_residual(np.eye(3), 1.0) == pytest.approx(
        2.0 * np.sqrt(3.0), rel=1e-14)


def test_eta_form_signature_and_domain():
    assert np.allclose(eta_form(1.0, 2), np.eye(3))
    m = eta_form(-4.0, 2)
    assert m[0, 0] < 0.0 and m[1, 1] > 0.0
    with pytest.raises(DomainError):
        eta_form(0.0, 2)


def test_membership_of_exponentials_across_fibers():
    rng = np.random.default_rng(5)
    for lam in LAMBDAS:
        for n in (2, 3):
            basis = algebra_basis(lam, n)
            for _ in range(5):
                coef = rng.standard_normal(len(basis))
                X = sum(c * m for c, m in zip(coef, basis))
                g = expm(0.4 * X)
                assert group_membership_residual(g, lam) < 1e-10


def test_membership_rejects_generic_matrices():
    rng = np.random.default_rng(6)
    for lam in (-1.0, 0.0, 1.0):
        bad = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        assert group_membership_residual(bad, lam) > 1e-3


def test_complement_spans_the_missing_directions():
    for n, full in ((2, 9), (3, 16)):
        comp = complement_basis(n)
        basis = algebra_basis(1.0, n)
        cols = [m.ravel() for m in basis]
        cols += [m.ravel() for m in comp]
        M = np.column_stack(cols)
        assert M.shape[1] == full
        assert np.linalg.matrix_rank(M) == full


def test_complement_and_slice_report():
    for lam in (-1.0, 0.0, 1.0):
        full_rank, margin, ident = _scored_slice_check(
            lam, 2, _slice_samples(2, 80, 3))
        assert full_rank
        assert ident < 1e-12
        assert margin > 1e-3


def test_section_reproduces_base_point_and_stays_in_group():
    rng = np.random.default_rng(17)
    for trial in range(6):
        letters = []
        for _ in range(2):
            A = rng.standard_normal((2, 2))
            letters.append((0.3 * (A - A.T), 0.3 * rng.standard_normal(2)))
        h = section(letters, 1.0)
        direct = np.eye(3)
        for D, u in letters:
            direct = direct @ expm(algebra_element(1.0, D, u))
        assert np.max(np.abs(h - direct)) < 1e-12
        for lam in np.linspace(-1.0, 1.0, 21):
            assert group_membership_residual(section(letters, lam), lam) < 1e-10


def test_section_requires_letters():
    with pytest.raises(DomainError):
        section([], 0.5)


def test_translation_commutator_matrix_identity():
    """[L(0,u), L(0,v)] = L(lam*(v u^T - u v^T), 0) in every fiber."""
    rng = np.random.default_rng(23)
    for lam in LAMBDAS:
        for _ in range(10):
            u, v = rng.standard_normal((2, 3))
            A = algebra_element(lam, np.zeros((3, 3)), u)
            B = algebra_element(lam, np.zeros((3, 3)), v)
            comm = A @ B - B @ A
            expect = algebra_element(lam, lam * (np.outer(v, u) - np.outer(u, v)),
                                     np.zeros(3))
            assert np.max(np.abs(comm - expect)) < 1e-13


def test_deformed_bracket_antisymmetry_is_exact():
    rng = np.random.default_rng(31)
    for lam in (-1.0, 0.0, 0.5, 1.0):
        for _ in range(25):
            A, B = rng.standard_normal((2, 3, 3))
            x = (A - A.T, rng.standard_normal(3))
            y = (B - B.T, rng.standard_normal(3))
            bxy = deformed_bracket(lam, x, y)
            byx = deformed_bracket(lam, y, x)
            assert np.all(bxy[0] == -byx[0])
            assert np.all(bxy[1] == -byx[1])


def test_deformed_bracket_jacobi_identity():
    rng = np.random.default_rng(37)

    def rand():
        A = rng.standard_normal((2, 2))
        return (A - A.T, rng.standard_normal(2))

    for lam in (-1.0, 0.0, 0.5, 1.0):
        for _ in range(100):
            x, y, z = rand(), rand(), rand()
            t1 = deformed_bracket(lam, x, deformed_bracket(lam, y, z))
            t2 = deformed_bracket(lam, y, deformed_bracket(lam, z, x))
            t3 = deformed_bracket(lam, z, deformed_bracket(lam, x, y))
            assert np.max(np.abs(t1[0] + t2[0] + t3[0])) < 1e-12
            assert np.max(np.abs(t1[1] + t2[1] + t3[1])) < 1e-12


def test_deformed_bracket_at_one_is_the_round_bracket():
    rng = np.random.default_rng(41)
    for _ in range(30):
        A, B = rng.standard_normal((2, 3, 3))
        x = (A - A.T, rng.standard_normal(3))
        y = (B - B.T, rng.standard_normal(3))
        bxy = deformed_bracket(1.0, x, y)
        mx = algebra_element(1.0, *x)
        my = algebra_element(1.0, *y)
        C = mx @ my - my @ mx
        dk, um = 0.5 * (C[1:, 1:] - C[1:, 1:].T), C[1:, 0]
        assert np.max(np.abs(C - algebra_element(1.0, dk, um))) < 1e-14
        assert np.max(np.abs(bxy[0] - dk)) < 1e-14
        assert np.max(np.abs(bxy[1] - um)) < 1e-14


def test_deformed_bracket_is_the_matrix_commutator_in_every_fiber():
    rng = np.random.default_rng(47)
    for lam in LAMBDAS:
        for n in (2, 3, 5):
            A, B = rng.standard_normal((2, n, n))
            x = (A - A.T, rng.standard_normal(n))
            y = (B - B.T, rng.standard_normal(n))
            X = algebra_element(lam, *x)
            Y = algebra_element(lam, *y)
            comm = X @ Y - Y @ X
            bk, bm = deformed_bracket(lam, x, y)
            assert np.max(np.abs(algebra_element(lam, bk, bm) - comm)) < 1e-13


def test_deformed_bracket_flat_fiber_abelianizes_translations():
    u = (np.zeros((2, 2)), np.array([1.0, 0.0]))
    v = (np.zeros((2, 2)), np.array([0.0, 1.0]))
    bk, bm = deformed_bracket(0.0, u, v)
    assert np.max(np.abs(bk)) == 0.0
    assert np.max(np.abs(bm)) == 0.0


BUNDLE_NAMES = ["bracket_closure", "frame_invariance", "complement_rank",
                "slice_margin", "section_membership", "bracket_antisymmetry",
                "bracket_jacobi", "bracket_matches_undeformed"]


def test_verify_bundle_returns_the_named_checks():
    checks = verify_bundle([-1.0, 0.5], [2, 3], 10, 5, seed=4)
    assert [c["name"] for c in checks] == BUNDLE_NAMES
    assert all(c["passed"] for c in checks)
    match = checks[-1]
    assert match["threshold"] == 1e-14  # the n = 2 gate, ns[0] = 2
    broken = verify_bundle([0.5], [2], 10, 5, seed=4, inject_broken_basis=True)
    assert [c["name"] for c in broken if not c["passed"]] == ["bracket_closure"]


def test_verify_bundle_draws_slice_samples_once_per_n(monkeypatch):
    lambdas, ns, samples, seed = [-2.0, -0.5, 0.0, 1.0], [2, 3], 12, 7
    draws = []
    reports = []
    sample, scored = (lie_bundle._sample_slice_element,
                      lie_bundle._scored_slice_check)

    def counted(rng, n):
        draws.append(n)
        return sample(rng, n)

    def recorded(lam, n, s):
        reports.append(((lam, n, s), scored(lam, n, s)))
        return reports[-1][1]

    monkeypatch.setattr(lie_bundle, "_sample_slice_element", counted)
    monkeypatch.setattr(lie_bundle, "_scored_slice_check", recorded)
    verify_bundle(lambdas, ns, samples, 3, seed)
    monkeypatch.undo()
    assert draws == [n for n in ns for _ in range(samples)]
    # each lam's result is the one a fresh draw of its samples gives, bit
    # for bit
    assert len(reports) == len(ns) * len(lambdas)
    for (lam, n, _), rep in reports:
        assert rep == _scored_slice_check(lam, n,
                                          _slice_samples(n, samples, seed))


@pytest.mark.parametrize("args", [
    ([], [2], 10, 5), ([0.5], [], 10, 5), ([0.5], [2], 0, 5),
    ([0.5], [2], 10, 0), ([0.5], [1], 10, 5),
], ids=["no_lambdas", "no_n", "no_samples", "no_triples", "n_below_two"])
def test_verify_bundle_refuses_empty_data(args):
    with pytest.raises(PreconditionError):
        verify_bundle(*args, seed=0)


@pytest.mark.parametrize("n", [2, 16])
def test_bracket_match_catches_a_perturbed_bracket(monkeypatch, n):
    exact = lie_bundle.deformed_bracket

    def perturbed(lam, x, y):
        k, m = exact(lam, x, y)
        return k, m + 1e-12

    monkeypatch.setattr(lie_bundle, "deformed_bracket", perturbed)
    checks = {c["name"]: c for c in verify_bundle([1.0], [n], 1, 3, seed=0)}
    assert not checks["bracket_matches_undeformed"]["passed"]


# ------------------------------------------------- stacked group functions

def _random_pair(rng, n):
    A = rng.standard_normal((n, n))
    return A - A.T, rng.standard_normal(n)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_bracket_and_membership_match_one_at_a_time(n):
    rng = np.random.default_rng(59 + n)
    xs = [_random_pair(rng, n) for _ in range(6)]
    ys = [_random_pair(rng, n) for _ in range(6)]
    # six pairs as stacks with the leading axes (2, 3)
    X, Y = (tuple(np.array([p[i] for p in pairs]).reshape(
        (2, 3) + pairs[0][i].shape) for i in (0, 1)) for pairs in (xs, ys))
    bk, bm = deformed_bracket(0.7, X, Y)
    assert bk.shape == (2, 3, n, n) and bm.shape == (2, 3, n)
    for j, (x, y) in enumerate(zip(xs, ys)):
        k, m = deformed_bracket(0.7, x, y)
        assert np.max(np.abs(bk.reshape(6, n, n)[j] - k)) <= 1e-15 * np.max(np.abs(k))
        assert np.max(np.abs(bm.reshape(6, n)[j] - m)) <= 1e-15 * np.max(np.abs(m))
    mats = algebra_element(0.7, *X)
    assert mats.shape == (2, 3, n + 1, n + 1)
    assert np.array_equal(mats.reshape(6, n + 1, n + 1)[4],
                          algebra_element(0.7, *xs[4]))
    for lam in (-1.0, 0.0, 0.5):
        gs = expm(mats.reshape(6, n + 1, n + 1) * 0.1)
        stacked = group_membership_residual(gs, lam)
        assert stacked.shape == (6,)
        one = [group_membership_residual(g, lam) for g in gs]
        assert isinstance(one[0], float)
        assert np.max(np.abs(stacked - one)) <= 1e-15 * max(1.0, max(one))


def test_stacked_bracket_rejects_one_bad_k_component():
    rng = np.random.default_rng(61)
    D = np.array([_random_pair(rng, 3)[0] for _ in range(4)])
    u = rng.standard_normal((4, 3))
    D[2, 0, 1] += 1.0
    with pytest.raises(DomainError):
        deformed_bracket(0.5, (D, u), (D[::-1], u[::-1]))
    with pytest.raises(DomainError):
        algebra_element(0.5, D, u)


@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5, 2.0])
def test_dexp_is_the_right_trivialized_derivative_of_expm(lam):
    # d/ds exp(X + s xi) = [psi(ad_X) xi] exp(X), by central differences
    rng = np.random.default_rng(67)
    basis = np.array(algebra_basis(lam, 3))
    X = np.tensordot(0.3 * rng.standard_normal(len(basis)), basis, axes=1)
    h = 1e-5
    eta = dexp(X, basis)
    assert eta.shape == basis.shape
    for xi, e in zip(basis, eta):
        fd = (expm(X + h * xi) - expm(X - h * xi)) / (2 * h)
        assert np.max(np.abs(fd @ expm(-X) - e)) < 1e-8
        # psi(ad_X) maps the algebra to itself
        assert invariance_residual(e, lam) < 1e-13
    assert np.array_equal(dexp(np.zeros_like(X), basis), basis)


def _verify_bundle_oracle(lambdas, ns, samples, triples, seed,
                          inject_broken_basis=False):
    # verify_bundle as it was written one matrix and one triple at a time:
    # the oracle of the stacked checks, and of the draws they score
    rng = np.random.default_rng(seed)
    worst = {}
    drawn = []
    cl = inv = ident = 0.0
    margin = np.inf
    for n in ns:
        slice_samples = _slice_samples(n, samples, seed)
        drawn.append(np.array(slice_samples))
        for lam in lambdas:
            basis = algebra_basis(lam, n)
            inv = max(inv, max(invariance_residual(m, lam) for m in basis))
            if inject_broken_basis:
                basis[0] = basis[0] + np.diag([1.0, -1.0] + [0.0] * (n - 1))
            cl = max(cl, bracket_closure_residual(basis))
            margin = min([margin] + [group_membership_residual(g, lam)
                                     for g in slice_samples])
            ident = max(ident, group_membership_residual(np.eye(n + 1), lam))
    worst.update(bracket_closure=cl, frame_invariance=inv, slice_margin=margin)
    n0 = ns[0]

    def draw(scale=1.0):
        A = rng.standard_normal((n0, n0))
        return scale * (A - A.T), scale * rng.standard_normal(n0)

    word = (draw(0.3), draw(0.3))
    worst["section_membership"] = max(
        group_membership_residual(section(word, lam), lam)
        for lam in np.linspace(-1.0, 1.0, 21))
    anti = jac = match = 0.0
    for lam in (-1.0, 0.0, 0.5, 1.0):
        for _ in range(triples):
            x, y, z = draw(), draw(), draw()
            drawn.append((x, y, z))
            bxy = deformed_bracket(lam, x, y)
            byx = deformed_bracket(lam, y, x)
            anti = max(anti, np.max(np.abs(bxy[0] + byx[0])),
                       np.max(np.abs(bxy[1] + byx[1])))
            terms = [deformed_bracket(lam, a, deformed_bracket(lam, b, c))
                     for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
            for part in (0, 1):
                cyclic = terms[0][part] + terms[1][part] + terms[2][part]
                jac = max(jac, np.max(np.abs(cyclic)))
            if lam == 1.0:
                X, Y = algebra_element(1.0, *x), algebra_element(1.0, *y)
                C = X @ Y - Y @ X
                D, u = 0.5 * (C[1:, 1:] - C[1:, 1:].T), C[1:, 0]
                match = max(match, np.max(np.abs(C - algebra_element(1.0, D, u))),
                            np.max(np.abs(bxy[0] - D)), np.max(np.abs(bxy[1] - u)))
    worst.update(bracket_antisymmetry=anti, bracket_jacobi=jac,
                 bracket_matches_undeformed=match)
    passed = {
        "bracket_closure": cl < 1e-12, "frame_invariance": inv < 1e-12,
        "slice_margin": margin > 1e-3 and ident < 1e-12,
        "section_membership": worst["section_membership"] < 1e-10,
        "bracket_antisymmetry": anti == 0.0, "bracket_jacobi": jac < 1e-12,
        "bracket_matches_undeformed": match < _match_threshold(n0)}
    return worst, passed, drawn


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("ns", [[2], [3], [3, 2]])
def test_stacked_verify_bundle_matches_the_scalar_oracle(monkeypatch, ns,
                                                         inject):
    lambdas, samples, triples, seed = [-2.0, -0.5, 0.0, 0.5, 1.0], 15, 7, 3
    worst, passed, drawn = _verify_bundle_oracle(lambdas, ns, samples,
                                                 triples, seed, inject)
    seen = []
    scored, bracket = lie_bundle._scored_slice_check, lie_bundle.deformed_bracket

    def record_samples(lam, n, slice_samples):
        seen.append(np.asarray(slice_samples))
        return scored(lam, n, slice_samples)

    def record_triples(lam, x, y):
        seen.append((x, y))
        return bracket(lam, x, y)

    monkeypatch.setattr(lie_bundle, "_scored_slice_check", record_samples)
    monkeypatch.setattr(lie_bundle, "deformed_bracket", record_triples)
    checks = verify_bundle(lambdas, ns, samples, triples, seed, inject)
    monkeypatch.undo()
    # the same slice samples, once per lam, and the same triples: the first
    # bracket call of each lam takes (x, y) against (y, x), the second
    # (y, z) against (z, x)
    grid = len(ns) * len(lambdas)
    for i, got in enumerate(seen[:grid]):
        assert np.array_equal(got, drawn[i // len(lambdas)])
    triple_calls = seen[grid:]
    for j in range(4):
        (D, u), (Dr, ur) = triple_calls[3 * j][0], triple_calls[3 * j + 1][1]
        for i in range(triples):
            x, y, z = drawn[len(ns) + j * triples + i]
            assert np.array_equal(D[0, i], x[0]) and np.array_equal(u[0, i], x[1])
            assert np.array_equal(D[1, i], y[0]) and np.array_equal(u[1, i], y[1])
            assert np.array_equal(Dr[0, i], z[0]) and np.array_equal(ur[0, i], z[1])
    for c in checks:
        if c["name"] == "complement_rank":
            assert c["passed"]
            continue
        assert c["passed"] == passed[c["name"]], c["name"]
        assert abs(c["worst"] - worst[c["name"]]) <= 1e-15 * max(1.0, worst[c["name"]])
    anti = next(c for c in checks if c["name"] == "bracket_antisymmetry")
    assert anti["worst"] == 0.0
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == (["bracket_closure"] if inject else [])
