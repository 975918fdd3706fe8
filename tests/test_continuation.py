import weakref

import numpy as np
import pytest

from equideform import continuation, mesh
from equideform.continuation import (BranchRecord, ContinuationConfig,
                                     congruence_check, continue_branch,
                                     corrector_step, orbit_project)
from equideform.equivariance import rank_basis
from equideform.errors import IllConditioned, NoConvergence, PreconditionError
from equideform.mesh import JacobiOperator, build_grid
from equideform.variational import (ProblemState, act, act_jacobian,
                                    circle_seed, cmc_circle_radius, jacobi,
                                    killing_jacobi_basis,
                                    profile_cylinder_seed, residual_norm,
                                    sphere_equator_seed, torus_line_seed)


def _polish(lam, **kw):
    kw.setdefault("tol", 1e-12)
    return ContinuationConfig(start=lam, end=lam, initial_step=1.0,
                              min_step=1e-12, max_step=1.0, **kw)


def _flat_setup(N=65, H=2.0):
    g = build_grid("periodic", N)
    prob, st = circle_seed(0.0, H, g)
    return g, prob, st


# -------------------------------------------------------------- corrector


def test_corrector_recovers_perturbed_circle():
    g, prob, st = _flat_setup()
    bumped = ProblemState(st.values + 1e-3 * np.cos(3 * g.nodes))
    out, iters, diag = corrector_step(prob, bumped, 0.0,
                                      _polish(0.0, basin_guard=0.05))
    assert iters <= 4
    assert residual_norm(prob, out, 0.0) < 1e-12
    assert np.max(np.abs(out.values - 0.5)) < 1e-10
    assert diag["residual_norms"][-1] < 1e-12
    assert diag["cond"] < 1e6


def test_corrector_exact_circle_zero_iterations():
    g, prob, st = _flat_setup()
    out, iters, _ = corrector_step(prob, st, 0.0, _polish(0.0))
    assert iters == 0
    assert np.array_equal(out.values, st.values)


def test_corrector_leaves_orbit_component_alone():
    # a cos(theta) bump is tangent to the translation orbit; the slice
    # projection must not chase it, so the converged state keeps the offset
    g, prob, st = _flat_setup()
    bumped = ProblemState(st.values + 1e-3 * np.cos(g.nodes))
    out, iters, diag = corrector_step(prob, bumped, 0.0,
                                      _polish(0.0, basin_guard=0.05))
    assert iters <= 2
    assert diag["orbit_inner"] < 1e-12
    # only the quadratic correction is removed, not the orbit motion
    assert np.max(np.abs(out.values - bumped.values)) < 1e-5
    assert np.max(np.abs(out.values - 0.5)) > 5e-4


def test_corrector_quadratic_convergence():
    g, prob, st = _flat_setup()
    bumped = ProblemState(st.values + 1e-3 * np.cos(3 * g.nodes))
    _, _, diag = corrector_step(prob, bumped, 0.0,
                                _polish(0.0, basin_guard=0.05))
    norms = diag["residual_norms"]
    assert len(norms) >= 3
    for a, b in zip(norms, norms[1:]):
        if b < 1e-11:
            break  # roundoff floor
        assert b < 1e3 * a * a


def test_corrector_cond_is_the_exact_condition_number(monkeypatch):
    # along a short round-chart branch, the cond the corrector gates on must
    # be the 2-norm condition number of the bordered matrices it reduced
    bordered = []
    reduce = mesh._Tridiagonal

    def recording_reduction(M):
        # a copy: the reduction overwrites the corrector's buffer M
        bordered.append(np.array(M))
        return reduce(M)

    monkeypatch.setattr(mesh, "_Tridiagonal", recording_reduction)
    g = build_grid("periodic", 65)
    for lam in (0.9, 0.8, 0.7):
        prob, guess = circle_seed(lam + 0.1, 2.0, g)
        bordered.clear()
        _, iters, diag = corrector_step(prob, guess, lam,
                                        _polish(lam, basin_guard=0.05))
        assert iters >= 1 and len(bordered) == iters
        assert all(M.shape == (67, 67) for M in bordered)  # n + k, k = 2
        exact = max(np.linalg.cond(M) for M in bordered)
        assert diag["cond"] == pytest.approx(exact, rel=1e-8)


def test_corrector_gate_trips_on_a_kernel_outside_the_killing_span(
        monkeypatch):
    # remove one W-normalized non-Killing mode v from the Jacobi,
    # J -> P J P with P = I - v v^T W, so v joins the kernel; the bordered
    # matrix is then singular and the step must be refused, not solved
    g, prob, st = _flat_setup()
    bumped = ProblemState(st.values + 1e-3 * np.cos(3 * g.nodes))
    w = prob.weights()
    B = rank_basis(killing_jacobi_basis(prob, bumped, 0.0), w)
    v = np.cos(2 * g.nodes)
    v = v - B @ (B.T @ (w * v))
    v = v / np.sqrt(v @ (w * v))
    P = np.eye(v.size) - np.outer(v, w * v)

    def jacobi_without_mode(problem, state, lambda_hat, border):
        J = jacobi(problem, state, lambda_hat)
        # W P J P = P^T (W J) P
        return JacobiOperator(P.T @ J.hessian @ P, J.weights)

    monkeypatch.setattr(continuation, "bordered_jacobi", jacobi_without_mode)
    with pytest.raises(IllConditioned, match="condition"):
        corrector_step(prob, bumped, 0.0, _polish(0.0, basin_guard=0.05))


def test_corrector_basin_guard_rejects_far_state():
    g, prob, st = _flat_setup()
    far = ProblemState(st.values + 0.3 * np.cos(2 * g.nodes))
    with pytest.raises(PreconditionError):
        corrector_step(prob, far, 0.0, _polish(0.0))


@pytest.mark.parametrize("case", ["sphere_tiny_lambda", "profile_huge_length"])
def test_corrector_names_a_non_finite_initial_residual(case):
    # an overflowing residual is not a basin miss: the guard is not the cause
    with np.errstate(all="ignore"), pytest.raises(PreconditionError) as exc:
        if case == "sphere_tiny_lambda":
            lam = 1e-300
            prob, st = sphere_equator_seed(build_grid("periodic", 33))
        else:
            lam = 0.0
            prob, st = profile_cylinder_seed(
                2.0, build_grid("dirichlet", 33, 4, a=0.0, b=1e300))
        corrector_step(prob, st, lam, _polish(lam))
    assert "is not finite" in str(exc.value)
    assert "basin guard" not in str(exc.value)


def test_corrector_logs_the_slice_leak_before_the_projection(monkeypatch):
    # orbit_inner is the largest Killing component of a bordered solve's
    # update, measured before the projection removes it
    leaks = []
    update = continuation._bordered_update

    def spy(reduced, w, B, res, lambda_hat):
        delta, cond = update(reduced, w, B, res, lambda_hat)
        leaks.append(np.max(np.abs(B.T @ (w * delta))) / mesh.wnorm(w, delta))
        return delta, cond

    monkeypatch.setattr(continuation, "_bordered_update", spy)
    prob, guess = circle_seed(0.9, 2.0, build_grid("periodic", 65))
    _, iters, diag = corrector_step(prob, guess, 0.8,
                                    _polish(0.8, basin_guard=0.05))
    assert iters >= 2 and len(leaks) == iters
    assert diag["orbit_inner"] == max(leaks)
    assert diag["orbit_inner"] < 1e-10


def _handed(prob, state, lam, cfg):
    """A _Chord holding the last reduction of a Newton polish of state."""
    chord = continuation._Chord()
    corrector_step(prob, state, lam, cfg, chord)
    assert chord.made >= 1 and chord.reduced is not None
    return continuation._Chord(chord.take())


def test_chord_steps_reuse_the_handed_reduction():
    # near the state its reduction was made at, the chord contracts: every
    # step solves against the handed reduction and none is made
    g, prob, st = _flat_setup()
    cfg = _polish(0.0, basin_guard=0.05)
    bumped = ProblemState(st.values + 1e-3 * np.cos(3 * g.nodes))
    handed = _handed(prob, bumped, 0.0, cfg)
    reduction = handed.reduced
    guess = ProblemState(st.values + 1e-4 * np.cos(2 * g.nodes))
    out, iters, diag = corrector_step(prob, guess, 0.0, cfg, handed)
    assert diag["reductions"] == handed.made == 0 < iters
    assert handed.reduced is reduction      # handed on again
    assert residual_norm(prob, out, 0.0) <= cfg.tol
    norms = diag["residual_norms"]
    assert all(b <= continuation.CHORD_CONTRACTION * a
               for a, b in zip(norms, norms[1:]))


def test_chord_falls_back_to_newton_from_a_far_predictor():
    # a reduction made at lambda = 1 stops contracting at lambda = 0.5: the
    # rest of the call is Newton's, which converges to the standalone
    # polish and hands its own last reduction on
    g = build_grid("periodic", 65)
    prob, seed = circle_seed(1.0, 2.0, g)
    bumped = ProblemState(seed.values + 1e-3 * np.cos(3 * g.nodes))
    handed = _handed(prob, bumped, 1.0, _polish(1.0, basin_guard=0.05))
    carried = handed.reduced
    _, guess = circle_seed(0.6, 2.0, g)
    cfg = _polish(0.5, basin_guard=0.05)
    want, newton_iters, _ = corrector_step(prob, guess, 0.5, cfg)
    got, iters, diag = corrector_step(prob, guess, 0.5, cfg, handed)
    assert 1 <= diag["reductions"] == handed.made <= newton_iters
    assert handed.reduced is not None and handed.reduced is not carried
    assert diag["residual_norms"][-1] <= cfg.tol
    assert len(diag["residual_norms"]) == iters + 1
    assert mesh.wnorm(prob.weights(), got.values - want.values) < 10 * cfg.tol


def _dead_at_assembly(monkeypatch, refs):
    """For each call of continuation.bordered_jacobi, a list saying which
    weakrefs in refs (as they stand at the call) are dead."""
    assemble = continuation.bordered_jacobi
    dead = []

    def checked(*args):
        dead.append([ref() is None for ref in refs])
        return assemble(*args)

    monkeypatch.setattr(continuation, "bordered_jacobi", checked)
    return dead


def test_a_chord_that_fails_to_contract_drops_the_handed_reduction(
        monkeypatch):
    # the far predictor of the test above: the Newton step after the failed
    # chord step assembles only once the handed reduction is gone
    g = build_grid("periodic", 65)
    prob, seed = circle_seed(1.0, 2.0, g)
    bumped = ProblemState(seed.values + 1e-3 * np.cos(3 * g.nodes))
    handed = _handed(prob, bumped, 1.0, _polish(1.0, basin_guard=0.05))
    dead = _dead_at_assembly(monkeypatch, [weakref.ref(handed.reduced)])
    _, guess = circle_seed(0.6, 2.0, g)
    _, _, diag = corrector_step(prob, guess, 0.5,
                                _polish(0.5, basin_guard=0.05), handed)
    assert diag["reductions"] >= 1
    assert dead == [[True]] * diag["reductions"]


def test_a_newton_step_drops_the_last_reduction_before_it_assembles(
        monkeypatch):
    # each Newton step of a standalone polish assembles only once every
    # reduction an earlier step solved with is gone
    refs = []
    update = continuation._bordered_update

    def spy(reduced, *args):
        refs.append(weakref.ref(reduced))
        return update(reduced, *args)

    monkeypatch.setattr(continuation, "_bordered_update", spy)
    dead = _dead_at_assembly(monkeypatch, refs)
    prob, guess = circle_seed(0.9, 2.0, build_grid("periodic", 65))
    _, iters, diag = corrector_step(prob, guess, 0.8,
                                    _polish(0.8, basin_guard=0.05))
    assert diag["reductions"] == iters >= 2
    assert dead == [[True] * i for i in range(iters)]


# ----------------------------------------------------------- step control


def test_config_validation():
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=-0.1,
                           min_step=0.01, max_step=0.2)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.2, max_step=0.3)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.01, max_step=0.05)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.01, max_step=0.2, tol=0.0)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.01, max_step=0.2, basin_guard=-1.0)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.01, max_step=0.2, retries=-1)
    with pytest.raises(PreconditionError):
        ContinuationConfig(start=0.0, end=1.0, initial_step=0.1,
                           min_step=0.01, max_step=0.2, max_newton=-1)


@pytest.mark.parametrize("field, value", [
    ("start", np.nan), ("start", np.inf), ("end", np.nan), ("end", -np.inf),
    ("initial_step", np.nan), ("initial_step", np.inf), ("min_step", np.nan),
    ("max_step", np.nan), ("max_step", np.inf), ("tol", np.nan),
    ("basin_guard", np.nan), ("basin_guard", np.inf)])
def test_config_rejects_non_finite_numbers(field, value):
    # a NaN tol stops the corrector before its first step, and a NaN
    # basin_guard switches the guard off
    with pytest.raises(PreconditionError):
        ContinuationConfig(**{"start": 0.0, "end": 1.0, "initial_step": 0.1,
                              field: value})


def test_from_steps_uniform_grid():
    cfg = ContinuationConfig.from_steps(1.0, -3.0, 61, basin_guard=0.05)
    assert cfg.initial_step == cfg.max_step == pytest.approx(4.0 / 60)
    assert cfg.min_step < cfg.initial_step
    with pytest.raises(PreconditionError):
        ContinuationConfig.from_steps(1.0, 1.0, 10)
    with pytest.raises(PreconditionError):
        ContinuationConfig.from_steps(0.0, 1.0, 1)


def test_polish_config_fixes_the_parameter():
    cfg = ContinuationConfig.polish(0.5, tol=1e-9)
    assert cfg.start == cfg.end == 0.5
    assert (cfg.initial_step, cfg.min_step, cfg.max_step) == (1.0, 1e-12, 1.0)
    assert cfg.tol == 1e-9
    with pytest.raises(PreconditionError):
        ContinuationConfig.polish(0.5, retries=-1)


def test_branch_records_certified():
    g, prob, st = _flat_setup()
    cfg = ContinuationConfig.from_steps(0.0, -1.0, 11, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    assert len(records) == 11
    assert records[0].lambda_hat == 0.0
    assert records[-1].lambda_hat == -1.0
    for rec in records:
        assert isinstance(rec, BranchRecord)
        assert rec.residual_norm < cfg.tol
        assert rec.verdict == "nondegenerate"
        assert rec.kernel_dim == rec.killing_rank == 2
        assert rec.transversality_margin > 0.1
        assert rec.spectral_gap > 1e3
    lams = [rec.lambda_hat for rec in records]
    assert np.allclose(np.diff(lams), -0.1)
    # parameter values match the closed-form radius along the whole path
    for rec in records:
        rho = cmc_circle_radius(rec.lambda_hat, 2.0)
        assert np.max(np.abs(rec.state.values - rho)) < 1e-9


def test_branch_step_growth_up_to_cap():
    g, prob, st = _flat_setup()
    cfg = ContinuationConfig(start=0.0, end=-1.0, initial_step=0.02,
                             min_step=1e-4, max_step=0.2, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    gaps = np.abs(np.diff([rec.lambda_hat for rec in records]))
    assert gaps[0] == pytest.approx(0.02)
    assert np.max(gaps) > 0.05          # growth after fast corrector runs
    assert np.max(gaps) <= 0.2 + 1e-12  # never beyond max_step
    assert records[-1].lambda_hat == -1.0


def test_branch_stall_raises_with_partial_branch():
    # toward lambda = -H^2 the circle blows up; the march must fail partway
    # and hand back everything it certified
    g = build_grid("periodic", 65)
    lam0 = -3.0
    prob, st = circle_seed(lam0, 2.0, g)
    cfg = ContinuationConfig(start=lam0, end=-5.0, initial_step=0.05,
                             min_step=5e-3, max_step=0.1, basin_guard=0.05)
    with pytest.raises(NoConvergence) as exc:
        continue_branch(prob, st, cfg)
    partial = exc.value.partial_branch
    assert partial is not None and len(partial) >= 2
    last = partial[-1]
    assert last.lambda_hat > -4.0
    assert last.verdict == "nondegenerate"
    assert last.residual_norm < cfg.tol


def test_branch_factorization_failure_halves_step(failing_linalg,
                                                  monkeypatch):
    # a LinAlgError is a failed attempt like IllConditioned: the step halves
    # retries times, then the certified records come back with the stall.
    # A chord correction may make no factorization, so each thread is armed
    # in its own case: the certificate's on the worker, and the corrector's
    # on the main thread with no chord step contracting enough, so every
    # correction ends in Newton steps
    g, prob, st = _flat_setup()
    for thread in ("worker", "main"):
        if thread == "main":
            monkeypatch.setattr(continuation, "CHORD_CONTRACTION", 0.0)
        counts = failing_linalg(None)
        head = continue_branch(prob, st,
                               ContinuationConfig.from_steps(0.0, -0.2, 3,
                                                             basin_guard=0.05))
        other = "main" if thread == "worker" else "worker"
        failing_linalg(dict(counts["calls"], **{other: None}))
        cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
        with pytest.raises(NoConvergence, match="step underflow") as exc:
            continue_branch(prob, st, cfg)
        partial = exc.value.partial_branch
        assert [r.lambda_hat for r in partial] == [r.lambda_hat for r in head]
        assert counts["failed"] == cfg.retries + 1
        # the stall names the last attempt's cause
        assert "last failure: IllConditioned" in str(exc.value)
        assert "injected factorization failure" in str(exc.value)


def test_branch_margin_rejection_names_the_margin(monkeypatch):
    # a floor no margin can clear rejects every attempt on the margin alone
    g, prob, st = _flat_setup()
    monkeypatch.setattr(continuation, "MARGIN_FLOOR", 1.0)
    cfg = ContinuationConfig.from_steps(0.0, -0.2, 3, basin_guard=0.05)
    with pytest.raises(NoConvergence, match="step underflow") as exc:
        continue_branch(prob, st, cfg)
    assert len(exc.value.partial_branch) == 1
    assert "last failure: transversality margin 1 <= 1.0" in str(exc.value)


def test_diagnostics_cadence_attaches_reports():
    g, prob, st = _flat_setup()
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05,
                                        diagnostics_cadence=2)
    records = continue_branch(prob, st, cfg)
    have = [rec.diagnostics is not None for rec in records]
    assert have[0]
    assert any(have[1:])
    for rec in records:
        if rec.diagnostics is not None:
            assert rec.diagnostics["index"] == 0
            assert rec.diagnostics["symmetry_residual"] < 1e-8


def test_record_payload_shape():
    g, prob, st = _flat_setup()
    cfg = ContinuationConfig.from_steps(0.0, -0.2, 3, basin_guard=0.05)
    rec = continue_branch(prob, st, cfg)[-1]
    pay = rec.to_payload()
    assert pay["lambda_hat"] == -0.2
    assert len(pay["state"]) == 65
    assert "radius" in pay["derived_scalars"]
    assert pay["verdict"] == "nondegenerate"


# --------------------------------------------------------- orbit recovery


def test_orbit_project_identity():
    g, prob, st = _flat_setup()
    t, moved, dist = orbit_project(prob, st, 0.0, st)
    assert np.max(np.abs(t)) < 1e-10
    assert dist < 1e-10
    assert np.max(np.abs(moved.values - st.values)) < 1e-10


def test_orbit_project_recovers_flat_translation():
    g, prob, st = _flat_setup()
    applied = np.array([0.01, 0.02])
    shifted = act(prob, st, 0.0, applied)
    t, moved, dist = orbit_project(prob, shifted, 0.0, st)
    assert np.max(np.abs(t - applied)) < 1e-8
    assert dist < 1e-10
    # the moved state sits back on the reference slice
    assert np.max(np.abs(moved.values - st.values)) < 1e-7


def test_orbit_project_round_chart():
    g = build_grid("periodic", 65)
    prob, st = circle_seed(1.0, 2.0, g)
    applied = np.array([0.02, -0.015])
    shifted = act(prob, st, 1.0, applied)
    t, moved, dist = orbit_project(prob, shifted, 1.0, st)
    assert np.max(np.abs(t - applied)) < 1e-7
    assert dist < 1e-9


def _fd_act_jacobian(prob, state, lam, t):
    # the oracle: forward differences of act in t at the step sqrt(eps),
    # which balances truncation against the rounding of act
    h = np.sqrt(np.finfo(float).eps)
    base = act(prob, state, lam, t).values
    cols = []
    for a in range(t.size):
        ta = t.copy()
        ta[a] += h
        cols.append((act(prob, state, lam, ta).values - base) / h)
    return np.column_stack(cols)


ORBIT_CASES = [("circle", lam) for lam in (-1.0, 0.0, 0.5, 1.0)] + [
    ("torus", 0.5), ("sphere", 2.0)]


def _orbit_case(name, lam):
    # a problem with a group and a state off its seed's orbit point
    g = build_grid("periodic", 65)
    if name == "circle":
        prob, st = circle_seed(lam, 2.0, g)
        return prob, act(prob, st, lam, np.array([0.03, 0.01]))
    if name == "torus":
        prob, st = torus_line_seed((2, 1), g, np.eye(2), np.diag([2.0, 1.0]))
        bump = 0.01 * np.sin(np.concatenate([g.nodes, 2 * g.nodes]))
        return prob, ProblemState(st.values + bump)
    prob, st = sphere_equator_seed(g)
    return prob, act(prob, st, lam, np.array([0.05, 0.02, 0.1]))


@pytest.mark.parametrize("scale", [0.0, 0.4, 0.97])
@pytest.mark.parametrize("name, lam", ORBIT_CASES)
def test_act_jacobian_matches_forward_differences(name, lam, scale):
    # column a is the Killing-Jacobi field of psi(ad_X) xi_a at the moved
    # state; |t| runs up to the trust radius, where ad_X is largest
    prob, state = _orbit_case(name, lam)
    k = len(prob.generators(lam))
    direction = np.array([0.6, -0.8, 0.5][:k])
    t = (scale * continuation.ORBIT_TRUST_RADIUS
         * direction / np.linalg.norm(direction))
    moved = act(prob, state, lam, t)
    J = act_jacobian(prob, moved, lam, t)
    fd = _fd_act_jacobian(prob, state, lam, t)
    assert J.shape == fd.shape == (state.values.size, k)
    bound = 10.0 * np.sqrt(np.finfo(float).eps) * np.max(np.abs(J))
    assert np.max(np.abs(J - fd)) < bound


def test_orbit_project_acts_once_per_iteration(monkeypatch):
    g = build_grid("periodic", 65)
    prob, st = circle_seed(0.5, 2.0, g)
    shifted = act(prob, st, 0.5, np.array([0.03, -0.02]))
    calls = []

    def counted(*args):
        calls.append(args[3])
        return act(*args)

    monkeypatch.setattr(continuation, "act", counted)
    t, _, dist = orbit_project(prob, shifted, 0.5, st)
    assert dist < continuation.ORBIT_TOL
    assert np.max(np.abs(t - np.array([0.03, -0.02]))) < 1e-9
    # one act at t = 0 and one per Gauss-Newton step, and Newton on the
    # exact Jacobian needs only a few
    assert 2 <= len(calls) <= 5


def test_orbit_project_trust_radius():
    g, prob, st = _flat_setup()
    shifted = act(prob, st, 0.0, np.array([0.3, 0.3]))
    with pytest.raises(NoConvergence):
        orbit_project(prob, shifted, 0.0, st)


# ------------------------------------------------------------- congruence


def test_congruence_translated_circle():
    g, prob, st = _flat_setup()
    applied = np.array([0.02, -0.01])
    shifted = act(prob, st, 0.0, applied)
    same, t = congruence_check(prob, st, shifted, 0.0)
    assert same
    assert np.max(np.abs(t - applied)) < 1e-7


def test_congruence_self():
    g, prob, st = _flat_setup()
    same, t = congruence_check(prob, st, st, 0.0)
    assert same
    assert np.max(np.abs(t)) < 1e-10


def test_congruence_tolerance_decides():
    # the recovered distance floor is the projection's finishing tolerance,
    # so the same pair flips verdict across it
    g, prob, st = _flat_setup()
    shifted = act(prob, st, 0.0, np.array([0.02, -0.01]))
    same_loose, _ = congruence_check(prob, st, shifted, 0.0, tol=1e-8)
    same_tight, _ = congruence_check(prob, st, shifted, 0.0, tol=1e-16)
    assert same_loose
    assert not same_tight


def test_congruence_propagates_solver_failure():
    g, prob, st = _flat_setup()
    garbage = ProblemState(st.values + 0.2 * np.cos(2 * g.nodes))
    with pytest.raises(PreconditionError):
        congruence_check(prob, st, garbage, 0.0)


def test_branch_unique_modulo_group():
    # the same path started from a group-translated seed lands on records
    # congruent to the original ones, parameter by parameter
    g, prob, st = _flat_setup()
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
    base = continue_branch(prob, st, cfg)
    moved_seed = act(prob, st, 0.0, np.array([0.015, -0.02]))
    other = continue_branch(prob, moved_seed, cfg)
    assert len(base) == len(other) == 6
    for ra, rb in zip(base, other):
        assert ra.lambda_hat == rb.lambda_hat
        same, t = congruence_check(prob, ra.state, rb.state, ra.lambda_hat)
        assert same
        assert np.linalg.norm(t) > 1e-3  # genuinely translated, not equal
