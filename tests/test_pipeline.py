"""The pipelined branch march and the reduction it overlaps.

continue_branch certifies each record on a worker thread while the main
thread corrects the next one. The one-record-at-a-time march it replaced is
kept here as the oracle: both must give the same records, bit for bit, and
the same errors. The overlap pays only because the symmetric reduction
releases the interpreter lock, which the last test checks.
"""

import threading
import time

import numpy as np
import pytest
from scipy.linalg import lapack

from equideform import continuation
from equideform.continuation import ContinuationConfig, continue_branch
from equideform.errors import (DomainError, IllConditioned, NoConvergence,
                               PreconditionError)
from equideform.mesh import _dsytrd, _Tridiagonal, build_grid
from equideform.serialize import dumps_stable
from equideform.variational import ProblemState, circle_seed


def sequential_branch(problem, seed_state, config):
    """continue_branch as it was before the pipeline: each record corrected,
    then certified, then the next attempted. Module attributes are looked up
    at call time, so a test's monkeypatch reaches both marches."""
    c = continuation
    lam = float(config.start)
    st, iters, _ = c.corrector_step(problem, seed_state, lam, config)
    cadence = int(config.diagnostics_cadence)
    rec, ref = c._certify(problem, st, lam, config, iters, None,
                          with_diagnostics=cadence > 0)
    records = [rec]
    if rec.verdict != "nondegenerate":
        return records
    prev_lam = None
    prev_vals = None
    step = float(config.initial_step)
    direction = 1.0 if config.end >= config.start else -1.0
    fast = 0
    while lam != config.end:
        advanced = False
        target = lam
        st_new = st
        rec = None
        for _ in range(config.retries + 1):
            if step < config.min_step:
                break
            target = lam + direction * step
            snap = 1e-9 * (abs(config.end) + step)
            if direction * (target - config.end) >= -snap:
                target = float(config.end)
            if prev_lam is not None and lam != prev_lam:
                scale = (target - lam) / (lam - prev_lam)
                guess = st.values + scale * (st.values - prev_vals)
            else:
                guess = st.values
            try:
                st_new, iters, _ = c.corrector_step(
                    problem, ProblemState(guess), target, config)
                with_diag = cadence > 0 and len(records) % cadence == 0
                rec, basis = c._certify(problem, st_new, target, config,
                                        iters, ref, with_diagnostics=with_diag)
            except (NoConvergence, IllConditioned, DomainError,
                    PreconditionError) as exc:
                cause = f"{type(exc).__name__}: {exc}"
                step *= 0.5
                fast = 0
                continue
            if rec.transversality_margin <= c.MARGIN_FLOOR:
                cause = (f"transversality margin "
                         f"{rec.transversality_margin:.3g} <= {c.MARGIN_FLOOR}")
                rec = None
                step *= 0.5
                fast = 0
                continue
            advanced = True
            break
        if not advanced:
            raise NoConvergence(
                f"continuation stalled at lambda_hat={lam:.12g} "
                f"(step underflow below {config.min_step:.3e}); "
                f"last failure: {cause}",
                partial_branch=records)
        records.append(rec)
        if rec.verdict != "nondegenerate":
            return records
        prev_lam, prev_vals = lam, st.values
        lam, st, ref = target, st_new, basis
        if iters <= 3:
            fast += 1
        else:
            fast = 0
        if fast >= 2:
            step = min(step * 1.3, config.max_step)
        if len(records) >= c.RECORD_CAP:
            raise NoConvergence("record cap reached", partial_branch=records)
    return records


def _march(march, problem, seed_state, config):
    """(payload bytes of each record, error text or None)."""
    try:
        records, error = march(problem, seed_state, config), None
    except NoConvergence as exc:
        records, error = exc.partial_branch, f"NoConvergence: {exc}"
    return [dumps_stable(r.to_payload()) for r in records], error


def _both(problem, seed_state, config, reset=lambda: None):
    reset()
    want = _march(sequential_branch, problem, seed_state, config)
    reset()
    got = _march(continue_branch, problem, seed_state, config)
    return got, want


def _flat_setup():
    return circle_seed(0.0, 2.0, build_grid("periodic", 65))


def test_circle_branch_equals_sequential_march_bitwise():
    prob, st = circle_seed(1.0, 2.0, build_grid("periodic", 65))
    cfg = ContinuationConfig.from_steps(1.0, -3.0, 61, basin_guard=0.05,
                                        diagnostics_cadence=20)
    got, want = _both(prob, st, cfg)
    assert want[1] is None and len(want[0]) == 61
    assert got == want


def test_certificate_failure_drops_the_correction_run_ahead(monkeypatch):
    # one middle target's certificate raises: that attempt halves the step,
    # and the correction run ahead of it must not be used
    prob, st = _flat_setup()
    certify = continuation._certify
    raised = []

    def flaky(problem, state, lam, *args, **kwargs):
        if lam < -0.25 and not raised:
            raised.append(lam)
            raise IllConditioned(f"injected at lambda_hat={lam}")
        return certify(problem, state, lam, *args, **kwargs)

    monkeypatch.setattr(continuation, "_certify", flaky)
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
    got, want = _both(prob, st, cfg, reset=raised.clear)
    assert raised and want[1] is None
    assert len(want[0]) > 6   # the halved step added a record
    assert got == want
    raised.clear()
    logs = [rec.log for rec in continue_branch(prob, st, cfg)]
    hit = next(i for i, log in enumerate(logs) if log["rejected"])
    assert logs[hit]["rejected"] == [
        f"IllConditioned: injected at lambda_hat={raised[0]}"]
    assert logs[hit]["speculative"] == {"used": 1, "discarded": 1}


def test_margin_rejection_equals_sequential_march(monkeypatch):
    prob, st = _flat_setup()
    monkeypatch.setattr(continuation, "MARGIN_FLOOR", 1.0)
    cfg = ContinuationConfig.from_steps(0.0, -0.2, 3, basin_guard=0.05)
    got, want = _both(prob, st, cfg)
    assert len(want[0]) == 1 and "transversality margin" in want[1]
    assert got == want


def test_degenerate_halt_equals_sequential_march(monkeypatch):
    # the analyze command's [test] inject_shift, J + 0.5 I, certified at one
    # middle target: the branch halts there with the record flagged
    prob, st = _flat_setup()
    report = continuation.nondegeneracy_report

    def shifted(problem, state, lam, operator=None, **kwargs):
        if lam < -0.25:
            operator = operator.shifted(0.5)
        return report(problem, state, lam, operator=operator, **kwargs)

    monkeypatch.setattr(continuation, "nondegeneracy_report", shifted)
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
    got, want = _both(prob, st, cfg)
    assert want[1] is None and '"verdict":"degenerate"' in want[0][-1]
    assert got == want
    records = continue_branch(prob, st, cfg)
    assert records[-1].log["speculative"] == {"used": 1, "discarded": 1}


def test_record_logs_count_the_corrections_run_ahead():
    prob, st = _flat_setup()
    cfg = ContinuationConfig.from_steps(0.0, -0.3, 4, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    assert [r.log["speculative"] for r in records] == (
        [{"used": 0, "discarded": 0}] + [{"used": 1, "discarded": 0}] * 3)
    for rec in records:
        assert rec.log["rejected"] == []
        assert rec.log["residual_norms"][-1] <= cfg.tol
        assert len(rec.log["residual_norms"]) == rec.newton_iters + 1
        assert rec.log["orbit_inner"] < 1e-10
        assert rec.log["cond"] < 1e12


@pytest.mark.parametrize("n", [1, 2, 3, 65, 259])
@pytest.mark.parametrize("order", ["C", "F"])
def test_reduction_equals_f2py_dsytrd_bitwise(n, order):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    A = np.array(B + B.T, order=order)
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    assert info == 0
    c, d, e, tau, info = lapack.dsytrd(A, lower=1, lwork=int(lwork))
    assert info == 0
    kept = A.copy(order="K")
    red = _Tridiagonal(A)
    assert red._d.tobytes() == d.tobytes()
    assert red._e[:n - 1].tobytes() == e.tobytes()
    assert red._tau[:n - 1].tobytes() == tau.tobytes()
    if order == "F":
        # the caller's Fortran buffer holds the reflectors
        assert np.tril(A, -1).tobytes() == np.tril(c, -1).tobytes()
    else:
        assert A.tobytes() == kept.tobytes()
    eig = lapack.dsterf(d, e if n > 1 else np.zeros(1))[0]
    assert red.eigenvalues.tobytes() == eig.tobytes()


def test_reduction_rejects_a_buffer_it_cannot_write_in_place():
    with pytest.raises(ValueError):
        _dsytrd(np.eye(3))          # C order
    with pytest.raises(ValueError):
        _dsytrd(np.eye(3, 4, order="F"))


def test_reduction_releases_the_interpreter_lock():
    # while a worker reduces a large matrix the main thread keeps running
    # Python; a reduction that held the lock would stall it for the whole
    # call
    n = 1500
    rng = np.random.default_rng(3)
    B = rng.standard_normal((n, n))
    A = np.asfortranarray(B + B.T)
    t0 = time.perf_counter()
    _dsytrd(A.copy(order="F"))
    serial = time.perf_counter() - t0
    worker = threading.Thread(target=_dsytrd, args=(A.copy(order="F"),))
    count, worst = 0, 0.0
    last = time.perf_counter()
    worker.start()
    while worker.is_alive():
        now = time.perf_counter()
        worst, last = max(worst, now - last), now
        count += 1
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert count > 1000
    assert worst < serial / 2, (worst, serial)
