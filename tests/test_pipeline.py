"""The pipelined branch march and the reduction it overlaps.

continue_branch certifies each record on a worker thread while the main
thread corrects the next one. The one-record-at-a-time march it replaced is
kept here as the oracle: both must give the same records, bit for bit, and
the same errors. The same oracle with newton=True is the Newton march the
chord corrector replaced, whose records the chord's must match to within
the corrector's tolerance. The overlap pays only because every LAPACK
routine of the dense reduction releases the interpreter lock, which the
last tests check; its results are bitwise those of scipy's f2py wrappers,
which hold it.
"""

import ctypes
import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from equideform import continuation, mesh
from equideform.continuation import ContinuationConfig, continue_branch
from equideform.errors import (DomainError, IllConditioned, NoConvergence,
                               PreconditionError, ShapeError)
from equideform.mesh import _dsytrd, _Tridiagonal, build_grid, wnorm
from equideform.serialize import dumps_stable
from equideform.variational import ProblemState, circle_seed


def sequential_branch(problem, seed_state, config, newton=False):
    """continue_branch as it was before the pipeline: each record corrected,
    then certified, then the next attempted. Module attributes are looked up
    at call time, so a test's monkeypatch reaches both marches.

    The first attempt after a record is handed the reduction the record's
    correction left, and a retry the holder the failed attempt emptied;
    two records corrected with at most FAST_REDUCTIONS reductions each grow
    the step. With newton=True this is the march before the chord: no
    correction is handed a reduction, and a record corrected in at most
    three Newton steps counts as fast."""
    c = continuation
    lam = float(config.start)
    held = c._Chord()
    st, iters, _ = c.corrector_step(problem, seed_state, lam, config,
                                    None if newton else held)
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
            attempt = c._Chord(held.take())
            try:
                st_new, iters, _ = c.corrector_step(
                    problem, ProblemState(guess), target, config,
                    None if newton else attempt)
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
        lam, st, ref, held = target, st_new, basis, attempt
        if (iters <= 3 if newton else attempt.made <= c.FAST_REDUCTIONS):
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


def test_chord_records_match_the_newton_march():
    # the chord's records are the Newton march's to within the corrector's
    # tolerance, with the same decisions, at a fraction of the reductions
    prob, st = circle_seed(1.0, 2.0, build_grid("periodic", 65))
    cfg = ContinuationConfig.from_steps(1.0, -3.0, 61, basin_guard=0.05)
    newton = sequential_branch(prob, st, cfg, newton=True)
    chord = continue_branch(prob, st, cfg)
    assert len(chord) == len(newton) == 61
    w = prob.weights()
    for a, b in zip(chord, newton):
        assert a.lambda_hat == b.lambda_hat
        assert (a.verdict, a.kernel_dim, a.killing_rank) == (
            b.verdict, b.kernel_dim, b.killing_rank) == ("nondegenerate", 2, 2)
        assert wnorm(w, a.state.values - b.state.values) < 10 * cfg.tol
    reductions = sum(r.log["reductions"] for r in chord)
    assert reductions < sum(r.newton_iters for r in newton) / 2
    # a record corrected by chord steps alone reports their count and no
    # reduction
    assert any(r.log["reductions"] == 0 < r.newton_iters for r in chord)


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


def _failing_corrector(monkeypatch, below):
    """corrector_step raising ShapeError, a failure no attempt absorbs, at
    every target below the given one; returns the targets it raised at."""
    correct = continuation.corrector_step
    raised = []

    def failing(problem, state, lam, config, chord=None):
        if lam < below:
            raised.append(lam)
            raise ShapeError(f"injected at lambda_hat={lam}")
        return correct(problem, state, lam, config, chord)

    monkeypatch.setattr(continuation, "corrector_step", failing)
    return raised


def test_non_solver_error_propagates_from_both_marches(monkeypatch):
    # the error of a correction the march uses propagates with its type
    # (the pipelined march reads it from the correction run ahead)
    prob, st = _flat_setup()
    raised = _failing_corrector(monkeypatch, -0.25)
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
    errors = []
    for march in (sequential_branch, continue_branch):
        raised.clear()
        with pytest.raises(ShapeError) as exc:
            march(prob, st, cfg)
        errors.append((type(exc.value), str(exc.value), list(raised)))
    assert errors[0] == errors[1]
    assert errors[0][0] is ShapeError and len(errors[0][2]) == 1
    assert errors[0][1] == f"injected at lambda_hat={errors[0][2][0]}"


def test_error_of_a_dropped_correction_is_never_raised(monkeypatch):
    # the branch halts at its first target below -0.25; the correction run
    # ahead of that record fails with a non-solver error, which the
    # pipelined march must drop unread as it drops the correction
    prob, st = _flat_setup()
    report = continuation.nondegeneracy_report

    def shifted(problem, state, lam, operator=None, **kwargs):
        if lam < -0.25:
            operator = operator.shifted(0.5)
        return report(problem, state, lam, operator=operator, **kwargs)

    monkeypatch.setattr(continuation, "nondegeneracy_report", shifted)
    raised = _failing_corrector(monkeypatch, -0.35)
    cfg = ContinuationConfig.from_steps(0.0, -0.5, 6, basin_guard=0.05)
    got, want = _both(prob, st, cfg, reset=raised.clear)
    assert want[1] is None and '"verdict":"degenerate"' in want[0][-1]
    assert got == want
    assert len(raised) == 1   # the pipelined march ran it, and dropped it
    raised.clear()
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


def test_reduction_rejects_a_buffer_it_cannot_write_in_place():
    with pytest.raises(ValueError):
        _dsytrd(np.eye(3))          # C order
    with pytest.raises(ValueError):
        _dsytrd(np.eye(3, 4, order="F"))


def _f2py_apply_q(red, x, trans="N"):
    # _Tridiagonal.apply_q through scipy's f2py dormqr
    y = np.array(x, dtype=float).reshape(len(x), -1)
    if len(y) > 1:
        a, tau = red._reflectors, red._tau
        _, work, info = lapack.dormqr("L", trans, a, tau, y[1:], -1)
        assert info == 0
        y[1:], _, info = lapack.dormqr("L", trans, a, tau, y[1:],
                                       int(work[0]))
        assert info == 0
    return y.reshape(np.shape(x))


@pytest.mark.parametrize("n", [1, 2, 3, 65, 259])
def test_tridiagonal_routines_equal_f2py_bitwise(n):
    # apply_q (dormqr), solve (dgtsv between two applications of Q),
    # eigenvalues (dstebz, order "E") and eigenvectors (dstebz + dstein)
    # against scipy's wrappers
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    red = _Tridiagonal(B + B.T)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 1)),
              rng.standard_normal((n, 2))):
        for trans in ("N", "T"):
            assert (red.apply_q(x, trans).tobytes()
                    == _f2py_apply_q(red, x, trans).tobytes())
        y = _f2py_apply_q(red, x, "T").reshape(n, -1)
        *_, z, info = lapack.dgtsv(red._e, red._d, red._e, y)
        assert info == 0
        want = _f2py_apply_q(red, z).reshape(np.shape(x))
        assert red.solve(x).tobytes() == want.tobytes()
    for lo, hi in {(0, 0), (0, n - 1), (n // 2, n - 1), (n // 3, n // 2)}:
        w = eigh_tridiagonal(red._d, red._e[:n - 1], eigvals_only=True,
                             select="i", select_range=(lo, hi))
        assert red.eigenvalues(lo, hi).tobytes() == w.tobytes()
        _, v = eigh_tridiagonal(red._d, red._e[:n - 1], select="i",
                                select_range=(lo, hi))
        want = _f2py_apply_q(red, v)
        got = red.eigenvectors(lo, hi)
        assert got.shape == (n, hi - lo + 1)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 65, 259])
@pytest.mark.parametrize("b", [1, 4])
def test_band_eigenvalues_equal_f2py_dsbevx_bitwise(n, b):
    # dsbevx without vectors and for a part of the spectrum reduces the band
    # by dsbtrd and bisects T by dstebz (order "E"), the steps of _Banded's
    # reduction and eigenvalues
    rng = np.random.default_rng(n + b)
    ab = rng.standard_normal((min(b, n - 1) + 1, n))
    red = mesh._Banded(ab)
    for lo, hi in {(0, 0), (n - 1, n - 1), (n // 3, n // 2)}:
        if (lo, hi) == (0, n - 1) and n > 1:
            continue    # the whole spectrum, which dsbevx takes by dsterf
        w, _, m, _, info = lapack.dsbevx(ab, 0.0, 0.0, lo + 1, hi + 1,
                                         compute_v=0, range=2, lower=1)
        assert info == 0
        assert red.eigenvalues(lo, hi).tobytes() == w[:m].tobytes()


def test_every_lapack_binding_releases_the_interpreter_lock():
    # a CFUNCTYPE call releases the lock; a PYFUNCTYPE one, like the f2py
    # wrappers, would hold it
    assert set(mesh._LAPACK) == {"dsytrd", "dormqr", "dgtsv", "dstebz",
                                 "dstein", "dlarrc", "dsbtrd"}
    for routine in mesh._LAPACK.values():
        assert routine._flags_ & ctypes._FUNCFLAG_CDECL
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_reduction_releases_the_interpreter_lock():
    # while a worker reduces a large matrix, bisects it for eigenvalues,
    # solves with it and forms eigenvectors, reduces a long band and counts
    # the eigenvalues of a long tridiagonal below a point, the main thread
    # keeps running Python; a routine that held the lock would stall it for
    # the whole call, and the shortest of those steps takes tens of
    # milliseconds
    n = 2000
    rng = np.random.default_rng(3)
    B = rng.standard_normal((n, n))
    A = np.asfortranarray(B + B.T)
    b = rng.standard_normal((n, 128))
    band = rng.standard_normal((5, 3000))
    chain = mesh._Spectrum(rng.standard_normal(3_000_000),
                           rng.standard_normal(3_000_000))

    def steps(buffer):
        # (seconds of each step)
        t = [time.perf_counter()]
        red = _Tridiagonal(buffer)
        t.append(time.perf_counter())
        red.eigenvalues(0, 63)
        t.append(time.perf_counter())
        red.solve(b)
        t.append(time.perf_counter())
        red.eigenvectors(0, 63)
        t.append(time.perf_counter())
        mesh._Banded(band)
        t.append(time.perf_counter())
        chain.negcount(0.0)
        t.append(time.perf_counter())
        return np.diff(t)

    serial = steps(A.copy(order="F"))
    # the n x n copy is made before the worker starts: copying holds the lock
    worker = threading.Thread(target=steps, args=(A,))
    count, worst = 0, 0.0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        last = time.perf_counter()
        worker.start()
        while worker.is_alive():
            now = time.perf_counter()
            worst, last = max(worst, now - last), now
            count += 1
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert count > 1000
    assert worst < min(serial) / 2, (worst, serial)
