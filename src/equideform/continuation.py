"""Predictor-corrector branch continuation on symmetry slices.

The corrector is a bordered Newton iteration: each step solves the
symmetric system

    [ W J   W K ] [ delta ]   [ -W residual ]
    [ K^T W  0  ] [  mu   ] = [      0      ]

where K is a W-orthonormal rank basis of the Killing-Jacobi span evaluated
at the current iterate, so updates stay W-orthogonal to the orbit
directions that foliate the solution set. Quadratic convergence holds near
certified-nondegenerate solutions because the bordered matrix is exactly
the restriction of the Hessian to a transversal slice plus the orbit
bookkeeping. One reduction of the bordered matrix per step, which the
Jacobi's class makes (mesh.JacobiOperator.bordered_reduction), gives both
its exact 2-norm condition number, which must stay below 1e12, and the
update.
A band Jacobi has no Killing columns to border (the profile's k = 0), so
its bordered matrix is the band itself.

Once the residual is below the certificate's CRITICAL_TOL, a full Newton
step that does not halve it shows the roundoff floor of the residual, and
the corrector stops there with NoConvergence naming the floor rather than
iterating on to max_newton.

Along a branch the corrector is a chord (simplified Newton) iteration
(Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 2; Allgower &
Georg, Numerical Continuation Methods, 1990). Each correction hands the
last reduction it solved with, and that reduction's Killing border, to the
correction of the next record, which steps against them, with no Jacobi
assembled and none reduced, while each step shrinks the residual by
CHORD_CONTRACTION. From the first step that does not, the rest of the call
is the Newton iteration above. Every record still reduces its own Jacobi
for its certificate, so no verdict rests on a reused reduction.

continue_branch marches the parameter with a secant predictor and adaptive
steps, certifying every accepted record (kernel = Killing span, spectral
gap, transversality margin against the previous record's Killing basis).
A degenerate verdict halts the branch with the offending record flagged at
the end; convergence failure raises NoConvergence carrying the partial
branch and naming the cause of the last failed attempt. Given a record's
state, its certificate and the next record's correction are independent
(Allgower & Georg), so the certificate runs on one worker thread while this
thread corrects the attempt that follows if the record is accepted. The two
overlap because every LAPACK routine of the dense reduction
(mesh._Tridiagonal) releases the interpreter lock. The march holds three n
x n matrices at once, diff1 and one buffer for each thread, where one path
alone holds two: a Newton step assembles W J into the top-left block of the
bordered buffer it reduces (bordered_jacobi), the certificate reduces its
Jacobi's own storage, and a correction takes the reduction it is handed
out of its holder, so no path keeps it while a Newton step assembles and
reduces another.

orbit_project recovers the group motion between nearby solutions by
Gauss-Newton on the Killing components of the difference. It acts once per
iteration: the Jacobian in the group parameters is analytic, the
Killing-Jacobi fields at the moved state of psi(ad_X) xi_a
(variational.act_jacobian), which is Gauss-Newton on the group (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 8). congruence_check composes it with one corrector polish to decide
whether two states are the same solution modulo the group.
"""

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from . import errors
from .equivariance import (CRITICAL_TOL, nondegeneracy_report,
                           operator_diagnostics, rank_basis,
                           transversality_margin)
from .errors import (SOLVER_ERRORS, IllConditioned, NoConvergence,
                     PreconditionError)
from .mesh import wnorm
from .variational import (ProblemState, act, act_jacobian, bordered_jacobi,
                          derived_scalars, jacobi, killing_jacobi_basis,
                          residual, residual_norm)

MARGIN_FLOOR = 0.1
RECORD_CAP = 100000

# orbit_project's Gauss-Newton: stopping tolerance on the Killing
# components, iteration cap, and the largest motion |t| accepted as nearby
ORBIT_TOL = 1e-11
ORBIT_MAX_ITER = 30
ORBIT_TRUST_RADIUS = 0.25

# a chord step must shrink the residual by this factor, or the rest of its
# correction is Newton's
CHORD_CONTRACTION = 0.03
# a record whose correction made at most this many reductions counts as
# fast for the step rule
FAST_REDUCTIONS = 1


@dataclass(frozen=True)
class ContinuationConfig:
    """Path and corrector settings of a branch.

    min_step defaults to initial_step / 2**(retries + 1), the step left once
    all retries + 1 attempts at the first step have failed and halved it,
    and max_step to initial_step.
    """

    start: float
    end: float
    initial_step: float
    min_step: float = None
    max_step: float = None
    tol: float = 1e-10
    max_newton: int = 12
    retries: int = 6
    basin_guard: float = 1e-2
    diagnostics_cadence: int = 0
    angle_tol: float = 1e-6
    tol_rel: float = None

    def __post_init__(self):
        if self.max_step is None:
            object.__setattr__(self, "max_step", self.initial_step)
        if self.min_step is None:
            object.__setattr__(self, "min_step",
                               self.initial_step / 2.0 ** (self.retries + 1))
        if not (np.isfinite(self.start) and np.isfinite(self.end)):
            raise PreconditionError("start and end must be finite")
        if not 0.0 < self.min_step <= self.initial_step <= self.max_step < np.inf:
            raise PreconditionError("need 0 < min_step <= initial_step <= max_step < inf")
        if not (self.tol > 0.0 and 0.0 < self.basin_guard < np.inf):
            raise PreconditionError("tolerances must be positive and finite")
        if self.tol >= CRITICAL_TOL:
            # a corrected state the certificate refuses as not critical
            # would only halve the step
            raise PreconditionError(
                f"tol must lie below the certificate's {CRITICAL_TOL:g}, "
                f"got {self.tol}")
        if self.max_newton < 0 or self.retries < 0 or self.diagnostics_cadence < 0:
            raise PreconditionError(
                "max_newton, retries and diagnostics_cadence must be non-negative")
        if not 0.0 < self.angle_tol < np.pi / 2:
            # principal angles lie in [0, pi/2], so a tolerance of pi/2 or
            # more would switch the angle gate off
            raise PreconditionError(
                f"angle_tol must lie in (0, pi/2), got {self.angle_tol}")
        if self.tol_rel is not None and not 0.0 < self.tol_rel <= 1e-2:
            raise PreconditionError(f"tol_rel must lie in (0, 1e-2], got {self.tol_rel}")

    @classmethod
    def from_steps(cls, start, end, n_records, **kwargs):
        """Uniform path hitting exactly n_records parameter values."""
        if n_records < 2 or end == start:
            raise PreconditionError("need at least two records and a nontrivial path")
        step = abs(end - start) / (n_records - 1)
        return cls(start=float(start), end=float(end), initial_step=step,
                   **kwargs)

    @classmethod
    def polish(cls, lam, **kwargs):
        """Corrector-only config at the fixed parameter lam (start = end)."""
        return cls(start=lam, end=lam, initial_step=1.0, min_step=1e-12,
                   max_step=1.0, **kwargs)


@dataclass(frozen=True, eq=False)
class BranchRecord:
    lambda_hat: float
    state: ProblemState
    residual_norm: float
    kernel_dim: int
    killing_rank: int
    max_principal_angle: float
    spectral_gap: float
    transversality_margin: float
    newton_iters: int  # corrector iterations, chord and Newton steps alike
    derived_scalars: dict
    verdict: str
    diagnostics: dict
    log: dict = None  # continue_branch's account of the record, not payload

    def to_payload(self):
        return {
            "lambda_hat": float(self.lambda_hat),
            "residual_norm": float(self.residual_norm),
            "kernel_dim": int(self.kernel_dim),
            "killing_rank": int(self.killing_rank),
            "max_principal_angle": float(self.max_principal_angle),
            "spectral_gap": float(self.spectral_gap),
            "transversality_margin": float(self.transversality_margin),
            "newton_iters": int(self.newton_iters),
            "derived_scalars": dict(self.derived_scalars),
            "verdict": self.verdict,
            "state": [float(x) for x in self.state.values],
            "diagnostics": self.diagnostics,
        }


class _Chord:
    """What a branch correction hands on to the next: the last bordered
    reduction it solved with and that reduction's Killing border (both
    None when it made none), and how many reductions it made.

    The correction handed a holder takes the reduction out of it, so a path
    or a future that still refers to the holder keeps no n x n buffer alive
    while that correction assembles and reduces a new one.
    """

    def __init__(self, handed=(None, None)):
        self.reduced, self.border = handed
        self.made = 0

    def take(self):
        """(the reduction, its border), which the holder no longer holds."""
        handed = self.reduced, self.border
        self.reduced = self.border = None
        return handed


def _bordered_update(reduced, w, B, res, lambda_hat):
    """Newton update and condition number of the bordered system from
    reduced, one reduction of M = [[W J, W B], [B^T W, 0]] for the weights
    w: the exact 2-norm condition number max|mu| / min|mu| over M's
    eigenvalues, min|mu| from the two on either side of 0, and the solve.
    Raises IllConditioned when the condition exceeds 1e12."""
    n, k = B.shape
    c = reduced.negcount(0.0)
    near = reduced.eigenvalues(max(c - 1, 0), min(c, n + k - 1))
    lo = np.min(np.abs(near))
    cond = reduced.norm() / lo if lo > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditioned(
            f"bordered matrix condition {cond:.3e} at lambda_hat={lambda_hat} "
            "signals nondegeneracy loss")
    rhs = np.concatenate([-(w * res), np.zeros(k)])
    return reduced.solve(rhs)[:n], float(cond)


@errors.linalg_guard
def corrector_step(problem, state, lambda_hat, config, chord=None):
    """Bordered Newton correction at fixed parameter.

    Returns (state, iterations, diagnostics) with diagnostics carrying the
    residual-norm history, the worst bordered condition number, the slice
    leak: the largest normalized Killing component of any bordered solve's
    update, which an explicit projection then removes, and the number of
    bordered reductions made.

    chord is the _Chord a branch correction hands on; every standalone call
    leaves it out, and then every step is Newton's. The call takes the
    reduction and border it holds and steps against them while each step
    shrinks the residual by CHORD_CONTRACTION; a step that does not is kept
    only if it shrank the residual at all, and the rest of the call is
    Newton's. A Newton step drops the reduction it steps from before it
    assembles the next. The call counts its reductions in chord as it makes
    them, and leaves there the last one it solved with and its border.
    """
    w = problem.weights()
    chord = _Chord() if chord is None else chord
    reduced, B = chord.take()
    chording = reduced is not None
    st = ProblemState(state.values.copy())
    res = residual(problem, st, lambda_hat)
    rn = wnorm(w, res)
    if not np.isfinite(rn):
        raise PreconditionError(f"initial residual {rn} is not finite "
                                f"(lambda_hat={lambda_hat})")
    if rn >= config.basin_guard:
        raise PreconditionError(
            f"initial residual {rn:.3e} outside the basin guard {config.basin_guard:.1e}")
    norms = [float(rn)]
    worst_cond = 0.0
    orbit_inner = 0.0
    iters = 0
    while rn > config.tol:
        if iters >= config.max_newton:
            raise NoConvergence(
                f"corrector stalled at |residual|_W = {rn:.3e} "
                f"after {iters} iterations (lambda_hat={lambda_hat})")
        newton = not chording
        if newton:
            # the last step's reduction goes before the next is assembled
            reduced = None
            B = rank_basis(killing_jacobi_basis(problem, st, lambda_hat), w)
            reduced = bordered_jacobi(problem, st, lambda_hat,
                                      B.shape[1]).bordered_reduction(B)
            chord.made += 1
        delta, cond = _bordered_update(reduced, w, B, res, lambda_hat)
        worst_cond = max(worst_cond, cond)
        if B.shape[1]:
            # the solve's leak off the slice, then exact W-orthogonality to
            # the orbit directions
            leak = B.T @ (w * delta)
            dn = wnorm(w, delta)
            if dn > 0.0:
                orbit_inner = max(orbit_inner, float(np.max(np.abs(leak)) / dn))
            delta = delta - B @ leak
        trial = ProblemState(st.values + delta)
        trial_res = residual(problem, trial, lambda_hat)
        trial_rn = wnorm(w, trial_res)
        if newton:
            if not np.isfinite(trial_rn):
                raise NoConvergence("corrector residual became non-finite")
        elif not trial_rn <= CHORD_CONTRACTION * rn:
            chording = False
            if not trial_rn < rn:
                continue
        st, res, prev, rn = trial, trial_res, rn, trial_rn
        norms.append(float(rn))
        iters += 1
        if (newton and prev < CRITICAL_TOL and rn > config.tol
                and not rn <= 0.5 * prev):
            raise NoConvergence(
                f"corrector stalled at its roundoff floor |residual|_W = "
                f"{rn:.3e}: a full Newton step from {prev:.3e} did not halve "
                f"it after {iters} iterations (lambda_hat={lambda_hat}); "
                f"[path] tol = {config.tol:g} must lie above this floor")
    chord.reduced, chord.border = reduced, B
    diagnostics = {"residual_norms": norms, "cond": worst_cond,
                   "orbit_inner": orbit_inner, "reductions": chord.made}
    return st, iters, diagnostics


def _certify(problem, state, lam, config, iters, reference,
             with_diagnostics=False):
    """Certify a converged state: return its record and Killing rank basis.

    The margin is taken against reference, or the state's own basis if None.
    """
    J = jacobi(problem, state, lam)
    diag = None
    if with_diagnostics:
        # read W J before the certificate's reduction takes its storage
        diag = operator_diagnostics(J, problem, state, lam).to_payload()
    rep = nondegeneracy_report(problem, state, lam, tol_rel=config.tol_rel,
                               angle_tol=config.angle_tol, operator=J)
    basis = rep.killing_basis
    margin = transversality_margin(
        basis, basis if reference is None else reference, J.weights)
    return BranchRecord(
        lambda_hat=float(lam), state=state, residual_norm=rep.residual_norm,
        kernel_dim=rep.kernel_dim, killing_rank=rep.killing_rank,
        max_principal_angle=rep.max_principal_angle, spectral_gap=rep.gap,
        transversality_margin=margin, newton_iters=int(iters),
        derived_scalars=derived_scalars(problem, state, lam),
        verdict=rep.verdict, diagnostics=diag), basis


@dataclass(frozen=True, eq=False)
class _Path:
    """The step rule's state at the last accepted record."""

    lam: float
    state: ProblemState
    step: float
    chord: _Chord    # what the correction of state handed on
    fast: int = 0
    prev_lam: float = None
    prev_vals: np.ndarray = None

    def attempt(self, config):
        """Target and secant guess of the next attempt."""
        direction = 1.0 if config.end >= config.start else -1.0
        target = self.lam + direction * self.step
        # snap to the endpoint through accumulated roundoff, or the last
        # step leaves an ulp-sized gap and the endpoint gets recorded twice
        snap = 1e-9 * (abs(config.end) + self.step)
        if direction * (target - config.end) >= -snap:
            target = float(config.end)
        vals = self.state.values
        if self.prev_lam is not None and self.lam != self.prev_lam:
            scale = (target - self.lam) / (self.lam - self.prev_lam)
            return target, vals + scale * (vals - self.prev_vals)
        return target, vals

    def accepted(self, target, state, chord, config):
        """The path once the record (target, state), whose correction left
        chord, is accepted: two records in a row corrected with at most
        FAST_REDUCTIONS reductions each grow the step."""
        fast = self.fast + 1 if chord.made <= FAST_REDUCTIONS else 0
        step = self.step
        if fast >= 2:
            step = min(step * 1.3, config.max_step)
        return _Path(target, state, step, chord, fast, self.lam,
                     self.state.values)

    def halved(self):
        """The path for a retry at half the step. It keeps its chord, which
        the failed attempt's correction has emptied, so a retry starts with
        a Newton step."""
        return replace(self, step=self.step * 0.5, fast=0)


def _timed(func, *args):
    """(func(*args), the seconds it took on the calling thread)."""
    start = perf_counter()
    out = func(*args)
    return out, perf_counter() - start


def _correct(problem, path, config):
    """The corrector at path's next attempt, handed the reduction path's
    chord holds: (target, the attempt's _Chord, a finished Future holding
    corrector_step's (state, iters, diagnostics) and its seconds, or what
    it raised)."""
    target, guess = path.attempt(config)
    chord = _Chord(path.chord.take())
    done = Future()
    try:
        done.set_result(_timed(corrector_step, problem, ProblemState(guess),
                               target, config, chord))
    except Exception as exc:  # raised again only by .result(), if it is read
        done.set_exception(exc)
    return target, chord, done


def continue_branch(problem, seed_state, config):
    """March the branch from config.start to config.end.

    The polished seed is the first record. Secant predictor after the first
    step; on corrector failure (no convergence, conditioning, chart exit, or
    basin miss on the predicted state) or a transversality margin at or
    below MARGIN_FLOOR the step halves up to config.retries times before the
    partial branch is raised inside NoConvergence, whose message ends with
    the last attempt's cause. A record whose nondegeneracy verdict is not
    clean is appended flagged and the branch halts there.

    The first attempt after a record is a chord correction against the
    last reduction that record's correction solved with; a retry after a
    rejected attempt starts with Newton, since the rejected correction took
    that reduction. config.max_newton bounds the corrector iterations of
    either kind, and two records in a row whose corrections made at most
    FAST_REDUCTIONS reductions each grow the step by 1.3, up to max_step.

    Each converged record is certified on one worker thread while this
    thread runs the corrector for the attempt that follows if the record is
    accepted. That correction is carried as a finished Future, holding its
    result or what it raised, and read by .result(), as the certificate is,
    only once the record is accepted; it is dropped unread when the record
    is rejected or halts the branch. So the records and errors are bitwise
    those of a one-at-a-time march. The worker is gone on return.

    Each record's log (outside its payload) holds the corrector's residual
    history, worst bordered condition, slice leak and reductions made, the
    causes of the attempts rejected before it, the speculative corrections
    used and dropped since the previous record, and the seconds its
    correction and its certificate took, each timed on the thread that ran
    it; a stall's NoConvergence carries the causes, the corrections and the
    reductions made for the attempts after the last record.
    """
    cadence = int(config.diagnostics_cadence)
    records = []
    rejected, used, discarded, made = [], 0, 0, 0
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="certify") as pool:

        def certify(target, state, iters, ref, after):
            # the record's certificate on the worker, overlapped with the
            # correction that follows it if accepted, when one would run
            with_diag = cadence > 0 and len(records) % cadence == 0
            future = pool.submit(_timed, _certify, problem, state, target,
                                 config, iters, ref, with_diag)
            ahead = None
            if (after.lam != config.end and after.step >= config.min_step
                    and len(records) + 1 < RECORD_CAP):
                ahead = _correct(problem, after, config)
            return future, ahead

        def append(rec, diag, ahead, correct_s, certify_s):
            # the record with its log; True when its verdict halts the branch
            halts = rec.verdict != "nondegenerate"
            speculative = {"used": used, "discarded":
                           discarded + (halts and ahead is not None)}
            seconds = {"correct": correct_s, "certify": certify_s}
            records.append(replace(rec, log=dict(
                diag, rejected=rejected, speculative=speculative,
                seconds=seconds)))
            return halts

        def stalled(path, cause):
            # the first attempt always runs (step >= min_step), so cause is set
            return NoConvergence(
                f"continuation stalled at lambda_hat={path.lam:.12g} "
                f"(step underflow below {config.min_step:.3e}); "
                f"last failure: {cause}", partial_branch=records,
                log={"rejected": rejected,
                     "speculative": {"used": used, "discarded": discarded},
                     "reductions": made})

        lam = float(config.start)
        chord = _Chord()
        (st, iters, diag), correct_s = _timed(corrector_step, problem,
                                              seed_state, lam, config, chord)
        path = _Path(lam, st, float(config.initial_step), chord)
        future, ahead = certify(lam, st, iters, None, path)
        (rec, ref), certify_s = future.result()
        if append(rec, diag, ahead, correct_s, certify_s):
            return records
        while path.lam != config.end:
            rejected, used, discarded, made = [], 0, 0, 0
            for _ in range(config.retries + 1):
                if path.step < config.min_step:
                    raise stalled(path, cause)
                if ahead is not None:
                    used += 1
                target, chord, correction = ahead or _correct(
                    problem, path, config)
                ahead = None
                try:
                    (st_new, iters, diag), correct_s = correction.result()
                    after = path.accepted(target, st_new, chord, config)
                    future, ahead = certify(target, st_new, iters, ref, after)
                    (rec, basis), certify_s = future.result()
                except SOLVER_ERRORS as exc:
                    cause = f"{type(exc).__name__}: {exc}"
                else:
                    if rec.transversality_margin > MARGIN_FLOOR:
                        break
                    # a stale slice: shrink toward the reference
                    cause = (f"transversality margin "
                             f"{rec.transversality_margin:.3g} <= "
                             f"{MARGIN_FLOOR}")
                discarded += ahead is not None
                ahead = None
                rejected.append(cause)
                made += chord.made
                path = path.halved()
            else:
                raise stalled(path, cause)
            if append(rec, diag, ahead, correct_s, certify_s):
                return records
            path, ref = after, basis
            if len(records) >= RECORD_CAP:
                raise NoConvergence("record cap reached",
                                    partial_branch=records)
    return records


@errors.linalg_guard
def orbit_project(problem, state, lambda_hat, reference):
    """Move a state onto the affine slice through a nearby reference.

    Gauss-Newton over the group parameters t of the Killing components
    F(t) = K^T W (act(state, t) - reference), with K the W-orthonormal
    Killing-Jacobi rank basis at the reference. Each iteration acts once
    and takes dF/dt = K^T W act_jacobian at the moved state, whose column
    a is the Killing-Jacobi field of psi(ad_X) xi_a for X = sum t_a xi_a.
    Returns the parameters t (a float array) of the motion carrying the
    reference's representative onto the input state (minus the solve
    direction), the moved state, and the remaining W-distance to the slice.
    """
    w = problem.weights()
    B = rank_basis(killing_jacobi_basis(problem, reference, lambda_hat), w)
    k = len(problem.generators(lambda_hat))
    if k == 0 or B.shape[1] == 0:
        moved = ProblemState(state.values.copy())
        dist = float(np.linalg.norm(B.T @ (w * (moved.values - reference.values))))
        return np.zeros(k), moved, dist

    t = np.zeros(k)
    moved = act(problem, state, lambda_hat, t)
    F = B.T @ (w * (moved.values - reference.values))
    for _ in range(ORBIT_MAX_ITER):
        if np.linalg.norm(F) < ORBIT_TOL:
            break
        Jt = B.T @ (w[:, None] * act_jacobian(problem, moved, lambda_hat, t))
        dt, *_ = np.linalg.lstsq(Jt, -F, rcond=None)
        t = t + dt
        if np.linalg.norm(t) > ORBIT_TRUST_RADIUS:
            raise NoConvergence("orbit projection left the trust region")
        moved = act(problem, state, lambda_hat, t)
        F = B.T @ (w * (moved.values - reference.values))
    else:
        raise NoConvergence(
            f"orbit projection stalled with |F| = {np.linalg.norm(F):.3e}")
    return -t, moved, float(np.linalg.norm(F))


def congruence_check(problem, state1, state2, lambda_hat, tol=1e-8,
                     config=None):
    """Decide whether two critical states agree modulo the group action.

    Projects state2 onto state1's slice, polishes with the corrector under
    config (default ContinuationConfig.polish(lambda_hat)), and compares in
    the W norm. Solver failures from the projection or polish propagate; a
    clean finish returns (within tol?, recovered parameters).
    """
    if config is None:
        config = ContinuationConfig.polish(lambda_hat)
    t, moved, _ = orbit_project(problem, state2, lambda_hat, state1)
    polished, _, _ = corrector_step(problem, moved, lambda_hat, config)
    dist = wnorm(problem.weights(), polished.values - state1.values)
    return bool(dist < tol), t
