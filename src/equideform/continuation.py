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
Jacobi's class makes (JacobiOperator.bordered_reduction), gives both its
exact 2-norm condition number, which must stay below 1e12, and the update.
A band Jacobi has no Killing columns to border (the profile's k = 0), so
its bordered matrix is the band itself.

Once the residual is below the certificate's CRITICAL_TOL, a full Newton
step that does not halve it shows the roundoff floor of the residual, and
the corrector stops there with NoConvergence naming the floor rather than
iterating on to max_newton.

continue_branch marches the parameter with a secant predictor and adaptive
steps, certifying every accepted record (kernel = Killing span, spectral
gap, transversality margin against the previous record's Killing basis).
A degenerate verdict halts the branch with the offending record flagged at
the end; convergence failure raises NoConvergence carrying the partial
branch and naming the cause of the last failed attempt. Given a record's
state, its certificate and the next record's correction are independent
(Allgower & Georg, Numerical Continuation Methods, 1990), so the
certificate runs on one worker thread while this thread corrects the
attempt that follows if the record is accepted. The two overlap because the
symmetric reduction releases the interpreter lock. That correction is used
only once the record is accepted, so records, errors and payloads stay
bitwise those of a one-at-a-time march; the march holds five n x n matrices
at once, diff1 and two for each thread, where one path alone holds three.

orbit_project recovers the group motion between nearby solutions by
Gauss-Newton on the Killing components of the difference. It acts once per
iteration: the Jacobian in the group parameters is analytic, the
Killing-Jacobi fields at the moved state of psi(ad_X) xi_a
(variational.act_jacobian), which is Gauss-Newton on the group (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 8). congruence_check composes it with one corrector polish to decide
whether two states are the same solution modulo the group.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .equivariance import (CRITICAL_TOL, nondegeneracy_report,
                           operator_diagnostics, rank_basis,
                           transversality_margin)
from .errors import (DomainError, IllConditioned, NoConvergence,
                     PreconditionError)
from .variational import (ProblemState, act, act_jacobian, derived_scalars,
                          jacobi, killing_jacobi_basis, pairing, residual,
                          residual_norm)

MARGIN_FLOOR = 0.1
RECORD_CAP = 100000

# orbit_project's Gauss-Newton: stopping tolerance on the Killing
# components, iteration cap, and the largest motion |t| accepted as nearby
ORBIT_TOL = 1e-11
ORBIT_MAX_ITER = 30
ORBIT_TRUST_RADIUS = 0.25


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
        if self.min_step <= 0.0 or self.initial_step <= 0.0 or self.max_step <= 0.0:
            raise PreconditionError("continuation steps must be positive")
        if self.min_step > self.initial_step or self.initial_step > self.max_step:
            raise PreconditionError("need min_step <= initial_step <= max_step")
        if self.tol <= 0.0 or self.basin_guard <= 0.0:
            raise PreconditionError("tolerances must be positive")
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
    newton_iters: int
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


def _bordered_update(J, B, res, lambda_hat):
    """Newton update and condition number of the bordered system: J's one
    reduction of M = [[W J, W B], [B^T W, 0]], gone on return, gives both
    the exact 2-norm condition number max|mu| / min|mu| over M's eigenvalues
    and the solve. Raises IllConditioned when the condition exceeds 1e12."""
    w = J.pairing.weights
    n, k = B.shape
    reduced = J.bordered_reduction(B)
    mu = np.abs(reduced.eigenvalues)
    lo = np.min(mu)
    cond = np.max(mu) / lo if lo > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditioned(
            f"bordered matrix condition {cond:.3e} at lambda_hat={lambda_hat} "
            "signals nondegeneracy loss")
    rhs = np.concatenate([-(w * res), np.zeros(k)])
    return reduced.solve(rhs)[:n], float(cond)


@errors.linalg_guard
def corrector_step(problem, state, lambda_hat, config):
    """Bordered Newton correction at fixed parameter.

    Returns (state, iterations, diagnostics) with diagnostics carrying the
    residual-norm history, the worst bordered condition number, and the
    largest normalized Killing component of any update (the slice leak,
    held at roundoff by an explicit projection after each solve).
    """
    pr = pairing(problem)
    w = pr.weights
    st = ProblemState(state.values.copy())
    res = residual(problem, st, lambda_hat)
    rn = pr.norm(res)
    if not np.isfinite(rn) or rn >= config.basin_guard:
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
        B = rank_basis(killing_jacobi_basis(problem, st, lambda_hat), w)
        k = B.shape[1]
        delta, cond = _bordered_update(jacobi(problem, st, lambda_hat), B,
                                       res, lambda_hat)
        worst_cond = max(worst_cond, cond)
        if k:
            # exact W-orthogonality to the orbit directions
            delta = delta - B @ (B.T @ (w * delta))
            dn = pr.norm(delta)
            if dn > 0.0:
                leak = np.max(np.abs(B.T @ (w * delta))) / dn
                orbit_inner = max(orbit_inner, float(leak))
        st = ProblemState(st.values + delta)
        res = residual(problem, st, lambda_hat)
        prev, rn = rn, pr.norm(res)
        if not np.isfinite(rn):
            raise NoConvergence("corrector residual became non-finite")
        norms.append(float(rn))
        iters += 1
        if prev < CRITICAL_TOL and rn > config.tol and not rn <= 0.5 * prev:
            raise NoConvergence(
                f"corrector stalled at its roundoff floor |residual|_W = "
                f"{rn:.3e}: a full Newton step from {prev:.3e} did not halve "
                f"it after {iters} iterations (lambda_hat={lambda_hat}); "
                f"[path] tol = {config.tol:g} must lie above this floor")
    diagnostics = {"residual_norms": norms, "cond": worst_cond,
                   "orbit_inner": orbit_inner}
    return st, iters, diagnostics


def _certify(problem, state, lam, config, iters, reference,
             with_diagnostics=False):
    """Certify a converged state: return its record and Killing rank basis.

    The margin is taken against reference, or the state's own basis if None.
    """
    J = jacobi(problem, state, lam)
    rep = nondegeneracy_report(problem, state, lam, tol_rel=config.tol_rel,
                               angle_tol=config.angle_tol, operator=J)
    basis = rep.killing_basis
    margin = transversality_margin(
        basis, basis if reference is None else reference, J.pairing.weights)
    diag = None
    if with_diagnostics:
        diag = operator_diagnostics(J, problem, state, lam).to_payload()
    return BranchRecord(
        lambda_hat=float(lam), state=state, residual_norm=rep.residual_norm,
        kernel_dim=rep.kernel_dim, killing_rank=rep.killing_rank,
        max_principal_angle=rep.max_principal_angle, spectral_gap=rep.gap,
        transversality_margin=margin, newton_iters=int(iters),
        derived_scalars=derived_scalars(problem, state, lam),
        verdict=rep.verdict, diagnostics=diag), basis


# the failures of one attempt that halve the step instead of ending the branch
_ATTEMPT_ERRORS = (NoConvergence, IllConditioned, DomainError,
                   PreconditionError)


@dataclass(frozen=True, eq=False)
class _Path:
    """The step rule's state at the last accepted record."""

    lam: float
    state: ProblemState
    step: float
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

    def accepted(self, target, state, iters, config):
        """The path once the record (target, state) corrected in iters
        Newton steps is accepted: two fast records in a row grow the step."""
        fast = self.fast + 1 if iters <= 3 else 0
        step = self.step
        if fast >= 2:
            step = min(step * 1.3, config.max_step)
        return _Path(target, state, step, fast, self.lam, self.state.values)

    def halved(self):
        return replace(self, step=self.step * 0.5, fast=0)


def _correct(problem, path, config):
    """The corrector at path's next attempt: (target, outcome), the outcome
    being corrector_step's (state, iters, diagnostics) or whatever it raised.
    """
    target, guess = path.attempt(config)
    try:
        return target, corrector_step(problem, ProblemState(guess), target,
                                      config)
    except Exception as exc:  # kept, and raised again only if it is used
        return target, exc


def _attempt_log(rejected, used, discarded):
    return {"rejected": rejected,
            "speculative": {"used": used, "discarded": discarded}}


def continue_branch(problem, seed_state, config):
    """March the branch from config.start to config.end.

    The polished seed is the first record. Secant predictor after the first
    step; on corrector failure (no convergence, conditioning, chart exit, or
    basin miss on the predicted state) or a transversality margin at or
    below MARGIN_FLOOR the step halves up to config.retries times before the
    partial branch is raised inside NoConvergence, whose message ends with
    the last attempt's cause. A record whose nondegeneracy verdict is not
    clean is appended flagged and the branch halts there.

    Each converged record is certified on one worker thread while this
    thread runs the corrector for the attempt that follows if the record is
    accepted; that correction is used only then, and dropped, with whatever
    it raised, when the record is rejected or halts the branch. Every
    computation sees the inputs of a one-at-a-time march, so the records and
    errors are bitwise those of one. The worker is gone on return.

    Each record's log (outside its payload) holds the corrector's residual
    history, worst bordered condition and slice leak, the causes of the
    attempts rejected before it, and the speculative corrections used and
    dropped since the previous record; a stall's NoConvergence carries the
    same for the attempts after the last record.
    """
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="certify") as pool:
        return _march(problem, seed_state, config, pool)


def _march(problem, seed_state, config, pool):
    cadence = int(config.diagnostics_cadence)
    records = []

    def certify(target, state, iters, ref, after):
        # the record's certificate on the worker, overlapped with the
        # correction that follows it if accepted, when one would run
        with_diag = cadence > 0 and len(records) % cadence == 0
        future = pool.submit(_certify, problem, state, target, config,
                             iters, ref, with_diag)
        ahead = None
        if (after.lam != config.end and after.step >= config.min_step
                and len(records) + 1 < RECORD_CAP):
            ahead = (after, _correct(problem, after, config))
        return future, ahead

    lam = float(config.start)
    st, iters, diag = corrector_step(problem, seed_state, lam, config)
    path = _Path(lam, st, float(config.initial_step))
    future, ahead = certify(lam, st, iters, None, path)
    rec, ref = future.result()
    halts = rec.verdict != "nondegenerate"
    records.append(replace(rec, log=dict(
        diag, **_attempt_log([], 0, int(halts and ahead is not None)))))
    if halts:
        return records
    while path.lam != config.end:
        rejected = []
        used = discarded = 0
        advanced = False
        for _ in range(config.retries + 1):
            if path.step < config.min_step:
                break
            if ahead is not None and ahead[0] is path:
                target, outcome = ahead[1]
                used += 1
            else:
                target, outcome = _correct(problem, path, config)
            ahead = None
            if isinstance(outcome, Exception):
                if not isinstance(outcome, _ATTEMPT_ERRORS):
                    raise outcome
                cause = f"{type(outcome).__name__}: {outcome}"
            else:
                st_new, iters, diag = outcome
                after = path.accepted(target, st_new, iters, config)
                future, ahead = certify(target, st_new, iters, ref, after)
                try:
                    rec, basis = future.result()
                except _ATTEMPT_ERRORS as exc:
                    cause = f"{type(exc).__name__}: {exc}"
                else:
                    if rec.transversality_margin > MARGIN_FLOOR:
                        advanced = True
                        break
                    # stale slice: shrink toward the reference instead of
                    # accepting
                    cause = (f"transversality margin "
                             f"{rec.transversality_margin:.3g} <= "
                             f"{MARGIN_FLOOR}")
                discarded += ahead is not None
                ahead = None
            rejected.append(cause)
            path = path.halved()
        if not advanced:
            # the first attempt always runs (step >= min_step), so cause is set
            raise NoConvergence(
                f"continuation stalled at lambda_hat={path.lam:.12g} "
                f"(step underflow below {config.min_step:.3e}); "
                f"last failure: {cause}",
                partial_branch=records,
                log=_attempt_log(rejected, used, discarded))
        halts = rec.verdict != "nondegenerate"
        discarded += halts and ahead is not None
        records.append(replace(rec, log=dict(
            diag, **_attempt_log(rejected, used, discarded))))
        if halts:
            return records
        path, ref = after, basis
        if len(records) >= RECORD_CAP:
            raise NoConvergence("record cap reached", partial_branch=records)
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
    pr = pairing(problem)
    w = pr.weights
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
    pr = pairing(problem)
    t, moved, _ = orbit_project(problem, state2, lambda_hat, state1)
    polished, _, _ = corrector_step(problem, moved, lambda_hat, config)
    dist = pr.norm(polished.values - state1.values)
    return bool(dist < tol), t
