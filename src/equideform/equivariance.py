"""Certification of equivariant nondegeneracy and slice transversality.

The numerical Jacobi kernel is extracted from one reduction of one triangle
of W^-1/2 (W J) W^-1/2, which answers what the certificate reads of its
spectrum and no more: the largest modulus, the counts of eigenvalues below
the two cuts, whose difference is the kernel dimension, and the kernel
eigenvalues with their two neighbours, which give the gap. The kernel's
eigenvectors are formed only to be compared against the span of the
Killing-induced Jacobi fields through principal angles, so only when that
span is nonempty. The operator's class makes the reduction
(mesh.JacobiOperator.scaled_reduction): a tridiagonal one of a dense W J,
made in W J's own storage, so the certificate holds one n x n matrix
beside diff1 and the operator refuses any use after it (run
operator_diagnostics first); a band one of a band W J (dirichlet grids),
which works in O(n b) memory and O(n^2 b) time and refuses eigenvectors,
since the band's instance has no Killing fields; the cut, the gap and the
verdict that follow are the same code for both. A state is certified
nondegenerate exactly when the kernel dimension equals the Killing rank and
every principal angle is below tolerance; a mandatory multiplicative
spectral gap guards against silent misclassification near threshold.

The slice through a certified state is the W-complement of its Killing
span. It stays transversal to a nearby orbit while the two k-dimensional
Killing spans are nowhere orthogonal, so the transversality margin comes
from the principal angles between the two Killing bases, without forming
the n x (n - k) complement.

All subspace work happens in the W inner product: node vectors u, v pair as
sum_i w_i u_i v_i, and bases are W-orthonormal. Mapping v -> sqrt(W) v
turns that into the ordinary Euclidean geometry, which is how every routine
here is implemented.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .errors import PreconditionError
from .variational import (ProblemState, jacobi, killing_jacobi_basis,
                          residual, residual_norm)

GAP_FLOOR = 1.0e3
CRITICAL_TOL = 1e-8  # nondegeneracy_report needs |residual|_W below this
RANK_RTOL = 1e-10   # rank_basis drops singular values below this * sigma_max


@dataclass(frozen=True, eq=False)
class KernelBasis:
    dim: int
    singular_values: np.ndarray  # the retained small singular values
    tol_rel: float               # relative cut, default 1e-8 * (unknowns)
    tolerance: float             # absolute cut, tol_rel * sigma_max
    gap: float
    indeterminate: bool
    _form: object = field(repr=False)  # forms vectors from the reduction

    @cached_property
    def vectors(self):
        """(n, dim), W-orthonormal columns, formed on first use."""
        return self._form()


@errors.linalg_guard
def numerical_kernel(J, tol_rel=None):
    """Near-kernel of a Jacobi operator via a tridiagonal or band reduction
    of W^-1/2 (W J) W^-1/2 = sqrt(W) J sqrt(W)^-1.

    That operator is symmetric, so its singular values are the moduli of its
    eigenvalues, which the reduction reads by Sturm counts and bisection:
    sigma_max, the counts below -tol and tol, which bound the dim retained
    eigenvalues with sigma < tol = tol_rel * sigma_max (tol_rel defaults to
    1e-8 * n for n unknowns; the basis records the value used), and only
    those eigenvalues and their two neighbours. The gap field holds the
    ratio between the smallest rejected singular value, a neighbour's, and
    the largest retained one; anything below 10^3 flags the result
    indeterminate (no certified separation). The eigenvectors of the
    retained indices are formed from the kept reduction only when the
    basis's vectors are first read, and mapped back by W^-1/2, which makes
    them exactly W-orthonormal; a band reduction refuses them
    (UnsupportedError), as a band operator refuses Killing columns: its
    instance has no Killing span. A dense J's reduction is made in its
    storage, which J gives up.
    """
    n = J.weights.size
    if tol_rel is None:
        tol_rel = 1e-8 * n
    if not 0.0 < tol_rel <= 1e-2:
        raise PreconditionError(f"tol_rel must lie in (0, 1e-2], got {tol_rel}")
    reduced, sw = J.scaled_reduction()
    tol = tol_rel * reduced.norm()
    # |mu| < tol is the run a..b-1 of the ascending spectrum
    a, b = reduced.negcount(-tol), reduced.negcount(tol)
    d = b - a
    kept = np.zeros(0, dtype=int)    # kernel indices by descending |mu|
    s = np.zeros(0)                  # their singular values
    gap = np.inf
    if d:
        # the run and its neighbours, the smallest rejected moduli
        lo = max(a - 1, 0)
        mu = np.abs(reduced.eigenvalues(lo, min(b, n - 1)))
        kept = np.argsort(mu[a - lo:b - lo])[::-1]
        s = mu[a - lo:b - lo][kept]
        if s[0] > 0.0:
            gap = float(np.min(np.delete(mu, range(a - lo, b - lo))) / s[0])

    @errors.linalg_guard
    def kernel_vectors():
        if not d:
            return np.zeros((n, 0))
        V = reduced.eigenvectors(a, b - 1)
        V /= sw[:, None]
        return V[:, kept]

    indeterminate = bool(d > 0 and gap < GAP_FLOOR)
    return KernelBasis(dim=d, singular_values=s,
                       tol_rel=float(tol_rel), tolerance=float(tol),
                       gap=float(gap), indeterminate=indeterminate,
                       _form=kernel_vectors)


@errors.linalg_guard
def rank_basis(vectors, weights):
    """W-orthonormal basis of the span of a (possibly dependent) list."""
    n = weights.size
    if not len(vectors):
        return np.zeros((n, 0))
    sw = np.sqrt(weights)
    M = sw[:, None] * np.column_stack(vectors)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0.0 else 0
    return U[:, :r] / sw[:, None]


@dataclass(frozen=True, eq=False)
class NondegeneracyReport:
    kernel_dim: int
    killing_rank: int
    principal_angles: np.ndarray
    max_principal_angle: float
    verdict: str                 # nondegenerate | degenerate | indeterminate
    tolerances: dict
    gap: float
    indeterminate: bool
    residual_norm: float
    killing_basis: np.ndarray    # (n, killing_rank), W-orthonormal columns

    def to_payload(self):
        return {
            "kernel_dim": self.kernel_dim,
            "killing_rank": self.killing_rank,
            "principal_angles": [float(a) for a in self.principal_angles],
            "max_principal_angle": float(self.max_principal_angle),
            "verdict": self.verdict,
            "tolerances": dict(self.tolerances),
            "gap": float(self.gap),
            "indeterminate": self.indeterminate,
            "residual_norm": float(self.residual_norm),
        }


def nondegeneracy_report(problem, state, lambda_hat, tol_rel=None,
                         angle_tol=1e-6, operator=None):
    """Compare ker J with the Killing-Jacobi span at a critical state.

    Requires the state to be critical to CRITICAL_TOL in the W residual
    norm. The operator argument passes a JacobiOperator the caller already
    assembled (or a perturbed one, on fault-injection paths), whose
    reduction takes a dense operator's storage; by default the exact
    discrete Hessian is built here. The report keeps the W-orthonormal
    Killing rank basis it compared against.
    """
    rn = residual_norm(problem, state, lambda_hat)
    if not rn < CRITICAL_TOL:
        raise PreconditionError(
            f"state is not critical: |residual|_W = {rn:.3e} >= {CRITICAL_TOL:g}")
    J = operator if operator is not None else jacobi(problem, state, lambda_hat)
    w = problem.weights()
    B = rank_basis(killing_jacobi_basis(problem, state, lambda_hat), w)
    r = B.shape[1]
    kb = numerical_kernel(J, tol_rel=tol_rel)
    d = kb.dim
    # the kernel vectors are formed only to be compared with a Killing span
    angles = _principal_angles(kb.vectors, B, w) if r else np.zeros(0)
    max_angle = float(np.max(angles)) if angles.size else 0.0
    if kb.indeterminate:
        verdict = "indeterminate"
    elif d == r and max_angle < angle_tol:
        verdict = "nondegenerate"
    else:
        verdict = "degenerate"
    return NondegeneracyReport(
        kernel_dim=d, killing_rank=r, principal_angles=angles,
        max_principal_angle=max_angle, verdict=verdict,
        tolerances={"tol_rel": kb.tol_rel, "angle_tol": float(angle_tol),
                    "kernel_tolerance": float(kb.tolerance)},
        gap=kb.gap, indeterminate=kb.indeterminate, residual_norm=float(rn),
        killing_basis=B)


@errors.linalg_guard
def _principal_angles(A, B, weights):
    # ascending principal angles between the spans of the W-orthonormal A
    # and B, split as Knyazev and Argentati split them (SIAM J. Sci. Comput.
    # 23, 2002): the cosines are the singular values of A^T W B, the sines
    # those of the part of the narrower basis off the wider one's span, and
    # an angle below pi/4 is read from its sine, so small angles keep full
    # precision. Both bases are orthonormal in sqrt(W) coordinates already,
    # so neither is orthonormalized again.
    if not (A.shape[1] and B.shape[1]):
        return np.zeros(0)
    sw = np.sqrt(weights)[:, None]
    wide, narrow = sorted((sw * A, sw * B), key=lambda Q: -Q.shape[1])
    C = wide.T @ narrow
    cos = np.linalg.svd(C, compute_uv=False)          # descending
    sin = np.linalg.svd(narrow - wide @ C, compute_uv=False)[::-1]
    return np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                    np.arccos(np.clip(cos, -1.0, 1.0)))


def transversality_margin(basis, reference, weights):
    """Transversality of the reference slice to the current orbit directions.

    basis and reference are W-orthonormal Killing-Jacobi rank bases at the
    current and the reference state; the slice is the W-complement of the
    reference span. Returns sqrt(1 - sin theta_max) over the principal
    angles between the spans, the smallest singular value of [basis | slice]
    in the W geometry: 1 when the spans agree or either is empty.
    """
    theta = _principal_angles(basis, reference, weights)
    return float(np.sqrt(1.0 - np.sin(theta[-1]))) if theta.size else 1.0


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    symmetry_residual: float
    index: int
    fd_consistency: float  # nan when no problem/state context was supplied
    flagged: bool

    def to_payload(self):
        return {
            "symmetry_residual": float(self.symmetry_residual),
            "index": int(self.index),
            "fd_consistency": float(self.fd_consistency),
            "flagged": self.flagged,
        }


def operator_diagnostics(J, problem=None, state=None, lambda_hat=None,
                         probes=10, step=1e-5, seed=0):
    """Symmetric-structure diagnostics for an assembled operator.

    Reports (i) the relative asymmetry of W J as assembled; (ii) the index
    dim ker J - dim ker J^*, which is 0 for every square operator by
    rank-nullity (rank J = rank J^*) -- the finite-dimensional shadow of the
    index-zero property of the continuum theory, kept as a payload field;
    (iii) when (problem, state, lambda_hat) are supplied, the worst relative
    gap between J v = W^-1 (W J) v and the central difference of the
    residual over random probe vectors.
    """
    n = J.weights.size
    sym = J.symmetry_residual()
    fd = np.nan
    if problem is not None and state is not None and lambda_hat is not None:
        rng = np.random.default_rng(seed)
        worst = 0.0
        base = state.values
        for _ in range(probes):
            v = rng.standard_normal(n)
            rp = residual(problem, ProblemState(base + step * v), lambda_hat)
            rm = residual(problem, ProblemState(base - step * v), lambda_hat)
            num = (rp - rm) / (2.0 * step)
            Jv = J.matvec(v) / J.weights
            scale = max(np.linalg.norm(Jv), 1e-300)
            worst = max(worst, float(np.linalg.norm(num - Jv) / scale))
        fd = worst
    return DiagnosticsReport(symmetry_residual=sym, index=0,
                             fd_consistency=fd, flagged=bool(sym > 1e-8))
