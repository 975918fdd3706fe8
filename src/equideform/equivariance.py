"""Certification of equivariant nondegeneracy and slice transversality.

The numerical Jacobi kernel is extracted from one reduction of one triangle
of W^-1/2 (W J) W^-1/2 (its whole spectrum, and eigenvectors only for the
kernel) and compared against the span of the Killing-induced Jacobi fields
through principal angles. The operator's storage picks the reduction: a
dense W J gets the tridiagonal _Tridiagonal, a banded one (dirichlet grids)
the band _Banded, which works in O(n b) memory and O(n^2 b) time; the cut,
the gap and the verdict that follow are the same code for both. A state is
certified nondegenerate exactly when the kernel dimension equals the
Killing rank and every principal angle is below tolerance; a mandatory
multiplicative spectral gap guards against silent misclassification near
threshold.

The slice through a certified state is the W-complement of its Killing
span. It stays transversal to a nearby orbit while the two k-dimensional
Killing spans are nowhere orthogonal, so the transversality margin comes
from the principal angles between the two Killing bases, without forming
the n x (n - k) complement.

All subspace work happens in the W inner product: node vectors u, v pair as
sum_i w_i u_i v_i, and bases are W-orthonormal. Mapping v -> sqrt(W) v
turns that into the ordinary Euclidean geometry, which is how every routine
here is implemented.

Beside the grid's diff1 and a dense Jacobi, each routine holds at most one
more n x n matrix: the scaled symmetric operator is written into the buffer
that LAPACK dsytrd then overwrites with its reflectors, which dormqr reads
in place; the symmetry residual reads the Hessian block pair by block pair.
A banded Jacobi is symmetric by construction, as only its lower band is
stored, and no routine forms an n x n matrix from it. continue_branch runs
the certificate on a worker thread beside the next correction, so a branch
holds five such matrices: diff1, and the Jacobi and reduction buffer of
each thread.

dsytrd is called through scipy's cython_lapack export of the routine, by
ctypes, which releases the interpreter lock for the call; scipy.linalg's
f2py wrapper of the same routine holds it, so the certificate could not
overlap the corrector. The results are bitwise the wrapper's.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import (cython_lapack, eigh_tridiagonal, eigvals_banded,
                          lapack, solve_banded, subspace_angles)

from . import errors
from .errors import PreconditionError, ShapeError
from .mesh import symmetric_band
from .variational import (ProblemState, jacobi, killing_jacobi_basis,
                          pairing, residual, residual_norm)

GAP_FLOOR = 1.0e3
CRITICAL_TOL = 1e-8  # nondegeneracy_report needs |residual|_W below this
RANK_RTOL = 1e-10   # rank_basis drops singular values below this * sigma_max
BLOCK = 128  # side of the blocks the symmetry residual pairs with mirrors


def _sym_scaled(J):
    # W^-1/2 (W J) W^-1/2, symmetric because W J is: one new matrix, in the
    # Fortran order of the reduction buffer, whose lower triangle is reduced
    sw = np.sqrt(J.pairing.weights)
    A = np.empty_like(J.hessian, order="F")
    np.divide(J.hessian, sw[:, None], out=A)
    A /= sw[None, :]
    return A, sw


def _band_scaled(J):
    # the lower band of W^-1/2 (W J) W^-1/2, a new array
    sw = np.sqrt(J.pairing.weights)
    A = J.hessian / sw
    n = len(sw)
    for k in range(len(A)):
        A[k, :n - k] /= sw[k:]
    return A, sw


def _lapack_check(info, routine):
    if info:
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")


def _capsule_address(capsule):
    # the function address in one of scipy.linalg.cython_lapack's capsules
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p
# dsytrd(uplo, n, a, lda, d, e, tau, work, lwork, info), the routine
# scipy.linalg.lapack wraps, from the same library: the one entry point of
# every dense symmetric reduction here. A CFUNCTYPE call releases the
# interpreter lock, which the f2py wrapper holds.
_DSYTRD = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _INT, _PTR, _INT, _PTR,
                           _PTR, _PTR, _PTR, _INT, _INT)(
    _capsule_address(cython_lapack.__pyx_capi__["dsytrd"]))


def _dsytrd(a):
    """LAPACK dsytrd of the lower triangle of a, in place: returns d, e, tau.

    a must be a writeable Fortran-contiguous float64 square array; it is
    overwritten with the reflectors. e and tau hold n - 1 values, padded to
    max(n - 1, 1). The workspace is the size LAPACK's query asks for, as
    scipy.linalg.lapack.dsytrd_lwork reports it, so the results are bitwise
    those of scipy.linalg.lapack.dsytrd.
    """
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64
            or not (a.flags.f_contiguous and a.flags.writeable)):
        raise ValueError("dsytrd needs a writeable Fortran-ordered float64 "
                         "square array")
    n = a.shape[0]
    d = np.empty(n)
    e = np.zeros(max(n - 1, 1))
    tau = np.zeros(max(n - 1, 1))
    args = (b"L", ctypes.c_int(n), a.ctypes.data, ctypes.c_int(max(n, 1)),
            d.ctypes.data, e.ctypes.data, tau.ctypes.data)
    query = np.empty(1)
    lwork = ctypes.c_int(-1)
    info = ctypes.c_int(0)
    _DSYTRD(*args, query.ctypes.data, lwork, info)
    _lapack_check(info.value, "dsytrd")
    lwork.value = int(query[0])
    work = np.empty(lwork.value)
    _DSYTRD(*args, work.ctypes.data, lwork, info)
    _lapack_check(info.value, "dsytrd")
    return d, e, tau


class _Tridiagonal:
    """One Householder reduction A = Q T Q^T of a symmetric matrix A.

    LAPACK dsytrd reduces the lower triangle to the tridiagonal T; Q is the
    product of the n - 1 reflectors stored below the subdiagonal, applied by
    dormqr and never formed. The eigenvalues of A are T's, ascending, from
    dsterf in O(n^2). Any nonzero LAPACK info raises LinAlgError.

    A Fortran-contiguous float64 A is the caller's reduction buffer: it is
    reduced in place and afterwards holds the reflectors, so the reduction
    makes no n x n copy. Any other A is copied first and left as it was.
    """

    def __init__(self, A):
        n = A.shape[0]
        c = np.require(A, dtype=np.float64, requirements=("F", "W"))
        self._d, self._e, self._tau = _dsytrd(c)
        # the reflectors fill c[1:, :-1]; the Fortran-ordered (n, n - 1) view
        # of c's storage from c[1, 0] on holds them in its columns with
        # leading dimension n, which dormqr reads in place, where the
        # non-contiguous slice would be copied on every call
        self._reflectors = np.ravel(c, order="F")[1:1 + n * (n - 1)].reshape(
            n, n - 1, order="F")
        # T's off-diagonal comes padded to the length max(n - 1, 1) that the
        # f2py wrappers of dsterf and dgtsv expect
        self.eigenvalues, info = lapack.dsterf(self._d, self._e)
        _lapack_check(info, "dsterf")

    def apply_q(self, x, trans="N"):
        """Q x, or Q^T x with trans="T", for a vector or a block of columns."""
        y = np.array(x, dtype=float).reshape(len(x), -1)
        if len(y) > 1:
            # Q = diag(1, Q'), Q' a QR-style product of the stored reflectors
            a, tau = self._reflectors, self._tau
            _, work, info = lapack.dormqr("L", trans, a, tau, y[1:], -1)
            _lapack_check(info, "dormqr")
            y[1:], _, info = lapack.dormqr("L", trans, a, tau, y[1:],
                                           int(work[0]))
            _lapack_check(info, "dormqr")
        return y.reshape(np.shape(x))

    def solve(self, b):
        """A^-1 b = Q T^-1 Q^T b; T by dgtsv, LU with partial pivoting."""
        y = self.apply_q(b, "T").reshape(len(b), -1)
        *_, z, info = lapack.dgtsv(self._e, self._d, self._e, y)
        _lapack_check(info, "dgtsv")
        return self.apply_q(z).reshape(np.shape(b))

    def eigenvectors(self, lo, hi):
        """Orthonormal eigenvectors of A for ascending indices lo..hi."""
        _, z = eigh_tridiagonal(self._d, self._e[:len(self._d) - 1],
                                select="i", select_range=(lo, hi))
        return self.apply_q(z)


class _Banded:
    """A symmetric band matrix A, held as its lower band ab (mesh's
    symmetric lower band storage) and never formed densely.

    Every eigenvalue, ascending, comes from scipy's eigvals_banded (LAPACK
    dsbevd), the solve from solve_banded (dgbsv, LU with partial pivoting),
    both in O(n b) memory. Eigenvectors come by inverse iteration.
    """

    MAX_ITERS = 5  # inverse iterations per eigenvector, dstein's MAXITS
    EXTRA = 2      # iterations kept on after convergence, dstein's EXTRA

    def __init__(self, ab):
        self._ab = ab
        # no finiteness scan, as _Tridiagonal's raw LAPACK calls make none
        self.eigenvalues = eigvals_banded(ab, lower=True, check_finite=False)

    def solve(self, rhs):
        """A^-1 rhs."""
        b = len(self._ab) - 1
        return solve_banded((b, b), symmetric_band(self._ab), rhs,
                            check_finite=False)

    def eigenvectors(self, lo, hi):
        """Orthonormal eigenvectors of A for ascending indices lo..hi.

        Inverse iteration as LAPACK dstein runs it: A - mu I is factored
        once per eigenvalue mu (dgbtrf, an exactly zero pivot replaced by
        eps |A|), a fixed pseudo-random start is solved against it until
        the residual bound 1 / |y| falls to n eps |A|, and EXTRA more times.
        Eigenvalues closer than 1e-3 |A| to their predecessor join its
        cluster, and every iterate is reorthogonalized against the vectors
        already found in the cluster. Raises LinAlgError when an eigenvector
        does not converge in MAX_ITERS iterations.
        """
        mu = self.eigenvalues
        n, b = len(mu), len(self._ab) - 1
        norm = max(float(np.max(np.abs(mu))), np.finfo(float).tiny)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)
        Z = np.empty((n, hi - lo + 1))
        first = 0
        for col, j in enumerate(range(lo, hi + 1)):
            if col and mu[j] - mu[j - 1] > 1e-3 * norm:
                first = col
            G = symmetric_band(self._ab, top=b)
            G[2 * b] -= mu[j]
            lu, piv, info = lapack.dgbtrf(G, b, b, overwrite_ab=1)
            if info < 0:
                _lapack_check(info, "dgbtrf")
            # U's diagonal is row kl + ku of the factored band
            pivots = lu[2 * b]
            pivots[pivots == 0.0] = eps * norm
            C = Z[:, first:col]
            x = rng.uniform(-1.0, 1.0, n)
            x /= np.linalg.norm(x)
            converged = None
            for it in range(self.MAX_ITERS):
                y, info = lapack.dgbtrs(lu, b, b, x, piv)
                _lapack_check(info, "dgbtrs")
                y -= C @ (C.T @ y)
                grow = np.linalg.norm(y)
                x = y / grow
                if converged is None and grow * n * eps * norm >= 1.0:
                    converged = it
                if converged is not None and it - converged == self.EXTRA:
                    break
            if converged is None:
                raise np.linalg.LinAlgError(
                    f"inverse iteration for eigenvalue {j} did not converge "
                    f"in {self.MAX_ITERS} iterations")
            Z[:, col] = x
        return Z


def _scaled_reduction(J):
    # the reduction of W^-1/2 (W J) W^-1/2 that J's storage calls for
    if J.banded:
        A, sw = _band_scaled(J)
        return _Banded(A), sw
    A, sw = _sym_scaled(J)
    return _Tridiagonal(A), sw


@dataclass(frozen=True, eq=False)
class KernelBasis:
    vectors: np.ndarray          # (n, dim), W-orthonormal columns
    singular_values: np.ndarray  # the retained small singular values
    tol_rel: float               # relative cut, default 1e-8 * (unknowns)
    tolerance: float             # absolute cut, tol_rel * sigma_max
    gap: float
    indeterminate: bool

    @property
    def dim(self):
        return self.vectors.shape[1]


@errors.linalg_guard
def numerical_kernel(J, tol_rel=None):
    """Near-kernel of a Jacobi operator via a tridiagonal or band reduction
    of W^-1/2 (W J) W^-1/2 = sqrt(W) J sqrt(W)^-1.

    That operator is symmetric, so its singular values are the moduli of its
    eigenvalues, all of which come from the reduction. Retains eigenvectors
    with sigma < tol_rel * sigma_max (tol_rel defaults to 1e-8 * n for n
    unknowns; the basis records the value used), computed for that index
    range only, and maps them back by W^-1/2, which makes the returned
    columns exactly W-orthonormal. The gap field holds the ratio between the
    smallest rejected and the largest retained singular value; anything
    below 10^3 flags the result indeterminate (no certified separation).
    """
    n = J.pairing.weights.size
    if tol_rel is None:
        tol_rel = 1e-8 * n
    if not 0.0 < tol_rel <= 1e-2:
        raise PreconditionError(f"tol_rel must lie in (0, 1e-2], got {tol_rel}")
    reduced, sw = _scaled_reduction(J)
    mu = reduced.eigenvalues    # ascending
    order = np.argsort(np.abs(mu))[::-1]
    s = np.abs(mu)[order]       # the singular values of A, descending
    tol = tol_rel * (s[0] if s.size else 0.0)
    d = int(np.sum(s < tol))    # s is descending, so the kept s are a tail
    vectors = np.zeros((n, 0))
    if d:
        # |mu| < tol is one contiguous run of the ascending spectrum
        lo = int(np.min(order[n - d:]))
        V = reduced.eigenvectors(lo, lo + d - 1)
        V /= sw[:, None]
        vectors = V[:, order[n - d:] - lo]
    gap = float(s[n - d - 1] / s[n - d]) if d and s[n - d] > 0.0 else np.inf
    indeterminate = bool(d > 0 and gap < GAP_FLOOR)
    return KernelBasis(vectors=vectors, singular_values=s[n - d:].copy(),
                       tol_rel=float(tol_rel), tolerance=float(tol),
                       gap=float(gap),
                       indeterminate=indeterminate)


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
    assembled (or a perturbed one, on fault-injection paths); by default the
    exact discrete Hessian is built here. The report keeps the W-orthonormal
    Killing rank basis it compared against.
    """
    rn = residual_norm(problem, state, lambda_hat)
    if not rn < CRITICAL_TOL:
        raise PreconditionError(
            f"state is not critical: |residual|_W = {rn:.3e} >= {CRITICAL_TOL:g}")
    J = operator if operator is not None else jacobi(problem, state, lambda_hat)
    kb = numerical_kernel(J, tol_rel=tol_rel)
    w = pairing(problem).weights
    B = rank_basis(killing_jacobi_basis(problem, state, lambda_hat), w)
    r = B.shape[1]
    d = kb.dim
    angles = _principal_angles(kb.vectors, B, w)
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
    # ascending principal angles between the W-spans of A and B, from the
    # sine-based algorithm of Knyazev and Argentati (SIAM J. Sci. Comput. 23,
    # 2002), so small angles keep full precision
    if not (A.shape[1] and B.shape[1]):
        return np.zeros(0)
    sw = np.sqrt(weights)[:, None]
    return np.sort(subspace_angles(sw * A, sw * B))


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


def _symmetry_residual(J):
    """|W J - (W J)^T|_F / |W J|_F, 0 when W J vanishes or is banded (only
    one triangle stored, so symmetric by construction).

    Summed over the block pairs on and above the diagonal, an off-diagonal
    pair counting for both mirrors, so no n x n copy is made.
    """
    if J.banded:
        return 0.0
    H = J.hessian
    n = H.shape[0]
    denom = np.linalg.norm(H)
    if not denom > 0.0:
        return 0.0
    sq = 0.0
    for i in range(0, n, BLOCK):
        for j in range(i, n, BLOCK):
            X = H[i:i + BLOCK, j:j + BLOCK] - H[j:j + BLOCK, i:i + BLOCK].T
            sq += (1.0 if i == j else 2.0) * np.vdot(X, X)
    return float(np.sqrt(sq) / denom)


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
    residual over random probe vectors. Raises ShapeError unless J is
    square (or a band of at most n rows) and matches its pairing weights.
    """
    H = J.hessian
    n = H.shape[-1]
    rows_ok = 0 < H.shape[0] <= n if J.banded else H.shape[0] == n
    if H.ndim != 2 or not rows_ok or J.pairing.weights.shape != (n,):
        raise ShapeError(
            f"operator of shape {J.hessian.shape} does not act on the "
            f"{J.pairing.weights.size} weighted nodes of its pairing")
    sym = _symmetry_residual(J)
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
            Jv = J.matvec(v) / J.pairing.weights
            scale = max(np.linalg.norm(Jv), 1e-300)
            worst = max(worst, float(np.linalg.norm(num - Jv) / scale))
        fd = worst
    return DiagnosticsReport(symmetry_residual=sym, index=0,
                             fd_consistency=fd, flagged=bool(sym > 1e-8))
