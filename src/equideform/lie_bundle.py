"""Matrix models for the isometry algebras of the constant curvature spaces.

For a curvature parameter lam the algebra g_lam sits inside gl(n+1) as the
span of the block matrices

    L_lam(D, u) = [[0, -lam * u^T],
                   [u,  D        ]]

with D antisymmetric n x n and u in R^n, so dim g_lam = n(n+1)/2 for every
lam. For lam != 0 these are exactly the matrices antisymmetric with respect
to the diagonal form eta_lam below, and the group G_lam generated by them
preserves eta_lam. At lam = 0 the form degenerates; membership in G_0 is
structural instead: first row (1, 0, ..., 0) and orthogonal lower right
block, the Euclidean motions in homogeneous coordinates.

Group membership for lam != 0 is certified through the three block
equations on g = [[a, v^T], [w, B]]:

    a v + lam B^T w = 0,   a^2 + lam |w|^2 = 1,   v v^T + lam B^T B = lam I.

A complementary slice A of upper block-triangular matrices with positive
corner and positive definite lower block meets G_lam only at the identity;
verify_bundle certifies the tangent splitting and probes the off-identity
margin on seeded slice samples.

Every constructor here returns plain matrices: algebra_element the
(n+1) x (n+1) matrix L_lam(D, u), algebra_basis a list of them and
eta_form the diagonal form. algebra_basis(lam, 2) also builds every matrix
the ambient models act by, so verify_bundle scores the matrices the solver
moves states with.

deformed_bracket is the bracket of g_lam in closed form on (D, u)
coordinates; at lam = 1 it is checked against the commutator of the
algebra_element matrices, which realize so(n+1). verify_bundle runs every
named check of the verify-bundle command. algebra_element,
deformed_bracket and group_membership_residual also take stacks along
leading axes, so verify_bundle scores all triples, and all slice samples,
of one lam in a few array calls. expm is the exponential that sections,
slice samples and the group actions of the problem instances take, and
dexp is its derivative, from which the orbit projection's Jacobian is
built.
"""

import numpy as np

from .errors import DomainError, PreconditionError


# ---------------------------------------------------------------------------
# basic constructors

def _antisymmetric(D, rtol):
    # whether every n x n matrix of the stack D has |D + D^T| within rtol
    # max(1, |D|), in the max norm
    defect = np.max(np.abs(D + np.swapaxes(D, -1, -2)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(D), axis=(-2, -1)))
    return bool(np.all(defect <= rtol * scale))


def algebra_element(lam, D, u):
    """The matrix L_lam(D, u); D must be an antisymmetric n x n matrix.

    D and u may carry the same leading stack axes, which the result keeps.
    """
    D = np.asarray(D, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    if D.shape != u.shape[:-1] + (n, n):
        raise DomainError(
            f"D has shape {D.shape}, expected {u.shape[:-1] + (n, n)}")
    if not _antisymmetric(D, 1e-12):
        raise DomainError("D must be antisymmetric")
    mat = np.zeros(u.shape[:-1] + (n + 1, n + 1))
    mat[..., 0, 1:] = -lam * u
    mat[..., 1:, 0] = u
    mat[..., 1:, 1:] = D
    return mat


def eta_form(lam, n):
    """Diagonal form preserved by G_lam; undefined at lam = 0."""
    if lam == 0.0:
        raise DomainError("eta_form is undefined at lam = 0; membership there is structural")
    s = np.sqrt(abs(lam))
    d = np.ones(n + 1) * s
    d[0] = (1.0 / s) if lam > 0 else (-1.0 / s)
    return np.diag(d)


def _antisym_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def algebra_basis(lam, n):
    """List of basis matrices: rotations L(E_ab, 0) for a < b, then
    translations L(0, e_k)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    pairs = _antisym_pairs(n)
    D = np.zeros((len(pairs) + n, n, n))
    for i, (a, b) in enumerate(pairs):
        D[i, a, b], D[i, b, a] = -1.0, 1.0
    u = np.vstack([np.zeros((len(pairs), n)), np.eye(n)])
    return list(algebra_element(lam, D, u))


# ---------------------------------------------------------------------------
# residuals

def invariance_residual(X, lam):
    """Deviation of X from the fiber algebra.

    lam != 0: Frobenius norm of X^T eta + eta X. lam = 0: norm of the first
    row plus the antisymmetry defect of the lower right block.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0] - 1
    if lam != 0.0:
        eta = eta_form(lam, n)
        return float(np.linalg.norm(X.T @ eta + eta @ X))
    D = X[1:, 1:]
    return float(np.linalg.norm(X[0, :]) + np.linalg.norm(D + D.T))


def group_membership_residual(g, lam):
    """Violation of the G_lam defining equations by a candidate matrix.

    g may be a stack of matrices along leading axes; the result is then an
    array of one residual per matrix, and a float for one matrix.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1] - 1
    a = g[..., 0, 0]
    v = g[..., 0, 1:]
    w = g[..., 1:, 0]
    B = g[..., 1:, 1:]
    Bt = np.swapaxes(B, -1, -2)
    if lam != 0.0:
        r1 = a[..., None] * v + lam * (Bt @ w[..., None])[..., 0]
        r2 = a * a + lam * np.sum(w * w, axis=-1) - 1.0
        r3 = (v[..., :, None] * v[..., None, :] + lam * (Bt @ B)
              - lam * np.eye(n))
        res = np.sqrt(np.sum(r1 * r1, axis=-1) + r2 * r2
                      + np.sum(r3 * r3, axis=(-2, -1)))
    else:
        e0 = np.zeros(n + 1)
        e0[0] = 1.0
        res = np.sqrt(np.sum((g[..., 0, :] - e0) ** 2, axis=-1)
                      + np.sum((Bt @ B - np.eye(n)) ** 2, axis=(-2, -1)))
    return float(res) if res.ndim == 0 else res


def bracket_closure_residual(basis):
    """Max least-squares defect of projecting basis brackets back onto the span.

    basis is a list of d square matrices. The stacked basis is factored once
    by SVD (keeping the singular vectors lstsq would), and one element's
    brackets are projected at a time, so memory stays O(d (n+1)^2).
    """
    mats = [np.asarray(m, dtype=float) for m in basis]
    if len(mats) < 2:
        return 0.0  # no brackets to close
    M = np.column_stack([m.ravel() for m in mats])
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    U = U[:, s > np.finfo(float).eps * max(M.shape) * s[0]]
    worst = 0.0
    for i, x in enumerate(mats[:-1]):
        brackets = np.column_stack([(x @ y - y @ x).ravel()
                                    for y in mats[i + 1:]])
        defects = brackets - U @ (U.T @ brackets)
        worst = max(worst, float(np.max(np.linalg.norm(defects, axis=0))))
    return worst


# ---------------------------------------------------------------------------
# complement slice

def complement_basis(n):
    """Basis of the tangent a = {[[alpha, v^T], [0, S]], S symmetric} at the identity."""
    out = []
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = 1.0
    out.append(m)
    for k in range(n):
        m = np.zeros((n + 1, n + 1))
        m[0, 1 + k] = 1.0
        out.append(m)
    for a in range(n):
        for b in range(a, n):
            m = np.zeros((n + 1, n + 1))
            m[1 + a, 1 + b] = 1.0
            m[1 + b, 1 + a] = 1.0
            out.append(m)
    return out


def _sample_slice_element(rng, n):
    # a slice matrix [[a, v^T], [0, B]]: the log-normal corner keeps a > 0
    # and the exponentiated symmetric block keeps B positive definite, so the
    # sample needs no checks; resample until it is clearly off the identity
    for _ in range(100):
        g = np.zeros((n + 1, n + 1))
        g[0, 0] = np.exp(0.4 * rng.standard_normal())
        g[0, 1:] = 0.5 * rng.standard_normal(n)
        S = 0.4 * rng.standard_normal((n, n))
        g[1:, 1:] = expm(0.5 * (S + S.T))
        if np.linalg.norm(g - np.eye(n + 1)) >= 0.05:
            return g
    raise RuntimeError("slice sampling failed to leave the identity")


def _slice_samples(n, n_samples, seed):
    # one stack of n_samples slice matrices
    rng = np.random.default_rng(seed)
    return np.array([_sample_slice_element(rng, n)
                     for _ in range(int(n_samples))])


def _scored_slice_check(lam, n, samples):
    """Certify T_1 A + g_lam = gl(n+1) and probe the slice against G_lam.

    The rank check stacks algebra_basis(lam, n) with complement_basis(n) and
    requires full rank (n+1)^2. The probe scores the slice matrices samples,
    drawn away from the identity, by their membership residuals. Returns
    (full_rank, margin, identity_residual): the smallest sample residual is
    the off-identity margin, and the identity itself must score zero.
    """
    M = np.column_stack([m.ravel() for m in
                         algebra_basis(lam, n) + complement_basis(n)])
    sv = np.linalg.svd(M, compute_uv=False)
    full_rank = int(np.sum(sv > 1e-10 * sv[0])) == (n + 1) ** 2
    margin = float(np.min(group_membership_residual(samples, lam)))
    return full_rank, margin, group_membership_residual(np.eye(n + 1), lam)


# ---------------------------------------------------------------------------
# sections

def section(letters, lam):
    """Evaluate the group word spelled by letters at the parameter lam.

    letters is a sequence of coordinate pairs (D_i, u_i), and the word is
    h(lam) = prod_i exp(L_lam(D_i, u_i)). The letters do not depend on lam,
    so one word defines an element of every fiber, and a word built from an
    element of G_lam0 reproduces it at lam0.
    """
    if not len(letters):
        raise DomainError("group word must have at least one letter")
    n = len(np.asarray(letters[0][1]))
    g = np.eye(n + 1)
    for D, u in letters:
        g = g @ expm(algebra_element(lam, D, u))
    return g


# ---------------------------------------------------------------------------
# the exponential and its derivative

# degree m: (theta_m, the largest 1-norm for which the degree m diagonal Pade
# approximant of exp is accurate to unit roundoff in backward error, and
# its coefficients b_0..b_m), from Higham, SIAM J. Matrix Anal. Appl. 26
# (2005), Table 2.3 and eq. (2.7)
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1,
        (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
         1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)),
}


def _pade(A, m):
    """The degree m diagonal Pade approximant of exp(A), (V - U)^-1 (V + U),
    with U = A (b_m A^(m-1) + ... + b_1 I) and V = b_(m-1) A^(m-1) + ... +
    b_0 I; degree 13 takes A^8..A^12 as A^6 times a sum, not as powers."""
    b = _PADE[m][1]
    top = 3 if m == 13 else m // 2
    powers = [np.eye(len(A)), A @ A]    # A^0, A^2, ..., A^(2 top)
    for _ in range(top - 1):
        powers.append(powers[-1] @ powers[1])
    odd = even = 0.0
    if m == 13:
        A2, A4, A6 = powers[1:]
        odd = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        even = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    for k in range(top, -1, -1):
        odd = odd + b[2 * k + 1] * powers[k]
        even = even + b[2 * k] * powers[k]
    U = A @ odd
    return np.linalg.solve(even - U, even + U)


def expm(A):
    """exp(A) of a square matrix A, by scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26, 2005): the diagonal Pade approximant of the
    lowest degree 3, 5, 7 or 9 whose theta_m bounds the 1-norm of A, else
    that of degree 13 at A / 2^s, for the least s that brings the 1-norm to
    theta_13, squared s times. A matrix holding a non-finite entry has a
    NaN exponential."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    if not np.isfinite(norm):
        return np.full(A.shape, np.nan)
    for m in (3, 5, 7, 9):
        if norm <= _PADE[m][0]:
            return _pade(A, m)
    s = max(0, int(np.ceil(np.log2(norm / _PADE[13][0]))))
    X = _pade(np.ldexp(A, -s), 13)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            X = X @ X
    return X


def dexp(X, xi):
    """psi(ad_X) xi = sum_k ad_X^k xi / (k + 1)!, with psi(z) = (e^z - 1) / z.

    This is the right-trivialized derivative of the exponential map (Hall,
    Lie Groups, Lie Algebras, and Representations, 2015, ch. 5):
    d/ds exp(X + s xi) at s = 0 equals [psi(ad_X) xi] exp(X). xi may be a
    stack of matrices along leading axes. The series is summed until a term
    no longer changes the sum.
    """
    X = np.asarray(X, dtype=float)
    term = np.array(xi, dtype=float)
    out = term
    for k in range(2, 100):
        term = (X @ term - term @ X) / k
        new = out + term
        if np.array_equal(new, out):
            break
        out = new
    return out


# ---------------------------------------------------------------------------
# deformed bracket on the reductive pair k + m

def deformed_bracket(lam, x, y):
    """Bracket of the deformed algebra on k + m coordinates (D, u).

    [(Dx, ux), (Dy, uy)] = ([Dx, Dy] + lam (uy ux^T - ux uy^T), Dx uy - Dy ux),
    the blocks of the matrix commutator [L_lam(x), L_lam(y)]. The k x k and
    k x m parts are those of the undeformed algebra and the m x m part is
    scaled by lam, so lam = 1 reproduces the round bracket of so(n+1) and
    lam = 0 abelianizes the translations. The four arrays may carry the
    same leading stack axes, and the bracket is then taken pairwise.
    """
    Dx, ux = np.asarray(x[0], dtype=float), np.asarray(x[1], dtype=float)
    Dy, uy = np.asarray(y[0], dtype=float), np.asarray(y[1], dtype=float)
    for D in (Dx, Dy):
        if not _antisymmetric(D, 1e-10):
            raise DomainError("k components must be antisymmetric matrices")
    outer = (uy[..., :, None] * ux[..., None, :]
             - ux[..., :, None] * uy[..., None, :])
    return (Dx @ Dy - Dy @ Dx + lam * outer,
            (Dx @ uy[..., None] - Dy @ ux[..., None])[..., 0])


# ---------------------------------------------------------------------------
# the verify-bundle checks

def _match_threshold(n):
    """Allowed gap between the coordinate and the matrix bracket at size n.

    The matrix oracle forms (n+1)-term dot products, whose rounding bound is
    Higham's gamma_{n+1} = (n+1) u / (1 - (n+1) u); the threshold is 1e-14 at
    n = 2 and grows with that bound.
    """
    def gamma(k):
        return k * 2.0**-53 / (1.0 - k * 2.0**-53)
    return 1e-14 * (gamma(n + 1) / gamma(3))


def verify_bundle(lambdas, ns, samples, triples, seed,
                  inject_broken_basis=False):
    """Named structure checks of the group bundle, as verify-bundle runs them.

    Bracket closure, frame invariance, complement rank and the slice margin
    sweep every (n, lam) of the grid, each lam scored by _scored_slice_check
    on slice samples drawn once per n and shared by all lam. The section
    sweep and the deformed-bracket identities run at the first n only,
    drawing from default_rng(seed): the two section letters first, then the
    triples.
    Returns one dict per check (name, worst, threshold, passed and any
    extras) in that order. inject_broken_basis corrupts the first basis
    matrix, so bracket_closure must fail. Raises PreconditionError on an
    empty grid, an n below 2, or no samples or triples, which would pass
    every check on no data.
    """
    if not len(lambdas) or not len(ns):
        raise PreconditionError("lambdas and n must not be empty")
    if samples < 1 or triples < 1:
        raise PreconditionError("samples and triples must be >= 1")
    if min(ns) < 2:
        raise PreconditionError("n entries must be >= 2")
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, worst, threshold, passed=None, **extra):
        checks.append(dict(
            name=name, worst=float(worst), threshold=float(threshold),
            passed=bool(worst < threshold if passed is None else passed),
            **extra))

    worst_cl = worst_inv = worst_ident = 0.0
    rank_ok, min_margin = True, np.inf
    for n in ns:
        slice_samples = _slice_samples(n, samples, seed)
        for lam in lambdas:
            basis = algebra_basis(lam, n)
            worst_inv = max(worst_inv, max(invariance_residual(m, lam)
                                           for m in basis))
            if inject_broken_basis:
                basis[0] = basis[0] + np.diag([1.0, -1.0] + [0.0] * (n - 1))
            worst_cl = max(worst_cl, bracket_closure_residual(basis))
            full_rank, margin, ident = _scored_slice_check(lam, n,
                                                           slice_samples)
            rank_ok = rank_ok and full_rank
            min_margin = min(min_margin, margin)
            worst_ident = max(worst_ident, ident)
    add("bracket_closure", worst_cl, 1e-12)
    add("frame_invariance", worst_inv, 1e-12)
    add("complement_rank", 0.0, 1.0, passed=rank_ok)
    add("slice_margin", min_margin, 1e-3,
        passed=(min_margin > 1e-3) and (worst_ident < 1e-12),
        identity_residual=float(worst_ident))

    n0 = ns[0]

    def draw(scale=1.0):
        A = rng.standard_normal((n0, n0))
        return scale * (A - A.T), scale * rng.standard_normal(n0)

    # a two-letter section swept over [-1, 1]
    word = (draw(0.3), draw(0.3))
    worst_mem = max(group_membership_residual(section(word, lam), lam)
                    for lam in np.linspace(-1.0, 1.0, 21))
    add("section_membership", worst_mem, 1e-10)

    # deformed bracket: antisymmetry, Jacobi, and the matrix bracket at
    # lam = 1. Each lam draws its triples as draw() would, x, y, z per
    # triple, in one call on the same stream, and scores them as stacks with
    # axes (which of x, y, z; triple).
    worst_anti = worst_jac = worst_match = 0.0
    for lam in (-1.0, 0.0, 0.5, 1.0):
        flat = np.swapaxes(rng.standard_normal((triples, 3, n0 * n0 + n0)),
                           0, 1)
        A = flat[..., :n0 * n0].reshape(3, triples, n0, n0)
        D, u = A - np.swapaxes(A, -1, -2), flat[..., n0 * n0:]
        # (x, y) against (y, x) in one stacked call: byx holds the same
        # products as bxy, in the other order
        bk, bm = deformed_bracket(lam, (D[:2], u[:2]), (D[1::-1], u[1::-1]))
        worst_anti = max(worst_anti, float(np.max(np.abs(bk[0] + bk[1]))),
                         float(np.max(np.abs(bm[0] + bm[1]))))
        # [a, [b, c]] for (a, b, c) = (x, y, z), (y, z, x), (z, x, y)
        inner = deformed_bracket(lam, (np.roll(D, -1, 0), np.roll(u, -1, 0)),
                                 (np.roll(D, -2, 0), np.roll(u, -2, 0)))
        terms = deformed_bracket(lam, (D, u), inner)
        for part in terms:
            cyclic = part[0] + part[1] + part[2]
            worst_jac = max(worst_jac, float(np.max(np.abs(cyclic))))
        if lam == 1.0:
            # split the so(n+1) commutator C into its blocks D and u,
            # then check C = L_1(skew D, u) and (D, u) = bxy
            X, Y = algebra_element(1.0, D[:2], u[:2])
            C = X @ Y - Y @ X
            Cd = C[..., 1:, 1:]
            Dc, uc = 0.5 * (Cd - np.swapaxes(Cd, -1, -2)), C[..., 1:, 0]
            worst_match = max(
                worst_match,
                float(np.max(np.abs(C - algebra_element(1.0, Dc, uc)))),
                float(np.max(np.abs(bk[0] - Dc))),
                float(np.max(np.abs(bm[0] - uc))))
    add("bracket_antisymmetry", worst_anti, 1e-15, passed=(worst_anti == 0.0))
    add("bracket_jacobi", worst_jac, 1e-12)
    add("bracket_matches_undeformed", worst_match, _match_threshold(n0))
    return checks
