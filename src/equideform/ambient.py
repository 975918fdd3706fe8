"""Concrete ambient geometries; each model owns its metric and Killing fields.

Three models, each given in one fixed chart:

* SpaceForm2(lam): the curvature-lam plane in geodesic polar coordinates
  (r, theta), metric dr^2 + sn_lam(r)^2 dtheta^2. One chart covers every
  lam, including the sign change at 0, which is exactly what branch
  continuation across geometry families needs.
* FlatTorus(Q): R^2 / Z^2 with constant Gram matrix Q.
* ScaledSphere(lam): the round 2-sphere of curvature lam > 0 in colatitude
  and longitude (vartheta, varphi), metric (1/lam) (dvartheta^2 +
  sin(vartheta)^2 dvarphi^2).

Each model's metric(p) is the chart metric matrix at a point and its
killing_fields(p) the closed-form Killing fields, one array per field, of
the shape of p: the chart coordinates run along the first axis, and a
trailing node axis evaluates a block of points at once. The problem
instances in variational take their Killing-induced Jacobi fields from
these methods, so killing_residual, the finite difference oracle, certifies
the fields the solver runs, and structure_match verifies that the bracket
table of the SpaceForm2 fields agrees with the matrix model of the same
algebra in lie_bundle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .lie_bundle import algebra_basis

_SERIES_CUT = 1e-4


# ---------------------------------------------------------------------------
# the warped profile

def _by_cut(lam, r, series, closed):
    # the node arrays of series(t, r) at t = lam r^2 below the series cut and
    # of closed(lam, r) above it; when every node lies on one side, that
    # side is evaluated on the whole array, with no mask indexing
    r = np.asarray(r, dtype=float)
    t = lam * r * r
    small = np.abs(t) < _SERIES_CUT
    if small.all():
        return series(t, r)
    big = ~small
    if big.all():
        return closed(lam, r)
    parts = []
    for lo, hi in zip(series(t[small], r[small]), closed(lam, r[big])):
        out = np.empty_like(r)
        out[small] = lo
        out[big] = hi
        parts.append(out)
    return parts


def _sn_series(t, r):
    return (r * (1.0 - t / 6.0 + t * t / 120.0 - t ** 3 / 5040.0),
            1.0 - t / 2.0 + t * t / 24.0 - t ** 3 / 720.0)


def _sn_closed(lam, r):
    if lam > 0:
        s = np.sqrt(lam)
        return np.sin(s * r) / s, np.cos(s * r)
    s = np.sqrt(-lam)
    return np.sinh(s * r) / s, np.cosh(s * r)


def sn_lambda(lam, r):
    """Warped radius sn_lam(r) and its derivative.

    sin(sqrt(lam) r)/sqrt(lam) for lam > 0, r at lam = 0, and
    sinh(sqrt(-lam) r)/sqrt(-lam) for lam < 0. Near lam r^2 = 0 both values
    come from one series in t = lam r^2, so the family is smooth across
    lam = 0 with no cancellation.
    """
    sn, snp = _by_cut(lam, r, _sn_series, _sn_closed)
    if np.isscalar(lam) and np.ndim(sn) == 0:
        return float(sn), float(snp)
    return sn, snp


def _area_series(t, r):
    return (0.5 * r ** 2 * (1.0 - t / 12.0 + t * t / 360.0
                            - t ** 3 / 20160.0),)


def _area_closed(lam, r):
    if lam > 0:
        return ((1.0 - np.cos(np.sqrt(lam) * r)) / lam,)
    return ((np.cosh(np.sqrt(-lam) * r) - 1.0) / (-lam),)


def radial_area(lam, r):
    """Integral of sn_lam from 0 to r (area of the geodesic disk / (2 pi))."""
    out, = _by_cut(lam, r, _area_series, _area_closed)
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# models

@dataclass(frozen=True)
class SpaceForm2:
    """The curvature-lam plane in the geodesic polar chart (r, theta)."""
    lam: float

    def metric(self, p):
        r = p[0]
        if r <= 0.0:
            raise DomainError(f"polar chart needs r > 0, got {r}")
        sn, _ = sn_lambda(self.lam, r)
        return np.diag([1.0, sn * sn])

    def killing_fields(self, p):
        """The rotation and the two translations through the chart origin."""
        r, theta = np.asarray(p, dtype=float)
        sn, snp = sn_lambda(self.lam, r)
        ratio = snp / sn
        return [np.stack([np.zeros_like(r), np.ones_like(r)]),
                np.stack([np.cos(theta), -ratio * np.sin(theta)]),
                np.stack([np.sin(theta), ratio * np.cos(theta)])]

    def algebra(self):
        """The matrices of g_lam whose fields killing_fields returns, in its
        order: algebra_basis(lam, 2), the rotation and the translations
        L_lam(0, e_1), L_lam(0, e_2) acting on quadric_embed's points."""
        return algebra_basis(self.lam, 2)


def _check_spd(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2) or np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise DomainError("torus Gram matrix must be 2 x 2 symmetric")
    if np.min(np.linalg.eigvalsh(Q)) <= 0.0:
        raise DomainError("torus Gram matrix must be positive definite")
    return Q


@dataclass(frozen=True)
class FlatTorus:
    """R^2 / Z^2 in the chart (x, y) with constant Gram matrix Q."""
    Q: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_spd(self.Q))

    def metric(self, p):
        return self.Q.copy()

    def killing_fields(self, p):
        """The two unit translations."""
        x, _ = np.asarray(p, dtype=float)
        one, zero = np.ones_like(x), np.zeros_like(x)
        return [np.stack([one, zero]), np.stack([zero, one])]


@dataclass(frozen=True)
class ScaledSphere:
    """The round sphere of curvature lam > 0 in the chart (vartheta, varphi)
    of colatitude and longitude."""
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DomainError("sphere curvature must be positive")

    def metric(self, p):
        th = p[0]
        if not 0.0 < th < np.pi:
            raise DomainError(f"sphere chart needs 0 < vartheta < pi, got {th}")
        return (1.0 / self.lam) * np.diag([1.0, np.sin(th) ** 2])

    def killing_fields(self, p):
        """Rotations about the x, y and z axes."""
        th, ph = np.asarray(p, dtype=float)
        s, co = np.sin(ph), np.cos(ph)
        cot = np.cos(th) / np.sin(th)
        return [np.stack([-s, -cot * co]),
                np.stack([co, -cot * s]),
                np.stack([np.zeros_like(th), np.ones_like(th)])]

    def algebra(self):
        """The matrices of so(3) whose fields killing_fields returns, in its
        order: the rotations about the x, y and z axes of the unit sphere
        (sin vartheta cos varphi, sin vartheta sin varphi, cos vartheta)."""
        return [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
                np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
                np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])]


# ---------------------------------------------------------------------------
# finite difference oracles

def _fields_and_jacobians(model, p, h):
    # K[f, a] = K_f^a(p) and, by central differences of step h,
    # dK[f, a, i] = d K_f^a / d x^i, from one evaluation at the 2d stencil points
    d = len(p)
    shifts = h * np.hstack([np.eye(d), -np.eye(d)])
    K = np.array(model.killing_fields(p))
    ev = np.array(model.killing_fields(p[:, None] + shifts))
    return K, (ev[..., :d] - ev[..., d:]) / (2 * h)


def killing_residual(model, p, h=1e-4):
    """Worst norm over the model's Killing fields of the Lie derivative of the
    metric along the field at p.

    Central differences of step h for both the metric and the field
    components; an exact Killing field comes out O(h^2).
    """
    p = np.asarray(p, dtype=float)
    steps = h * np.eye(len(p))
    g = model.metric(p)
    dg = [(model.metric(p + e) - model.metric(p - e)) / (2 * h) for e in steps]
    K, dK = _fields_and_jacobians(model, p, h)
    worst = 0.0
    for Kf, J in zip(K, dK):
        L = sum(k * dgk for k, dgk in zip(Kf, dg)) + g @ J + J.T @ g
        worst = max(worst, float(np.linalg.norm(L)))
    return worst


def structure_match(lam, p, h=1e-4):
    """Deviation between chart and matrix structure constants of g_lam.

    Brackets [K_i, K_j]^a = K_i^c d_c K_j^a - K_j^c d_c K_i^a of the three
    SpaceForm2 Killing fields are computed by finite differences and
    expressed back in the field basis by least squares over a cluster of
    probe points; they are compared with the exact constants of
    algebra_basis(lam, 2) under the correspondence rotation <-> rotation and
    translation swap (the chart fields push forward from the other side of
    the group, which flips the bracket sign; composing with the swap of the
    two translations restores an isomorphism). Returns the max deviation.
    """
    p = np.asarray(p, dtype=float)
    model = SpaceForm2(lam)
    probes = [p, p + np.array([0.041, 0.067]), p + np.array([-0.053, 0.029])]

    # C[i, j] holds the basis coordinates of the bracket of fields i and j,
    # with all nine brackets as right-hand sides of one lstsq
    A, b = [], []
    for q in probes:
        K, dK = _fields_and_jacobians(model, q, h)
        A.append(K.T)
        b.append(np.column_stack([dK[j] @ K[i] - dK[i] @ K[j]
                                  for i in range(3) for j in range(3)]))
    C_chart = np.linalg.lstsq(np.vstack(A), np.vstack(b),
                              rcond=None)[0].T.reshape(3, 3, 3)

    mats = algebra_basis(lam, 2)
    M = np.column_stack([m.ravel() for m in mats])
    b = np.column_stack([(x @ y - y @ x).ravel() for x in mats for y in mats])
    C_mat = np.linalg.lstsq(M, b, rcond=None)[0].T.reshape(3, 3, 3)

    perm = (0, 2, 1)  # chart (rot, K2, K3) -> matrix (rot, T2, T1)
    dev = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                dev = max(dev, abs(C_chart[i, j, k] - C_mat[perm[i], perm[j], perm[k]]))
    return float(dev)


# ---------------------------------------------------------------------------
# quadric picture of the space forms, used by the chart action on curves

def quadric_embed(lam, r, theta):
    """Map polar chart points to the unified quadric x0^2 + lam |y|^2 = 1.

    Columns are (sn'(r), sn(r) cos theta, sn(r) sin theta); the matrix group
    G_lam acts linearly on these coordinates. Works for every lam, with
    lam = 0 giving the affine x0 = 1 plane of Euclidean motions.
    """
    sn, snp = sn_lambda(lam, np.asarray(r, dtype=float))
    th = np.asarray(theta, dtype=float)
    return np.stack([snp, sn * np.cos(th), sn * np.sin(th)])


def quadric_to_chart(lam, X):
    """Inverse of quadric_embed; returns (r, theta)."""
    X = np.asarray(X, dtype=float)
    x0 = X[0]
    ynorm = np.hypot(X[1], X[2])
    theta = np.arctan2(X[2], X[1])
    if lam > 0:
        s = np.sqrt(lam)
        r = np.arctan2(s * ynorm, x0) / s
    elif lam == 0.0:
        r = ynorm
    else:
        s = np.sqrt(-lam)
        r = np.arcsinh(s * ynorm) / s
    return r, theta
