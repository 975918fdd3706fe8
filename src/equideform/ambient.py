"""Concrete ambient geometries with metrics and Killing fields.

Four models, each given in one fixed chart:

* SpaceForm2(lam): the curvature-lam plane in geodesic polar coordinates
  (r, theta), metric dr^2 + sn_lam(r)^2 dtheta^2. One chart covers every
  lam, including the sign change at 0, which is exactly what branch
  continuation across geometry families needs.
* ProductM2kR(k): the product of the curvature-k plane with a line, chart
  (r, theta, z), metric dr^2 + sn_k(r)^2 dtheta^2 + dz^2.
* FlatTorus(Q): R^2 / Z^2 with constant Gram matrix Q.
* ScaledSphere(lam): the round 2-sphere of curvature lam > 0 in colatitude
  and longitude (vartheta, varphi), metric (1/lam) (dvartheta^2 +
  sin(vartheta)^2 dvarphi^2).

Killing fields are written in closed form in the chart; killing_residual
provides the finite difference oracle that certifies them, and
structure_match verifies that their bracket table agrees with the matrix
model of the same algebra in lie_bundle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .lie_bundle import algebra_basis

_SERIES_CUT = 1e-4


# ---------------------------------------------------------------------------
# the warped profile

def sn_lambda(lam, r):
    """Warped radius sn_lam(r) and its derivative.

    sin(sqrt(lam) r)/sqrt(lam) for lam > 0, r at lam = 0, and
    sinh(sqrt(-lam) r)/sqrt(-lam) for lam < 0. Near lam r^2 = 0 both values
    come from one series in t = lam r^2, so the family is smooth across
    lam = 0 with no cancellation.
    """
    r = np.asarray(r, dtype=float)
    t = lam * r * r
    small = np.abs(t) < _SERIES_CUT
    sn = np.empty_like(r)
    snp = np.empty_like(r)
    ts = t[small]
    sn[small] = r[small] * (1.0 - ts / 6.0 + ts * ts / 120.0 - ts ** 3 / 5040.0)
    snp[small] = 1.0 - ts / 2.0 + ts * ts / 24.0 - ts ** 3 / 720.0
    big = ~small
    if np.any(big):
        rb = r[big]
        if lam > 0:
            s = np.sqrt(lam)
            sn[big] = np.sin(s * rb) / s
            snp[big] = np.cos(s * rb)
        else:
            s = np.sqrt(-lam)
            sn[big] = np.sinh(s * rb) / s
            snp[big] = np.cosh(s * rb)
    if np.isscalar(lam) and sn.ndim == 0:
        return float(sn), float(snp)
    return sn, snp


def radial_area(lam, r):
    """Integral of sn_lam from 0 to r (area of the geodesic disk / (2 pi))."""
    r = np.asarray(r, dtype=float)
    t = lam * r * r
    small = np.abs(t) < _SERIES_CUT
    out = np.empty_like(r)
    ts = t[small]
    out[small] = 0.5 * r[small] ** 2 * (1.0 - ts / 12.0 + ts * ts / 360.0 - ts ** 3 / 20160.0)
    big = ~small
    if np.any(big):
        rb = r[big]
        if lam > 0:
            out[big] = (1.0 - np.cos(np.sqrt(lam) * rb)) / lam
        else:
            out[big] = (np.cosh(np.sqrt(-lam) * rb) - 1.0) / (-lam)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# models

@dataclass(frozen=True)
class SpaceForm2:
    lam: float
    coord_names = ("r", "theta")


@dataclass(frozen=True)
class ProductM2kR:
    k: float
    coord_names = ("r", "theta", "z")


def _check_spd(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2) or np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise DomainError("torus Gram matrix must be 2 x 2 symmetric")
    if np.min(np.linalg.eigvalsh(Q)) <= 0.0:
        raise DomainError("torus Gram matrix must be positive definite")
    return Q


@dataclass(frozen=True)
class FlatTorus:
    Q: np.ndarray = field(repr=False)
    coord_names = ("x", "y")

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_spd(self.Q))


@dataclass(frozen=True)
class ScaledSphere:
    lam: float
    coord_names = ("vartheta", "varphi")

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DomainError("sphere curvature must be positive")


def metric_at(model, p):
    """Chart metric matrix at a point; symmetric positive definite."""
    p = np.asarray(p, dtype=float)
    if isinstance(model, SpaceForm2):
        r = p[0]
        if r <= 0.0:
            raise DomainError(f"polar chart needs r > 0, got {r}")
        sn, _ = sn_lambda(model.lam, r)
        return np.diag([1.0, sn * sn])
    if isinstance(model, ProductM2kR):
        r = p[0]
        if r <= 0.0:
            raise DomainError(f"polar chart needs r > 0, got {r}")
        sn, _ = sn_lambda(model.k, r)
        return np.diag([1.0, sn * sn, 1.0])
    if isinstance(model, FlatTorus):
        return model.Q.copy()
    if isinstance(model, ScaledSphere):
        th = p[0]
        if not 0.0 < th < np.pi:
            raise DomainError(f"sphere chart needs 0 < vartheta < pi, got {th}")
        return (1.0 / model.lam) * np.diag([1.0, np.sin(th) ** 2])
    raise DomainError(f"unknown ambient model {model!r}")


# ---------------------------------------------------------------------------
# Killing fields

def _space_form_fields(lam):
    def rot(p):
        return np.array([0.0, 1.0])

    def trans1(p):
        sn, snp = sn_lambda(lam, p[0])
        return np.array([np.cos(p[1]), -(snp / sn) * np.sin(p[1])])

    def trans2(p):
        sn, snp = sn_lambda(lam, p[0])
        return np.array([np.sin(p[1]), (snp / sn) * np.cos(p[1])])

    return [rot, trans1, trans2]


def _sphere_fields():
    # rotations about the x, y, z axes, in (vartheta, varphi) components
    def kx(p):
        th, ph = p
        return np.array([-np.sin(ph), -np.cos(ph) / np.tan(th)])

    def ky(p):
        th, ph = p
        return np.array([np.cos(ph), -np.sin(ph) / np.tan(th)])

    def kz(p):
        return np.array([0.0, 1.0])

    return [kx, ky, kz]


def killing_fields(model):
    """Closed-form Killing field basis as chart-component callables.

    The product model returns only the 4 splitting-preserving fields, a
    constant count along the whole family; at k = 0 the full isometry group
    of the product is larger but the extra fields do not persist for k != 0.
    """
    if isinstance(model, SpaceForm2):
        return _space_form_fields(model.lam)
    if isinstance(model, FlatTorus):
        return [lambda p: np.array([1.0, 0.0]), lambda p: np.array([0.0, 1.0])]
    if isinstance(model, ProductM2kR):
        planar = _space_form_fields(model.k)

        def lift(f):
            return lambda p: np.concatenate([f(p[:2]), [0.0]])

        fields = [lift(f) for f in planar]
        fields.append(lambda p: np.array([0.0, 0.0, 1.0]))
        return fields
    if isinstance(model, ScaledSphere):
        return _sphere_fields()
    raise DomainError(f"unknown ambient model {model!r}")


def killing_residual(model, fld, p, h=1e-4):
    """Finite difference norm of the Lie derivative of the metric along fld.

    Central differences of step h for both the metric and the field
    components; an exact Killing field comes out O(h^2).
    """
    p = np.asarray(p, dtype=float)
    d = len(p)

    def dg(i):
        dp = np.zeros(d)
        dp[i] = h
        return (metric_at(model, p + dp) - metric_at(model, p - dp)) / (2 * h)

    def dK(i):
        dp = np.zeros(d)
        dp[i] = h
        return (np.asarray(fld(p + dp)) - np.asarray(fld(p - dp))) / (2 * h)

    g = metric_at(model, p)
    K = np.asarray(fld(p), dtype=float)
    dgs = [dg(i) for i in range(d)]
    dKs = np.column_stack([dK(i) for i in range(d)])  # dKs[a, i] = d K^a / d x^i
    L = sum(K[k] * dgs[k] for k in range(d))
    L = L + g @ dKs + dKs.T @ g
    return float(np.linalg.norm(L))


# ---------------------------------------------------------------------------
# consistency with the matrix model

def _fd_bracket(f1, f2, p, h):
    # [F1, F2]^a = F1^i d_i F2^a - F2^i d_i F1^a with central differences
    p = np.asarray(p, dtype=float)
    d = len(p)

    def jac(f):
        cols = []
        for i in range(d):
            dp = np.zeros(d)
            dp[i] = h
            cols.append((np.asarray(f(p + dp)) - np.asarray(f(p - dp))) / (2 * h))
        return np.column_stack(cols)

    v1 = np.asarray(f1(p), dtype=float)
    v2 = np.asarray(f2(p), dtype=float)
    return jac(f2) @ v1 - jac(f1) @ v2


def structure_match(lam, p, h=1e-4):
    """Deviation between chart and matrix structure constants of g_lam.

    Brackets of the three chart Killing fields are computed by finite
    differences and expressed back in the field basis by least squares over
    a cluster of probe points; they are compared with the exact constants of
    algebra_basis(lam, 2) under the correspondence rotation <-> rotation and
    translation swap (the chart fields push forward from the other side of
    the group, which flips the bracket sign; composing with the swap of the
    two translations restores an isomorphism). Returns the max deviation.
    """
    p = np.asarray(p, dtype=float)
    model = SpaceForm2(lam)
    flds = killing_fields(model)
    probes = [p, p + np.array([0.041, 0.067]), p + np.array([-0.053, 0.029])]

    # C[i, j] holds the basis coordinates of the bracket of fields i and j,
    # with all nine brackets as right-hand sides of one lstsq
    A = np.vstack([np.column_stack([f(q) for f in flds]) for q in probes])
    b = np.column_stack([np.concatenate([_fd_bracket(fi, fj, q, h) for q in probes])
                         for fi in flds for fj in flds])
    C_chart = np.linalg.lstsq(A, b, rcond=None)[0].T.reshape(3, 3, 3)

    mats = [e.mat for e in algebra_basis(lam, 2).elements]
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
