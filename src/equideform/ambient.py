"""Concrete ambient geometries, each a chart of a space that matrices act on.

Three models, each given in one fixed chart:

* SpaceForm2(lam): the curvature-lam plane in geodesic polar coordinates
  (r, theta), metric dr^2 + sn_lam(r)^2 dtheta^2, on the quadric
  x0^2 + lam |y|^2 = 1 under algebra_basis(lam, 2). One chart covers every
  lam, including the sign change at 0, which is exactly what branch
  continuation across geometry families needs.
* FlatTorus(Q): R^2 / Z^2 with constant Gram matrix Q, on the lam = 0
  affine plane (1, x, y) under the translations of algebra_basis(0, 2).
* ScaledSphere(lam): the round 2-sphere of curvature lam > 0 in colatitude
  and longitude (vartheta, varphi), metric (1/lam) (dvartheta^2 +
  sin(vartheta)^2 dvarphi^2), on the unit sphere in R^3, the lam = 1
  quadric, under so(3) = algebra_basis(1, 2).

Each model gives metric(p), the chart metric matrix at a point; algebra(),
its matrices, each one of algebra_basis(., 2) up to sign at the model's
fibre, so that verify-bundle scores every matrix a model acts by; and
embed(p), the point E(p) the matrices act on and the chart Jacobian DE(p),
with the chart coordinates of p along its first axis and a trailing node
axis for a block of points. Its Killing fields are the pushforward of its
matrices (AmbientModel.killing_fields), so embed alone decides which chart
field belongs to which matrix.
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

def _dot(u, v):
    # sum_l u[l] v[l] over the leading axis as elementwise products over the
    # nodes, never a matmul along the node axis, so a block of points and
    # each of its points agree bit for bit
    out = u[0] * v[0]
    for ul, vl in zip(u[1:], v[1:]):
        out = out + ul * vl
    return out


def pushforward(matrices, E, DE):
    """The chart field K_X = (DE^T DE)^-1 DE^T X E of each matrix X, of the
    shape of the chart points, for the points E of a 2-d chart and its
    Jacobian DE = (d_1 E, d_2 E). It solves DE K_X = X E, exactly when X E
    is tangent to the embedded model, as for the model's own algebra.
    """
    X = np.array(matrices).transpose(2, 1, 0)
    XE = _dot(X.reshape(X.shape + (1,) * (E.ndim - 1)), E)
    # G[i] = d_i E . (d_1 E, d_2 E, X E for each X), in one product
    D = DE.swapaxes(0, 1)
    G = _dot(D[:, :, None], np.concatenate([D, XE], axis=1)[:, None])
    (a, b), c, (fr, ft) = G[0, :2], G[1, 1], G[:, 2:]
    det = a * c - b * b
    return list(np.stack([(c * fr - b * ft) / det, (a * ft - b * fr) / det],
                         axis=1))


class AmbientModel:
    """A chart of an ambient geometry and the matrix algebra acting on it.

    A subclass gives metric(p), algebra() and embed(p) = (E, DE): the points
    E(p) in the linear space the matrices act on and the chart Jacobian
    DE = (d_1 E, d_2 E).
    """

    def killing_fields(self, p):
        """The pushforward of algebra() at p, in its order."""
        return pushforward(self.algebra(), *self.embed(p))


@dataclass(frozen=True)
class SpaceForm2(AmbientModel):
    """The curvature-lam plane in the geodesic polar chart (r, theta)."""
    lam: float

    def metric(self, p):
        r = p[0]
        if r <= 0.0:
            raise DomainError(f"polar chart needs r > 0, got {r}")
        sn, _ = sn_lambda(self.lam, r)
        return np.diag([1.0, sn * sn])

    def embed(self, p):
        """The quadric point (sn', sn cos theta, sn sin theta) and its
        derivatives (-lam sn, sn' cos theta, sn' sin theta) in r and
        (0, -sn sin theta, sn cos theta) in theta."""
        r, theta = p
        sn, snp = sn_lambda(self.lam, r)
        co, si = np.cos(theta), np.sin(theta)
        return (np.stack([snp, sn * co, sn * si]),
                np.array([[-self.lam * sn, snp * co, snp * si],
                          [np.zeros_like(sn), -sn * si, sn * co]]))

    def algebra(self):
        """The rotation, then the translations L_lam(0, e_1), L_lam(0, e_2)."""
        return algebra_basis(self.lam, 2)


def _check_spd(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2) or np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise DomainError("torus Gram matrix must be 2 x 2 symmetric")
    if np.min(np.linalg.eigvalsh(Q)) <= 0.0:
        raise DomainError("torus Gram matrix must be positive definite")
    return Q


@dataclass(frozen=True)
class FlatTorus(AmbientModel):
    """R^2 / Z^2 in the chart (x, y) with constant Gram matrix Q."""
    Q: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_spd(self.Q))

    def metric(self, p):
        return self.Q.copy()

    def embed(self, p):
        """The affine point (1, x, y) and its constant derivatives."""
        x, y = p
        one, zero = np.ones_like(x), np.zeros_like(x)
        return (np.stack([one, x, y]),
                np.array([[zero, one, zero], [zero, zero, one]]))

    def algebra(self):
        """The two unit translations L_0(0, e_1), L_0(0, e_2)."""
        return algebra_basis(0.0, 2)[1:]


@dataclass(frozen=True)
class ScaledSphere(AmbientModel):
    """The round sphere of curvature lam > 0 in the chart (vartheta, varphi)
    of colatitude and longitude. At every lam its points lie on the lam = 1
    fibre x0^2 + |y|^2 = 1 of the quadric family: lam scales the metric
    alone, and the rotations are those of G_1."""
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DomainError("sphere curvature must be positive")

    def metric(self, p):
        th = p[0]
        if not 0.0 < th < np.pi:
            raise DomainError(f"sphere chart needs 0 < vartheta < pi, got {th}")
        return (1.0 / self.lam) * np.diag([1.0, np.sin(th) ** 2])

    def embed(self, p):
        """The unit vector (sin vartheta cos varphi, sin vartheta sin varphi,
        cos vartheta) and its derivatives in vartheta and varphi."""
        th, ph = p
        s, co = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        return (np.stack([s * cp, s * sp, co]),
                np.array([[co * cp, co * sp, -s],
                          [-s * sp, s * cp, np.zeros_like(s)]]))

    def algebra(self):
        """The rotations of so(3) about the x, y and z axes: L_1(E_12, 0),
        -L_1(0, e_2) and L_1(0, e_1) on the unit sphere."""
        rot, e1, e2 = algebra_basis(1.0, 2)
        return [rot, -e2, e1]


# ---------------------------------------------------------------------------
# quadric picture of the space forms, used by the chart action on curves

def quadric_to_chart(lam, X):
    """Inverse of SpaceForm2(lam).embed's points on the quadric
    x0^2 + lam |y|^2 = 1; returns (r, theta)."""
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
