"""Discretized symmetry-invariant variational problems on 1-D meshes.

Four instances, each a family of smooth functions on node space driven by
one real parameter lambda_hat:

* CmcCircle: closed curves in the curvature-lam plane written as radial
  graphs r(theta) about the chart origin; f = Length - H * EnclosedArea,
  critical points have geodesic curvature H (inward normal convention,
  asserted by the flat rho = 1/H test).
* CmcProfile: axisymmetric surfaces of revolution in M^2(k) x R written as
  profiles rho(z) with Dirichlet boundary radii; f = LateralArea -
  H * EnclosedVolume, critical points have principal curvature sum H. The
  boundary radii are problem data, so the unknowns are the interior radii.
* HarmonicTorus: maps S^1 -> R^2/Z^2 in homotopy class (p, q) with a flat
  Gram matrix path; f = Dirichlet energy; critical points are closed
  geodesics (straight lines).
* HarmonicSphere: degree-1 maps S^1 -> sphere of curvature lam; critical
  points are great circles.

Each instance is one class implementing the Problem protocol, and PROBLEMS
maps registry names to the classes. The module-level functions (value,
residual, jacobi, killing_jacobi_basis, act, ...) check the state, call the
instance's method, and do the shared pairing work against the weights W of
Problem.weights.

Every functional is sum_i w_i F(u_i, (D1 u)_i) for the chart components u
at the nodes, w the grid's quadrature and D1 applied by the grid's d1. An
instance gives only the pointwise density F and its partials. Problem.value
and grad derive the value and its exact gradient against the fixed
background pairing W; Problem.hess returns the second variation as a
mesh.JacobiForm, the second partials at the nodes, and knows nothing of
storage. The Jacobi J is carried as its Hessian W J, symmetric by
construction, and the discrete model is smooth in the literal
finite-dimensional sense. jacobi is the form's operator for W: mesh picks
the storage from the grid and owns its arithmetic, reductions included.

States of the harmonic instances store periodic chart data with the winding
handled analytically: the torus state is the periodic remainder on top of
the (p, q) line, the sphere state is (colatitude, longitude - theta). A
spectral derivative never sees the non-periodic winding part.

Periodic instances run on an odd spectral grid, which mesh.build_grid
makes by rounding an even N up by one: on an even grid the sawtooth mode
lies in the kernel of D1, so the Jacobi sees only its zeroth-order term
there. That would fake a negative mode for CmcCircle and a kernel dimension
per component for the harmonic instances.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .ambient import (FlatTorus, ScaledSphere, SpaceForm2, quadric_to_chart,
                      radial_area, sn_lambda)
from .errors import ConfigError, DomainError, ShapeError, UnsupportedError
from .lie_bundle import dexp
from .mesh import TWO_PI, Grid, JacobiForm, build_grid, wnorm

RMIN = 0.05  # radial graphs stay away from the chart origin
SIN_MIN = 0.05  # sphere charts stay away from the poles
# points evaluated at once by _trig_interp: an interpolant holds one block
# of K x INTERP_ROWS complex powers z^k, K = (N - 1) // 2, so its memory
# stays at about 16 * INTERP_ROWS * K bytes
INTERP_ROWS = 256


def radial_cap(lam):
    """Largest admissible chart radius for the solver at curvature lam.

    Keeps curves bounded away from the antipode for lam > 0 (the enclosed
    disk convention needs it) and away from sinh overflow for lam < 0.
    """
    if lam > 0.0:
        return 0.95 * np.pi / np.sqrt(lam)
    if lam < 0.0:
        return 25.0 / np.sqrt(-lam)
    return 1.0e3


@dataclass(frozen=True, eq=False)
class ProblemState:
    """Node vector of unknowns; see the module docstring per instance."""
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# the problem protocol

@dataclass(frozen=True, eq=False)
class Density:
    """A density F(u, p) at the grid nodes and its partials, for m chart
    components u and their derivatives p = D1 u: Fu and Fp hold m entries,
    Fuu, Fup and Fpp m x m (Fup[i][j] in u_i and p_j). An entry is a node
    array, a number constant over the nodes, or None for zero (not in Fp).

    F and second are functions of no arguments, returning F and (Fuu, Fup,
    Fpp); value and hess call them, so grad, which reads Fu and Fp only,
    evaluates neither.
    """
    F: object
    Fu: list
    Fp: list
    second: object


class Problem:
    """One problem instance: a functional on node space and its symmetries.

    Class attributes: name (PROBLEMS key) and default_lambda. Each instance
    implements the classmethod from_config(get, N, lam) -> (problem, seed,
    resolved keys), where get(key, kind, default=None, required=False)
    reads a [problem] key through the CLI converter named kind (positive,
    ints, gram, order); density(u, p, lam), its Density at the nodes, from
    which value, grad and hess below derive; and killing_fields and scalars
    of (v, lam) for the unknowns v of a checked state, one per pairing
    weight. It overrides check, generators, weights and full (with free)
    where the defaults below do not fit; with generators, matrices of
    ambient(lam).algebra(), it implements act(state, lam, t) for t not all
    zero and ambient(lam), the model whose algebra() act_jacobian reads.
    from_config raises DomainError when the ambient does not exist at lam.
    """
    default_lambda = 0.0
    free = slice(None)  # the grid nodes whose values are unknowns

    def full(self, v):
        """The chart components at every grid node, from the unknowns v:
        one row per component."""
        return v.reshape(-1, self.grid.N)

    def _density_at(self, v, lam):
        u = self.full(v)
        return self.density(u, [self.grid.d1(c) for c in u], lam)

    def value(self, v, lam):
        """w . F"""
        return float(self.grid.quad @ self._density_at(v, lam).F())

    def grad(self, v, lam):
        """(w Fu) + D1^T (w Fp) per component, on the free nodes."""
        d = self._density_at(v, lam)
        w = self.grid.quad
        parts = []
        for fu, fp in zip(d.Fu, d.Fp):
            g = self.grid.d1t(w * fp)[self.free]
            parts.append(g if fu is None else (w * fu)[self.free] + g)
        return np.concatenate(parts)

    def hess(self, v, lam):
        """The second variation of value at v: the JacobiForm of the
        density's second partials, which a storage class assembles."""
        Fuu, Fup, Fpp = self._density_at(v, lam).second()
        return JacobiForm(self.grid, self.free, Fpp, Fup, Fuu)

    def check(self, v, lam):
        """Raise DomainError when v leaves the chart domain at lam."""

    def weights(self):
        """Background pairing weights of the unknowns."""
        return self.grid.quad[self.free].copy()

    def generators(self, lam):
        """Generators of the identifiable isometry action; none by default."""
        return []

    def act_jacobian(self, v, lam, t):
        """d act / d t at t, one column per generator, from the moved
        unknowns v = act(state, lam, t).

        With X = sum t_a xi_a for the generators xi_a, d/dt_a exp(X) =
        [psi(ad_X) xi_a] exp(X) (lie_bundle.dexp), so column a is the
        Killing-Jacobi field at v of the algebra element psi(ad_X) xi_a.
        The ambient's algebra() lists the matrices whose fields open
        killing_fields, in the same order, and the element is written in
        that basis.
        """
        gens = np.array(self.generators(lam))
        basis = self.ambient(lam).algebra()
        eta = dexp(np.tensordot(t, gens, axes=1), gens)
        coef = np.linalg.lstsq(np.column_stack([b.ravel() for b in basis]),
                               eta.reshape(len(gens), -1).T, rcond=None)[0]
        fields = self.killing_fields(v, lam)[:len(basis)]
        return np.column_stack(fields) @ coef


def _split(vals):
    n = vals.size // 2
    return vals[:n], vals[n:]


def _check_radial(v, lam, what, param):
    cap = radial_cap(lam)
    if np.min(v) < RMIN or np.max(v) > cap:
        raise DomainError(f"{what} left [{RMIN}, {cap:.6g}] at {param}={lam}")


def _trig_interp(vals):
    # trigonometric interpolant of real node values on the uniform, odd
    # [0, 2pi) grid, c_0 + 2 Re sum_{k=1..K} c_k z^k with z = exp(i theta)
    # and K = (N - 1) / 2, and on request its slope 2 Re sum i k c_k z^k:
    # one exponential per point, and the powers z^1..z^K by doubling,
    # z^{k+1..2k} = z^{1..k} z^k in about log2(K) products; z^k rounds like
    # k * u either way, where exp(i k theta) loses u * |k theta| of phase
    n = vals.size
    coef = np.fft.fft(vals) / n
    K = (n - 1) // 2
    c0, ck = coef[0].real, coef[1:K + 1]
    with_slope = np.stack([ck, 1j * np.arange(1, K + 1) * ck])
    # one block of powers, z^k in row k - 1, reused by every evaluation
    powers = np.empty((K, INTERP_ROWS), dtype=complex)

    def ev(theta, slope=False):
        """Values at theta, or (values, slopes) when slope is set."""
        th = np.asarray(theta, dtype=float)
        flat = th.ravel()
        c = with_slope if slope else with_slope[:1]
        out = np.empty((len(c), flat.size))
        for i in range(0, flat.size, INTERP_ROWS):
            rows = flat[i:i + INTERP_ROWS]
            P = powers[:, :rows.size]
            np.exp(1j * rows, out=P[0])
            k = 1
            while k < K:
                m = min(k, K - k)
                np.multiply(P[:m], P[k - 1], out=P[k:k + m])
                k += m
            out[:, i:i + INTERP_ROWS] = (c @ P).real
        out *= 2.0
        out[0] += c0
        if slope:
            return out[0].reshape(th.shape), out[1].reshape(th.shape)
        return out[0].reshape(th.shape)

    return ev


def _bracketed_newton(fun, lo, hi, x):
    """Roots of an increasing componentwise function, all components at once.

    fun(x) returns (f, f') at x; f is negative at lo and positive at hi,
    and x starts inside (lo, hi). Each step is the Newton step where it
    lands strictly inside the current bracket and the bisection midpoint
    where it does not; the bracket then shrinks to the iterate on the side
    of f's sign. A component has converged, and stays where it is, after a
    step of at most 1e-14 + 8.9e-16 |x|: a Newton step, or a bisection once
    f has taken both signs, so that the bracket is no longer only assumed.
    Returns (x, converged) after at most 100 steps.
    """
    lo, hi, x = (np.array(a, dtype=float) for a in (lo, hi, x))
    converged = np.zeros(x.shape, dtype=bool)
    below = np.zeros(x.shape, dtype=bool)
    above = np.zeros(x.shape, dtype=bool)
    for _ in range(100):
        f, fp = fun(x)
        below |= f < 0.0
        above |= f > 0.0
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(f == 0.0, x, x - f / fp)
        newton = (new > lo) & (new < hi) | (f == 0.0)
        new = np.where(newton, new, 0.5 * (lo + hi))
        small = np.abs(new - x) <= 1e-14 + 8.9e-16 * np.abs(new)
        x = np.where(converged, x, new)
        converged |= small & (newton | below & above)
        if np.all(converged):
            break
    return x, converged


def _periodic_grid(get, N):
    return build_grid("periodic", N,
                      get("order", "order", default="spectral"))


def _wrap_pi(x):
    return (x + np.pi) % TWO_PI - np.pi


# ---------------------------------------------------------------------------
# CmcCircle

@dataclass(frozen=True, eq=False)
class CmcCircle(Problem):
    H: float
    grid: Grid

    name = "cmc_circle"

    def __post_init__(self):
        if self.grid.kind != "periodic":
            raise DomainError("CmcCircle needs a periodic grid")

    @classmethod
    def from_config(cls, get, N, lam):
        H = get("h", "positive", required=True)
        grid = _periodic_grid(get, N)
        problem, state = circle_seed(lam, H, grid)
        return problem, state, {"h": H}

    def check(self, r, lam):
        _check_radial(r, lam, "radial graph", "lambda")

    def ambient(self, lam):
        return SpaceForm2(lam)

    def density(self, u, p, lam):
        """Length element minus H times area element of the graph r(theta):
        F = sqrt(r'^2 + sn(r)^2) - H A(r), where A' = sn."""
        r, p = u[0], p[0]
        sn, snp = sn_lambda(lam, r)
        L = np.sqrt(p * p + sn * sn)

        def second():
            snpp = -lam * sn
            L3 = L ** 3
            return ([[(snp * snp + sn * snpp) / L - (sn * snp) ** 2 / L3
                      - self.H * snp]],
                    [[-p * sn * snp / L3]], [[sn * sn / L3]])

        return Density(lambda: L - self.H * radial_area(lam, r),
                       [sn * snp / L - self.H * sn], [p / L], second)

    def killing_fields(self, r, lam):
        """First variation of the graph under the three chart Killing flows.

        delta r = K_r - r' K_theta: the theta-reparametrization term matters
        away from centered circles; the pointwise normal component g(K, n)
        spans the same rays only up to the non-constant factor sn/F and is
        NOT in ker J for off-center graphs.
        """
        p = self.grid.d1(r)
        return [kr - p * kth for kr, kth in
                self.ambient(lam).killing_fields((r, self.grid.nodes))]

    def generators(self, lam):
        """The two translation generators L_lam(0, e_k) of G_lam; the
        rotation fixes every centered radial graph's orbit and is dropped."""
        return self.ambient(lam).algebra()[1:]

    def act(self, state, lam, t):
        """Move the curve in the quadric model and re-extract the radial
        graph over the fixed node angles.

        Each node's parameter is the root of the moved chart angle minus the
        node angle inside the bracket target +- half; one bracketed Newton
        iteration (_bracketed_newton) finds all N roots together, evaluating
        the moved curve and the slope of its chart angle once per step at
        every node. A node that has not converged raises DomainError.
        """
        model = self.ambient(lam)
        gens = self.generators(lam)
        g = expm(t[0] * gens[0] + t[1] * gens[1])
        interp = _trig_interp(state.values)
        nodes = self.grid.nodes

        def moved(theta):
            E, _ = model.embed((interp(theta), theta))
            return quadric_to_chart(lam, g @ E)

        # the moved curve must stay a radial graph: its chart angle is checked
        # monotone on a dense sample before node-wise re-extraction
        n = self.grid.N
        dense = np.linspace(0.0, TWO_PI, 4 * n, endpoint=False)
        _, th_d = moved(dense)
        thu = np.unwrap(th_d)
        if np.any(np.diff(thu) <= 0.0):
            raise DomainError("moved curve is not a radial graph about the origin")
        shift = np.max(np.abs(_wrap_pi(th_d - dense)))
        half = shift + 0.1
        if half + shift >= np.pi:
            raise DomainError("group motion too large for radial re-extraction")

        def angle_defect(th):
            # the moved chart angle minus the node angle, and its slope
            # (Y1 Y2' - Y2 Y1') / (Y1^2 + Y2^2) with Y' = g dE/dth for the
            # model's point E(r(th), th)
            r, dr = interp(th, slope=True)
            E, (Er, Eth) = model.embed((r, th))
            Y1, Y2 = g[1:] @ E
            dY1, dY2 = g[1:] @ (Er * dr + Eth)
            return (_wrap_pi(np.arctan2(Y2, Y1) - nodes),
                    (Y1 * dY2 - Y2 * dY1) / (Y1 * Y1 + Y2 * Y2))

        x, converged = _bracketed_newton(angle_defect, nodes - half,
                                         nodes + half, nodes)
        if not np.all(converged):
            bad = int(np.count_nonzero(~converged))
            raise DomainError(
                f"radial re-extraction did not converge at {bad} of {n} nodes")
        rnew, _ = moved(x)
        if np.min(rnew) < RMIN or np.max(rnew) > radial_cap(lam):
            raise DomainError("moved curve left the radial chart domain")
        return ProblemState(rnew)

    def scalars(self, r, lam):
        return {"radius": float(np.mean(r))}


# ---------------------------------------------------------------------------
# CmcProfile

@dataclass(frozen=True, eq=False)
class CmcProfile(Problem):
    """The unknowns are the N - 2 interior radii; the two boundary radii are
    data, put back at the ends of the profile by full.

    No ambient Killing field preserves the axisymmetric class with fixed
    horizontal boundary circles, so the Killing span and the action are
    empty."""
    H: float
    grid: Grid
    boundary_radii: tuple

    name = "cmc_profile"
    free = slice(1, -1)

    def __post_init__(self):
        if self.grid.kind != "dirichlet":
            raise DomainError("CmcProfile needs a dirichlet grid")
        if len(self.boundary_radii) != 2 or min(self.boundary_radii) <= 0:
            raise DomainError("boundary radii must be two positive numbers")

    @classmethod
    def from_config(cls, get, N, lam):
        H = get("h", "positive", required=True)
        length = get("length", "positive", default=1.0)
        radius = get("radius", "positive")
        grid = build_grid("dirichlet", N, get("order", "order", default=4),
                          a=0.0, b=length)
        problem, state = profile_cylinder_seed(H, grid, radius)
        return problem, state, {"h": H, "length": length,
                                "radius": problem.boundary_radii[0]}

    def full(self, rho):
        # the interior unknowns between the two boundary radii
        return [np.concatenate([self.boundary_radii[:1], rho,
                                self.boundary_radii[1:]])]

    def check(self, rho, k):
        _check_radial(self.full(rho)[0], k, "profile", "k")

    def density(self, u, p, k):
        """2 pi (sn(rho) S - H A(rho)), S = sqrt(1 + rho'^2): the lateral
        area element minus H times the enclosed volume element."""
        rho, p = u[0], p[0]
        sn, snp = sn_lambda(k, rho)
        S = np.sqrt(1.0 + p * p)

        def second():
            snpp = -k * sn
            return ([[TWO_PI * (snpp * S - self.H * snp)]],
                    [[TWO_PI * snp * p / S]], [[TWO_PI * sn / S ** 3]])

        return Density(lambda: TWO_PI * (sn * S - self.H * radial_area(k, rho)),
                       [TWO_PI * (snp * S - self.H * sn)],
                       [TWO_PI * sn * p / S], second)

    def killing_fields(self, rho, k):
        return []

    def scalars(self, rho, k):
        res = residual(self, ProblemState(rho), k)
        sn, _ = sn_lambda(k, rho)
        err = np.abs(res) / (TWO_PI * sn)
        return {"max_H_error": float(np.max(err))}


# ---------------------------------------------------------------------------
# harmonic maps S^1 -> target

class _Harmonic(Problem):
    """Two chart components per node on an odd periodic grid, paired
    against the unit-circumference domain density 1/(2 pi). The density is
    |phi'|^2 / (4 pi), phi' = d phi / ds for ds = d theta / (2 pi)."""

    def __post_init__(self):
        name = type(self).__name__
        if self.grid.kind != "periodic":
            raise DomainError(f"{name} needs a periodic grid")

    def weights(self):
        ws = self.grid.quad / TWO_PI
        return np.concatenate([ws, ws])

    def scalars(self, vals, lam):
        # the length sum_i w_i |phi'_i| / (2 pi), where |phi'| / (2 pi)
        # is sqrt(F / pi)
        F = self._density_at(vals, lam).F()
        return {"length": float(self.grid.quad @ np.sqrt(F / np.pi))}


@dataclass(frozen=True, eq=False)
class HarmonicTorus(_Harmonic):
    homotopy: tuple
    grid: Grid
    gram_start: np.ndarray
    gram_end: np.ndarray

    name = "harmonic_torus"

    def __post_init__(self):
        super().__post_init__()
        p, q = self.homotopy
        if p == 0 and q == 0:
            raise DomainError("homotopy class must be nonzero")
        object.__setattr__(self, "gram_start", np.asarray(self.gram_start, dtype=float))
        object.__setattr__(self, "gram_end", np.asarray(self.gram_end, dtype=float))
        FlatTorus(self.gram_start)  # validates SPD
        FlatTorus(self.gram_end)

    def ambient(self, lambda_hat):
        t = float(lambda_hat)
        return FlatTorus((1.0 - t) * self.gram_start + t * self.gram_end)

    @classmethod
    def from_config(cls, get, N, lam):
        pq = get("homotopy", "ints", default=[1, 0])
        if len(pq) != 2 or pq == [0, 0]:
            raise ConfigError("[problem] homotopy must be two integers, "
                              "not both zero")
        qs = get("gram_start", "gram", default=np.eye(2))
        qe = get("gram_end", "gram", default=qs)
        grid = _periodic_grid(get, N)
        problem, state = torus_line_seed(tuple(pq), grid, qs, qe)
        problem.ambient(lam)  # the Gram matrix at lam must be positive definite
        return problem, state, {"homotopy": list(pq),
                                "gram_start": [qs[0, 0], qs[0, 1], qs[1, 1]],
                                "gram_end": [qe[0, 0], qe[0, 1], qe[1, 1]]}

    def density(self, u, p, t):
        # phi' = (p, q) + 2 pi D1 (u, v); Fpp = 2 pi Q is constant, so the
        # Hessian is kron(2 pi Q, D1^T W D1)
        Q = self.ambient(t).Q
        hp, hq = self.homotopy
        f1, f2 = hp + TWO_PI * p[0], hq + TWO_PI * p[1]
        g1 = Q[0, 0] * f1 + Q[0, 1] * f2
        g2 = Q[0, 1] * f1 + Q[1, 1] * f2
        none = [[None, None], [None, None]]
        return Density(lambda: (f1 * g1 + f2 * g2) / (2.0 * TWO_PI),
                       [None, None], [g1, g2],
                       lambda: (none, none, TWO_PI * Q))

    def killing_fields(self, vals, t):
        """The two unit translations of the torus at t plus the
        domain-rotation pushforward."""
        u, w = _split(vals)
        p, q = self.homotopy
        s = self.grid.nodes / TWO_PI
        fields = self.ambient(t).killing_fields((p * s + u, q * s + w))
        push = np.concatenate([p / TWO_PI + self.grid.d1(u),
                               q / TWO_PI + self.grid.d1(w)])
        return [f.ravel() for f in fields] + [push]

    def generators(self, t):
        """The two unit translations of the torus's algebra()."""
        return self.ambient(t).algebra()

    def act(self, state, lam, t):
        u, v = _split(state.values)
        return ProblemState(np.concatenate([u + t[0], v + t[1]]))


@dataclass(frozen=True, eq=False)
class HarmonicSphere(_Harmonic):
    grid: Grid

    name = "harmonic_sphere"
    default_lambda = 1.0

    @classmethod
    def from_config(cls, get, N, lam):
        grid = _periodic_grid(get, N)
        ScaledSphere(lam)  # the sphere exists for lam > 0 only
        problem, state = sphere_equator_seed(grid)
        return problem, state, {}

    def check(self, vals, lam):
        a, _ = _split(vals)
        if np.min(np.abs(np.sin(a))) < SIN_MIN:
            raise DomainError("sphere state too close to a chart pole")
        ScaledSphere(float(lam))  # validates lam > 0

    def ambient(self, lam):
        return ScaledSphere(lam)

    def density(self, u, p, lam):
        # the round metric over lam, colatitude vartheta = a and longitude
        # varphi = theta + b: |phi'|^2 = 4 pi^2 (a'^2 + sin^2 a (1 + b')^2) / lam
        s, co = np.sin(u[0]), np.cos(u[0])
        pa, beta = p[0], 1.0 + p[1]
        c = TWO_PI / lam
        return Density(lambda: 0.5 * c * (pa * pa + s * s * beta * beta),
                       [c * s * co * beta * beta, None],
                       [c * pa, c * s * s * beta],
                       lambda: ([[c * (co * co - s * s) * beta * beta, None],
                                 [None, None]],
                                [[None, 2.0 * c * s * co * beta],
                                 [None, None]],
                                [[c, None], [None, c * s * s]]))

    def killing_fields(self, vals, lam):
        """The three rotation fields composed with the map plus the
        domain-rotation pushforward."""
        a, b = _split(vals)
        fields = self.ambient(lam).killing_fields((a, self.grid.nodes + b))
        push = np.concatenate([self.grid.d1(a), 1.0 + self.grid.d1(b)])
        return [f.ravel() for f in fields] + [push]

    def generators(self, lam):
        """The three rotation generators of so(3)."""
        return self.ambient(lam).algebra()

    def act(self, state, lam, t):
        """Rotate pointwise through the chart."""
        gens = self.generators(lam)
        R = expm(t[0] * gens[0] + t[1] * gens[1] + t[2] * gens[2])
        a, b = _split(state.values)
        theta = self.grid.nodes
        E, _ = self.ambient(lam).embed((a, theta + b))
        Y = R @ E
        a_new = np.arccos(np.clip(Y[2], -1.0, 1.0))
        if np.min(np.abs(np.sin(a_new))) < SIN_MIN:
            raise DomainError("rotated state too close to a chart pole")
        phi_new = np.unwrap(np.arctan2(Y[1], Y[0]))
        b_new = phi_new - theta
        # keep the longitude sheet of the input state
        b_new -= TWO_PI * np.round((np.mean(b_new) - np.mean(b)) / TWO_PI)
        return ProblemState(np.concatenate([a_new, b_new]))

    def scalars(self, vals, lam):
        out = super().scalars(vals, lam)
        out["length_times_sqrt_lambda"] = out["length"] * float(np.sqrt(lam))
        return out


PROBLEMS = {cls.name: cls for cls in (CmcCircle, CmcProfile, HarmonicTorus,
                                      HarmonicSphere)}


# ---------------------------------------------------------------------------
# public functional interface

def _check_state(problem, state, lambda_hat):
    v = state.values
    n = problem.weights().size  # one unknown per pairing weight
    if v.size != n:
        raise ShapeError(f"state has {v.size} values, expected {n}")
    if not np.all(np.isfinite(v)):
        raise DomainError("state contains non-finite values")
    problem.check(v, lambda_hat)
    return v


def value(problem, state, lambda_hat):
    """Value of the discrete invariant functional at the state."""
    return problem.value(_check_state(problem, state, lambda_hat), lambda_hat)


def residual(problem, state, lambda_hat):
    """Gradient-like map: W^-1 times the exact discrete gradient.

    Zero exactly at discrete critical points; for CmcCircle it approximates
    (kappa_g - H) sn, the first-variation density against the background
    weights. It has one entry per unknown, so a CmcProfile residual covers
    the interior nodes only.
    """
    v = _check_state(problem, state, lambda_hat)
    return problem.grad(v, lambda_hat) / problem.weights()


def jacobi(problem, state, lambda_hat):
    """Jacobi operator J = W^-1 Hess of the discrete functional, carried as
    the Hessian W J on the unknowns, which the instance's JacobiForm (hess)
    assembles in its grid's storage (JacobiForm.operator). W J is symmetric
    by construction, up to roundoff, and no consumer forms J."""
    return bordered_jacobi(problem, state, lambda_hat, 0)


def bordered_jacobi(problem, state, lambda_hat, border):
    """jacobi, with room in a dense storage for a border of that many
    Killing columns, which bordered_reduction with as many columns fills
    and reduces in place."""
    v = _check_state(problem, state, lambda_hat)
    return problem.hess(v, lambda_hat).operator(problem.weights(), border)


def residual_norm(problem, state, lambda_hat):
    return wnorm(problem.weights(), residual(problem, state, lambda_hat))


def killing_jacobi_basis(problem, state, lambda_hat):
    """Node vectors spanning the Killing-induced Jacobi fields.

    Entries may be linearly dependent; rank is decided downstream. See each
    instance's killing_fields for its fields.
    """
    v = _check_state(problem, state, lambda_hat)
    return problem.killing_fields(v, lambda_hat)


def act(problem, state, lambda_hat, t):
    """Apply the isometry exp(sum t_a X_a) to a state through the chart.

    X_a are problem.generators(lambda_hat); each instance's act says how the
    motion is carried to chart values. Zero motion returns a copy.
    """
    t = np.asarray(t, dtype=float).ravel()
    k = len(problem.generators(lambda_hat))
    if t.size != k:
        raise ShapeError(f"expected {k} group parameters, got {t.size}")
    _check_state(problem, state, lambda_hat)
    if np.max(np.abs(t), initial=0.0) == 0.0:
        return ProblemState(state.values.copy())
    return problem.act(state, lambda_hat, t)


def act_jacobian(problem, moved, lambda_hat, t):
    """d act(state, lambda_hat, t) / d t at t, one column per generator,
    evaluated at the moved state that act returned; see
    Problem.act_jacobian."""
    v = _check_state(problem, moved, lambda_hat)
    return problem.act_jacobian(v, lambda_hat, np.asarray(t, dtype=float))


def derived_scalars(problem, state, lambda_hat):
    """Instance-specific summary numbers stored with branch records."""
    return problem.scalars(_check_state(problem, state, lambda_hat), lambda_hat)


def geodesic_curvature(problem, state, lambda_hat):
    """Pointwise geodesic curvature of a CmcCircle radial graph.

    kappa = (-sn r'' + 2 sn' r'^2 + sn^2 sn') / Wtilde^3 in the warped polar
    chart; the residual satisfies residual ~= (kappa - H) sn up to
    discretization error. r'' is D1 applied to r' = D1 r, the spectral
    second derivative on the circle's odd grid.
    """
    if not isinstance(problem, CmcCircle):
        raise UnsupportedError("geodesic curvature is defined for CmcCircle only")
    r = _check_state(problem, state, lambda_hat)
    p = problem.grid.d1(r)
    sn, snp = sn_lambda(lambda_hat, r)
    F = np.sqrt(p * p + sn * sn)
    rpp = problem.grid.d1(p)
    return (-sn * rpp + 2.0 * snp * p * p + sn * sn * snp) / F ** 3


# ---------------------------------------------------------------------------
# analytic seeds

def cmc_circle_radius(lam, H):
    """Closed-form geodesic circle radius with curvature H at curvature lam.

    Solves sn'(rho)/sn(rho) = H: arctan(sqrt(lam)/H)/sqrt(lam) for lam > 0,
    1/H at lam = 0, artanh(sqrt(-lam)/H)/sqrt(-lam) for lam < 0. Exists only
    for lam > -H^2 (the horocycle barrier).
    """
    if H <= 0.0:
        raise DomainError("curvature parameter H must be positive")
    if lam <= -H * H:
        raise DomainError(f"no closed circle of curvature {H} at lambda={lam}")
    if lam > 0.0:
        s = np.sqrt(lam)
        return float(np.arctan(s / H) / s)
    if lam == 0.0:
        return 1.0 / H
    s = np.sqrt(-lam)
    return float(np.arctanh(s / H) / s)


def circle_seed(lam, H, grid):
    """Exact geodesic-circle state for a CmcCircle problem on the grid."""
    problem = CmcCircle(H=float(H), grid=grid)
    rho = cmc_circle_radius(lam, H)
    return problem, ProblemState(np.full(grid.N, rho))


def profile_cylinder_seed(H, grid, radius=None):
    """Cylinder profile state, the N - 2 interior radii; exactly critical at
    k = 0 when radius = 1/H."""
    rho = 1.0 / H if radius is None else float(radius)
    problem = CmcProfile(H=float(H), grid=grid, boundary_radii=(rho, rho))
    return problem, ProblemState(np.full(grid.N - 2, rho))


def torus_line_seed(homotopy, grid, gram_start, gram_end):
    """Straight-line representative of the class; critical for every flat metric."""
    problem = HarmonicTorus(homotopy=tuple(homotopy), grid=grid,
                            gram_start=gram_start, gram_end=gram_end)
    return problem, ProblemState(np.zeros(2 * grid.N))


def sphere_equator_seed(grid):
    """Equatorial great circle, critical at every sphere scale."""
    problem = HarmonicSphere(grid=grid)
    vals = np.concatenate([np.full(grid.N, 0.5 * np.pi), np.zeros(grid.N)])
    return problem, ProblemState(vals)
