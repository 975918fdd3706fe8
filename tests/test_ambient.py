import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equideform.ambient import (FlatTorus, ScaledSphere, SpaceForm2,
                                pushforward, quadric_to_chart, radial_area,
                                sn_lambda)
from equideform.errors import DomainError
from equideform.lie_bundle import algebra_basis


def test_sn_closed_forms():
    r = np.linspace(0.05, 2.5, 40)
    sn, snp = sn_lambda(1.0, r)
    assert np.max(np.abs(sn - np.sin(r))) < 1e-14
    assert np.max(np.abs(snp - np.cos(r))) < 1e-14
    sn, snp = sn_lambda(-1.0, r)
    assert np.max(np.abs(sn - np.sinh(r))) < 1e-12
    sn, snp = sn_lambda(0.0, r)
    assert np.max(np.abs(sn - r)) == 0.0
    assert np.all(snp == 1.0)
    sn4, _ = sn_lambda(4.0, 0.7)
    assert sn4 == pytest.approx(np.sin(2 * 0.7) / 2.0, rel=1e-14)


def test_sn_series_matches_closed_form_across_the_cut():
    # |lam| r^2 straddling the series switch: both sides must agree
    for lam in (1.0, -1.0, 0.3, -0.3):
        for scale in (0.3, 0.9, 1.1, 3.0):
            r = np.sqrt(scale * 1e-4 / abs(lam))
            sn, snp = sn_lambda(lam, r)
            if lam > 0:
                ref, refp = np.sin(np.sqrt(lam) * r) / np.sqrt(lam), np.cos(np.sqrt(lam) * r)
            else:
                ref, refp = np.sinh(np.sqrt(-lam) * r) / np.sqrt(-lam), np.cosh(np.sqrt(-lam) * r)
            assert abs(sn - ref) < 1e-15 * max(1.0, abs(ref))
            assert abs(snp - refp) < 1e-15


def test_sn_pythagorean_identity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam = rng.uniform(-3.0, 3.0)
        r = rng.uniform(1e-6, 2.0)
        sn, snp = sn_lambda(lam, r)
        assert abs(snp**2 + lam * sn**2 - 1.0) < 1e-12


def test_sn_second_derivative_relation():
    # d(sn')/dr = -lam * sn, checked with central differences
    rng = np.random.default_rng(9)
    for _ in range(50):
        lam = rng.uniform(-2.0, 2.0)
        r = rng.uniform(0.1, 1.5)
        h = 1e-5
        _, sp_plus = sn_lambda(lam, r + h)
        _, sp_minus = sn_lambda(lam, r - h)
        sn, _ = sn_lambda(lam, r)
        assert abs((sp_plus - sp_minus) / (2 * h) + lam * sn) < 1e-6


def test_radial_area_closed_forms_and_derivative():
    assert radial_area(0.0, 1.2) == pytest.approx(0.72, rel=1e-15)
    assert radial_area(1.0, np.pi) == pytest.approx(2.0, rel=1e-14)
    assert radial_area(-1.0, 1.0) == pytest.approx(np.cosh(1.0) - 1.0, rel=1e-14)
    rng = np.random.default_rng(10)
    for _ in range(60):
        lam = rng.uniform(-2.0, 2.0)
        r = rng.uniform(0.05, 1.5)
        h = 1e-5
        d = (radial_area(lam, r + h) - radial_area(lam, r - h)) / (2 * h)
        sn, _ = sn_lambda(lam, r)
        assert abs(d - sn) < 1e-9


def test_radial_area_series_agrees_with_closed_form_below_the_cut():
    for lam in (0.5, -0.5, 2.0, -2.0):
        r = 0.99 * np.sqrt(1e-4 / abs(lam))  # series side of the switch
        got = radial_area(lam, r)
        if lam > 0:
            ref = (1.0 - np.cos(np.sqrt(lam) * r)) / lam
        else:
            ref = (np.cosh(np.sqrt(-lam) * r) - 1.0) / (-lam)
        assert abs(got - ref) < 1e-18 + 1e-10 * abs(ref)


def test_metric_shapes_and_domain_guards():
    assert np.allclose(SpaceForm2(0.0).metric([0.7, 1.0]),
                       np.diag([1.0, 0.49]))
    with pytest.raises(DomainError):
        SpaceForm2(1.0).metric([0.0, 0.3])
    with pytest.raises(DomainError):
        ScaledSphere(1.0).metric([np.pi, 0.0])
    with pytest.raises(DomainError):
        FlatTorus(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not positive definite
    with pytest.raises(DomainError):
        ScaledSphere(-1.0)


# ---------------------------------------------------------------------------
# finite difference oracles: each model's metric(p) is their reference,
# independent of the embedding the fields are pushed forward from

def _fields_and_jacobians(fields, p, h):
    # K[f, a] = K_f^a(p) and, by central differences of step h,
    # dK[f, a, i] = d K_f^a / d x^i, from one evaluation at the 2d stencil points
    d = len(p)
    shifts = h * np.hstack([np.eye(d), -np.eye(d)])
    K = np.array(fields(p))
    ev = np.array(fields(p[:, None] + shifts))
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
    K, dK = _fields_and_jacobians(model.killing_fields, p, h)
    worst = 0.0
    for Kf, J in zip(K, dK):
        L = sum(k * dgk for k, dgk in zip(Kf, dg)) + g @ J + J.T @ g
        worst = max(worst, float(np.linalg.norm(L)))
    return worst


# ---------------------------------------------------------------------------
# the hand-written Killing fields that the pushforward replaced, kept as
# references

def _space_form_fields(model, p):
    """The rotation and the two translations through the chart origin."""
    r, theta = np.asarray(p, dtype=float)
    sn, snp = sn_lambda(model.lam, r)
    ratio = snp / sn
    return [np.stack([np.zeros_like(r), np.ones_like(r)]),
            np.stack([np.cos(theta), -ratio * np.sin(theta)]),
            np.stack([np.sin(theta), ratio * np.cos(theta)])]


def _torus_fields(model, p):
    """The two unit translations."""
    x, _ = np.asarray(p, dtype=float)
    one, zero = np.ones_like(x), np.zeros_like(x)
    return [np.stack([one, zero]), np.stack([zero, one])]


def _sphere_fields(model, p):
    """Rotations about the x, y and z axes."""
    th, ph = np.asarray(p, dtype=float)
    s, co = np.sin(ph), np.cos(ph)
    cot = np.cos(th) / np.sin(th)
    return [np.stack([-s, -cot * co]),
            np.stack([co, -cot * s]),
            np.stack([np.zeros_like(th), np.ones_like(th)])]


CLOSED_FORMS = {SpaceForm2: _space_form_fields, FlatTorus: _torus_fields,
                ScaledSphere: _sphere_fields}

# each model with a box of chart points
BOXES = [
    (SpaceForm2(1.0), [(0.05, 2.5), (0.0, 2 * np.pi)]),
    (SpaceForm2(0.0), [(0.05, 2.5), (0.0, 2 * np.pi)]),
    # radii on both sides of sn_lambda's series cut at |lam| r^2 = 1e-4
    (SpaceForm2(-1.0), [(1e-3, 0.02), (0.0, 2 * np.pi)]),
    (FlatTorus(np.array([[4.0, 1.0], [1.0, 1.0]])), [(-1.0, 1.0), (-1.0, 1.0)]),
    (ScaledSphere(1.5), [(0.1, 3.0), (0.0, 2 * np.pi)]),
]


# the sphere's rotations about the x, y and z axes as they were written out
# by hand: the order and signs that its Killing fields, and the t of a
# [congruence] run, are read in
SPHERE_ROTATIONS = [
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_algebra_is_the_hand_written_so3(lam):
    # entry for entry; algebra_basis writes some zeros as -0.0
    got = ScaledSphere(lam).algebra()
    assert len(got) == 3
    for X, ref in zip(got, SPHERE_ROTATIONS):
        assert np.array_equal(X, ref)


def test_killing_field_counts():
    assert len(SpaceForm2(1.0).killing_fields([0.7, 0.3])) == 3
    assert len(FlatTorus(np.eye(2)).killing_fields([0.2, 0.8])) == 2
    assert len(ScaledSphere(2.0).killing_fields([1.2, 0.5])) == 3


def test_block_fields_equal_pointwise_fields_bitwise():
    # the node axis must not change a single bit of any field component
    rng = np.random.default_rng(14)
    for model, box in BOXES:
        P = np.array([rng.uniform(lo, hi, 5) for lo, hi in box])
        block = model.killing_fields(P)
        assert all(f.shape == P.shape for f in block)
        for j in range(P.shape[1]):
            point = model.killing_fields(P[:, j])
            assert len(point) == len(block)
            for fb, fp in zip(block, point):
                assert fp.shape == (P.shape[0],)
                assert np.ascontiguousarray(fb[:, j]).tobytes() == fp.tobytes()


def test_pushforward_equals_the_closed_forms():
    rng = np.random.default_rng(15)
    for model, box in BOXES:
        P = np.array([rng.uniform(lo, hi, 64) for lo, hi in box])
        want = CLOSED_FORMS[type(model)](model, P)
        got = model.killing_fields(P)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))) < 1e-14


def test_pushforward_solves_a_sheared_chart():
    # every model's chart is orthogonal (DE^T DE diagonal); the sheared chart
    # (x, y) -> (1, x + s y, y) of the plane is not, and its fields are known:
    # the rotation (-y' - s x', x') for x' = x + s y, y' = y, and the
    # translations (1, 0) and (-s, 1)
    rng = np.random.default_rng(16)
    s = 0.7
    x, y = rng.uniform(-2.0, 2.0, (2, 9))
    one, zero = np.ones_like(x), np.zeros_like(x)
    E = np.stack([one, x + s * y, y])
    DE = np.array([[zero, one, zero], [zero, s * one, one]])
    rot, t1, t2 = pushforward(algebra_basis(0.0, 2), E, DE)
    for got, want in ((rot, [-y - s * (x + s * y), x + s * y]),
                      (t1, [one, zero]), (t2, [-s * one, one])):
        assert np.max(np.abs(got - np.array(want))) < 1e-14


def test_killing_residuals_vanish_to_fd_accuracy():
    """Lie derivative of the metric along each pushforward field is ~0."""
    probes = [
        (SpaceForm2(1.0), [(0.6, 0.3), (1.1, 2.0)]),
        (SpaceForm2(-1.0), [(0.6, 0.3), (1.4, 5.0)]),
        (SpaceForm2(0.0), [(0.5, 1.0)]),
        (FlatTorus(np.array([[4.0, 1.0], [1.0, 1.0]])), [(0.2, 0.8)]),
        (ScaledSphere(1.5), [(1.2, 0.5), (2.0, 3.0)]),
    ]
    for model, pts in probes:
        for p in pts:
            assert killing_residual(model, np.array(p)) < 5e-7


def test_rotated_probe_sees_same_residual_scale():
    vals = SpaceForm2(0.5).killing_fields([0.8, 0.45])
    assert len(vals) == 3 and all(v.shape == (2,) for v in vals)
    # rotation field is the angular coordinate field everywhere
    assert np.allclose(vals[0], [0.0, 1.0]) or any(
        np.allclose(v, [0.0, 1.0]) for v in vals)


# ---------------------------------------------------------------------------
# the pushforward as a property of every model: tangent, linear in the
# matrix, Killing, and reversing the bracket
#
# Chart points stay where the central differences of the oracles reach
# their tolerances: r >= 0.4 keeps the 1/r growth of a translation's theta
# component small, and 0.3 <= vartheta <= pi - 0.3 the cot of a rotation's.

def _space_form(lam, u, v):
    return SpaceForm2(lam), np.array([0.4 + 0.8 * u, 2 * np.pi * v])


def _torus(lam, u, v):
    # positive definite at every lam: the determinant is 1 + 3 lam^2 / 4
    Q = np.array([[1.0 + lam * lam, 0.5 * lam], [0.5 * lam, 1.0]])
    return FlatTorus(Q), np.array([4.0 * u - 2.0, 4.0 * v - 2.0])


def _sphere(lam, u, v):
    # the sphere exists at positive curvature alone, and the oracle's
    # truncation error grows as 1/curvature with the metric
    return (ScaledSphere(1.0 + lam * lam),
            np.array([0.3 + (np.pi - 0.6) * u, 2 * np.pi * v]))


UNIT = st.floats(0.0, 1.0)
COEFFICIENTS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@pytest.mark.parametrize("make", [_space_form, _torus, _sphere],
                         ids=["space_form", "torus", "sphere"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(lam=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), u=UNIT, v=UNIT,
       x=COEFFICIENTS, y=COEFFICIENTS)
def test_pushforward_is_the_killing_algebra(make, lam, u, v, x, y):
    model, p = make(lam, u, v)
    basis = model.algebra()
    x, y = x[:len(basis)], y[:len(basis)]
    X = np.tensordot(x, basis, axes=1)
    Y = np.tensordot(y, basis, axes=1)
    E, DE = model.embed(p)
    KX, KXY = pushforward([X, X @ Y - Y @ X], E, DE)

    # tangent: DE K_X = X E
    assert np.max(np.abs(KX[0] * DE[0] + KX[1] * DE[1] - X @ E)) < 1e-13

    # linear in X
    combined = sum(c * f for c, f in zip(x, model.killing_fields(p)))
    assert np.max(np.abs(KX - combined)) < 1e-13 * max(1.0, np.max(np.abs(KX)))

    # Killing for the chart metric
    assert killing_residual(model, p) < 5e-7

    # K_[X,Y] = -[K_X, K_Y]: the field X E of a left action reverses the
    # bracket, [X E, Y E] = (Y X - X Y) E, and so does its pushforward
    K, dK = _fields_and_jacobians(
        lambda q: pushforward([X, Y], *model.embed(q)), p, 1e-5)
    assert np.max(np.abs(KXY + dK[1] @ K[0] - dK[0] @ K[1])) < 1e-6


def test_quadric_roundtrip():
    rng = np.random.default_rng(12)
    for lam in (1.0, -1.0, 0.5, -0.5):
        for _ in range(40):
            r = rng.uniform(0.05, 1.4)
            th = rng.uniform(0.0, 2 * np.pi)
            X, _ = SpaceForm2(lam).embed((r, th))
            r2, th2 = quadric_to_chart(lam, X)
            assert abs(r2 - r) < 1e-12
            assert abs((th2 - th + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_quadric_embed_lands_on_the_quadric():
    for lam in (1.0, -2.0, 0.25):
        X, _ = SpaceForm2(lam).embed((0.9, 1.1))
        # x0^2 + lam*|y|^2 = 1 on the model quadric
        val = X[0] ** 2 + lam * (X[1] ** 2 + X[2] ** 2)
        assert abs(val - 1.0) < 1e-14


def test_quadric_flat_fiber_is_the_plane():
    X, _ = SpaceForm2(0.0).embed((0.8, 0.3))
    assert X[0] == 1.0
    assert np.hypot(X[1], X[2]) == pytest.approx(0.8, rel=1e-15)


def _masked_reference(lam, r):
    # sn_lambda and radial_area as one mask over the nodes, series below the
    # cut and closed form above it: the evaluation the whole-array sides of
    # the cut must reproduce bit for bit
    r = np.asarray(r, dtype=float)
    t = lam * r * r
    small = np.abs(t) < 1e-4
    sn, snp, area = np.empty_like(r), np.empty_like(r), np.empty_like(r)
    ts = t[small]
    sn[small] = r[small] * (1.0 - ts / 6.0 + ts * ts / 120.0 - ts ** 3 / 5040.0)
    snp[small] = 1.0 - ts / 2.0 + ts * ts / 24.0 - ts ** 3 / 720.0
    area[small] = 0.5 * r[small] ** 2 * (1.0 - ts / 12.0 + ts * ts / 360.0
                                         - ts ** 3 / 20160.0)
    big = ~small
    if np.any(big):
        rb = r[big]
        s = np.sqrt(abs(lam))
        if lam > 0:
            sn[big], snp[big] = np.sin(s * rb) / s, np.cos(s * rb)
            area[big] = (1.0 - np.cos(s * rb)) / lam
        else:
            sn[big], snp[big] = np.sinh(s * rb) / s, np.cosh(s * rb)
            area[big] = (np.cosh(s * rb) - 1.0) / (-lam)
    return sn, snp, area


# radii in units of the cut, |lam| r^2 = 1e-4 at r = 1; at lam = 0 they are
# taken as they are, and every node takes the series
RADII = {"mixed": np.linspace(0.2, 5.0, 257),
         "all_small": np.linspace(0.01, 0.9, 257),
         "all_large": np.linspace(1.1, 40.0, 257),
         "scalar_small": 0.5, "scalar_large": 2.0}


@pytest.mark.parametrize("lam, radii", [
    (lam, radii) for lam in (-1.3, 0.7) for radii in RADII]
    + [(0.0, "mixed"), (0.0, "scalar_large")])
def test_sn_and_area_equal_masked_evaluation_bitwise(lam, radii):
    r = RADII[radii] * (np.sqrt(1e-4 / abs(lam)) if lam else 1.0)
    sn, snp = sn_lambda(lam, r)
    area = radial_area(lam, r)
    want = _masked_reference(lam, r)
    if np.ndim(r) == 0:
        assert all(type(v) is float for v in (sn, snp, area))
        want = [float(w) for w in want]
    for got, ref in zip((sn, snp, area), want):
        assert np.array(got).tobytes() == np.array(ref).tobytes()
