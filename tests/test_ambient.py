import numpy as np
import pytest

from equideform.ambient import (FlatTorus, ScaledSphere, SpaceForm2,
                                killing_residual, quadric_embed,
                                quadric_to_chart, radial_area, sn_lambda,
                                structure_match)
from equideform.errors import DomainError


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


def test_killing_field_counts():
    assert len(SpaceForm2(1.0).killing_fields([0.7, 0.3])) == 3
    assert len(FlatTorus(np.eye(2)).killing_fields([0.2, 0.8])) == 2
    assert len(ScaledSphere(2.0).killing_fields([1.2, 0.5])) == 3


def test_block_fields_equal_pointwise_fields_bitwise():
    # the node axis must not change a single bit of any field component
    rng = np.random.default_rng(14)
    boxes = [
        (SpaceForm2(1.0), [(0.05, 2.5), (0.0, 2 * np.pi)]),
        (SpaceForm2(0.0), [(0.05, 2.5), (0.0, 2 * np.pi)]),
        # radii on both sides of sn_lambda's series cut at |lam| r^2 = 1e-4
        (SpaceForm2(-1.0), [(1e-3, 0.02), (0.0, 2 * np.pi)]),
        (FlatTorus(np.array([[4.0, 1.0], [1.0, 1.0]])), [(-1.0, 1.0), (-1.0, 1.0)]),
        (ScaledSphere(1.5), [(0.1, 3.0), (0.0, 2 * np.pi)]),
    ]
    for model, box in boxes:
        P = np.array([rng.uniform(lo, hi, 5) for lo, hi in box])
        block = model.killing_fields(P)
        assert all(f.shape == P.shape for f in block)
        for j in range(P.shape[1]):
            point = model.killing_fields(P[:, j])
            assert len(point) == len(block)
            for fb, fp in zip(block, point):
                assert fp.shape == (P.shape[0],)
                assert np.ascontiguousarray(fb[:, j]).tobytes() == fp.tobytes()


def test_killing_residuals_vanish_to_fd_accuracy():
    """Lie derivative of the metric along each closed-form field is ~0."""
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


def test_structure_constants_match_the_algebra():
    for lam in (-1.0, 0.0, 1.0):
        assert structure_match(lam, np.array([0.7, 0.4])) < 1e-6


def test_quadric_roundtrip():
    rng = np.random.default_rng(12)
    for lam in (1.0, -1.0, 0.5, -0.5):
        for _ in range(40):
            r = rng.uniform(0.05, 1.4)
            th = rng.uniform(0.0, 2 * np.pi)
            X = quadric_embed(lam, r, th)
            r2, th2 = quadric_to_chart(lam, X)
            assert abs(r2 - r) < 1e-12
            assert abs((th2 - th + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_quadric_embed_lands_on_the_quadric():
    for lam in (1.0, -2.0, 0.25):
        X = quadric_embed(lam, 0.9, 1.1)
        # x0^2 + lam*|y|^2 = 1 on the model quadric
        val = X[0] ** 2 + lam * (X[1] ** 2 + X[2] ** 2)
        assert abs(val - 1.0) < 1e-14


def test_quadric_flat_fiber_is_the_plane():
    X = quadric_embed(0.0, 0.8, 0.3)
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
