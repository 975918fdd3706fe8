"""End-to-end checks against closed-form oracles, one per shipped guarantee.

Each test registers with the acceptance fixture so the terminal summary
prints a PASS/FAIL line per criterion. The circle branch (H = 2, N = 129,
61 uniform parameter values from 1 to -3) is built once and shared by the
criteria that inspect it.
"""

import json
import math
import time

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from equideform.cli import main
from equideform.continuation import (ContinuationConfig, congruence_check,
                                     continue_branch)
from equideform.equivariance import nondegeneracy_report, operator_diagnostics
from equideform.lie_bundle import (algebra_element, deformed_bracket,
                                   group_membership_residual, section,
                                   verify_bundle)
from equideform.mesh import build_grid
from equideform.variational import (CmcCircle, ProblemState, act, circle_seed,
                                    jacobi, sphere_equator_seed,
                                    torus_line_seed)

_cache = {}


def circle_branch():
    if "records" not in _cache:
        g = build_grid("periodic", 129)
        prob, st = circle_seed(1.0, 2.0, g)
        cfg = ContinuationConfig.from_steps(1.0, -3.0, 61, basin_guard=0.05)
        t0 = time.perf_counter()
        records = continue_branch(prob, st, cfg)
        _cache.update(records=records, elapsed=time.perf_counter() - t0,
                      prob=prob)
    return _cache


def _kappa(rho, lam):
    if lam > 0.0:
        s = math.sqrt(lam)
        return s / math.tan(s * rho)
    if lam == 0.0:
        return 1.0 / rho
    s = math.sqrt(-lam)
    return s / math.tanh(s * rho)


def _oracle_radius(lam, H=2.0):
    hi = 10.0
    if lam > 0.0:
        hi = min(hi, math.pi / math.sqrt(lam) - 1e-9)
    return brentq(lambda r: _kappa(r, lam) - H, 1e-6, hi, xtol=1e-14)


def _length_minus_h_area(rho, lam, H):
    # closed-form circumference and enclosed area of the geodesic circle
    if lam > 0.0:
        s = math.sqrt(lam)
        L = 2.0 * math.pi * math.sin(s * rho) / s
        A = 2.0 * math.pi * (1.0 - math.cos(s * rho)) / lam
    elif lam == 0.0:
        L = 2.0 * math.pi * rho
        A = math.pi * rho * rho
    else:
        s = math.sqrt(-lam)
        L = 2.0 * math.pi * math.sinh(s * rho) / s
        A = 2.0 * math.pi * (math.cosh(s * rho) - 1.0) / (-lam)
    return L - H * A


def test_criterion_01_bundle_verification(acceptance):
    lambdas = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    t0 = time.perf_counter()
    checks = {c["name"]: c for c in
              verify_bundle(list(lambdas), [2, 3], 200, 1, seed=11)}
    elapsed = time.perf_counter() - t0
    worst_cl = checks["bracket_closure"]["worst"]
    worst_inv = checks["frame_invariance"]["worst"]
    rank_ok = checks["complement_rank"]["passed"]
    min_margin = checks["slice_margin"]["worst"]
    worst_ident = checks["slice_margin"]["identity_residual"]
    assert worst_cl < 1e-12
    assert worst_inv < 1e-12
    assert rank_ok
    assert min_margin > 1e-3
    assert worst_ident < 1e-12
    assert elapsed < 5.0
    acceptance(f"closure {worst_cl:.1e}, invariance {worst_inv:.1e}, "
               f"margin {min_margin:.2e}, {elapsed:.2f}s")


def test_criterion_02_section_sweep(acceptance):
    rng = np.random.default_rng(2)
    letters = []
    for _ in range(2):
        A = rng.standard_normal((2, 2))
        letters.append((0.3 * (A - A.T), 0.3 * rng.standard_normal(2)))
    direct = np.eye(3)
    for D, u in letters:
        direct = direct @ expm(algebra_element(1.0, D, u))
    worst = max(group_membership_residual(section(letters, lam), lam)
                for lam in np.linspace(-1.0, 1.0, 21))
    reproduce = float(np.max(np.abs(section(letters, 1.0) - direct)))
    assert worst < 1e-10
    assert reproduce < 1e-12
    acceptance(f"membership {worst:.1e} over 21 points, "
               f"base reproduction {reproduce:.1e}")


def test_criterion_03_deformed_bracket(acceptance):
    rng = np.random.default_rng(3)

    def rand_elem():
        A = rng.standard_normal((2, 2))
        return (A - A.T, rng.standard_normal(2))

    exact_anti = True
    worst_jac = worst_match = 0.0
    for lam in (-1.0, 0.0, 0.5, 1.0):
        for _ in range(100):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            bxy = deformed_bracket(lam, x, y)
            byx = deformed_bracket(lam, y, x)
            exact_anti = exact_anti and np.array_equal(bxy[0], -byx[0]) \
                and np.array_equal(bxy[1], -byx[1])
            terms = [deformed_bracket(lam, x, deformed_bracket(lam, y, z)),
                     deformed_bracket(lam, y, deformed_bracket(lam, z, x)),
                     deformed_bracket(lam, z, deformed_bracket(lam, x, y))]
            worst_jac = max(worst_jac,
                            float(np.max(np.abs(sum(t[0] for t in terms)))),
                            float(np.max(np.abs(sum(t[1] for t in terms)))))
            if lam == 1.0:
                mx = algebra_element(1.0, *x)
                my = algebra_element(1.0, *y)
                C = mx @ my - my @ mx
                dk, um = 0.5 * (C[1:, 1:] - C[1:, 1:].T), C[1:, 0]
                defect = float(np.max(np.abs(C - algebra_element(1.0, dk, um))))
                worst_match = max(worst_match, defect,
                                  float(np.max(np.abs(bxy[0] - dk))),
                                  float(np.max(np.abs(bxy[1] - um))))
    assert exact_anti
    assert worst_jac < 1e-12
    assert worst_match < 1e-14
    acceptance(f"antisymmetry binary-exact, jacobi {worst_jac:.1e}, "
               f"round-bracket match {worst_match:.1e}")


def test_criterion_04_circle_branch_radii(acceptance):
    data = circle_branch()
    records = data["records"]
    assert len(records) == 61
    assert records[0].lambda_hat == 1.0
    assert records[-1].lambda_hat == -3.0
    # oracle root, itself validated as a nondegenerate extremum of the
    # one-dimensional reduced functional (with this orientation the critical
    # circle minimizes H*Area - Length over the constant-radius family)
    for lam in (1.0, 0.0, -1.0, -3.0):
        rho = _oracle_radius(lam)
        h = 1e-5
        f0 = _length_minus_h_area(rho, lam, 2.0)
        fp = _length_minus_h_area(rho + h, lam, 2.0)
        fm = _length_minus_h_area(rho - h, lam, 2.0)
        assert abs((fp - fm) / (2.0 * h)) < 1e-6
        assert (fp + fm - 2.0 * f0) / h ** 2 < -1.0
    worst = max(abs(float(np.mean(rec.state.values))
                    - _oracle_radius(rec.lambda_hat)) for rec in records)
    assert worst < 1e-8
    assert data["elapsed"] < 10.0
    acceptance(f"61 records, max radius error {worst:.2e}, "
               f"{data['elapsed']:.2f}s")


def test_criterion_05_branch_nondegeneracy(acceptance):
    records = circle_branch()["records"]
    worst_angle, min_gap = 0.0, np.inf
    for rec in records:
        assert rec.kernel_dim == 2
        assert rec.killing_rank == 2
        assert rec.max_principal_angle < 1e-6
        assert rec.spectral_gap > 1e3
        worst_angle = max(worst_angle, rec.max_principal_angle)
        min_gap = min(min_gap, rec.spectral_gap)
    acceptance(f"kernel 2/2 on all 61 records, worst angle {worst_angle:.1e}, "
               f"min gap {min_gap:.1e}")


def test_criterion_06_operator_diagnostics(acceptance):
    data = circle_branch()
    prob = data["prob"]
    worst_sym = worst_fd = 0.0
    for rec in data["records"]:
        J = jacobi(prob, rec.state, rec.lambda_hat)
        rep = operator_diagnostics(J, prob, rec.state, rec.lambda_hat,
                                   probes=10, seed=6)
        assert rep.symmetry_residual < 1e-10
        assert rep.index == 0
        assert rep.fd_consistency < 1e-5
        worst_sym = max(worst_sym, rep.symmetry_residual)
        worst_fd = max(worst_fd, rep.fd_consistency)
    acceptance(f"all 61 records: W-symmetry {worst_sym:.1e}, index 0, "
               f"FD consistency {worst_fd:.1e} on 10 probes")


def test_criterion_07_orbit_congruence(acceptance):
    data = circle_branch()
    prob = data["prob"]
    records = data["records"]
    rng = np.random.default_rng(7)
    sampled = list(records[::10]) + [records[-1]]
    worst_param = 0.0
    for rec in sampled:
        v = rng.standard_normal(2)
        t = v / np.linalg.norm(v) * 0.05 * rng.uniform(0.3, 1.0)
        moved = act(prob, rec.state, rec.lambda_hat, t)
        same, recovered = congruence_check(prob, rec.state, moved,
                                           rec.lambda_hat, tol=1e-8)
        assert same  # final W-distance below 1e-8 by the tol argument
        err = float(np.max(np.abs(recovered - t)))
        assert err < 1e-6
        worst_param = max(worst_param, err)
    acceptance(f"{len(sampled)} states re-solved congruent at tol 1e-8, "
               f"worst parameter error {worst_param:.1e}")


def test_criterion_08_torus_gram_path(acceptance):
    g = build_grid("periodic", 65)
    prob, st = torus_line_seed((1, 0), g, np.eye(2),
                               np.array([[4.0, 0.0], [0.0, 1.0]]))
    cfg = ContinuationConfig.from_steps(0.0, 1.0, 11, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    assert len(records) == 11
    worst = 0.0
    for rec in records:
        t = rec.lambda_hat
        assert rec.kernel_dim == 2
        assert rec.killing_rank == 2
        err = abs(rec.derived_scalars["length"] - math.sqrt(1.0 + 3.0 * t))
        assert err < 1e-10
        worst = max(worst, err)
    acceptance(f"length = sqrt(Q11) to {worst:.1e} on 11 records, "
               f"kernel 2/2 throughout")


def test_criterion_09_sphere_scaling(acceptance):
    g = build_grid("periodic", 65)
    prob, st = sphere_equator_seed(g)
    rep = nondegeneracy_report(prob, st, 1.0)
    assert rep.verdict == "nondegenerate"
    assert rep.kernel_dim == 3
    assert rep.killing_rank == 3
    cfg = ContinuationConfig.from_steps(0.5, 2.0, 16, basin_guard=0.05)
    records = continue_branch(prob, st, cfg)
    assert len(records) == 16
    worst = 0.0
    for rec in records:
        assert rec.kernel_dim == 3
        assert rec.killing_rank == 3
        err = abs(rec.derived_scalars["length"]
                  * math.sqrt(rec.lambda_hat) - 2.0 * math.pi)
        assert err < 1e-8
        worst = max(worst, err)
    acceptance(f"kernel 3/3 at seed and on 16 records, "
               f"length*sqrt(lambda) = 2pi to {worst:.1e}")


PROFILE_PROBLEM = """
[problem]
instance = cmc_profile
n = 128
h = 2.0
length = 1.0
"""


def test_criterion_10_profile_branch(acceptance, tmp_path):
    an_cfg = tmp_path / "analyze.ini"
    an_cfg.write_text(PROFILE_PROBLEM)
    an_out = tmp_path / "an"
    assert main(["analyze", "--config", str(an_cfg),
                 "--out", str(an_out)]) == 0
    rep = json.loads((an_out / "report.json").read_text())["payload"]
    assert rep["nondegeneracy"]["verdict"] == "nondegenerate"
    assert rep["nondegeneracy"]["kernel_dim"] == 0
    assert rep["nondegeneracy"]["killing_rank"] == 0

    br_cfg = tmp_path / "branch.ini"
    br_cfg.write_text(PROFILE_PROBLEM + """
[path]
start = -0.2
end = 0.2
records = 21
tol = 1e-11
basin_guard = 0.3
""")
    br_out = tmp_path / "br"
    code = main(["continue", "--config", str(br_cfg), "--out", str(br_out)])
    assert code == 0
    rows = [json.loads(line) for line in
            (br_out / "branch.jsonl").read_text().splitlines()]
    assert len(rows) == 21
    assert rows[0]["lambda_hat"] == -0.2
    assert rows[-1]["lambda_hat"] == 0.2
    worst = max(row["residual_norm"] for row in rows)
    assert worst < 1e-10
    for row in rows:
        assert row["kernel_dim"] == 0
    acceptance(f"trivial kernel, 21 records over [-0.2, 0.2], "
               f"worst residual {worst:.1e}, exit 0")


def test_criterion_11_failure_semantics(acceptance, tmp_path):
    cfg = tmp_path / "push.ini"
    cfg.write_text("""
[problem]
instance = cmc_circle
n = 64
h = 2.0
[path]
start = -3.0
end = -5.0
initial_step = 0.05
min_step = 5e-3
basin_guard = 0.05
""")
    out = tmp_path / "out"
    code = main(["continue", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    rows = [json.loads(line) for line in
            (out / "branch.jsonl").read_text().splitlines()]
    assert len(rows) >= 2
    last = rows[-1]
    assert last["lambda_hat"] > -4.0
    # the last accepted record still meets the nondegeneracy criterion
    assert last["kernel_dim"] == 2
    assert last["killing_rank"] == 2
    assert last["max_principal_angle"] < 1e-6
    assert last["spectral_gap"] > 1e3
    # and the operator diagnostics criterion
    g = build_grid("periodic", 65)
    prob = CmcCircle(2.0, g)
    st = ProblemState(np.array(last["state"]))
    rep = operator_diagnostics(jacobi(prob, st, last["lambda_hat"]), prob, st,
                               last["lambda_hat"], probes=10, seed=6)
    assert rep.symmetry_residual < 1e-10
    assert rep.index == 0
    assert rep.fd_consistency < 1e-5
    acceptance(f"exit 3 with {len(rows)} partial records, last at "
               f"lambda_hat {last['lambda_hat']:.3f} still certified")
