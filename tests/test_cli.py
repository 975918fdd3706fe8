import configparser
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from equideform import cli, mesh
from equideform.cli import _build_problem, _Config, main
from equideform.serialize import content_hash
from equideform.variational import jacobi


def run_cli(tmp_path, command, text, *extra, name="cfg.ini"):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)] + list(extra))
    return code, out


def read_report(out):
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"meta", "payload"}
    return doc["payload"]


BUNDLE_SMALL = """
[bundle]
lambdas = -1 0 1
n = 2
samples = 50
triples = 20
"""

CIRCLE_PROBLEM = """
[problem]
instance = cmc_circle
n = 64
h = 2.0
lambda_hat = 1.0
"""


# ----------------------------------------------------------- verify-bundle


def test_verify_bundle_passes(tmp_path, capsys):
    code, out = run_cli(tmp_path, "verify-bundle", BUNDLE_SMALL)
    assert code == 0
    pay = read_report(out)
    assert pay["passed"] is True
    names = [c["name"] for c in pay["checks"]]
    assert names == ["bracket_closure", "frame_invariance", "complement_rank",
                     "slice_margin", "section_membership",
                     "bracket_antisymmetry", "bracket_jacobi",
                     "bracket_matches_undeformed"]
    assert all(c["passed"] for c in pay["checks"])
    stdout = capsys.readouterr().out
    assert stdout.count(": PASS") == 8


@pytest.mark.parametrize("bundle", [
    "lambdas = 0 nan\n",
    # checks over an empty grid or no samples would pass on no data
    "lambdas =\n",
    "n =\n",
    "lambdas = 0.5\nsamples = 0\n",
    "lambdas = 0.5\ntriples = 0\n",
    # a hook that only analyze reads
    "lambdas = 0.5\n[test]\ninject_shift = 0.5\n",
    # values are literal, so a % is a bad number, not an interpolation
    "lambdas = 0.5 %\n",
], ids=["non_finite_lambda", "no_lambdas", "no_n", "no_samples", "no_triples",
        "inject_shift", "percent"])
def test_verify_bundle_config_errors(tmp_path, capsys, bundle):
    code, _ = run_cli(tmp_path, "verify-bundle", "[bundle]\n" + bundle)
    assert code == 64
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    if "%" in bundle:
        assert "[bundle] lambdas = '0.5 %' is not valid" in err


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_verify_bundle_large_n_passes(tmp_path, seed):
    # a correct bundle: the round-bracket match threshold must grow with the
    # rounding bound of n, or these seeds fail at about 1.4e-14
    code, out = run_cli(tmp_path, "verify-bundle",
                        "[bundle]\nlambdas = 1\nn = 16\nsamples = 1\n"
                        "triples = 10\n", "--seed", seed)
    assert code == 0
    assert all(c["passed"] for c in read_report(out)["checks"])


def test_verify_bundle_broken_basis_fails(tmp_path, capsys):
    code, out = run_cli(tmp_path, "verify-bundle", BUNDLE_SMALL +
                        "[test]\ninject_broken_basis = true\n")
    assert code == 2
    pay = read_report(out)
    assert pay["passed"] is False
    failed = {c["name"] for c in pay["checks"] if not c["passed"]}
    assert "bracket_closure" in failed
    assert "FAIL" in capsys.readouterr().out


# ----------------------------------------------------------------- analyze


def test_analyze_circle_nondegenerate(tmp_path, capsys):
    code, out = run_cli(tmp_path, "analyze", CIRCLE_PROBLEM)
    assert code == 0
    pay = read_report(out)
    rep = pay["nondegeneracy"]
    assert rep["verdict"] == "nondegenerate"
    assert rep["kernel_dim"] == 2
    assert rep["killing_rank"] == 2
    assert pay["diagnostics"]["index"] == 0
    assert pay["config"]["instance"] == "cmc_circle"
    assert "verdict: nondegenerate" in capsys.readouterr().out


@pytest.mark.parametrize("problem, angle_tol", [
    ("[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\nlambda_hat = 0.5\n",
     "1e-9"),
    ("[problem]\ninstance = harmonic_sphere\nn = 33\n", "2e-8"),
], ids=["circle", "sphere"])
def test_analyze_tight_angle_tol(tmp_path, problem, angle_tol):
    # the kernel matches the Killing span to about 1e-14, so these
    # tolerances must certify it
    code, out = run_cli(tmp_path, "analyze",
                        problem + f"[path]\nangle_tol = {angle_tol}\n")
    assert code == 0
    assert read_report(out)["nondegeneracy"]["max_principal_angle"] < 1e-12


def test_analyze_injected_shift_degenerate(tmp_path):
    code, out = run_cli(tmp_path, "analyze", CIRCLE_PROBLEM +
                        "[test]\ninject_shift = 0.5\n")
    assert code == 2
    pay = read_report(out)
    assert pay["nondegeneracy"]["verdict"] == "degenerate"
    assert pay["nondegeneracy"]["kernel_dim"] == 0
    assert pay["inject_shift"] == 0.5
    # the shifted verdict sits beside the diagnostics of the unshifted
    # operator, which are read before the certificate's reduction takes it
    (tmp_path / "plain").mkdir()
    code, out = run_cli(tmp_path / "plain", "analyze", CIRCLE_PROBLEM)
    assert code == 0
    assert pay["diagnostics"] == read_report(out)["diagnostics"]


def test_analyze_solver_failure_exit_three(tmp_path, capsys):
    # an unreachable tolerance with one Newton step starves the corrector
    code, out = run_cli(tmp_path, "analyze", CIRCLE_PROBLEM +
                        "[path]\ntol = 1e-30\nmax_newton = 1\n")
    assert code == 3
    pay = read_report(out)
    assert "error" in pay
    assert "failed" in capsys.readouterr().err


PROFILE_FLOOR = """
[problem]
instance = cmc_profile
n = 512
h = 1.0
"""


def test_corrector_fails_fast_at_the_residual_floor(tmp_path, capsys):
    # the seed is the exact cylinder, critical but for roundoff, whose
    # residual floor at this N (about 2e-10) lies above the default tol
    code, out = run_cli(tmp_path, "analyze", PROFILE_FLOOR)
    assert code == 3
    error = read_report(out)["error"]
    assert "roundoff floor" in error
    assert "[path] tol = 1e-10 must lie above" in error
    iters = int(error.split(" iterations")[0].rsplit(" ", 1)[1])
    assert iters <= 2
    assert "roundoff floor" in capsys.readouterr().err
    code, out = run_cli(tmp_path, "analyze",
                        PROFILE_FLOOR + "[path]\ntol = 1e-9\n")
    assert code in (0, 2)
    assert "verdict" in read_report(out)["nondegeneracy"]


def test_analyze_band_solve_failure_exit_three(tmp_path, capsys,
                                               monkeypatch):
    # the profile's first Newton step solves its band by LAPACK dgbsv; a
    # nonzero info there (1: a zero pivot) is a solver failure, reported,
    # not a traceback
    dgbsv = mesh._LAPACK["dgbsv"]

    def singular(*args):
        dgbsv(*args)
        args[-1].value = 1

    monkeypatch.setitem(mesh._LAPACK, "dgbsv", singular)
    code, out = run_cli(tmp_path, "analyze", PROFILE_FLOOR)
    assert code == 3
    error = "corrector_step: dgbsv failed with info = 1"
    assert read_report(out)["error"] == error
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("problem", [
    CIRCLE_PROBLEM,
    "[problem]\ninstance = cmc_profile\nn = 64\nh = 2.0\nlength = 1.0\n",
], ids=["dense", "band"])
def test_analyze_non_finite_operator_exit_three(tmp_path, capsys,
                                                monkeypatch, problem, value):
    # a W J holding a non-finite entry fails the certificate's reduction:
    # exit 3, with the failing routine's cause in the report
    report = cli.nondegeneracy_report

    def poisoned(*args, operator, **kwargs):
        if isinstance(operator, mesh.BandJacobiOperator):
            operator.hessian[0, 3] = value
        else:
            operator.hessian[3, 3] = value
        return report(*args, operator=operator, **kwargs)

    monkeypatch.setattr(cli, "nondegeneracy_report", poisoned)
    code, out = run_cli(tmp_path, "analyze", problem)
    assert code == 3
    error = read_report(out)["error"]
    assert error.startswith("numerical_kernel: ")
    assert error in capsys.readouterr().err


def test_congruence_polishes_at_the_path_tol(tmp_path, capsys):
    # the profile has no group parameters; its polish at n = 4096 stalls
    # near 7e-10, above the default tol, until [path] tol is raised
    text = "[problem]\ninstance = cmc_profile\nn = 4096\nh = 2.0\n" \
           "[congruence]\nt =\n"
    code, out = run_cli(tmp_path, "congruence", text)
    assert code == 3
    assert "[path] tol = 1e-10 must lie above" in read_report(out)["error"]
    assert "roundoff floor" in capsys.readouterr().err
    code, out = run_cli(tmp_path, "congruence", text + "[path]\ntol = 1e-9\n")
    assert code == 0
    pay = read_report(out)
    assert pay["congruent"] and pay["recovered_t"] == []
    assert "error" not in pay and "path" not in pay
    # a tol at or above the certificate's is a config error, as in analyze
    code, _ = run_cli(tmp_path, "congruence", text + "[path]\ntol = 5e-8\n")
    assert code == 64


@pytest.mark.parametrize("command, extra", [
    ("analyze", ""),
    ("congruence", "[congruence]\nt = 0.02, -0.01\n"),
], ids=["analyze", "congruence"])
def test_factorization_failure_exit_three(tmp_path, capsys, failing_linalg,
                                          command, extra):
    failing_linalg(0)
    code, out = run_cli(tmp_path, command, CIRCLE_PROBLEM + extra)
    assert code == 3
    assert "injected factorization failure" in read_report(out)["error"]
    assert "injected factorization failure" in capsys.readouterr().err


# [problem] keys and Killing rank of each instance's analyze seed
INSTANCE_KEYS = {
    "cmc_circle": ("h = 2.0\n", 2),
    "cmc_profile": ("h = 2.0\nlength = 1.0\n", 0),
    "harmonic_sphere": ("", 3),
    "harmonic_torus": ("homotopy = 1, 1\n", 2),
}
PERIODIC = ("cmc_circle", "harmonic_sphere", "harmonic_torus")


def _analyze_instance(tmp_path, instance, n, extra=""):
    keys, _ = INSTANCE_KEYS[instance]
    return run_cli(tmp_path, "analyze", f"[problem]\ninstance = {instance}\n"
                                        f"n = {n}\n" + keys + extra)


@pytest.mark.parametrize("instance", PERIODIC)
def test_analyze_periodic_even_n_rounds_up(tmp_path, instance):
    code, out = _analyze_instance(tmp_path, instance, 64)
    assert code == 0
    pay = read_report(out)
    assert pay["config"]["n"] == 65
    assert pay["nondegeneracy"]["kernel_dim"] == INSTANCE_KEYS[instance][1]


@pytest.mark.parametrize("order", ["2", "4"])
@pytest.mark.parametrize("instance", PERIODIC)
def test_periodic_finite_difference_order_is_config_error(tmp_path, capsys,
                                                          instance, order):
    code, _ = _analyze_instance(tmp_path, instance, 33, f"order = {order}\n")
    assert code == 64
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"order {order}" in err


@pytest.mark.parametrize("instance, order",
                         [(name, "spectral") for name in PERIODIC]
                         + [("cmc_profile", "2")])
def test_supported_order_runs(tmp_path, instance, order):
    code, out = _analyze_instance(tmp_path, instance, 33, f"order = {order}\n")
    assert code == 0
    assert (read_report(out)["nondegeneracy"]["kernel_dim"]
            == INSTANCE_KEYS[instance][1])


@pytest.mark.parametrize("n", [64, 65, 128])
@pytest.mark.parametrize("lam", [1.0, 0.0, -2.0])
def test_circle_seed_jacobi_has_index_one(n, lam):
    # the geodesic circle's second variation has one negative direction,
    # the dilation; an even grid's sawtooth would add a second one
    cp = configparser.ConfigParser()
    cp.read_string(f"[problem]\ninstance = cmc_circle\nn = {n}\nh = 2.0\n")
    problem, state, resolved, _ = _build_problem(_Config(cp), lam)
    assert resolved["n"] % 2 == 1
    J = jacobi(problem, state, lam)
    s = 1.0 / np.sqrt(J.weights)
    mu = np.linalg.eigvalsh(s[:, None] * J.hessian * s[None, :])
    assert np.count_nonzero(mu < -1e-8 * np.max(np.abs(mu))) == 1


# ---------------------------------------------------------------- continue


CIRCLE_PATH = CIRCLE_PROBLEM + """
[path]
start = 1.0
end = 0.5
records = 6
basin_guard = 0.05
"""


def test_continue_writes_branch_files(tmp_path, capsys):
    code, out = run_cli(tmp_path, "continue", CIRCLE_PATH)
    assert code == 0
    pay = read_report(out)
    assert pay["records"] == 6
    assert pay["error"] is None
    assert "state" not in pay["final"]
    assert pay["final"]["verdict"] == "nondegenerate"

    rows = [json.loads(line) for line in
            (out / "branch.jsonl").read_text().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["config_hash"] == pay["config_hash"]
        assert row["config"]["problem"]["instance"] == "cmc_circle"
        assert row["residual_norm"] < 1e-10
        assert len(row["state"]) == 65

    csv_lines = (out / "branch.csv").read_text().splitlines()
    assert csv_lines[0] == "lambda_hat,residual_norm,kernel_dim,radius"
    assert len(csv_lines) == 7
    first = csv_lines[1].split(",")
    assert float(first[0]) == 1.0
    assert int(first[2]) == 2
    assert "records: 6" in capsys.readouterr().out


def test_continue_reports_are_byte_stable(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CIRCLE_PATH)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "branch.jsonl").read_bytes() == (b / "branch.jsonl").read_bytes()
    assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()
    da = json.loads((a / "report.json").read_text())
    db = json.loads((b / "report.json").read_text())
    assert da["payload"] == db["payload"]


def test_continue_meta_logs_each_record_and_payload_bytes_repeat(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CIRCLE_PATH)
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append((out / "report.json").read_text())
    payloads = [t[t.index(',"payload":'):] for t in texts]
    assert payloads[0] == payloads[1]
    assert "residual_norms" not in payloads[0]
    meta = json.loads(texts[0])["meta"]
    assert meta["stalled"] is None
    logs = meta["records"]
    assert len(logs) == 6
    for log in logs:
        assert set(log) == {"residual_norms", "cond", "orbit_inner",
                            "reductions", "rejected", "speculative",
                            "seconds"}
        assert log["residual_norms"][-1] <= 1e-10
        assert log["rejected"] == []
        assert set(log["seconds"]) == {"correct", "certify"}
        assert all(0.0 < t < 60.0 for t in log["seconds"].values())
    # every record after the seed was corrected while its predecessor was
    # being certified
    assert [log["speculative"]["used"] for log in logs] == [0] + [1] * 5
    assert all(log["speculative"]["discarded"] == 0 for log in logs)


def test_continue_partial_branch_exit_three(tmp_path, capsys):
    # the circle family ends at lambda = -H^2; pushing past it must fail
    # after certifying what exists
    code, out = run_cli(tmp_path, "continue", """
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
    assert code == 3
    pay = read_report(out)
    assert pay["error"] is not None
    assert pay["records"] >= 2
    assert pay["final"]["lambda_hat"] > -4.0
    assert pay["final"]["verdict"] == "nondegenerate"
    captured = capsys.readouterr()
    assert "incomplete" in captured.err
    assert "(partial)" in captured.out
    # meta names every failed attempt after the last record, the last of
    # them the payload's cause
    stalled = json.loads((out / "report.json").read_text())["meta"]["stalled"]
    assert stalled["rejected"]
    assert stalled["reductions"] > 0     # the retries start with Newton
    assert pay["error"].endswith("last failure: " + stalled["rejected"][-1])


def test_continue_factorization_failure_keeps_partial_branch(
        tmp_path, capsys, failing_linalg):
    # count the factorizations of the first three records, then let every
    # later one fail: the branch must stop at three certified records
    counts = failing_linalg(None)
    head = CIRCLE_PATH.replace("end = 0.5", "end = 0.8").replace(
        "records = 6", "records = 3")
    assert run_cli(tmp_path, "continue", head, name="head.ini")[0] == 0
    failing_linalg(counts["calls"])
    code, out = run_cli(tmp_path, "continue", CIRCLE_PATH)
    assert code == 3
    pay = read_report(out)
    assert pay["records"] == 3
    assert pay["final"]["verdict"] == "nondegenerate"
    assert "step underflow" in pay["error"]
    assert "last failure: IllConditioned" in pay["error"]
    assert "injected factorization failure" in pay["error"]
    assert "(partial)" in capsys.readouterr().out


def test_continue_seed_changes_config_hash(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CIRCLE_PATH)
    hashes = []
    for seed in ("0", "7"):
        out = tmp_path / f"s{seed}"
        assert main(["continue", "--config", str(cfg), "--out", str(out),
                     "--seed", seed]) == 0
        hashes.append(json.loads((out / "report.json").read_text())
                      ["payload"]["config_hash"])
    assert hashes[0] != hashes[1]


# -------------------------------------------------------------- congruence


def test_congruence_true(tmp_path, capsys):
    code, out = run_cli(tmp_path, "congruence", CIRCLE_PROBLEM + """
[congruence]
t = 0.02, -0.01
""")
    assert code == 0
    pay = read_report(out)
    assert pay["congruent"] is True
    assert np.max(np.abs(np.array(pay["recovered_t"]) -
                         np.array([0.02, -0.01]))) < 1e-6
    assert "congruent: True" in capsys.readouterr().out


def test_congruence_tight_tol_exit_two(tmp_path):
    code, out = run_cli(tmp_path, "congruence", CIRCLE_PROBLEM + """
[congruence]
t = 0.02, -0.01
tol = 1e-16
""")
    assert code == 2
    assert read_report(out)["congruent"] is False


@pytest.mark.parametrize("problem, t", [
    (CIRCLE_PROBLEM, "0.02, -0.01, 0.03"),
    # a motion too large for the radial chart
    ("[problem]\ninstance = cmc_circle\nn = 32\nh = 2\nlambda_hat = 0.5\n",
     "3.0, 0.0"),
    (CIRCLE_PROBLEM, "nan, 0.0"),
    # motions at or past the orbit projection's trust radius 0.25, which
    # would solve and then always fail to be recovered
    ("[problem]\ninstance = cmc_circle\nn = 33\nh = 2\n", "0.2, 0.2"),
    ("[problem]\ninstance = harmonic_sphere\nn = 33\n", "0.3, 0, 0"),
    ("[problem]\ninstance = harmonic_torus\nn = 33\n", "0.26, 0"),
    ("[problem]\ninstance = harmonic_torus\nn = 33\n", "0.25, 0"),
    # hooks that congruence does not read
    (CIRCLE_PROBLEM + "[test]\ninject_shift = 0.5\n", "0.02, -0.01"),
    (CIRCLE_PROBLEM + "[test]\ninject_broken_basis = true\n", "0.02, -0.01"),
], ids=["wrong_length", "too_large", "non_finite", "circle_past_radius",
        "sphere_past_radius", "torus_past_radius", "torus_at_radius",
        "inject_shift", "inject_broken_basis"])
def test_congruence_wrong_t_length_is_config_error(tmp_path, capsys, problem, t):
    code, _ = run_cli(tmp_path, "congruence",
                      problem + f"[congruence]\nt = {t}\n")
    assert code == 64
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("problem, t", [
    ("[problem]\ninstance = cmc_circle\nn = 33\nh = 2\n", "0.17, 0.17"),
    ("[problem]\ninstance = harmonic_sphere\nn = 33\n", "0.24, 0, 0"),
])
def test_congruence_inside_the_trust_radius_recovers(tmp_path, problem, t):
    code, out = run_cli(tmp_path, "congruence",
                        problem + f"[congruence]\nt = {t}\n")
    assert code == 0
    assert read_report(out)["congruent"] is True


@pytest.mark.parametrize("command, text, message", [
    ("congruence", "[problem]\ninstance = cmc_circle\nn = 33\nh = 2\n"
     "[congruence]\nt = 0.2, 0.2\n", "trust radius 0.25"),
    ("congruence", "[problem]\ninstance = harmonic_torus\nn = 33\n"
     "[congruence]\nt = 0.25, 0\n", "trust radius 0.25"),
    ("continue", CIRCLE_PROBLEM + "[path]\nstart = 1.0\nend = 0.5\n"
     "records = 3\n[test]\ninject_shift = 0.5\n",
     "[test] inject_shift: not read by continue on cmc_circle, which reads "
     "no [test] key"),
    ("verify-bundle", BUNDLE_SMALL + "[test]\ninject_shift = 0.5\n",
     "[test] inject_shift: not read by verify-bundle, which reads "
     "inject_broken_basis"),
    ("analyze", CIRCLE_PROBLEM + "[test]\ninject_broken_basis = true\n",
     "[test] inject_broken_basis: not read by analyze on cmc_circle, which "
     "reads inject_shift"),
], ids=["circle_past_radius", "torus_at_radius", "continue_shift",
        "bundle_shift", "analyze_broken_basis"])
def test_config_error_names_the_rule(tmp_path, capsys, command, text,
                                     message):
    code, _ = run_cli(tmp_path, command, text)
    assert code == 64
    assert message in capsys.readouterr().err


def test_congruence_seed_outside_chart_exit_three(tmp_path, capsys):
    # the seed radius 1/H = 0.033 is below the chart, whatever the motion
    code, out = run_cli(tmp_path, "congruence",
                        "[problem]\ninstance = cmc_circle\nn = 32\nh = 30\n"
                        "[congruence]\nt = 0.01, 0.0\n")
    assert code == 3
    assert "congruence failed: radial graph left" in capsys.readouterr().err
    assert "radial graph left" in read_report(out)["error"]


# ------------------------------------------------------------ config guard


# a circle analyze config that exits 0 nondegenerate on its own
CIRCLE_33 = "[problem]\ninstance = cmc_circle\nn = 33\nh = 2\nlambda_hat = 0.5\n"


@pytest.mark.parametrize("text", [
    "[problem]\ninstance = mystery\n",
    "[problem]\ninstance = cmc_circle\nh = 2.0\nn = 4\n",
    "[problem]\ninstance = cmc_circle\nh = -1.0\n",
    "[problem]\ninstance = cmc_circle\n",          # H required
    "[problem]\nn = 64\n",                         # instance required
    "[problem]\ninstance = cmc_circle\nh = 2.0\nlambda_hat = nan\n",
    "[problem]\ninstance = cmc_circle\nh = inf\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[test]\ninject_shift = nan\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[test]\ninject_shift = inf\n",
    "[problem]\ninstance = harmonic_torus\nn = 33\ngram_start = 1, nan, 1\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[path]\ntol_rel = 0.5\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[path]\ndiagnostics_cadence = -3\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[path]\nangle_tol = 5\n",
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[path]\ntol = 1e-8\n",
    # a hook that only verify-bundle reads
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[test]\ninject_broken_basis = true\n",
    # a misspelled hook, which would inject nothing
    "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"
    "[test]\ninject_shfit = 0.5\n",
    # a misspelled [problem] key beside the one it means, and a key only
    # the profile reads: each would be dropped without a word
    CIRCLE_33 + "lamda_hat = 0.9\n",
    CIRCLE_33 + "radius = 3\n",
])
def test_analyze_config_errors(tmp_path, capsys, text):
    code, _ = run_cli(tmp_path, "analyze", text)
    assert code == 64
    err = capsys.readouterr().err
    assert "config error" in err
    if "inject_shfit" in text:
        assert ("[test] inject_shfit: not read by analyze on cmc_circle, "
                "which reads inject_shift") in err
    for key in ("lamda_hat", "radius"):
        if key in text:
            assert (f"[problem] {key}: not read by analyze on cmc_circle, "
                    "which reads instance, n, lambda_hat, h, order") in err


@pytest.mark.parametrize("command", ["analyze", "continue"])
@pytest.mark.parametrize("text, keys", [
    # Fornberg weights on an interval this long overflow, so the grid's D1
    # is not finite
    ("[problem]\ninstance = cmc_profile\nn = 64\nh = 1.0\nlength = 1e300\n",
     "instance, n, h, length"),
    # the metric over lambda_hat makes the seed's residual overflow its norm
    ("[problem]\ninstance = harmonic_sphere\nn = 64\nlambda_hat = 1e-300\n",
     "instance, n, lambda_hat"),
], ids=["profile-length", "sphere-lambda"])
def test_problem_magnitudes_that_overflow_are_config_errors(
        tmp_path, capsys, command, text, keys):
    # exit 64 before any solve, naming the [problem] keys given, with no
    # numpy warning on the way
    if command == "continue":
        lam = "1e-300" if "sphere" in text else "0.0"
        text += f"[path]\nstart = {lam}\nend = 1.0\nrecords = 3\n"
    code, _ = run_cli(tmp_path, command, text)
    assert code == 64
    err = capsys.readouterr().err
    assert f"[problem] {keys}: the seed's residual norm is" in err
    assert "Warning" not in err


def test_continue_overflowing_step_exit_three_without_warning(tmp_path,
                                                              capsys):
    # a step from 0.05 to 1e-300 takes the sphere's metric far out: the
    # predicted state's residual has a squared norm that overflows, so its
    # norm is infinite, which fails the attempt; the branch stalls with exit
    # 3 and a report, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, "continue", """
[problem]
instance = harmonic_sphere
n = 9
[path]
start = 0.05
end = 1e-300
initial_step = 1e6
max_newton = 3
""")
    assert code == 3
    pay = read_report(out)
    assert pay["records"] == 1
    assert "step underflow" in pay["error"]
    assert pay["error"].endswith("initial residual inf is not finite "
                                 "(lambda_hat=1e-300)")
    assert "Warning" not in capsys.readouterr().err


def test_problem_keys_an_instance_reads_are_accepted(tmp_path):
    # the profile reads radius, which a circle rejects
    code, _ = run_cli(tmp_path, "analyze",
                      "[problem]\ninstance = cmc_profile\nn = 16\nh = 2\n"
                      "length = 1\nradius = 0.5\norder = 2\n")
    assert code in (0, 2)


@pytest.mark.parametrize("step", ["initial_step = 0.1", "min_step = 0.001",
                                  "max_step = 0.01"],
                         ids=["initial_step", "min_step", "max_step"])
def test_continue_conflicting_step_spec(tmp_path, capsys, step):
    code, _ = run_cli(tmp_path, "continue", CIRCLE_PROBLEM + f"""
[path]
start = 1.0
end = 0.5
records = 6
{step}
""")
    assert code == 64
    # with records given the step keys are not read
    assert (f"[path] {step.split()[0]}: not read by continue on cmc_circle, "
            "which reads tol, max_newton, retries, basin_guard, "
            "diagnostics_cadence, angle_tol, tol_rel, start, end, records"
            ) in capsys.readouterr().err


@pytest.mark.parametrize("path", [
    "start = nan\nend = 0.5\nrecords = 6\n",
    "start = 1.0\nend = 0.5\nrecords = 6\nretries = -1\n",
    "start = 1.0\nend = 0.5\nrecords = 6\nmax_newton = -1\n",
    "start = 1.0\nend = 0.5\ninitial_step = 0.1\nretries = 100000\n",
    "start = 1.0\nend = 0.5\nrecords = 6\ntol_rel = 0.5\n",
    "start = 1.0\nend = 0.5\nrecords = 6\ndiagnostics_cadence = -3\n",
    "start = 1.0\nend = 0.5\nrecords = 6\nangle_tol = 5\n",
    "start = 1.0\nend = 0.5\nrecords = 6\nangle_tol = 1.5708\n",
    "start = 1.0\nend = 0.5\nrecords = 6\ntol = 5e-8\n",
    # hooks that continue does not read
    "start = 1.0\nend = 0.5\nrecords = 6\n[test]\ninject_shift = 0.5\n",
    "start = 1.0\nend = 0.5\nrecords = 6\n[test]\ninject_broken_basis = 1\n",
])
def test_continue_invalid_path_is_config_error(tmp_path, capsys, path):
    code, _ = run_cli(tmp_path, "continue", CIRCLE_PROBLEM + "[path]\n" + path)
    assert code == 64
    assert "config error" in capsys.readouterr().err


# a circle branch that exits 0 nondegenerate on its own
CIRCLE_17_PATH = ("[problem]\ninstance = cmc_circle\nn = 17\nh = 2\n"
                  "[path]\nstart = 0.5\nend = 0.45\nrecords = 2\n")


@pytest.mark.parametrize("command, text, unread", [
    ("continue", CIRCLE_17_PATH + "toll = 1e-3\n", "[path] toll"),
    ("continue", CIRCLE_17_PATH + "[congruenc]\nt = 0.01, 0\n",
     "[congruenc] t"),
    ("continue", CIRCLE_17_PATH + "[run]\nsead = 5\n", "[run] sead"),
    ("analyze", CIRCLE_33 + "[path]\nstart = 3\n", "[path] start"),
    # settings of the march, which a single corrector polish never reads
    ("analyze", CIRCLE_33 + "[path]\nretries = 3\ndiagnostics_cadence = 5\n",
     "[path] retries, diagnostics_cadence"),
    ("analyze", CIRCLE_33 + BUNDLE_SMALL, "[bundle] lambdas, n, samples, "
     "triples"),
    ("congruence", CIRCLE_33 + "[congruence]\nt = 0.01, 0\ntols = 1e-9\n",
     "[congruence] tols"),
    # the certificate's settings too: congruence certifies nothing
    ("congruence", CIRCLE_33 + "[congruence]\nt = 0.01, 0\n[path]\n"
     "angle_tol = 1e-3\ntol_rel = 1e-3\nretries = 2\n",
     "[path] angle_tol, tol_rel, retries"),
    ("verify-bundle", BUNDLE_SMALL + "sample = 1000\n", "[bundle] sample"),
    ("verify-bundle", BUNDLE_SMALL + CIRCLE_33, "[problem] instance, n, h, "
     "lambda_hat"),
    # [DEFAULT] is an ordinary section, not keys copied into [bundle]
    ("verify-bundle", "[DEFAULT]\nsamples = 1000\n" + BUNDLE_SMALL,
     "[DEFAULT] samples"),
], ids=["continue_path_toll", "continue_congruenc", "continue_run_sead",
        "analyze_path_start", "analyze_path_march", "analyze_bundle",
        "congruence_tols", "congruence_path_certificate",
        "bundle_sample", "bundle_problem", "bundle_default"])
def test_unread_key_is_config_error(tmp_path, capsys, command, text, unread):
    code, out = run_cli(tmp_path, command, text)
    assert code == 64
    assert f"{unread}: not read by {command}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_seed_is_read_even_when_the_flag_overrides_it(tmp_path, capsys):
    code, out = run_cli(tmp_path, "analyze", "[run]\nseed = -1\n" + CIRCLE_33,
                        "--seed", "7")
    assert code == 64
    assert "[run] seed = '-1' is not valid" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    # a valid one is overridden, and the hash takes the effective seed
    unused = tmp_path / "unused"
    text = f"[run]\nseed = 5\nout = {unused}\n" + CIRCLE_33
    code, out = run_cli(tmp_path, "analyze", text, "--seed", "7")
    assert code == 0
    pay = read_report(out)
    assert pay["config"]["seed"] == 7
    assert pay["config_hash"] == content_hash(text.encode() + b"\nseed=7\n")
    assert not unused.exists()


SPHERE_PROBLEM = "[problem]\ninstance = harmonic_sphere\nn = 17\n"
# Q at lambda_hat = 3 is 7 (+) -0.5, not a metric
TORUS_PROBLEM = ("[problem]\ninstance = harmonic_torus\nn = 17\n"
                 "gram_start = 1, 0, 1\ngram_end = 3, 0, 0.5\n")


@pytest.mark.parametrize("command, text, message", [
    ("analyze", SPHERE_PROBLEM + "lambda_hat = -1\n", "curvature"),
    ("analyze", SPHERE_PROBLEM + "lambda_hat = 0\n", "curvature"),
    ("congruence", SPHERE_PROBLEM + "lambda_hat = -1\n"
     "[congruence]\nt = 0.01, 0, 0\n", "curvature"),
    ("continue", SPHERE_PROBLEM + "[path]\nstart = 0\nend = 1\n"
     "records = 3\n", "curvature"),
    ("analyze", TORUS_PROBLEM + "lambda_hat = 3\n", "positive definite"),
    ("congruence", TORUS_PROBLEM + "lambda_hat = 3\n"
     "[congruence]\nt = 0.01, 0\n", "positive definite"),
    ("continue", TORUS_PROBLEM + "[path]\nstart = 3\nend = 0\n"
     "records = 3\n", "positive definite"),
], ids=["sphere_analyze_negative", "sphere_analyze_zero", "sphere_congruence",
        "sphere_continue", "torus_analyze", "torus_congruence",
        "torus_continue"])
def test_lambda_without_an_ambient_is_config_error(tmp_path, capsys, command,
                                                   text, message):
    code, _ = run_cli(tmp_path, command, text)
    assert code == 64
    err = capsys.readouterr().err
    assert "config error" in err
    assert message in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "absent.ini")])
    assert code == 64
    assert "config error" in capsys.readouterr().err


def test_unknown_command_is_config_error(tmp_path):
    assert main(["frobnicate", "--config", "x"]) == 64


def test_congruence_requires_t(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "congruence", CIRCLE_PROBLEM)
    assert code == 64
    assert "is required" in capsys.readouterr().err


# ------------------------------------------------------------ imports

_GROUP_COMMANDS = """
import sys
from equideform.cli import main
work = sys.argv[1]
for name, command in (("circle", "congruence"), ("sphere", "congruence"),
                      ("bundle", "verify-bundle")):
    code = main([command, "--config", f"{work}/{name}.ini",
                 "--out", f"{work}/{name}"])
    assert code == 0, (name, code)
print("scipy.optimize" in sys.modules)
"""


def test_group_commands_never_import_scipy_optimize(tmp_path):
    # the orbit projection, the circle's re-extraction and the bundle
    # checks run on numpy and scipy.linalg alone
    (tmp_path / "circle.ini").write_text(
        CIRCLE_PROBLEM + "[congruence]\nt = 0.02, -0.01\n")
    (tmp_path / "sphere.ini").write_text(
        "[problem]\ninstance = harmonic_sphere\nn = 33\nlambda_hat = 2.0\n"
        "[congruence]\nt = 0.05, -0.03, 0.02\n")
    (tmp_path / "bundle.ini").write_text(BUNDLE_SMALL)
    src = Path(__file__).resolve().parent.parent / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run([sys.executable, "-c", _GROUP_COMMANDS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "False"
