"""Smoke tests of the benchmark harness at N = 32/33.

    python3 -m pytest bench/

They run every workload end to end through run.py, a traced run, the output
checks on deliberately wrong outputs, and the refusal to run without the
package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run as harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    out = result(run_bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0        # every input is certifiable at small N
    assert out["attempted"] > harness.TAIL_BEYOND + 1   # warm-up + timed
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_layers_and_balances():
    out = result(run_bench("circle-branch", 1))
    assert out["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.self_time_balance"] < 1e-9
    assert m["continuation.corrector_step.calls"] == 61
    assert m["continuation.newton_iters"] > 0
    assert 0.0 < m["variational.killing_jacobi_basis.distinct_ratio"] <= 1.0
    assert (BENCH / "_out" / "spans-circle-branch.csv.gz").is_file()


def test_tracer_wraps_every_binding():
    import importlib

    import numpy

    import equideform
    originals = {(mod.__name__, name): obj
                 for mod in [equideform] + [
                     importlib.import_module(f"equideform.{m}")
                     for m in tracer.LAYERS]
                 for name, obj in vars(mod).items()
                 if callable(obj) and not name.startswith("_")
                 and getattr(obj, "__module__", "").startswith("equideform")
                 and not isinstance(obj, type)}
    svd = numpy.linalg.svd
    tr = tracer.Tracer(lambda: 0.0)
    tr.install()
    try:
        for (modname, name), obj in originals.items():
            wrapped = getattr(sys.modules[modname], name)
            assert getattr(wrapped, "__wrapped__", None) is obj, (modname, name)
        assert equideform.continuation.jacobi is equideform.cli.jacobi
        assert numpy.linalg.svd is not svd
    finally:
        tr.uninstall()
    assert numpy.linalg.svd is svd
    for (modname, name), obj in originals.items():
        assert getattr(sys.modules[modname], name) is obj


def test_self_times_sum_to_operation():
    ticks = iter(range(100))
    tr = tracer.Tracer(lambda: float(next(ticks)))
    inner = tr._wrap("x.inner", lambda: None)
    outer = tr._wrap("x.outer", lambda: (inner(), inner()))
    tr.operation(outer)
    dur, own = tr.self_times()
    assert dur[0] == own.sum()
    assert tr.op_balance() == 0.0
    assert tr.by_name()["x.inner"][0] == 2


def _write(path, payload, extra=None):
    path.mkdir(parents=True, exist_ok=True)
    (path / "report.json").write_text(json.dumps({"meta": {}, "payload": payload}))
    for name, text in (extra or {}).items():
        (path / name).write_text(text)


def test_checks_reject_wrong_outputs(tmp_path):
    check = workloads._check_analyze(2)
    rep = {"nondegeneracy": {"verdict": "nondegenerate", "kernel_dim": 2,
                             "killing_rank": 2}}
    _write(tmp_path / "a", rep)
    assert check(0, tmp_path / "a")[0] == workloads.OK
    rep["nondegeneracy"]["kernel_dim"] = 3
    _write(tmp_path / "b", rep)
    assert check(0, tmp_path / "b")[0] == workloads.FAILED
    rep["nondegeneracy"]["verdict"] = "indeterminate"
    _write(tmp_path / "b2", rep)
    assert check(2, tmp_path / "b2")[0] == workloads.UNCERTIFIED
    assert check(0, tmp_path / "b2")[0] == workloads.FAILED
    rep["nondegeneracy"]["verdict"] = "degenerate"
    _write(tmp_path / "b3", rep)
    assert check(2, tmp_path / "b3")[0] == workloads.FAILED

    cong = {"congruent": True, "applied_t": [0.01, 0.02],
            "recovered_t": [0.01, 0.02 + 1e-5]}
    _write(tmp_path / "c", cong)
    assert workloads._check_congruence(0, tmp_path / "c")[0] == workloads.FAILED

    rows = []
    for i in range(workloads.BRANCH_RECORDS):
        lam = 1.0 - 4.0 * i / (workloads.BRANCH_RECORDS - 1)
        rho = workloads.circle_radius(lam, workloads.BRANCH_H)
        rows.append({"lambda_hat": lam, "verdict": "nondegenerate",
                     "kernel_dim": 2, "killing_rank": 2, "state": [rho] * 8})
    good = "".join(json.dumps(r) + "\n" for r in rows)
    _write(tmp_path / "d", {}, {"branch.jsonl": good})
    assert workloads._check_branch(0, tmp_path / "d") == (workloads.OK, 61, "")
    rows[30]["state"] = [rows[30]["state"][0] + 1e-7] * 8
    bad = "".join(json.dumps(r) + "\n" for r in rows)
    _write(tmp_path / "e", {}, {"branch.jsonl": bad})
    assert workloads._check_branch(0, tmp_path / "e")[0] == workloads.FAILED


def test_closed_form_radius_matches_package():
    from equideform.variational import cmc_circle_radius
    for lam in (1.0, 0.5, 0.0, -1.0, -3.0):
        assert abs(workloads.circle_radius(lam, 2.0)
                   - cmc_circle_radius(lam, 2.0)) < 1e-15


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench("circle-branch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_workload_names_agree():
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(harness.WORKLOADS) == set(workloads.WORKLOADS) == names


def test_predictions_name_real_metrics():
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    loads = {w["name"] for w in SPEC["workloads"]}
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert predictions
    for p in predictions:
        assert set(p["layer_metrics"]) <= names, p
        for key in ("moves", "unmoved"):
            for target in p[key]:
                assert target["metric"] in names, target
                assert target["workload"] in loads, target
