"""The benchmark's workloads: the CLI calls each one makes and the check of
every call's output.

An operation is one ``equideform.cli.main`` call. A pass is the shortest
sequence of operations that covers a workload's whole input mix; the
harness only ever times whole passes, so every run measures the same mix.

``size="full"`` is the benchmark; ``size="smoke"`` runs the same code paths
at N = 32/33 so the harness and its checks can be exercised in seconds.
"""

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from equideform.mesh import build_grid
from equideform.variational import (circle_seed, profile_cylinder_seed,
                                    sphere_equator_seed, torus_line_seed)

# (instance, N at full size, N at smoke size, extra [problem] keys,
#  expected Killing rank). The N=1024 circle and profile inputs come back
# `indeterminate` at this revision because the kernel threshold grows with N;
# they stay at that size so the defect shows as uncertified operations.
CERTIFY_INPUTS = (
    ("cmc_circle", 1024, 32, {"h": 2.0, "lambda_hat": 0.5}, 2),
    ("cmc_profile", 1024, 32, {"h": 2.0, "length": 1.0}, 0),
    ("harmonic_torus", 513, 33, {}, 2),
    ("harmonic_sphere", 513, 33, {}, 3),
)

BRANCH_H = 2.0
BRANCH_START, BRANCH_END, BRANCH_RECORDS = 1.0, -3.0, 61
RADIUS_TOL = 1e-8          # the circle-branch acceptance test's tolerance
CONGRUENCE_MOTIONS = 2     # congruence operations per certify-large pass
CONGRUENCE_T_TOL = 1e-6    # recovered vs applied group parameters
# a quarter of the default verify-bundle work, so that the dense analyze
# operations stay the middle of the pass and set its median
BUNDLE_FULL = {"samples": 50, "triples": 25}
BUNDLE_SMOKE = {"samples": 20, "triples": 10}


# An operation's status after its check. OK: the expected answer.
# UNCERTIFIED: analyze exited 2 with verdict `indeterminate`, the documented
# answer when it cannot certify a separation; not wrong, but not the
# nondegenerate certificate either, so it lowers `certified_ratio`.
# FAILED: it raised, exited with another code, or wrote a wrong answer.
OK, UNCERTIFIED, FAILED = "ok", "uncertified", "failed"


@dataclass(frozen=True)
class Operation:
    label: str          # e.g. "analyze:cmc_circle"
    command: str        # equideform subcommand
    config: str         # INI text written to the config file
    check: object       # check(rc, outdir) -> (status, records written, note)
    problem: tuple = None   # (instance, N, keys) the CLI call builds


def _ini(sections):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def _payload(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)["payload"]


def circle_radius(lam, H):
    """Radius of the geodesic circle of curvature H at curvature lam.

    Solves sn'(rho)/sn(rho) = H in closed form, independently of the
    package's own helper, so the branch is checked against an outside oracle.
    """
    if lam > 0.0:
        s = math.sqrt(lam)
        return math.atan(s / H) / s
    if lam == 0.0:
        return 1.0 / H
    s = math.sqrt(-lam)
    return math.atanh(s / H) / s


def _check_branch(rc, outdir):
    with open(os.path.join(outdir, "branch.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    if rc != 0 or len(rows) != BRANCH_RECORDS:
        return FAILED, len(rows), f"exit {rc}, {len(rows)} records"
    for row in rows:
        if row["verdict"] != "nondegenerate" or row["kernel_dim"] != 2 \
                or row["killing_rank"] != 2:
            return FAILED, len(rows), (f"record at {row['lambda_hat']}: "
                                       f"{row['verdict']} kernel "
                                       f"{row['kernel_dim']}/{row['killing_rank']}")
        err = abs(float(np.mean(row["state"]))
                  - circle_radius(row["lambda_hat"], BRANCH_H))
        if not err < RADIUS_TOL:
            return FAILED, len(rows), (f"radius error {err:.2e} at "
                                       f"{row['lambda_hat']}")
    return OK, len(rows), ""


def _check_analyze(killing_rank):
    def check(rc, outdir):
        rep = _payload(outdir).get("nondegeneracy")
        if rep is None:
            return FAILED, 0, f"exit {rc}, no verdict"
        note = (f"exit {rc}, {rep['verdict']} kernel "
                f"{rep['kernel_dim']}/{rep['killing_rank']}")
        if rep["killing_rank"] != killing_rank:
            return FAILED, 1, note
        if rc == 0 and rep["verdict"] == "nondegenerate" and \
                rep["kernel_dim"] == killing_rank:
            return OK, 1, ""
        if rc == 2 and rep["verdict"] == "indeterminate":
            return UNCERTIFIED, 1, note
        return FAILED, 1, note
    return check


def _check_bundle(rc, outdir):
    failed = [c["name"] for c in _payload(outdir)["checks"] if not c["passed"]]
    if rc != 0 or failed:
        return FAILED, 0, f"exit {rc}, failed checks {failed}"
    return OK, 0, ""


def _check_congruence(rc, outdir):
    rep = _payload(outdir)
    if "congruent" not in rep:
        return FAILED, 0, f"exit {rc}, no verdict"
    err = float(np.max(np.abs(np.subtract(rep["recovered_t"], rep["applied_t"]))))
    if rc != 0 or not rep["congruent"] or not err < CONGRUENCE_T_TOL:
        return FAILED, 1, (f"exit {rc}, congruent={rep['congruent']}, "
                           f"t error {err:.2e}")
    return OK, 1, ""


def _circle_branch(rng, size):
    n = 256 if size == "full" else 32
    problem = {"instance": "cmc_circle", "n": n, "h": BRANCH_H}
    path = {"start": BRANCH_START, "end": BRANCH_END,
            "records": BRANCH_RECORDS, "basin_guard": 0.05}
    return [Operation("continue:cmc_circle", "continue",
                      _ini({"problem": problem, "path": path}), _check_branch,
                      ("cmc_circle", n,
                       {"h": BRANCH_H, "lambda_hat": BRANCH_START}))]


def _certify_large(rng, size):
    """The four analyze inputs, plus the group-motion operations.

    The group code (verify-bundle, and congruence on cmc_circle N=128 under
    seeded motions |t| <= 0.05) is interpreter-bound, and on a shared host
    its speed swings by up to 1.8x over minutes; as a workload of its own its
    run-to-run spread exceeded every admissible bound. Here it is about a
    sixth of the pass, so it is measured and traced while the dense analyze
    operations keep the pass steady.
    """
    ops = []
    for instance, n_full, n_smoke, keys, rank in CERTIFY_INPUTS:
        n = n_full if size == "full" else n_smoke
        problem = dict({"instance": instance, "n": n}, **keys)
        ops.append(Operation(f"analyze:{instance}", "analyze",
                             _ini({"problem": problem}), _check_analyze(rank),
                             (instance, n, keys)))
    bundle = BUNDLE_FULL if size == "full" else BUNDLE_SMOKE
    ops.append(Operation("verify-bundle", "verify-bundle",
                         _ini({"bundle": bundle}), _check_bundle))
    n = 128 if size == "full" else 32
    keys = {"h": 2.0, "lambda_hat": 0.5}
    for _ in range(CONGRUENCE_MOTIONS):
        v = rng.standard_normal(2)
        t = v / np.linalg.norm(v) * 0.05 * rng.uniform(0.3, 1.0)
        cfg = _ini({"problem": dict({"instance": "cmc_circle", "n": n}, **keys),
                    "congruence": {"t": f"{float(t[0])!r}, {float(t[1])!r}"}})
        ops.append(Operation("congruence:cmc_circle", "congruence", cfg,
                             _check_congruence, ("cmc_circle", n, keys)))
    # the seed fixes the motions and the order within the pass, never the mix
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "circle-branch": _circle_branch,
    "certify-large": _certify_large,
}


def make_pass(workload, seed, size):
    """The operations of one pass; the same seed gives the same pass."""
    return WORKLOADS[workload](np.random.default_rng(seed), size)


def write_configs(ops, workdir, seed):
    """Write each operation's config file; returns (argv, outdir) pairs."""
    calls = []
    for i, op in enumerate(ops):
        cfg = os.path.join(workdir, f"op{i}.ini")
        with open(cfg, "w") as fh:
            fh.write(op.config)
        outdir = os.path.join(workdir, f"out{i}")
        calls.append(([op.command, "--config", cfg, "--out", outdir,
                       "--seed", str(seed)], outdir))
    return calls


def build_inputs(ops):
    """Build every grid and analytic seed the pass's configs describe.

    This is the part of a CLI call that precedes the solve; the set-up probe
    times it in a fresh interpreter. Returns the seconds spent in build_grid.
    """
    grid_s = 0.0
    for op in ops:
        if op.problem is None:
            continue
        instance, n, keys = op.problem
        t0 = time.perf_counter()
        if instance == "cmc_profile":
            grid = build_grid("dirichlet", n, 4, a=0.0, b=keys["length"])
        else:
            grid = build_grid("periodic", n, "spectral")
        grid_s += time.perf_counter() - t0
        if instance == "cmc_circle":
            circle_seed(keys["lambda_hat"], keys["h"], grid)
        elif instance == "cmc_profile":
            profile_cylinder_seed(keys["h"], grid)
        elif instance == "harmonic_torus":
            torus_line_seed((1, 0), grid, np.eye(2), np.eye(2))
        else:
            sphere_equator_seed(grid)
    return grid_s
