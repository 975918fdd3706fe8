"""Golden payloads: one small config per CLI command, compared byte for byte.

Every config runs through ``equideform.cli.main`` inside one fresh
interpreter with OpenBLAS and OpenMP pinned to one thread (the report
payloads are byte-stable only at a fixed BLAS thread count). The
``payload`` text of each report.json, the exit code, and the branch.jsonl /
branch.csv bytes of the continue run must equal the files in tests/golden/.
A refactor that keeps every floating-point expression keeps these bytes.

The same cases run at one and at two BLAS threads must reach the same
verdicts, kernel and Killing dimensions, Newton counts, congruence results
and exit codes; so must an analyze and a congruence case at N = 256, a size
where OpenBLAS splits work between the two threads (no golden files).

Regenerate the files (only after a deliberate change of results) with

    PYTHONPATH=src python tests/test_golden.py

which prints every payload key that moved (old -> new; a list of numbers
as one line with its count of moved entries) and whether any decision
moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CIRCLE = "[problem]\ninstance = cmc_circle\nn = 32\nh = 2.0\n"

# name -> (command, config text)
CASES = {
    "verify_bundle": ("verify-bundle", """
[bundle]
lambdas = -1 0.5
n = 2
samples = 20
triples = 8
"""),
    "analyze_circle": ("analyze", CIRCLE + "lambda_hat = 0.5\n"),
    "analyze_profile": ("analyze", """
[problem]
instance = cmc_profile
n = 32
h = 2.0
length = 1.0
"""),
    "analyze_torus": ("analyze", """
[problem]
instance = harmonic_torus
n = 32
homotopy = 1, 1
gram_start = 1.0, 0.2, 1.5
gram_end = 2.0, -0.1, 1.0
lambda_hat = 0.5
"""),
    "analyze_sphere": ("analyze", """
[problem]
instance = harmonic_sphere
n = 33
"""),
    "continue_circle": ("continue", CIRCLE + """
[path]
start = 1.0
end = 0.5
records = 4
basin_guard = 0.05
diagnostics_cadence = 2
"""),
    "congruence_circle": ("congruence", CIRCLE + """
lambda_hat = 0.5
[congruence]
t = 0.02, -0.01
"""),
    "congruence_profile": ("congruence", """
[problem]
instance = cmc_profile
n = 32
h = 2.0
[congruence]
t =
"""),
    "congruence_torus": ("congruence", """
[problem]
instance = harmonic_torus
n = 33
homotopy = 2, 1
[congruence]
t = 0.1, -0.2
"""),
    "congruence_sphere": ("congruence", """
[problem]
instance = harmonic_sphere
n = 33
lambda_hat = 2.0
[congruence]
t = 0.05, -0.03, 0.02
"""),
}

# decisions only, never bytes: at this size the payloads differ by thread count
CIRCLE_256 = CIRCLE.replace("n = 32", "n = 256") + "lambda_hat = 0.5\n"
LARGE_CASES = {
    "analyze_circle_256": ("analyze", CIRCLE_256),
    "congruence_circle_256": ("congruence", CIRCLE_256 + """
[congruence]
t = 0.02, -0.01
"""),
}

BRANCH_FILES = {"continue_circle": ("branch.jsonl", "branch.csv")}

_DRIVER = """
import json, sys
from equideform.cli import main
work = sys.argv[1]
codes = {}
for name, command in json.loads(sys.argv[2]).items():
    codes[name] = main([command, "--config", f"{work}/{name}.ini",
                        "--out", f"{work}/{name}"])
with open(f"{work}/codes.json", "w") as fh:
    json.dump(codes, fh, sort_keys=True)
"""


def run_cases(work, threads="1", cases=CASES):
    """Run every case in one interpreter pinned to the given BLAS thread
    count; return {name: outputs}."""
    work = Path(work)
    for name, (_, text) in cases.items():
        (work / f"{name}.ini").write_text(text)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(path))
    commands = {name: cmd for name, (cmd, _) in cases.items()}
    subprocess.run([sys.executable, "-c", _DRIVER, str(work),
                    json.dumps(commands)], env=env, check=True,
                   capture_output=True)
    codes = json.loads((work / "codes.json").read_text())
    outputs = {}
    for name in cases:
        text = (work / name / "report.json").read_text()
        payload = text[text.index(',"payload":') + len(',"payload":'):-2]
        outputs[f"{name}.payload.json"] = payload + "\n"
        for fname in BRANCH_FILES.get(name, ()):
            outputs[f"{name}.{fname}"] = (work / name / fname).read_text()
    outputs["exit_codes.json"] = json.dumps(codes, sort_keys=True) + "\n"
    return outputs


def test_golden_payloads(tmp_path):
    outputs = run_cases(tmp_path)
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for fname, text in outputs.items():
        assert text == (GOLDEN / fname).read_text(), fname


def _decisions(outputs, cases):
    # what a run decides, as opposed to the roundoff in its payload bytes
    out = {"exit_codes": json.loads(outputs["exit_codes.json"])}
    for name, (command, _) in cases.items():
        pay = json.loads(outputs[f"{name}.payload.json"])
        if command == "analyze":
            rep = pay["nondegeneracy"]
            out[name] = (rep["verdict"], rep["kernel_dim"],
                         rep["killing_rank"], pay["newton_iters"])
        elif command == "congruence":
            out[name] = pay.get("congruent")
    for name in BRANCH_FILES.keys() & cases.keys():
        rows = [json.loads(line) for line in
                outputs[f"{name}.branch.jsonl"].splitlines()]
        out[name] = [(r["lambda_hat"], r["verdict"], r["kernel_dim"],
                      r["killing_rank"], r["newton_iters"]) for r in rows]
    return out


def _decisions_at_one_and_two_threads(tmp_path, cases):
    # payload bytes are promised at one thread count only; verdicts, kernel
    # and Killing dimensions, Newton counts, congruence results and exit
    # codes at every count
    decisions = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        decisions.append(_decisions(run_cases(tmp_path / threads, threads, cases),
                                    cases))
    assert decisions[0] == decisions[1]
    return decisions[0]


def test_decisions_do_not_depend_on_blas_threads(tmp_path):
    decisions = _decisions_at_one_and_two_threads(tmp_path, CASES)
    assert len(decisions["continue_circle"]) == 4


def test_decisions_at_n256_do_not_depend_on_blas_threads(tmp_path):
    decisions = _decisions_at_one_and_two_threads(tmp_path, LARGE_CASES)
    assert decisions["analyze_circle_256"][:3] == ("nondegenerate", 2, 2)
    assert decisions["congruence_circle_256"] is True
    assert set(decisions["exit_codes"].values()) == {0}


def _leaves(fname, text):
    # {key: value} of a golden file's scalar leaves, and of its lists of
    # numbers taken whole
    if fname.endswith(".csv"):
        return {f"{fname}:{i}": line for i, line in enumerate(text.splitlines())}
    docs = ([json.loads(text)] if fname.endswith(".json") else
            [json.loads(line) for line in text.splitlines()])
    out = {}

    def walk(key, x):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(f"{key}.{k}", v)
        elif isinstance(x, list) and not all(
                isinstance(v, (int, float)) for v in x):
            for i, v in enumerate(x):
                walk(f"{key}[{i}]", v)
        else:
            out[key] = x

    for i, doc in enumerate(docs):
        walk(fname if len(docs) == 1 else f"{fname}:{i}", doc)
    return out


def _moves(old, new):
    """Lines naming every moved key of the golden files, old -> new."""
    lines = []
    for fname in sorted(old.keys() | new.keys()):
        a = _leaves(fname, old[fname]) if fname in old else {}
        b = _leaves(fname, new[fname]) if fname in new else {}
        for key in sorted(a.keys() | b.keys()):
            x, y = a.get(key), b.get(key)
            if x == y:
                continue
            if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
                moved = sum(u != v for u, v in zip(x, y))
                dev = max(abs(u - v) for u, v in zip(x, y))
                lines.append(f"{key}: {moved} of {len(x)} entries moved, "
                             f"largest by {dev:.3g}")
            else:
                lines.append(f"{key}: {x!r} -> {y!r}")
    return lines


def _report_moves(old, new):
    for line in _moves(old, new):
        print(line)
    try:
        before, after = _decisions(old, CASES), _decisions(new, CASES)
    except (KeyError, ValueError):
        print("decisions: no complete earlier goldens to compare")
        return
    moved = [k for k in after if before.get(k) != after[k]]
    for k in moved:
        print(f"decision {k}: {before.get(k)!r} -> {after[k]!r}")
    print("decisions moved: " + (", ".join(moved) if moved else "none"))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        old = {p.name: p.read_text() for p in GOLDEN.iterdir()}
        new = run_cases(tmp)
        _report_moves(old, new)
        for fname, text in new.items():
            (GOLDEN / fname).write_text(text)
