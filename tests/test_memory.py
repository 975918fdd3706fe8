"""Memory budget of the operator paths.

Every path that touches a dense n x n operator holds at most two such
matrices at once: the grid's diff1 and one Fortran-ordered buffer. The
Jacobi is assembled into that buffer a block of columns at a time, and the
reduction overwrites it in place: scaled by W^-1/2 for the certificate, or
as the top-left block of the bordered matrix for a corrector Newton step,
which is assembled there with no Jacobi beside it. The traced peak
(tracemalloc sees every numpy allocation, on every thread) is allowed
three, which leaves room for the vectors, the column blocks of the
assembly, the grid's other arrays and LAPACK workspace, and no room for a
second copy of W J. The harmonic instances have 2N unknowns, so their
diff1 (N x N) is a quarter of one of their matrices; they are allowed two
matrices of side 2N, which a second copy of W J would also exceed. A
banded operator (the profile's, on a dirichlet grid) holds no n x n matrix
and forms no kernel vectors, so its certificate gets a budget linear in n.

continue is the one path that holds three. It certifies each record on a
worker thread while the main thread corrects the next, so two of the paths
above run at once and share only diff1: the corrector's bordered buffer
and the certificate's buffer. By the same rule it is allowed four.
"""

import json
import tracemalloc

import numpy as np
import pytest

from equideform.cli import main
from equideform.continuation import ContinuationConfig, corrector_step
from equideform.equivariance import nondegeneracy_report, operator_diagnostics
from equideform.errors import NoConvergence
from equideform.mesh import build_grid
from equideform.variational import (ProblemState, circle_seed, jacobi,
                                    profile_cylinder_seed, torus_line_seed)

N = 513
BUDGET = 3 * N * N * 8   # bytes of three N x N float64 matrices
BUDGET_CONTINUE = 4 * N * N * 8

ANALYZE = {
    "cmc_circle": "[problem]\ninstance = cmc_circle\nn = %d\nh = 2.0\n"
                  "lambda_hat = 0.5\n" % N,
    "cmc_profile": "[problem]\ninstance = cmc_profile\nn = %d\nh = 2.0\n"
                   "length = 1.0\n" % N,
}
# the harmonic instances have 2N unknowns, so their budget is two matrices
# of that side; the shared block assembly builds their Hessians too
BUDGET_2N = 2 * (2 * N) ** 2 * 8
ANALYZE_2N = {
    "harmonic_torus": "[problem]\ninstance = harmonic_torus\nn = %d\n"
                      "homotopy = 1, 1\ngram_end = 2.0, 0.3, 1.0\n"
                      "lambda_hat = 0.5\n" % N,
    "harmonic_sphere": "[problem]\ninstance = harmonic_sphere\nn = %d\n" % N,
}


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.mark.parametrize("instance", sorted(ANALYZE) + sorted(ANALYZE_2N))
def test_analyze_holds_at_most_three_operator_matrices(tmp_path, instance):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text({**ANALYZE, **ANALYZE_2N}[instance])
    budget = BUDGET if instance in ANALYZE else BUDGET_2N
    out = tmp_path / "out"
    peak, code = _traced_peak(
        lambda: main(["analyze", "--config", str(cfg), "--out", str(out)]))
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert code in (0, 2) and "nondegeneracy" in payload
    assert peak <= budget, f"traced peak {peak / 2**20:.1f} MiB"


def test_continue_holds_at_most_four_operator_matrices(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ANALYZE["cmc_circle"]
                   + "[path]\nstart = 1.0\nend = 0.8\nrecords = 3\n"
                     "basin_guard = 0.05\n")
    out = tmp_path / "out"
    peak, code = _traced_peak(
        lambda: main(["continue", "--config", str(cfg), "--out", str(out)]))
    assert code == 0
    assert json.loads((out / "report.json").read_text())["payload"][
        "records"] == 3
    assert peak <= BUDGET_CONTINUE, f"traced peak {peak / 2**20:.1f} MiB"


def _newton_peak(max_newton):
    lam = 0.8

    def polish():
        # the grid is built inside the traced region, like analyze's
        prob, guess = circle_seed(lam + 0.1, 2.0, build_grid("periodic", N))
        config = ContinuationConfig.polish(lam, basin_guard=0.05,
                                           max_newton=max_newton)
        try:
            return corrector_step(prob, guess, lam, config)[1]
        except NoConvergence as exc:
            assert f"after {max_newton} iterations" in str(exc)
            return max_newton

    return _traced_peak(polish)


def test_one_newton_step_holds_at_most_three_operator_matrices():
    peak, iters = _newton_peak(max_newton=1)
    assert iters == 1
    assert peak <= BUDGET, f"traced peak {peak / 2**20:.1f} MiB"


def test_bordered_newton_step_of_a_2n_instance_holds_one_operator_matrix():
    # the torus, bumped off its critical line, takes a Newton step bordered
    # by its two Killing columns; W J is assembled into the top-left block
    # of the (2N + 2)^2 buffer the step reduces, with no Jacobi beside it
    lam = 0.5

    def polish():
        grid = build_grid("periodic", N)
        prob, st = torus_line_seed((1, 1), grid, np.eye(2),
                                   np.array([[2.0, 0.3], [0.3, 1.0]]))
        bump = 1e-4 * np.concatenate([np.cos(2 * grid.nodes),
                                      np.sin(3 * grid.nodes)])
        config = ContinuationConfig.polish(lam, basin_guard=0.05,
                                           max_newton=1)
        try:
            return corrector_step(prob, ProblemState(st.values + bump), lam,
                                  config)[2]["reductions"]
        except NoConvergence as exc:
            assert "after 1 iterations" in str(exc)
            return 1

    peak, reductions = _traced_peak(polish)
    assert reductions == 1
    assert peak <= BUDGET_2N, f"traced peak {peak / 2**20:.1f} MiB"


def test_later_newton_steps_do_not_keep_the_last_reduction():
    # the previous step's reduction buffer must be gone before the next
    # step assembles its Jacobi
    peak, iters = _newton_peak(max_newton=12)
    assert iters >= 2
    assert peak <= BUDGET, f"traced peak {peak / 2**20:.1f} MiB"


# The profile certificate at the top of the CLI's range. Its n = 4094
# unknowns would take 134 MB as one n x n matrix; the budget is 32 float64
# values per unknown, 1.0 MB. The kernel cut grows like N^3 (the
# N-dependent verdict), so this operator counts d = 48 kernel eigenvalues,
# but a band operator forms no kernel vectors: the peak (22.3 n measured) is
# the band assembly of W J from the form's node arrays, and the
# certificate, which holds the band, its scaled copy and the spectrum,
# stays below it. Forming the 48 vectors would add 96 n.
N_BAND = 4096
BUDGET_BAND = 32 * (N_BAND - 2) * 8


def test_banded_profile_certificate_holds_no_operator_matrix():
    prob, seed = profile_cylinder_seed(
        2.0, build_grid("dirichlet", N_BAND, 4, a=0.0, b=1.0))

    def certify():
        J = jacobi(prob, seed, 0.0)
        rep = nondegeneracy_report(prob, seed, 0.0, operator=J)
        return rep, operator_diagnostics(J, prob, seed, 0.0)

    peak, (rep, diag) = _traced_peak(certify)
    assert rep.killing_rank == 0 and rep.verdict in ("nondegenerate",
                                                      "indeterminate")
    assert diag.symmetry_residual == 0.0
    assert peak <= BUDGET_BAND, f"traced peak {peak / 2**20:.2f} MiB"
