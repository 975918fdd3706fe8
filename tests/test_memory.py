"""Memory budget of the operator paths.

Every path that touches a dense n x n operator holds at most three such
matrices at once: the grid's diff1, the Jacobi, and the one buffer the
tridiagonal reduction overwrites. The traced peak (tracemalloc sees every
numpy allocation, on every thread) is allowed four, which leaves room for
the vectors, the grid's other arrays and LAPACK workspace, and no room for a
fourth full copy. A banded operator (the profile's, on a dirichlet grid)
holds no n x n matrix and forms no kernel vectors, so its certificate gets
a budget linear in n.

continue is the one path that holds five. It certifies each record on a
worker thread while the main thread corrects the next, so two of the paths
above run at once and share only diff1: the corrector's Jacobi and bordered
buffer, and the certificate's Jacobi and scaled buffer. By the same rule it
is allowed six.
"""

import json
import tracemalloc

import pytest

from equideform.cli import main
from equideform.continuation import ContinuationConfig, corrector_step
from equideform.equivariance import nondegeneracy_report, operator_diagnostics
from equideform.errors import NoConvergence
from equideform.mesh import build_grid
from equideform.variational import circle_seed, jacobi, profile_cylinder_seed

N = 513
BUDGET = 4 * N * N * 8   # bytes of four N x N float64 matrices
BUDGET_CONTINUE = 6 * N * N * 8

ANALYZE = {
    "cmc_circle": "[problem]\ninstance = cmc_circle\nn = %d\nh = 2.0\n"
                  "lambda_hat = 0.5\n" % N,
    "cmc_profile": "[problem]\ninstance = cmc_profile\nn = %d\nh = 2.0\n"
                   "length = 1.0\n" % N,
}
# the harmonic instances have 2N unknowns, so their budget is four matrices
# of that side; the shared block assembly builds their Hessians too
BUDGET_2N = 4 * (2 * N) ** 2 * 8
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


def test_continue_holds_at_most_five_operator_matrices(tmp_path):
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
