import re

import numpy as np
import pytest
from scipy.linalg import lapack

_attempted = {}
_passed = {}


@pytest.fixture
def acceptance(request):
    """Register the criterion a test covers; call the result to mark it passed.

    The terminal summary prints one PASS/FAIL line per attempted criterion,
    so a test that dies before calling the recorder shows up as FAIL.
    """
    match = re.search(r"criterion_(\d+)", request.node.name)
    assert match, "acceptance tests must be named test_criterion_<k>_..."
    k = int(match.group(1))
    _attempted[k] = request.node.name

    def record(detail):
        _passed[k] = str(detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _attempted:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(_attempted):
        if k in _passed:
            terminalreporter.write_line(f"ACCEPTANCE {k}: PASS - {_passed[k]}")
        else:
            terminalreporter.write_line(f"ACCEPTANCE {k}: FAIL ({_attempted[k]})")


@pytest.fixture
def failing_linalg(monkeypatch):
    """Make the symmetric reduction and numpy's svd raise LinAlgError after
    a budget of calls.

    The reduction behind the corrector and the kernel is LAPACK dsytrd,
    looked up in scipy.linalg.lapack at each call, so that is where it is
    armed. Call the result with the budget (None never fails); it returns a
    dict counting the patched "calls" and the "failed" ones among them.
    """
    counts = {"calls": 0, "failed": 0, "budget": None}

    def wrap(decomposition):
        def patched(*args, **kwargs):
            counts["calls"] += 1
            budget = counts["budget"]
            if budget is not None and counts["calls"] > budget:
                counts["failed"] += 1
                raise np.linalg.LinAlgError("injected factorization failure")
            return decomposition(*args, **kwargs)
        return patched

    monkeypatch.setattr(np.linalg, "svd", wrap(np.linalg.svd))
    monkeypatch.setattr(lapack, "dsytrd", wrap(lapack.dsytrd))

    def arm(budget):
        counts.update(calls=0, failed=0, budget=budget)
        return counts

    return arm
