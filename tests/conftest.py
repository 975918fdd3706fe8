import re
import threading

import numpy as np
import pytest

from equideform import mesh

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
    called through its binding in mesh._LAPACK, so that is where it is
    armed.
    continue_branch certifies on a worker thread while the main
    thread corrects, so calls are counted per thread, "main" and "worker",
    each against its own budget: within one thread the order of the calls
    is fixed, across the two it is not. Call the result with the budget (an
    int for both threads, a dict by thread such as an earlier run's
    "calls", or None, which never fails); it returns a dict counting the
    patched "calls" by thread and the "failed" ones among them.
    """
    counts = {"calls": {"main": 0, "worker": 0}, "failed": 0, "budget": None}
    lock = threading.Lock()

    def wrap(decomposition):
        def patched(*args, **kwargs):
            thread = ("main" if threading.current_thread()
                      is threading.main_thread() else "worker")
            with lock:
                counts["calls"][thread] += 1
                budget = counts["budget"]
                if isinstance(budget, dict):
                    budget = budget[thread]
                fail = budget is not None and counts["calls"][thread] > budget
                counts["failed"] += fail
            if fail:
                raise np.linalg.LinAlgError("injected factorization failure")
            return decomposition(*args, **kwargs)
        return patched

    monkeypatch.setattr(np.linalg, "svd", wrap(np.linalg.svd))
    monkeypatch.setitem(mesh._LAPACK, "dsytrd", wrap(mesh._LAPACK["dsytrd"]))

    def arm(budget):
        counts.update(calls={"main": 0, "worker": 0}, failed=0, budget=budget)
        return counts

    return arm
