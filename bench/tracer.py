"""Span tracer that wraps the package's public functions from the outside.

Every public function of each equideform module is replaced by a timing
wrapper at *every* module binding: ``from .variational import jacobi`` binds
the same function as ``equideform.continuation.jacobi``,
``equideform.equivariance.jacobi`` and ``equideform.cli.jacobi``, and a call
through a binding left unpatched would escape the trace. The dense kernels
the package calls (``numpy.linalg`` svd/cond/solve/eigh/eigvalsh/lstsq,
``scipy.linalg.expm``, ``scipy.optimize.brentq``) are wrapped the same way,
as the ``linalg`` layer.

Spans (name, start, end, parent, operation id) are kept in flat arrays while
the run lasts and written out when it ends. Self time is a span's duration
minus the durations of its direct children, so within one operation the
self times of all spans sum to the operation's root span.
"""

import functools
import gzip
import hashlib
import importlib
import inspect
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "mesh", "continuation", "equivariance",
          "variational", "ambient", "lie_bundle")

EXTERNAL = (("numpy.linalg", ("svd", "cond", "solve", "eigh", "eigvalsh",
                              "lstsq")),
            ("scipy.linalg", ("expm",)),
            ("scipy.optimize", ("brentq",)))

# calls whose (state, lambda_hat) arguments are fingerprinted, to count how
# often the same evaluation is repeated
DISTINCT = ("variational.residual", "variational.jacobi",
            "variational.killing_jacobi_basis")

ROOT = "op"


def _mn(a):
    m, n = np.shape(a)[-2:]
    return max(m, n), min(m, n)


def _svd_flops(a, full_matrices=True, compute_uv=True, hermitian=False):
    # Golub & Van Loan, Matrix Computations, Golub-Reinsch SVD counts
    m, n = _mn(a)
    if not compute_uv:
        return 4 * m * n * n - 4 * n ** 3 / 3
    if full_matrices:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 14 * m * n * n + 8 * n ** 3


def _cond_flops(x, p=None):
    m, n = _mn(x)
    if p in (None, 2, -2):
        return 4 * m * n * n - 4 * n ** 3 / 3   # singular values only
    return 2 * n ** 3                          # inverse via LU


def _nrhs(a, b):
    b = np.asarray(b)
    return b.shape[-1] if b.ndim == np.ndim(a) else 1


def _solve_flops(a, b):
    n = np.shape(a)[-1]
    return 2 * n ** 3 / 3 + 2 * n * n * _nrhs(a, b)


def _eigh_flops(a, UPLO="L"):
    return 9 * np.shape(a)[-1] ** 3


def _eigvalsh_flops(a, UPLO="L"):
    return 4 * np.shape(a)[-1] ** 3 / 3


def _lstsq_flops(a, b, rcond=None):
    m, n = _mn(a)
    return 4 * m * n * n - 4 * n ** 3 / 3 + 2 * m * n * _nrhs(a, b)


FLOPS = {"linalg.svd": _svd_flops, "linalg.cond": _cond_flops,
         "linalg.solve": _solve_flops, "linalg.eigh": _eigh_flops,
         "linalg.eigvalsh": _eigvalsh_flops, "linalg.lstsq": _lstsq_flops}


def _state_key(problem, state, lambda_hat):
    digest = hashlib.blake2b(np.ascontiguousarray(state.values).tobytes(),
                             digest_size=16).digest()
    return digest, float(lambda_hat)


class Tracer:
    """Records spans of wrapped calls made inside ``operation()`` blocks."""

    def __init__(self, clock):
        self._clock = clock
        self.names = []
        self._ids = {}
        self._depth = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")    # 1 unless a same-name span is open around it
        self._stack = []
        self.op_id = -1
        self.ops = 0
        self.flops = {}
        self.distinct = {name: [0, 0, set()] for name in DISTINCT}
        self.newton_iters = 0
        self.corrector_calls = 0
        self.corrector_failed = {}
        self.branch_attempts = 0
        self.branch_accepted = 0
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def _close(self, i):
        self.end[i] = self._clock()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def operation(self, fn, *args):
        """Run fn(*args) as one operation under a root span; returns its result."""
        self.op_id = self.ops
        self.ops += 1
        i = self._open(self._intern(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.op_id = -1
            # repeated evaluations are counted within one operation
            for entry in self.distinct.values():
                entry[1] += len(entry[2])
                entry[2] = set()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._intern(name)
        flops = FLOPS.get(name)
        distinct = self.distinct.get(name)
        sig = inspect.signature(fn) if flops else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            if flops is not None:
                bound = sig.bind(*args, **kwargs)
                tracer.flops[name] = (tracer.flops.get(name, 0.0)
                                      + flops(*bound.args, **bound.kwargs))
            if distinct is not None:
                distinct[0] += 1
                distinct[2].add(_state_key(*args, **kwargs))
            calls_before = tracer.corrector_calls
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(i)
                tracer._failed(name, exc, calls_before)
                raise
            tracer._close(i)
            tracer._returned(name, result, calls_before)
            return result

        return traced

    def _returned(self, name, result, calls_before):
        if name == "continuation.corrector_step":
            self.corrector_calls += 1
            self.newton_iters += int(result[1])
        elif name == "continuation.continue_branch":
            self._branch_done(len(result), calls_before)

    def _failed(self, name, exc, calls_before):
        if name == "continuation.corrector_step":
            self.corrector_calls += 1
            cls = type(exc).__name__
            self.corrector_failed[cls] = self.corrector_failed.get(cls, 0) + 1
        elif name == "continuation.continue_branch":
            partial = getattr(exc, "partial_branch", None) or []
            self._branch_done(len(partial), calls_before)

    def _branch_done(self, records, calls_before):
        # the first corrector call polishes the seed; the rest are attempts
        # at new records, accepted or not
        self.branch_attempts += max(self.corrector_calls - calls_before - 1, 0)
        self.branch_accepted += max(records - 1, 0)

    def install(self):
        """Wrap every public function at every module binding."""
        import equideform
        modules = [importlib.import_module(f"equideform.{m}") for m in LAYERS]
        targets = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        homes = []
        for modname, attrs in EXTERNAL:
            home = importlib.import_module(modname)
            for attr in attrs:
                obj = getattr(home, attr)
                targets[id(obj)] = (obj, f"linalg.{attr}")
                homes.append((home, attr))
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for home, attr in homes:
            self._patch(home, attr, wrappers[id(getattr(home, attr))])
        for mod in [equideform] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span (duration, self time) arrays."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur, dur - child

    def op_balance(self):
        """Largest |sum of self times - root span| / root span over operations."""
        dur, own = self.self_times()
        op = np.frombuffer(self.op, dtype=np.int32)
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        total = np.bincount(op, weights=own, minlength=self.ops)
        wall = np.zeros(self.ops)
        wall[op[roots]] = dur[roots]
        return float(np.max(np.abs(total - wall) / wall)) if self.ops else 0.0

    def by_name(self):
        """{name: (calls, inclusive s, self s)} totals over all operations."""
        dur, own = self.self_times()
        nid = np.frombuffer(self.name, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        excl = np.bincount(nid, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def distinct_ratio(self, name):
        calls, distinct, _ = self.distinct[name]
        return distinct / calls if calls else 1.0

    def write(self, path):
        """Write every span as gzipped CSV: op,name,start_s,end_s,parent,self_s."""
        _, own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start_s,end_s,parent,self_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{own[i]!r}\n")
