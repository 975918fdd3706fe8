"""Stable JSON / CSV emission for reports and branch files.

Report payloads must be byte-identical across re-runs with the same config
and seed, so floats are always printed through the same 17-significant-digit
formatter and dictionary keys are emitted in sorted order. Timestamps and
other volatile facts live in a separate "meta" object that stability tests
are expected to ignore. JSON has no encoding for non-finite floats, so inf
and nan are emitted as strings ("inf", "-inf", "nan"); spectral gaps of
empty-kernel operators are the one place these actually occur.
"""

import hashlib
import json
import math
import time

import numpy as np


def fmt_float(x):
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _finite_floats(seq):
    # two passes in C: every item is a Python float, and the sum is finite,
    # which no inf or nan item allows (an overflowing sum of finite items
    # just takes the item-by-item path)
    return set(map(type, seq)) <= {float} and math.isfinite(sum(seq))


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) and _finite_floats(obj):
        # states and residual histories: one join, the bytes fmt_float gives
        parts.append("[" + ",".join([format(x, ".17g") for x in obj]) + "]")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_stable(obj):
    """Canonical single-line JSON: sorted keys, .17g floats, no whitespace."""
    parts = []
    _emit(obj, parts)
    return "".join(parts)


def content_hash(data):
    """Git-style blob hash (sha1 over a length-prefixed header + bytes)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def write_report(path, payload, meta=None):
    """report.json: volatile facts under "meta", stable content under "payload"."""
    doc_meta = {"written_unix": time.time(),
                "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if meta:
        doc_meta.update(meta)
    text = ('{"meta":' + dumps_stable(doc_meta)
            + ',"payload":' + dumps_stable(payload) + "}\n")
    with open(path, "w") as fh:
        fh.write(text)


def write_branch_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(dumps_stable(row))
            fh.write("\n")


def write_branch_csv(path, records, scalar_key):
    """Per-record summary: lambda_hat, residual_norm, kernel_dim, one scalar."""
    with open(path, "w") as fh:
        fh.write(f"lambda_hat,residual_norm,kernel_dim,{scalar_key}\n")
        for rec in records:
            val = rec.derived_scalars.get(scalar_key, float("nan"))
            fh.write("%s,%s,%d,%s\n" % (format(rec.lambda_hat, ".17g"),
                                        format(rec.residual_norm, ".17g"),
                                        rec.kernel_dim,
                                        format(float(val), ".17g")))
