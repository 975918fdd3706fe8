import json
import subprocess

import numpy as np
import pytest

from equideform.serialize import (content_hash, dumps_stable, fmt_float,
                                  write_report)


def test_fmt_float_cases():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(1.0) == "1"
    assert fmt_float(np.nan) == '"nan"'
    assert fmt_float(np.inf) == '"inf"'
    assert fmt_float(-np.inf) == '"-inf"'


def test_dumps_stable_canonical_form():
    out = dumps_stable({"b": [1, 2.5], "a": {"y": True, "x": None}})
    assert out == '{"a":{"x":null,"y":true},"b":[1,2.5]}'
    # key order in the input must not matter
    assert out == dumps_stable({"a": {"x": None, "y": True}, "b": (1, 2.5)})


def test_dumps_stable_numpy_and_rejects_unknown():
    out = dumps_stable({"v": np.array([1.0, 2.0]), "n": np.int64(3),
                        "f": np.float64(0.5)})
    assert out == '{"f":0.5,"n":3,"v":[1,2]}'
    with pytest.raises(TypeError):
        dumps_stable({"bad": object()})


def test_dumps_stable_parse_then_redump_is_identity():
    payload = {"g": float("inf"), "vals": [0.1, -3.5e-11, 7],
               "nested": {"k": "text", "flag": False}}
    text = dumps_stable(payload)
    assert dumps_stable(json.loads(text)) == text


def test_content_hash_matches_git_blob():
    data = b"stable content 123\n"
    expect = subprocess.run(["git", "hash-object", "--stdin"], input=data,
                            capture_output=True, check=True)
    assert content_hash(data) == expect.stdout.decode().strip()
    assert content_hash(data.decode()) == content_hash(data)


def test_write_report_separates_meta(tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    payload = {"answer": 42, "gap": float("inf")}
    write_report(p1, payload)
    write_report(p2, payload)
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    assert set(d1) == {"meta", "payload"}
    assert d1["payload"] == d2["payload"] == {"answer": 42, "gap": "inf"}
    assert "written_unix" in d1["meta"]
    # the payload segment is byte-identical across writes
    seg1 = p1.read_text().split(',"payload":', 1)[1]
    seg2 = p2.read_text().split(',"payload":', 1)[1]
    assert seg1 == seg2


def test_float_lists_print_as_their_items_do():
    # lists of finite Python floats take a one-join path; any other list,
    # including one whose sum overflows, goes item by item: same bytes
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.integers(-300, 300, 300)
    cases = [list(rng.standard_normal(300) * scales),
             [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1],
             [1e308, 1e308], [1.0, float("nan")], [float("-inf"), 2.0],
             [1.0, 2], [True, 1.0], [np.float64(0.5), 0.25], []]
    for items in cases:
        want = "[" + ",".join(dumps_stable(x) for x in items) + "]"
        assert dumps_stable(items) == want
        assert dumps_stable(tuple(items)) == want
