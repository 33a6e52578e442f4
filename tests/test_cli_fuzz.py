"""The CLI's exit-code contract on drawn JSON input files.

Whatever JSON a --matrix, --channel or --effect file holds, main() must end
with 0 (checks passed), 1 (a check failed, with a report saying so) or 2
(bad input, with a diagnostic on stderr), and never let an exception escape.
The drawn documents are nested lists and dicts of numbers, strings, bools
and null, biased toward the field names and shapes the parsers look for so
that the draws reach past the first shape check.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hsdual.cli import main

_FIELDS = ["dim", "data", "type", "matrix", "weights", "parts", "dim_in", "dim_out", "rows", "cols"]

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.sampled_from(["unitary", "mixture", "super", "1/2", "1", "0.5", "1/0", 10**400])
)

_json = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=16,
)


def _matrix_doc(rows):
    return {"dim": len(rows), "data": [[x, 0] for row in rows for x in row]}


#: valid documents, so that draws also reach the checks behind the parsers
_EFFECTS = [
    _matrix_doc(r) for r in ([[1]], [[0.5]], [[1, 0], [0, 0]], [[0.5, 0], [0, 0.5]], [[0, 0], [0, 1]])
]
_UNITARIES = [
    {"type": "unitary", "matrix": _matrix_doc(r)} for r in ([[1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]])
]
_SUPER_MATRICES = [
    {"rows": 1, "cols": 1, "data": [[1, 0]]},
    {"rows": 1, "cols": 4, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
    {"rows": 4, "cols": 4, "data": [[float(r == c), 0] for r in range(4) for c in range(4)]},
]

_number = st.integers(-2, 2) | st.floats(-2, 2) | st.sampled_from([0, 1, 0.5, 10**400])
_pair = st.lists(_number, min_size=2, max_size=2)


def _entries(count):
    valid = st.lists(_pair, min_size=count, max_size=count)
    return valid | st.lists(_pair | _json, min_size=count, max_size=count)


_matrix = st.sampled_from(_EFFECTS) | st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries({"dim": st.just(n) | _json, "data": _entries(n * n) | _json})
)

_super_matrix = st.sampled_from(_SUPER_MATRICES) | st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries(
        {"rows": st.just(n) | _json, "cols": st.just(n) | _json, "data": _entries(n * n) | _json}
    )
)

_channel = st.deferred(
    lambda: st.sampled_from(_UNITARIES)
    | st.fixed_dictionaries({"type": st.just("unitary"), "matrix": _matrix | _json})
    | st.fixed_dictionaries(
        {
            "type": st.just("mixture"),
            "weights": st.sampled_from([["1"], ["1/2", 0.5], [0.25, "3/4"]])
            | st.lists(_leaves, max_size=3)
            | _json,
            "parts": st.lists(_channel, min_size=1, max_size=2) | _json,
        }
    )
    | st.fixed_dictionaries(
        {
            "type": st.just("super"),
            "dim_in": st.integers(1, 2) | _json,
            "dim_out": st.integers(1, 2) | _json,
            "matrix": _super_matrix | _json,
        }
    )
    | _json
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and "error:" in err
        return
    report = json.loads(out)
    assert report.get("pass", True) is (code == 0)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


_SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@_SETTINGS
@given(doc=_matrix | _json)
def test_classify_exit_code_contract(fuzz_dir, doc):
    _check_contract(*_run(["classify", "--matrix", _write(fuzz_dir / "matrix.json", doc)]))


@_SETTINGS
@given(channel=_channel, effect=_matrix | _json, check=st.sampled_from(["0", "2"]))
def test_wp_exit_code_contract(fuzz_dir, channel, effect, check):
    argv = [
        "wp",
        "--channel",
        _write(fuzz_dir / "channel.json", channel),
        "--effect",
        _write(fuzz_dir / "effect.json", effect),
        "--check-duality",
        check,
    ]
    _check_contract(*_run(argv))
