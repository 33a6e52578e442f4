"""The CLI's exit-code contract on drawn JSON input files and argument vectors.

Whatever JSON a --matrix, --channel or --effect file holds, and whatever
flags and values argv carries, main() must end with 0 (checks passed), 1 (a
check failed, with a report saying so) or 2 (bad input, with a diagnostic on
stderr), and never let an exception escape.  The drawn documents are nested
lists and dicts of numbers, strings, bools and null, biased toward the field
names and shapes the parsers look for so that the draws reach past the first
shape check.  The drawn argument vectors keep every run cheap: dimensions up
to 3, at most 3 seeds and 20 law samples.
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


# --- argument vectors ---------------------------------------------------------

_bad_numbers = st.sampled_from(["", "nan", "inf", "-inf", "0", "-1", "1.5", "1e309", "x"])
_tol = st.floats(5e-324, 1e308).map(repr) | st.sampled_from(["5e-324", "1e-16", "1e308"])
_seed = st.integers(0, 10**30).map(str)


def _count(high):
    return st.integers(1, high).map(str)


def _flat(groups):
    return [token for group in groups for token in group]


def _args(*pairs):
    """A strategy for the flat argv of (flag, value strategy) pairs."""
    return st.tuples(*(v.map(lambda x, f=f: [f, x]) for f, v in pairs)).map(_flat)


#: A valid argument list per subcommand, which the noise below then mangles.
#: The file names refer to the files ``argv_files`` writes.
_VALID = {
    "classify": _args(("--matrix", st.just("effect.json"))),
    "duality-roundtrip": _args(
        ("--kind", st.sampled_from(["bounded", "self-adjoint", "positive", "effect", "density"])),
        ("--dim", _count(3)),
        ("--seeds", _count(3)),
    ),
    "laws": _args(
        ("--instance", st.sampled_from(["interval", "powerset", "effects", "projections"])),
        ("--dim", _count(3)),
        ("--samples", _count(20)),
    )
    | st.just(["--suite", "monad"]),
    "free-iso": _args(
        ("--which", st.sampled_from(["s", "r", "c", "chain"])), ("--dim", _count(3)), ("--seeds", _count(3))
    ),
    "wp": _args(
        ("--channel", st.just("channel.json")),
        ("--effect", st.just("effect.json")),
        ("--check-duality", st.integers(0, 3).map(str)),
    ),
}

#: Hostile values per flag beside valid ones; a flag may also come repeated,
#: without its value, or under the wrong subcommand.
_NOISE_VALUES = {
    "--tol": _tol | _bad_numbers,
    "--seed": _seed | _bad_numbers,
    "--kind": st.sampled_from(["bounded", "density", "", "x"]),
    "--dim": st.integers(-1, 3).map(str) | _bad_numbers,
    "--seeds": st.integers(-1, 3).map(str) | _bad_numbers,
    "--check-duality": st.integers(-1, 3).map(str) | _bad_numbers,
    "--samples": st.integers(-1, 20).map(str) | _bad_numbers,
    "--suite": st.sampled_from(["monad", "", "x"]),
    "--instance": st.sampled_from(["interval", "projections", "", "x"]),
    "--which": st.sampled_from(["r", "chain", "", "x"]),
    "--matrix": st.sampled_from(["effect.json", "channel.json", "absent.json", ""]),
    "--channel": st.sampled_from(["channel.json", "effect.json", "absent.json", ""]),
    "--effect": st.sampled_from(["effect.json", "channel.json", "absent.json", ""]),
}

_noise = st.lists(
    st.sampled_from(sorted(_NOISE_VALUES)).flatmap(
        lambda flag: _NOISE_VALUES[flag].map(lambda v: [flag, v]) | st.just([flag])
    )
    | st.sampled_from(["--pretty", "--bogus", "-x", "--", "--tol=", "--dim=2.5", "bogus", ""]).map(
        lambda token: [token]
    ),
    max_size=3,
).map(_flat)

#: global flags, then the noise before or after the subcommand and its flags
_argv = st.sampled_from(sorted(_VALID)).flatmap(
    lambda command: st.tuples(
        _args(("--tol", _tol), ("--seed", _seed)), _VALID[command], _noise, st.booleans()
    ).map(
        lambda p: p[0] + (p[2] + [command] + p[1] if p[3] else [command] + p[1] + p[2])
    )
)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    _write(root / "effect.json", _EFFECTS[3])
    _write(root / "channel.json", _UNITARIES[2])
    return root


@_SETTINGS
@given(argv=_argv)
def test_argv_exit_code_contract(argv_files, argv):
    argv = [str(argv_files / t) if t.endswith(".json") else t for t in argv]
    try:
        result = _run(argv)
    except SystemExit as exc:  # argparse rejects the vector
        assert exc.code == 2, argv
        return
    _check_contract(*result)
