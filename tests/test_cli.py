"""End-to-end checks of the command-line interface.

main() is invoked in-process with explicit argv; stdout is one JSON document
per run, captured via capsys.  Subprocess tests pin the module entry point
and its exit code when the reader of stdout has gone.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsdual import cli, free
from hsdual.cli import main
from hsdual.linalg import identity
from hsdual.operators import OperatorKind, classify, sample


def _write_matrix(path, rows):
    dim = len(rows)
    doc = {"dim": dim, "data": [[float(z.real), float(z.imag)] for row in rows for z in map(complex, row)]}
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def half_identity(tmp_path):
    return _write_matrix(tmp_path / "half_identity.json", [[0.5, 0], [0, 0.5]])


@pytest.fixture
def x_flip_channel(tmp_path):
    doc = {
        "type": "unitary",
        "matrix": {"dim": 2, "data": [[0, 0], [1, 0], [1, 0], [0, 0]]},
    }
    p = tmp_path / "x_flip.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_classify_reports_density(capsys, half_identity):
    code, out, err = _run(capsys, ["classify", "--matrix", half_identity])
    assert code == 0
    report = json.loads(out)
    assert "Density" in report["kinds"]
    assert "Effect" in report["kinds"]
    assert "Projection" not in report["kinds"]
    assert err == ""


def test_classify_pretty_same_payload(capsys, half_identity):
    _, compact, _ = _run(capsys, ["classify", "--matrix", half_identity])
    _, pretty, _ = _run(capsys, ["--pretty", "classify", "--matrix", half_identity])
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_global_flags_accepted_after_subcommand(capsys, half_identity):
    _, before, _ = _run(capsys, ["--pretty", "classify", "--matrix", half_identity])
    _, after, _ = _run(capsys, ["classify", "--matrix", half_identity, "--pretty"])
    assert before == after


def test_duality_roundtrip_passes(capsys):
    code, out, _ = _run(
        capsys, ["duality-roundtrip", "--kind", "effect", "--dim", "3", "--seeds", "5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9
    assert "counterexample_seed" not in report


def test_laws_interval_all_pass(capsys):
    code, out, _ = _run(capsys, ["laws", "--instance", "interval"])
    assert code == 0
    report = json.loads(out)
    assert all(entry["pass"] for entry in report["laws"])


def test_laws_monad_suite(capsys):
    code, out, _ = _run(capsys, ["laws", "--suite", "monad"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["violations"] == []
    assert report["checked"] > 0


def test_laws_without_selector_is_input_error(capsys):
    code, _, err = _run(capsys, ["laws"])
    assert code == 2
    assert "error:" in err


def test_free_iso_chain(capsys):
    code, out, _ = _run(capsys, ["free-iso", "--which", "chain", "--dim", "2", "--seeds", "5"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_wp_of_flip_channel(capsys, tmp_path, x_flip_channel):
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, _ = _run(
        capsys,
        ["wp", "--channel", x_flip_channel, "--effect", effect_path, "--check-duality", "5"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    # wp under the bit flip sends |0><0| to |1><1|
    data = report["wp"]["data"]
    assert abs(data[0][0]) < 1e-9 and abs(data[3][0] - 1.0) < 1e-9


def test_wp_check_duality_failure_names_worst_seed(capsys, tmp_path, x_flip_channel, monkeypatch):
    # A wrong precondition: the identity instead of |1><1|.
    monkeypatch.setattr(cli, "weakest_precondition", lambda channel, A, tol: identity(2))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    argv = ["wp", "--channel", x_flip_channel, "--effect", effect_path, "--check-duality", "5"]
    code, out, err = _run(capsys, argv)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    # tr(f(rho) |0><0|) - tr(rho I) = -<0|rho|0>, worst at the seed named
    gaps = {s: abs(sample(OperatorKind.DENSITY, 2, s)[0, 0]) for s in cli._seeds_from(0, 5)}
    seed = report["counterexample_seed"]
    assert gaps[seed] == max(gaps.values())
    assert report["duality_residual"] == pytest.approx(gaps[seed], abs=1e-12)
    assert "counterexample_error" not in report


def test_wp_check_duality_failure_on_rejected_sample(capsys, tmp_path):
    # At --tol 1.115e-16 the channel and wp go through, but a sampled density
    # misses trace 1 by more than tol; that fails the check, it is not bad input.
    flip = {"type": "unitary", "matrix": {"dim": 2, "data": [[0, 0], [1, 0], [1, 0], [0, 0]]}}
    keep = {"type": "unitary", "matrix": {"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}}
    channel = tmp_path / "mixture.json"
    channel.write_text(json.dumps({"type": "mixture", "weights": ["1/3", "2/3"], "parts": [flip, keep]}))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    argv = ["--tol", "1.115e-16", "wp", "--channel", str(channel), "--effect", effect_path,
            "--check-duality", "5"]
    code, out, err = _run(capsys, argv)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    seed = report["counterexample_seed"]
    assert seed in cli._seeds_from(0, 5)
    assert not classify(sample(OperatorKind.DENSITY, 2, seed), 1.115e-16).has(OperatorKind.DENSITY)
    assert "density" in report["counterexample_error"]


def test_byte_identical_reruns(capsys):
    argv = ["duality-roundtrip", "--kind", "density", "--dim", "2", "--seeds", "3"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


#: sha256 of the stdout of ``hsdual --seed k <argv>`` for k = 0, 1, 2.  A
#: change to the law checkers must leave these reports byte-identical.
_LAWS_STDOUT_SHA256 = {
    "laws --suite monad": (
        "d6843a54ac08b1403f0f4b73f43ea01d5782e74270b6fd9db4996ca8f5077d95",
        "d6843a54ac08b1403f0f4b73f43ea01d5782e74270b6fd9db4996ca8f5077d95",
        "d6843a54ac08b1403f0f4b73f43ea01d5782e74270b6fd9db4996ca8f5077d95",
    ),
    "laws --instance interval": (
        "9ba90bf2879b9067989be4b344f1827d6bf905b4007893018138b36ee559e67a",
        "230ab2edfcb311bc991058d10bde100312069a9111dccaa6552d637c1fd7f06a",
        "66d0c981ccab794738f6892ceeb7b692d8d328d795cd92206a1cdcdc2e01830b",
    ),
    "laws --instance powerset --dim 3": (
        "fa59163f654a5ad8f8ea2b414a83ea4767134ef0ee9485cbd426a70e4d8c9148",
        "8ae348f2c3708302b4f4658dcee8da16312a40159b5c33f39c7c6fa9f0617e96",
        "48a826f0e0cf603e4e4848295434349223a5e015268d05a6202be67d8212193b",
    ),
    "laws --instance powerset --dim 4": (
        "b02446322f9714ced1d3a12f28c78797b75c89a735b1398a3c0243229f9191d7",
        "a6cae40b364aa699b0bcde7fc109ecda08a9edc52e78c440410986ff6f2a036a",
        "4e52e2eadfefb7a7821b19d6f493af2ce5b5a43f5ece4736412ec43897382040",
    ),
    "laws --instance powerset --dim 5": (
        "291d6cc8e87a882f168ff4c4683d60e6d5dbdc6f0f08b124888dda25f348bb63",
        "2fd96a82fc8206fb9c2eb507a38bd75b4fce18b4dbb9513c615b4527720755a6",
        "1e18a12f825f1f55b58e077a39bb0d072064d15f0316e1f30ad0e1ed8953892d",
    ),
    "laws --instance projections --dim 2 --samples 200": (
        "475e3f1acbfd50014b3e7518f0e036b7403b0a0ab6c9dc1b5dab81af5374ce6a",
        "6d13fbd26eb6cfc1399b7b19821578bb2a267783b9fde165c4c2b00ead6b045e",
        "1bb30d3288563840022171cf0a25687419f227dbc1fff03b9c16d0aba36c723e",
    ),
    "laws --instance projections --dim 3 --samples 200": (
        "b498658f59bff3cb6e9c5f2e345abb7cb2b85ca428b7b0f556abca7533b01c0d",
        "82ae15423c655d21fb215dbe8809ce5646b3fd1d47c31a47a6bc15dee0f65a8f",
        "1f55d931cf13fed804c46899d33fe2aa0369c328e4c0a542d3f512918792c1a3",
    ),
    "laws --instance projections --dim 4 --samples 200": (
        "5f2d85815eee68d40ac9b43fdf688b2f2d0bbfe5dc2fe203520bed57ca486d1c",
        "73de471a47b322621065430ea48c7d3a3d2fa01adfa33b4744db9b9fd872d4e0",
        "cbe9f6fc6fe1500356117141f8f081d8e7550839d44039901c4a2b279d720414",
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("argv", sorted(_LAWS_STDOUT_SHA256))
def test_laws_reports_are_byte_identical_to_pinned_digests(capsys, argv, seed):
    code, out, _ = _run(capsys, ["--seed", str(seed), *argv.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _LAWS_STDOUT_SHA256[argv][seed]


#: sha256 of the stdout of ``hsdual --seed k <argv>`` for k = 0, 1, 2, run
#: from the repository root.  Kind checks read spectra without eigenvectors;
#: these reports must stay byte-identical to those of a full decomposition.
_SPECTRAL_STDOUT_SHA256 = {
    "classify --matrix examples/state.json": (
        "855486d678a6e6047299d68dc216ce1a12479341879152eaa0d2fe7aff2383b3",
    )
    * 3,
    "wp --channel examples/flip.json --effect examples/p0.json --check-duality 20": (
        "9c99d84da655f12b53597692f33f947f122c69c7964919787bbd592a4a329177",
    )
    * 3,
    "duality-roundtrip --kind effect --dim 5": (
        "1a8a82fa4fd79b54358f2aad552df1279737a877e2da528b3e80145793eb4c52",
        "1a8a82fa4fd79b54358f2aad552df1279737a877e2da528b3e80145793eb4c52",
        "59e8d40beb4e2b7224332ce688d51f8e85438dfa1d6d52ffc50751c7cc1e9256",
    ),
    "free-iso --which chain --dim 3": (
        "0d6bfe4a2347ecd8d5515e805cd1580c4ec46464ae5796fd8d5357f323b0e8e3",
        "72a150af9e2979c89d324be3b07df3e10ca460ac95acc103ad5fc0c809d27c22",
        "374b62a7b57ea0de058529531eff293dd8d4eb49d39355d9cb76709718d383b4",
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("argv", sorted(_SPECTRAL_STDOUT_SHA256))
def test_spectral_reports_are_byte_identical_to_pinned_digests(capsys, monkeypatch, argv, seed):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code, out, _ = _run(capsys, ["--seed", str(seed), *argv.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SPECTRAL_STDOUT_SHA256[argv][seed]


@pytest.mark.parametrize("dim", ["3", "5"])
def test_samples_on_an_exhaustive_powerset_exits_two(capsys, dim):
    code, out, err = _run(capsys, ["laws", "--instance", "powerset", "--dim", dim, "--samples", "3"])
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_samples_on_a_sampled_powerset_is_used(capsys):
    argv = ["laws", "--instance", "powerset", "--dim", "6"]
    reports = [json.loads(_run(capsys, [*argv, "--samples", k])[1]) for k in ("3", "7")]
    assert [r["laws"][0]["checked"] for r in reports] == [5, 9]


def test_seed_changes_sampled_residuals(capsys):
    argv = ["duality-roundtrip", "--kind", "positive", "--dim", "3", "--seeds", "3"]
    _, base, _ = _run(capsys, argv)
    _, reseeded, _ = _run(capsys, ["--seed", "1", *argv])
    assert json.loads(base)["max_residual"] != json.loads(reseeded)["max_residual"]


def test_invalid_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _run(capsys, ["classify", "--matrix", str(bad)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_malformed_matrix_exits_two(capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"dim": 2, "data": [[1, 0]]}))
    code, _, err = _run(capsys, ["classify", "--matrix", str(short)])
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, ["classify", "--matrix", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["duality-roundtrip", "--kind", "density", "--dim", "0"],
        ["duality-roundtrip", "--kind", "density", "--seeds", "0"],
        ["free-iso", "--which", "r", "--dim", "-1"],
        ["laws", "--instance", "powerset", "--dim", "0"],
        ["laws", "--instance", "powerset", "--dim", "17"],
        ["laws", "--instance", "effects", "--samples", "0"],
        ["laws", "--suite", "monad", "--instance", "interval"],
        ["laws", "--instance", "powerset", "--suite", "monad"],
        ["laws", "--instance", "interval", "--dim", "3"],
        ["laws", "--instance", "interval", "--samples", "3"],
        ["laws", "--suite", "monad", "--dim", "7", "--samples", "3"],
        ["laws", "--suite", "monad", "--samples", "3"],
        ["--tol", "nan", "free-iso", "--which", "r"],
        ["free-iso", "--which", "r", "--tol", "inf"],
        ["--tol", "-1", "free-iso", "--which", "r"],
        ["--tol", "0", "free-iso", "--which", "r"],
        ["--seed", "-1", "free-iso", "--which", "r"],
        ["free-iso", "--which", "r", "--dim", "2.5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_flag_values_exit_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_negative_check_duality_exits_two(capsys, tmp_path, x_flip_channel):
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    argv = ["wp", "--channel", x_flip_channel, "--effect", effect_path, "--check-duality", "-3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_channel_exits_two(capsys, tmp_path):
    unit = '{"type": "unitary", "matrix": {"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}}'
    depth = 3000
    deep = tmp_path / "deep.json"
    deep.write_text('{"type": "mixture", "weights": ["1"], "parts": [' * depth + unit + "]}" * depth)
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, err = _run(capsys, ["wp", "--channel", str(deep), "--effect", effect_path])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_failed_check_exits_one(capsys):
    # an absurdly tight tolerance turns honest float error into a failure
    code, out, _ = _run(
        capsys, ["--tol", "1e-18", "free-iso", "--which", "r", "--dim", "2", "--seeds", "3"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert "counterexample_seed" in report


@pytest.mark.parametrize(
    "argv",
    [
        ["--tol", "1e-17", "duality-roundtrip", "--kind", "effect", "--dim", "3", "--seeds", "5"],
        ["--tol", "1e-16", "duality-roundtrip", "--kind", "self-adjoint", "--dim", "3", "--seeds", "5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_rejected_own_sample_fails_check(capsys, argv):
    # the command drew the sample itself, so its rejection is a failed check
    code, out, err = _run(capsys, argv)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    assert report["counterexample_seed"] in cli._seeds_from(0, 5)
    assert report["counterexample_error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["bounded", "self-adjoint", "positive", "effect", "density"])
def test_huge_tolerance_does_not_overflow(capsys, kind):
    argv = ["--tol", "1e308", "duality-roundtrip", "--kind", kind, "--dim", "3", "--seeds", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_non_effect_predicate_exits_two(capsys, tmp_path, x_flip_channel):
    too_big = _write_matrix(tmp_path / "two_i.json", [[2, 0], [0, 2]])
    code, _, err = _run(capsys, ["wp", "--channel", x_flip_channel, "--effect", too_big])
    assert code == 2
    assert "error:" in err


def test_module_entry_point(half_identity):
    proc = subprocess.run(
        [sys.executable, "-m", "hsdual", "classify", "--matrix", half_identity],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Density" in json.loads(proc.stdout)["kinds"]


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["laws", "--instance", "powerset", "--dim", "4"], 0),
        (["--tol", "1e-17", "free-iso", "--which", "chain", "--dim", "3", "--seeds", "4"], 1),
    ],
    ids=["pass", "fail"],
)
def test_closed_stdout_keeps_the_verdict_without_a_traceback(argv, verdict):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with a broken pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hsdual", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == verdict
    assert proc.stderr == ""


def test_dephasing_example_fixes_p0(capsys, monkeypatch):
    # dephasing keeps the diagonal, so wp(dephase, |0><0|) is |0><0| again
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    argv = ["wp", "--channel", "examples/dephase.json", "--effect", "examples/p0.json", "--check-duality", "20"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["pass"] is True
    W = np.array([complex(*z) for z in report["wp"]["data"]]).reshape(2, 2)
    assert np.abs(W - np.diag([1, 0])).max() <= 1e-9


def test_transpose_example_fixes_p0(capsys, monkeypatch):
    # tr(rho^T A) = tr(rho A^T), so wp(transpose, |0><0|) is |0><0| again;
    # the transpose is not completely positive, so its file is validated on
    # the sampled pure states
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    argv = ["wp", "--channel", "examples/transpose.json", "--effect", "examples/p0.json", "--check-duality", "20"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["pass"] is True
    W = np.array([complex(*z) for z in report["wp"]["data"]]).reshape(2, 2)
    assert np.abs(W - np.diag([1, 0])).max() <= 1e-9


def _super_doc(dim_in, dim_out, rows, cols, data):
    matrix = {"rows": rows, "cols": cols, "data": data}
    return {"type": "super", "dim_in": dim_in, "dim_out": dim_out, "matrix": matrix}


#: the identity channel on a qubit and the trace channel from a qubit
_IDENTITY_DATA = [[1.0 if r == c else 0.0, 0.0] for r in range(4) for c in range(4)]
_TRACE_DATA = [[1, 0], [0, 0], [0, 0], [1, 0]]


def test_super_channel_identity_passes(capsys, tmp_path):
    channel = tmp_path / "super.json"
    channel.write_text(json.dumps(_super_doc(2, 2, 4, 4, _IDENTITY_DATA)))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, _ = _run(capsys, ["wp", "--channel", str(channel), "--effect", effect_path])
    assert code == 0
    data = json.loads(out)["wp"]["data"]
    assert abs(data[0][0] - 1.0) < 1e-9 and abs(data[3][0]) < 1e-9


@pytest.mark.parametrize(
    "doc",
    [
        _super_doc(2.7, 2, 4, 4, _IDENTITY_DATA),
        _super_doc(2, True, 1, 4, _TRACE_DATA),
        _super_doc(2.7, True, 1, 4, _TRACE_DATA),
        _super_doc(2, 2, "4", 4, _IDENTITY_DATA),
        _super_doc(2, 2, 4, None, _IDENTITY_DATA),
        _super_doc(2, 2, -4, -4, _IDENTITY_DATA),
        _super_doc(2, 2, 4, 4, _IDENTITY_DATA[:15]),
        _super_doc(2, 2, 4, 4, [[1, 0, 0]] * 16),
        _super_doc(2, 2, 4, 4, [["x", 0]] * 16),
        _super_doc(2, 2, 4, 4, [[r == c, 0] for r in range(4) for c in range(4)]),
        _super_doc(2, 2, 4, 4, [[str(x), y] for x, y in _IDENTITY_DATA]),
    ],
    ids=[
        "dim_in 2.7",
        "dim_out true",
        "dim_in 2.7 and dim_out true",
        "rows string",
        "cols null",
        "negative rows and cols",
        "short data",
        "triple entries",
        "non-numeric entries",
        "bool entries",
        "string entries",
    ],
)
def test_malformed_super_channel_exits_two(capsys, tmp_path, doc):
    channel = tmp_path / "super.json"
    channel.write_text(json.dumps(doc))
    # an effect that fits the output of the channel as int() would read it
    effect = [[1]] if doc["matrix"]["rows"] == 1 else [[1, 0], [0, 0]]
    effect_path = _write_matrix(tmp_path / "effect.json", effect)
    code, out, err = _run(capsys, ["wp", "--channel", str(channel), "--effect", effect_path])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_string_and_bool_matrix_entries_exit_two(capsys, tmp_path):
    # float("0.5") and float(True) would read this as the density diag(1, 0.5)
    doc = tmp_path / "mixed.json"
    doc.write_text(json.dumps({"dim": 2, "data": [["0.5", False], [0, 0], [0, 0], [True, "0"]]}))
    code, out, err = _run(capsys, ["classify", "--matrix", str(doc)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def _unitary_doc(rows):
    return {"type": "unitary", "matrix": {"dim": len(rows), "data": [[x, 0] for row in rows for x in row]}}


@pytest.mark.parametrize(
    "weights",
    [[True], [True, False], ["1/2", True], [None], ["x"], ["1/0"], [float("nan")], "1", {"0": 1}],
    ids=[
        "true",
        "true and false",
        "half and true",
        "null",
        "non-numeric string",
        "zero denominator",
        "nan",
        "string",
        "object",
    ],
)
def test_malformed_mixture_weights_exit_two(capsys, tmp_path, weights):
    count = len(weights) if isinstance(weights, list) else 1
    parts = [_unitary_doc([[1, 0], [0, 1]])] * count
    channel = tmp_path / "mixture.json"
    channel.write_text(json.dumps({"type": "mixture", "weights": weights, "parts": parts}))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, err = _run(capsys, ["wp", "--channel", str(channel), "--effect", effect_path])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_mixture_weights_strings_and_floats_pass(capsys, tmp_path):
    parts = [_unitary_doc([[1, 0], [0, 1]]), _unitary_doc([[0, 1], [1, 0]])]
    channel = tmp_path / "mixture.json"
    channel.write_text(json.dumps({"type": "mixture", "weights": ["1/4", 0.75], "parts": parts}))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, _ = _run(capsys, ["wp", "--channel", str(channel), "--effect", effect_path])
    assert code == 0
    data = json.loads(out)["wp"]["data"]
    assert abs(data[0][0] - 0.25) < 1e-9 and abs(data[3][0] - 0.75) < 1e-9


@pytest.mark.parametrize("which", ["matrix", "channel"])
def test_undecodable_json_exits_two(capsys, tmp_path, which):
    # an integer literal past Python's digit limit, and bytes that are not UTF-8
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 1, "data": [[' + "1" * 5000 + ", 0]]}")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"dim": 1, "data": [[1, 0]], "note": "\xe9"}')
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    for bad in (huge, latin):
        if which == "matrix":
            argv = ["classify", "--matrix", str(bad)]
        else:
            argv = ["wp", "--channel", str(bad), "--effect", effect_path]
        code, out, err = _run(capsys, argv)
        assert code == 2, bad
        assert out == ""
        assert "error:" in err


# the inverse maps as shipped, for the planted faults below to wrap
free_iso_pos_dm, free_iso_sa_pos, free_iso_b_sa = free.s_iso_pos_dm, free.r_iso_sa_pos, free.c_iso_b_sa


def _scaled_weight(B, tol=1e-9):
    u = free_iso_pos_dm(B, tol)
    return u if u.is_zero else free.WeightedPoint(u.weight * (1 + 1e-6), u.point)


def _scaled_split(A, tol=1e-9):
    d = free_iso_sa_pos(A, tol)
    return free.Difference(d.pos * (1 + 1e-6), d.neg * (1 + 1e-6))


def _conjugated_pair(A):
    p = free_iso_b_sa(A)
    return free.ComplexPair(p.re, -p.im)


def _non_hermitian_pair(A):
    p = free_iso_b_sa(A)
    return free.ComplexPair(p.re + 1e-3 * (A - A.conj().T), p.im)


@pytest.mark.parametrize(
    "name, fault",
    [
        ("s_iso_pos_dm", _scaled_weight),
        ("r_iso_sa_pos", _scaled_split),
        ("c_iso_b_sa", _conjugated_pair),
        ("c_iso_b_sa", _non_hermitian_pair),
    ],
    ids=["s-weight", "r-split", "c-conjugate", "c-non-hermitian"],
)
def test_free_iso_chain_catches_a_planted_inverse_fault(capsys, monkeypatch, name, fault):
    # the chain runs B through all three inverse maps and back, so a fault in
    # any one of them fails the check; a rejected intermediate fails it too
    monkeypatch.setattr(free, name, fault)
    code, out, err = _run(capsys, ["free-iso", "--which", "chain", "--dim", "3", "--seeds", "4"])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    assert report["counterexample_seed"] in cli._seeds_from(0, 4)
    assert ("counterexample_error" in report) == (fault is _non_hermitian_pair)


@pytest.mark.parametrize("tol", ["1e-17", "1e-16", "5e-324"])
def test_free_iso_chain_fails_below_float_error(capsys, tol):
    code, out, _ = _run(capsys, ["--tol", tol, "free-iso", "--which", "chain", "--dim", "3", "--seeds", "4"])
    assert code == 1
    assert json.loads(out)["max_residual"] > float(tol)


@pytest.mark.filterwarnings("error")
def test_smallest_tolerance_neither_overflows_nor_exits_two(capsys):
    # hermitian_eig floors its convergence target at machine epsilon
    argv = ["--tol", "5e-324", "laws", "--instance", "effects", "--dim", "3", "--samples", "20"]
    code, out, err = _run(capsys, argv)
    assert code in (0, 1), err
    assert json.loads(out)["pass"] is (code == 0)


def test_mixture_file_with_more_weights_than_parts_exits_two(capsys, tmp_path, x_flip_channel):
    flip = json.loads(Path(x_flip_channel).read_text())
    channel = tmp_path / "mixture.json"
    channel.write_text(json.dumps({"type": "mixture", "weights": ["1/3", "1/3", "1/3"], "parts": [flip, flip]}))
    effect_path = _write_matrix(tmp_path / "p0.json", [[1, 0], [0, 0]])
    code, out, err = _run(capsys, ["wp", "--channel", str(channel), "--effect", effect_path])
    assert code == 2 and out == ""
    assert err.startswith("error: invalid channel:") and "weights" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["duality-roundtrip", "--kind", "bounded", "--dim", str(10**9)],
        ["free-iso", "--which", "c", "--dim", str(10**9)],
        ["laws", "--instance", "effects", "--dim", str(10**9)],
        # 16 n^2 fits in an index but exceeds any 57-bit address space, so
        # the first n x n allocation fails before committing any memory
        ["duality-roundtrip", "--kind", "bounded", "--dim", str(2 * 10**8)],
        ["free-iso", "--which", "c", "--dim", str(2 * 10**8)],
        ["laws", "--instance", "effects", "--dim", str(2 * 10**8)],
    ],
    ids=lambda argv: " ".join(argv[:-1] + ["1e9" if argv[-1] == str(10**9) else "2e8"]),
)
def test_dimension_too_large_to_allocate_exits_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "too large" in captured.err


def test_seeds_are_drawn_lazily_in_chunks_of_the_same_sequence():
    count = 2 * cli._SEED_CHUNK + 3
    want = [int(s) for s in np.random.default_rng(7).integers(0, 2**62, size=count)]
    assert list(cli._seeds_from(7, count)) == want
    assert next(iter(cli._seeds_from(7, 10**15))) == want[0]
