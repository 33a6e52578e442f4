"""Refusals of the public entry points that the module tests do not reach.

Each case feeds one malformed argument and checks the documented exception
(or, for the CLI, exit code 2 and its message).
"""

import json

import numpy as np
import pytest

from hsdual.cli import main
from hsdual.duality import Functional, KindMismatch, hs_inverse, naturality_check
from hsdual.effect import law_suite, make_effects, make_powerset, make_projections, make_unit_interval
from hsdual.free import WeightedPoint, s_iso_dm_pos
from hsdual.linalg import DimensionMismatch, as_matrix, identity
from hsdual.operators import OperatorKind
from hsdual.operators import sample
from hsdual.wp import InvalidChannel, mixture_channel, super_channel, unitary_channel


def test_super_channel_refuses_an_infinite_entry():
    M = np.eye(4, dtype=np.complex128)
    M[1, 2] = np.inf
    with pytest.raises(InvalidChannel, match="finite"):
        super_channel(2, 2, M)


def test_hs_inverse_refuses_a_functional_of_dimension_zero():
    f = Functional(OperatorKind.BOUNDED, 0, lambda B: 0.0)
    with pytest.raises(KindMismatch, match="positive dimension"):
        hs_inverse(OperatorKind.BOUNDED, f)


def test_naturality_check_refuses_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        naturality_check(identity(2), identity(3), identity(2))


def test_s_iso_dm_pos_refuses_a_point_of_another_dimension():
    u = WeightedPoint(1.0, identity(3) / 3)
    with pytest.raises(ValueError, match="point dimension 3 != 2"):
        s_iso_dm_pos(u, 2)


def test_as_matrix_refuses_an_empty_matrix():
    with pytest.raises(DimensionMismatch, match="dimension >= 1"):
        as_matrix(np.zeros((0, 0)))


def test_mixture_refuses_a_weight_with_a_malformed_exponent():
    parts = [unitary_channel(identity(2)), unitary_channel(np.array([[0, 1], [1, 0]]))]
    with pytest.raises(InvalidChannel, match="is not a number"):
        mixture_channel(["1ex", "0"], parts)


def test_wp_cli_refuses_an_unknown_channel_type(capsys, tmp_path):
    channel = tmp_path / "bogus.json"
    channel.write_text(json.dumps({"type": "bogus"}))
    effect = tmp_path / "p0.json"
    effect.write_text(json.dumps({"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    code = main(["wp", "--channel", str(channel), "--effect", str(effect)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unknown channel type 'bogus'" in captured.err


@pytest.mark.parametrize(
    "kind, dim", [(OperatorKind.EFFECT, 2.5), (OperatorKind.DENSITY, True)], ids=["float", "bool"]
)
def test_hs_inverse_refuses_a_functional_whose_dimension_is_no_integer(kind, dim):
    with pytest.raises(KindMismatch, match="positive dimension"):
        hs_inverse(kind, Functional(kind, dim, lambda B: 1.0))


@pytest.mark.parametrize("dim", [2.0, False, "2"], ids=["float", "bool", "str"])
def test_sample_refuses_a_dimension_that_is_no_integer(dim):
    with pytest.raises(ValueError, match="integer >= 1"):
        sample(OperatorKind.DENSITY, dim, 0)


def test_sample_takes_a_numpy_integer_dimension():
    assert sample(OperatorKind.DENSITY, np.int64(2), 0).shape == (2, 2)


def test_sample_refuses_what_is_not_an_operator_kind():
    with pytest.raises(ValueError, match="unknown operator kind"):
        sample("Density", 2, 0)


_HALF = WeightedPoint(1.0, identity(2) / 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_effects(2.5),
        lambda: make_projections(True),
        lambda: make_powerset(2.5),
        lambda: make_powerset("3"),
        lambda: make_unit_interval(2.5),
        lambda: law_suite(make_effects(2), samples=2.5),
        lambda: law_suite(make_projections(2), samples=True),
        lambda: s_iso_dm_pos(_HALF, 2.0),
        lambda: s_iso_dm_pos(_HALF, True),
    ],
    ids=[
        "make_effects", "make_projections", "make_powerset-float", "make_powerset-str",
        "make_unit_interval", "law_suite-float", "law_suite-bool", "s_iso_dm_pos-float",
        "s_iso_dm_pos-bool",
    ],
)
def test_a_size_that_is_no_integer_raises_the_documented_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "dim_in, dim_out, matrix",
    [(2.0, 2, np.eye(4)), (True, True, [[1]]), ("2", 2, np.eye(4)), (2, np.float64(2), np.eye(4))],
    ids=["float", "bool", "str", "numpy-float"],
)
def test_super_channel_refuses_a_dimension_that_is_no_integer(dim_in, dim_out, matrix):
    with pytest.raises(InvalidChannel, match=">= 1"):
        super_channel(dim_in, dim_out, matrix)
