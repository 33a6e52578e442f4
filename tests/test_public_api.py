"""The package's public names and the CLI's choices, each declared once.

Every layer lists its public names in ``__all__``, and ``hsdual`` re-exports
exactly the union of those lists, as the very same objects.  The CLI's
``--kind`` choices are the kinds the duality layer inverts, and its
``--instance`` choices are the four stock effect algebras.
"""

import argparse
import importlib
import sys

import pytest

import hsdual
from hsdual import cli
from hsdual.duality import DUAL_KINDS
from hsdual.operators import OperatorKind

LAYERS = ("algebra", "duality", "effect", "free", "linalg", "operators", "wp")

#: Every name ``hsdual`` exported before it re-exported whole layers.
EARLIER_NAMES = (
    "AlgebraError", "ChannelError", "CoefficientOverflow", "ComplexPair",
    "ContractViolation", "DEFAULT_TOL", "Difference", "DimensionMismatch",
    "DualityError", "EffectInstance", "FormalSum", "Functional", "InvalidChannel",
    "KindMismatch", "KindReport", "LawReport", "LinalgError", "NoConvergence",
    "NotDensity", "NotDistribution", "NotEffect", "NotHermitian", "NotInKind",
    "NotPositive", "OperatorKind", "Semiring", "SemiringMismatch", "Super",
    "WeightedPoint", "apply_channel", "approx_eq", "c_iso_b_sa", "c_iso_sa_b",
    "classify", "compose", "convex_state_carrier", "flatten", "fmap", "formal_sum",
    "hermitian_eig", "hs_forward", "hs_inverse", "in_kind", "interpret", "law_suite",
    "loewner_leq", "make_effects", "make_powerset", "make_projections",
    "make_unit_interval", "matrix_from_json", "matrix_module_carrier",
    "matrix_to_json", "mixture_channel", "monad_law_suite", "naturality_check",
    "pos_neg_split", "r_iso_pos_sa", "r_iso_sa_pos", "s_iso_dm_pos", "s_iso_pos_dm",
    "sa_components", "sample", "super_channel", "to_super", "unit",
    "unitary_channel", "wp",
)


def _layer(name):
    return importlib.import_module(f"hsdual.{name}")


def test_the_package_exports_the_union_of_its_layers_names():
    union = {name for layer in LAYERS for name in _layer(layer).__all__}
    assert sorted(hsdual.__all__) == sorted(union)
    assert len(hsdual.__all__) == len(union)


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_is_its_layers_object(layer):
    module = _layer(layer)
    for name in module.__all__:
        assert getattr(hsdual, name) is getattr(module, name), name


def test_hsdual_wp_is_the_function_not_the_module():
    assert hsdual.wp is sys.modules["hsdual.wp"].wp


def test_every_earlier_export_is_still_there():
    assert len(EARLIER_NAMES) == 68
    assert set(EARLIER_NAMES) <= set(hsdual.__all__)


def test_a_star_import_from_linalg_binds_none_of_its_imports():
    namespace = {}
    exec("from hsdual.linalg import *", namespace)
    assert not {"np", "math", "dataclass", "annotations"} & namespace.keys()
    assert set(namespace) - {"__builtins__"} == set(_layer("linalg").__all__)


def _choices(command, dest):
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (action,) = (a for a in commands.choices[command]._actions if a.dest == dest)
    return list(action.choices)


def test_the_kind_choices_are_the_kinds_the_duality_layer_inverts():
    choices = _choices("duality-roundtrip", "kind")
    assert choices == ["bounded", "density", "effect", "positive", "self-adjoint"]
    assert {OperatorKind[c.upper().replace("-", "_")] for c in choices} == set(DUAL_KINDS)


def test_the_instance_choices_are_the_four_stock_instances_in_order():
    assert _choices("laws", "instance") == ["interval", "powerset", "effects", "projections"]
