"""Every message in law_suite's table is reachable, on both paths.

Each law is written once, on stacks, and gives each row a reason code;
``effect._LAWS`` words code k with the law's k-th message.  For every law
and every k, a bug planted once on the unit interval's integer codes must
make the law fail with message k: through the planted stacked operations,
and through the per-element adapter (the same instance with
``stacked=None``, whose per-element operations decode the planted ones).
A message that no plant reaches would be dead code in the table.
"""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hsdual import effect
from hsdual.effect import law_suite, make_unit_interval

# make_unit_interval(4): the seven elements 0, 1/4, 1/3, 1/2, 2/3, 3/4 and 1,
# coded as x * L, and in stacked.scalars as x * M
L = 12
M = 64 * L


def _codes(ops, scale: int) -> dict:
    """ovee, eq and orth that apply ``ops`` to the codes x * scale."""

    def code(x):
        return np.array([int(x * scale)])

    def ovee(x, y):
        S, defined = ops.ovee(code(x), code(y))
        return Fraction(int(S[0]), scale) if defined[0] else None

    return {
        "ovee": ovee,
        "eq": lambda x, y: bool(ops.eq(code(x), code(y))[0]),
        "orth": lambda x: Fraction(int(ops.orth(code(x))[0]), scale),
    }


def _planted(**bug) -> effect.EffectInstance:
    """The interval with ``bug`` (ovee, eq or orth on codes) written once."""
    good = make_unit_interval(4)
    ops = replace(good.stacked, agrees_with=None, scalars=None, **bug)
    return replace(good, name="planted", scalar_mul=None, stacked=ops, **_codes(ops, L))


def _planted_scalar(mul) -> effect.EffectInstance:
    """The interval with a scalar_mul bug written once, on the codes x * M."""
    good = make_unit_interval(4)

    def scalar_mul(r, x):
        return Fraction(int(mul(np.array([int(r * 64)]), np.array([int(x * M)]))[0]), M)

    scalars = replace(good.stacked.scalars, scalar_mul=mul, agrees_with=None)
    return replace(
        good, name="planted", scalar_mul=scalar_mul, stacked=replace(good.stacked, scalars=scalars)
    )


def _sum(bump=None, defined=None):
    """An ovee on codes: X + Y, plus ``bump``, defined where X + Y <= L and
    ``defined`` holds."""

    def ovee(X, Y):
        S, within = X + Y, X + Y <= L
        return (
            S if bump is None else S + bump(X, Y),
            within if defined is None else within & defined(X, Y),
        )

    return ovee


def _exact(K, X):
    return K * X // 64


# (law, reason code) -> the planted instance
_PLANTS = {
    # 0 (+) x is never defined
    ("zero-unit", 1): lambda: _planted(ovee=lambda X, Y: (X + Y, np.zeros(len(X), bool))),
    # 0 (+) 1/4 is 1/3
    ("zero-unit", 2): lambda: _planted(ovee=_sum(bump=lambda X, Y: (X == 0) & (Y == 3))),
    # x (+) y is undefined for x > y
    ("commutativity", 1): lambda: _planted(ovee=_sum(defined=lambda X, Y: X <= Y)),
    # x (+) y is one code short for x > y
    ("commutativity", 2): lambda: _planted(ovee=_sum(bump=lambda X, Y: -1 * (X > Y))),
    # 1/4 (+) 1/3 is undefined, but 1/4 (+) (1/3 (+) 1/4) is defined
    ("associativity", 1): lambda: _planted(ovee=_sum(defined=lambda X, Y: ~((X == 3) & (Y == 4)))),
    # (1/4 (+) 1/3) (+) 1/4 is undefined, but 1/4 (+) (1/3 (+) 1/4) is defined
    ("associativity", 2): lambda: _planted(ovee=_sum(defined=lambda X, Y: ~((X == 7) & (Y == 3)))),
    # 1/4 (+) 1/3 is one code too large
    ("associativity", 3): lambda: _planted(ovee=_sum(bump=lambda X, Y: (X == 3) & (Y == 4))),
    # orth(1/4) is one code too large, or too small
    ("orthosupplement-exists", 1): lambda: _planted(orth=lambda X: L - X + (X == 3)),
    ("orthosupplement-exists", 2): lambda: _planted(orth=lambda X: L - X - (X == 3)),
    # 3/4 is not equal to itself, the orthosupplement of 1/4
    ("orthosupplement-unique", 1): lambda: _planted(eq=lambda X, Y: (X == Y) & ~((X == 9) & (Y == 9))),
    # every sum is defined, x (+) 1 too
    ("one-maximal", 1): lambda: _planted(ovee=lambda X, Y: (X + Y, np.ones(len(X), bool))),
    # 1 . 1 is 0
    ("scalar-unit", 1): lambda: _planted_scalar(_drops_one),
    # r . x rounds x down to a multiple of 1/(64 L) first, which loses r . (s . x)
    ("scalar-associativity", 1): lambda: _planted_scalar(lambda K, X: X // 64 * K),
    # r . x is 1 for 0 < r < 1 and x > 0, so r.x (+) r.y and r.x (+) s.x are undefined
    ("scalar-distributes-over-sum", 1): lambda: _planted_scalar(_saturates),
    ("scalar-sum-distributes", 1): lambda: _planted_scalar(_saturates),
    # 0 . x is one code for 0 < x < 1, so sums of such products are too large
    ("scalar-distributes-over-sum", 2): lambda: _planted_scalar(_zero_nudges),
    ("scalar-sum-distributes", 2): lambda: _planted_scalar(_zero_nudges),
}


def _drops_one(K, X):
    return np.where((K == 64) & (X == M), 0, _exact(K, X))


def _saturates(K, X):
    return np.where((0 < K) & (K < 64) & (X > 0), M, _exact(K, X))


def _zero_nudges(K, X):
    return np.where((K == 0) & (0 < X) & (X < M), 1, _exact(K, X))


def _pattern(message: str) -> re.Pattern:
    return re.compile(re.sub(r"\\\{[a-z]\\\}", ".+", re.escape(message)))


_MESSAGES = {
    (law, k): message
    for law, _, _, *messages in effect._LAWS
    for k, message in enumerate(messages, 1)
}


def test_every_message_in_the_table_has_a_plant():
    assert sorted(_PLANTS) == sorted(_MESSAGES)


@pytest.mark.parametrize("law, k", sorted(_MESSAGES), ids=lambda v: str(v))
def test_a_plant_yields_its_message_stacked_and_per_element(law, k):
    planted = _PLANTS[law, k]()
    assert planted.stacked is not None
    stacked = law_suite(planted).entry(law)
    per_element = law_suite(replace(planted, stacked=None)).entry(law)
    assert stacked == per_element
    assert not stacked.passed
    worded = [
        j for (name, j), m in _MESSAGES.items() if name == law and _pattern(m).fullmatch(stacked.counterexample)
    ]
    assert worded == [k], stacked.counterexample
