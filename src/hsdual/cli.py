"""Command-line interface: JSON reports over the library's check suites.

Every subcommand prints exactly one JSON document on stdout and exits with
0 when all checks pass, 1 when a check fails, and 2 when the input cannot
be parsed or validated (with a diagnostic on stderr).  Identical invocations
produce byte-identical reports; --pretty only reformats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import algebra, effect, free
from .duality import DualityError, hs_forward, hs_inverse
from .linalg import (
    DEFAULT_TOL,
    LinalgError,
    entries_from_json,
    int_from_json,
    matrix_from_json,
    matrix_to_json,
    max_norm,
)
from .operators import OperatorKind, classify, sample
from .wp import (
    ChannelError,
    InvalidChannel,
    NotDensity,
    Super,
    apply_channel,
    mixture_channel,
    super_channel,
    unitary_channel,
    wp as weakest_precondition,
)

_KIND_FLAGS = {
    "bounded": OperatorKind.BOUNDED,
    "self-adjoint": OperatorKind.SELF_ADJOINT,
    "positive": OperatorKind.POSITIVE,
    "effect": OperatorKind.EFFECT,
    "density": OperatorKind.DENSITY,
}


class _InputError(Exception):
    """Anything wrong with user-supplied files or flags (exit code 2)."""


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _finite_positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or encoding, or an integer past Python's digit limit
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path} nests too deeply to decode") from exc


def _load_matrix(path: str) -> np.ndarray:
    try:
        return matrix_from_json(_load_json(path))
    except (ValueError, LinalgError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _parse_channel(obj, tol: float, seed: int) -> Super:
    if not isinstance(obj, dict) or "type" not in obj:
        raise _InputError("channel JSON must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "unitary":
            return unitary_channel(matrix_from_json(obj["matrix"]), tol)
        if kind == "mixture":
            if not isinstance(obj["weights"], list):
                raise _InputError("mixture weights must be a JSON list")
            parts = [_parse_channel(p, tol, seed) for p in obj["parts"]]
            return mixture_channel(obj["weights"], parts, tol)
        if kind == "super":
            dim_in = int_from_json(obj["dim_in"], "super channel dim_in")
            dim_out = int_from_json(obj["dim_out"], "super channel dim_out")
            m = obj["matrix"]
            rows = int_from_json(m["rows"], "super matrix rows")
            cols = int_from_json(m["cols"], "super matrix cols")
            if rows < 0 or cols < 0:
                raise _InputError("super matrix rows and cols must be >= 0")
            M = entries_from_json(m["data"], rows * cols, "super matrix").reshape(rows, cols)
            return super_channel(dim_in, dim_out, M, tol, seed=seed)
    except _InputError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"malformed channel JSON: {exc}") from exc
    except InvalidChannel as exc:
        raise _InputError(f"invalid channel: {exc}") from exc
    raise _InputError(f"unknown channel type {kind!r}")


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")), flush=True)


def _seeds_from(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def _seeded_check(
    args, count: int, residual, report: dict, key: str = "max_residual"
) -> tuple[dict, bool]:
    """Add to ``report`` the verdict on ``residual(seed)`` over ``count`` seeds.

    The check passes when the worst residual, reported under ``key``, is
    within ``args.tol``.  A sample the residual drew itself that the library
    rejects (DualityError, LinalgError, NotDensity) fails the check at its
    seed, with the reason as ``counterexample_error``; it is not bad input.
    """
    worst = 0.0
    worst_seed = None
    rejected = None
    for s in _seeds_from(args.seed, count):
        try:
            r = residual(s)
        except (DualityError, LinalgError, NotDensity) as exc:
            worst_seed, rejected = s, str(exc)
            break
        if r > worst:
            worst, worst_seed = r, s
    passed = rejected is None and worst <= args.tol
    report[key] = worst
    report["pass"] = passed
    if not passed:
        report["counterexample_seed"] = worst_seed
    if rejected is not None:
        report["counterexample_error"] = rejected
    return report, passed


# --- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, bool]:
    A = _load_matrix(args.matrix)
    report = classify(A, args.tol)
    return {"matrix": args.matrix, "tol": args.tol, **report.to_json()}, True


def _cmd_duality_roundtrip(args) -> tuple[dict, bool]:
    kind = _KIND_FLAGS[args.kind]

    def residual(s: int) -> float:
        A = sample(kind, args.dim, s)
        return max_norm(hs_inverse(kind, hs_forward(kind, A, args.tol), args.tol) - A)

    report = {"kind": args.kind, "dim": args.dim, "seeds": args.seeds, "tol": args.tol}
    return _seeded_check(args, args.seeds, residual, report)


def _cmd_laws(args) -> tuple[dict, bool]:
    if args.suite == "monad" or args.instance == "interval":
        # both check one fixed exact carrier: there is nothing to size or sample
        selector = "--suite monad" if args.suite == "monad" else "--instance interval"
        for flag, value in (("--dim", args.dim), ("--samples", args.samples)):
            if value is not None:
                raise _InputError(f"{flag} does not apply to {selector}")
    dim = 2 if args.dim is None else args.dim
    samples = 200 if args.samples is None else args.samples

    if args.suite == "monad":
        result = algebra.monad_law_suite()
        passed = not result["violations"]
        return {"suite": "monad", **result, "pass": passed}, passed

    if args.instance is None:
        raise _InputError("laws needs --suite monad or --instance <name>")
    if args.instance == "interval":
        inst = effect.make_unit_interval()
    elif args.instance == "powerset":
        try:
            inst = effect.make_powerset(dim)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
    elif args.instance == "effects":
        inst = effect.make_effects(dim, args.tol)
    elif args.instance == "projections":
        inst = effect.make_projections(dim, args.tol)
    else:  # unreachable through argparse choices
        raise _InputError(f"unknown instance {args.instance!r}")
    if args.samples is not None and effect.checks_exhaustively(inst):
        raise _InputError(
            f"--samples does not apply to --instance {args.instance} --dim {dim}: "
            f"all {len(inst.universe)} elements are checked"
        )
    report = effect.law_suite(inst, samples=samples, seed=args.seed, tol=args.tol)
    return report.to_json(), report.all_pass


def _free_iso_residual(which: str, dim: int, s: int) -> float:
    if which == "s":
        B = sample(OperatorKind.POSITIVE, dim, s)
        u = free.s_iso_pos_dm(B)
        return max_norm(free.s_iso_dm_pos(u, dim) - B)
    if which == "r":
        A = sample(OperatorKind.SELF_ADJOINT, dim, s)
        return max_norm(free.r_iso_pos_sa(free.r_iso_sa_pos(A)) - A)
    if which == "c":
        B = sample(OperatorKind.BOUNDED, dim, s)
        return max_norm(free.c_iso_sa_b(free.c_iso_b_sa(B)) - B)
    # chain: a bounded B down through all three inverse maps -- complex pair,
    # differences of positives, weighted densities -- and back up again
    B = sample(OperatorKind.BOUNDED, dim, s)
    pair = free.c_iso_b_sa(B)
    parts = []
    for X in (pair.re, pair.im):
        diff = free.r_iso_sa_pos(X)
        pos, neg = (free.s_iso_dm_pos(free.s_iso_pos_dm(P), dim) for P in (diff.pos, diff.neg))
        parts.append(free.r_iso_pos_sa(free.Difference(pos, neg)))
    return max_norm(free.c_iso_sa_b(free.ComplexPair(*parts)) - B)


def _cmd_free_iso(args) -> tuple[dict, bool]:
    report = {"which": args.which, "dim": args.dim, "seeds": args.seeds, "tol": args.tol}
    return _seeded_check(
        args, args.seeds, lambda s: _free_iso_residual(args.which, args.dim, s), report
    )


def _cmd_wp(args) -> tuple[dict, bool]:
    channel = _parse_channel(_load_json(args.channel), args.tol, args.seed)
    A = _load_matrix(args.effect)
    W = weakest_precondition(channel, A, args.tol)
    report = {"wp": matrix_to_json(W), "tol": args.tol}
    if not args.check_duality:
        return report, True

    def residual(s: int) -> float:
        rho = sample(OperatorKind.DENSITY, channel.dim_in, s)
        lhs = np.trace(apply_channel(channel, rho, args.tol) @ A)
        return abs(complex(lhs) - complex(np.trace(rho @ W)))

    return _seeded_check(args, args.check_duality, residual, report, "duality_residual")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsdual",
        description="operator kinds, trace-pairing duality, effect algebras, "
        "free constructions, and weakest preconditions",
    )
    parser.add_argument("--tol", type=_finite_positive_float, default=DEFAULT_TOL, help="tolerance (default 1e-9)")
    parser.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed (default 0)")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")

    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_finite_positive_float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_nonnegative_int, default=argparse.SUPPRESS)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="report the kinds of a matrix")
    p.add_argument("--matrix", required=True, help="path to a matrix JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("duality-roundtrip", parents=[common], help="operator -> functional -> operator residuals")
    p.add_argument("--kind", choices=sorted(_KIND_FLAGS), required=True)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--seeds", type=_positive_int, default=50)
    p.set_defaults(func=_cmd_duality_roundtrip)

    p = sub.add_parser("laws", parents=[common], help="monad laws or effect-algebra laws")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--suite", choices=["monad"], default=None)
    which.add_argument(
        "--instance",
        choices=["interval", "powerset", "effects", "projections"],
        default=None,
    )
    p.add_argument("--dim", type=_positive_int, help="dimension / ground-set size (default 2)")
    p.add_argument("--samples", type=_positive_int, help="sampled elements (default 200)")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("free-iso", parents=[common], help="free-construction isomorphism residuals")
    p.add_argument("--which", choices=["s", "r", "c", "chain"], required=True)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--seeds", type=_positive_int, default=50)
    p.set_defaults(func=_cmd_free_iso)

    p = sub.add_parser("wp", parents=[common], help="weakest precondition of an effect under a channel")
    p.add_argument("--channel", required=True, help="path to a channel JSON file")
    p.add_argument("--effect", required=True, help="path to an effect matrix JSON file")
    p.add_argument(
        "--check-duality",
        type=_nonnegative_int,
        default=0,
        metavar="M",
        help="verify tr(f(rho) A) = tr(rho W) on M sampled densities",
    )
    p.set_defaults(func=_cmd_wp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, passed = args.func(args)
    except (_InputError, LinalgError, DualityError, algebra.AlgebraError, ChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.pretty)
    except BrokenPipeError:
        # The reader left early.  Point stdout at the null device so the
        # flush at exit stays silent; the verdict is the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
