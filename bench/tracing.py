"""Span tracing of hsdual from outside the package.

The layers import each other with ``from .x import name``, so a function has
one binding in its defining module and one in every module that imports it.
``Tracer.install`` replaces the original function object at every such
binding (found by identity, so renamed imports such as ``wp as
weakest_precondition`` are caught too) with one wrapper that records a span.
No file of the package is changed.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
in memory and are written out by ``dump`` when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls on
one thread nest, so the children never overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

#: Traced span groups: group name -> (module, function) pairs.  A group with
#: several functions (``linalg.matrix_json``, ``free.iso``) sums them.
SPAN_GROUPS = {
    "linalg.hermitian_eig": [("linalg", "hermitian_eig")],
    "linalg.as_matrix": [("linalg", "as_matrix")],
    "linalg.matrix_json": [("linalg", "matrix_to_json"), ("linalg", "matrix_from_json")],
    "operators.classify": [("operators", "classify")],
    "operators.pos_neg_split": [("operators", "pos_neg_split")],
    "operators.loewner_leq": [("operators", "loewner_leq")],
    "duality.hs_inverse": [("duality", "hs_inverse")],
    "wp.wp": [("wp", "wp")],
    "wp.super_channel": [("wp", "super_channel")],
    "wp.apply_channel": [("wp", "apply_channel")],
    "algebra.monad_law_suite": [("algebra", "monad_law_suite")],
    "algebra.formal_sum": [("algebra", "formal_sum")],
    "effect.law_suite": [("effect", "law_suite")],
    "free.iso": [
        ("free", name)
        for name in (
            "s_iso_dm_pos",
            "s_iso_pos_dm",
            "r_iso_pos_sa",
            "r_iso_sa_pos",
            "c_iso_sa_b",
            "c_iso_b_sa",
        )
    ],
    "cli.main": [("cli", "main")],
}

#: Process-wide memo caches of the duality layer, read (never cleared) through
#: ``cache_info()``.
CACHES = {
    "split_cache": "_split_cached_bytes",
    "max_eig_cache": "_max_eig_cached_bytes",
    "spot_probe_cache": "_spot_probes",
}

LAYERS = ("linalg", "operators", "duality", "algebra", "effect", "free", "wp", "cli")
MODULES = tuple(f"hsdual.{layer}" for layer in LAYERS)


def cache_snapshot() -> dict:
    """hits, misses and current size of each duality cache (absent: zeros)."""
    duality = sys.modules.get("hsdual.duality")
    out = {}
    for key, attr in CACHES.items():
        fn = getattr(duality, attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = {
            "hits": info.hits if info else 0,
            "misses": info.misses if info else 0,
            "size": info.currsize if info else 0,
        }
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {
        key: {
            "hits": after[key]["hits"] - before[key]["hits"],
            "misses": after[key]["misses"] - before[key]["misses"],
            "size": after[key]["size"],
        }
        for key in after
    }


class Tracer:
    """In-memory span store plus the counters recorded at the same wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    # --- recording -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def inside(self, group: str) -> bool:
        gid = self._name_ids.get(group)
        return gid is not None and any(self.span_name[i] == gid for i in self._stack)

    def span(self, group: str, fn, before=None, after=None):
        """Wrap fn so each call records a span named ``group``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result)`` sees the return value.  Both run inside the span.
        """
        gid = self._name_ids.setdefault(group, len(self.names))
        if gid == len(self.names):
            self.names.append(group)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(gid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every hsdual module binding of it."""
        modules = [importlib.import_module(name) for name in ("hsdual", *MODULES)]
        hooks = {
            "duality.hs_inverse": (self._count_functional, None),
            "algebra.monad_law_suite": (
                None,
                lambda report: self.count("algebra.laws_checked", report["checked"]),
            ),
            "effect.law_suite": (
                self._count_ovee,
                lambda report: self.count(
                    "effect.laws_checked", sum(e.checked for e in report.entries)
                ),
            ),
        }
        wrappers = {}
        for group, targets in SPAN_GROUPS.items():
            before, after = hooks.get(group, (None, None))
            for layer, name in targets:
                original = getattr(importlib.import_module(f"hsdual.{layer}"), name)
                wrapper = self.span(group, original, before, after)
                wrappers[id(original)] = (original, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _count_functional(self, args, kwargs):
        # hs_inverse(kind, f, tol): count black-box evaluations of f, and the
        # pre-expectation evaluations of a wp call separately.
        args = list(args)
        f = args[1] if len(args) > 1 else kwargs["f"]
        in_wp = self.inside("wp.wp")
        inner = f.eval

        def counted(B):
            self.count("duality.functional_evals")
            if in_wp:
                self.count("wp.channel_evals")
            return inner(B)

        wrapped = dataclasses.replace(f, eval=counted)
        if len(args) > 1:
            args[1] = wrapped
        else:
            kwargs["f"] = wrapped
        return tuple(args), kwargs

    def _count_ovee(self, args, kwargs):
        # law_suite(inst, ...): count partial-sum attempts and defined results.
        args = list(args)
        inst = args[0] if args else kwargs["inst"]
        inner = inst.ovee

        def counted(x, y):
            s = inner(x, y)
            self.count("effect.ovee.calls")
            if s is not None:
                self.count("effect.ovee.defined")
            return s

        wrapped = dataclasses.replace(inst, ovee=counted)
        if args:
            args[0] = wrapped
        else:
            kwargs["inst"] = wrapped
        return tuple(args), kwargs

    # --- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans (flat arrays) and counters to an ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(self.counters)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def load(path: str) -> dict:
    import numpy as np

    with np.load(path) as z:
        out = {key: z[key] for key in ("name", "parent", "op", "start", "end")}
        out["names"] = json.loads(str(z["names"]))
        out["counters"] = json.loads(str(z["counters"]))
    return out


def self_times(dump: dict) -> dict:
    """Per group: number of spans and summed self time in seconds.

    Only spans of timed ops (op id >= 0) count; warm-up runs with op id -1.
    """
    import numpy as np

    names = dump["names"]
    dur = dump["end"] - dump["start"]
    parent = dump["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child[: len(dur)]
    timed = dump["op"] >= 0
    name = dump["name"][timed]
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own[timed], minlength=len(names))
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }
