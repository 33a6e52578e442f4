"""One workload in one fresh interpreter: set-up, timed phase, oracle.

Started by ``run.py``; not meant to be run by hand.  The process imports
``hsdual`` from ``<root>/src``, optionally installs the tracer, generates the
inputs, warms up with one op per class, prints ``READY`` (the parent times
set-up up to that line), then runs the closed loop: one client, the next op
only after the previous one returned.  The timed phase ends at the first
class-cycle boundary after ``--seconds`` (or after exactly ``--ops`` ops),
so every run covers whole cycles.  Outputs are kept in memory and checked by
the oracle after the timed phase.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import types
from pathlib import Path

import tracing
import workloads

#: Minimum timed ops: with fewer than 20 the highest percentile that has ten
#: samples beyond it would fall below the median.
MIN_OPS = 20


def _cpu_s(children: bool) -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    t = r.ru_utime + r.ru_stime
    if children:
        c = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += c.ru_utime + c.ru_stime
    return t


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


#: Each op class's wall and CPU time is summarised by this percentile of its
#: samples.  On a shared host the speed of one run alternates between a
#: contended level and boost episodes whose share differs from run to run.
#: Means and medians follow that share; the 90th percentile stays near the
#: contended level (see README.md for the measured spreads).
CLASS_PERCENTILE = 90


def summarize(latencies: list[float], cpu: list[float], n_classes: int) -> dict:
    """Per-class p90 wall and CPU seconds, plus pooled median and tail.

    The tail is the highest percentile with at least ten samples beyond it:
    with n sorted samples the value at index n - 11, percentile
    100 * (n - 10) / n.  Ops come in whole cycles, one op of each class.
    """
    import numpy as np

    wall = np.array(latencies).reshape(-1, n_classes)
    cpus = np.array(cpu).reshape(-1, n_classes)
    xs = np.sort(wall, axis=None)
    n = xs.size
    k = n - 11 if n >= 11 else n - 1
    return {
        "class_wall_s": np.percentile(wall, CLASS_PERCENTILE, axis=0).tolist(),
        "class_cpu_s": np.percentile(cpus, CLASS_PERCENTILE, axis=0).tolist(),
        "pooled_p50_s": float(np.median(xs)),
        "tail_s": float(xs[k]),
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "samples": n,
    }


def per_layer(dumps: list[dict], cache: dict, ops: int) -> dict:
    """Per-layer metrics (per timed op unless named otherwise) from traces."""
    calls: dict[str, int] = {g: 0 for g in tracing.SPAN_GROUPS}
    self_s: dict[str, float] = {g: 0.0 for g in tracing.SPAN_GROUPS}
    counters: dict[str, float] = {}
    for dump in dumps:
        for group, st in tracing.self_times(dump).items():
            calls[group] += st["calls"]
            self_s[group] += st["self_s"]
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def c(key):
        return counters.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for group in tracing.SPAN_GROUPS:
        out[f"{group}.calls"] = calls[group] / ops
        out[f"{group}.self_s"] = self_s[group] / ops
    out["duality.functional_evals"] = c("duality.functional_evals") / ops
    out["duality.evals_per_inverse"] = ratio(c("duality.functional_evals"), calls["duality.hs_inverse"])
    for key, st in cache.items():
        lookups = st["hits"] + st["misses"]
        out[f"duality.{key}.hit_ratio"] = ratio(st["hits"], lookups)
        out[f"duality.{key}.lookups"] = lookups / ops
        out[f"duality.{key}.size"] = st["size"]
    out["wp.channel_evals"] = ratio(c("wp.channel_evals"), calls["wp.wp"])
    out["algebra.laws_checked"] = c("algebra.laws_checked") / ops
    out["effect.laws_checked"] = c("effect.laws_checked") / ops
    out["effect.ovee.calls"] = c("effect.ovee.calls") / ops
    out["effect.ovee.defined_ratio"] = ratio(c("effect.ovee.defined"), c("effect.ovee.calls"))
    out["cli.import_s"] = ratio(c("cli.import_s"), c("cli.processes"))
    out["cli.stdout_bytes"] = c("cli.stdout_bytes") / ops
    return out


def cli_caches(dumps: list[dict], ops: int) -> dict:
    """Duality cache counters summed over the traced CLI processes; sizes are
    the mean size at process exit."""
    out = {}
    for key in tracing.CACHES:
        stats = {
            stat: sum(d["counters"].get(f"cache.{key}.{stat}", 0) for d in dumps)
            for stat in ("hits", "misses", "size")
        }
        stats["size"] /= ops
        out[key] = stats
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many timed ops")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    work_dir = root / ".bench_work"
    (work_dir / "spans").mkdir(parents=True, exist_ok=True)

    import hsdual

    src = (root / "src").resolve()
    if src not in Path(hsdual.__file__).resolve().parents:
        print(f"error: hsdual imported from {hsdual.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    # The package re-exports functions under its submodules' names (hsdual.wp
    # is the function), so hand the workloads the modules themselves.
    hd = types.SimpleNamespace(
        **{layer: importlib.import_module(f"hsdual.{layer}") for layer in tracing.LAYERS}
    )
    wl = workloads.WORKLOADS[args.workload](hd, args.seed, work_dir)
    if tracer is not None and isinstance(wl, workloads.CliCold):
        wl.shim = Path(__file__).resolve().parent / "cli_shim.py"
    n_classes = len(wl.classes)

    # Warm-up: one op per class, checked at once (cli-cold keeps its stdout
    # as the reference for the byte-identity check).
    failures = []
    for i in range(n_classes):
        try:
            reason = wl.check(i, wl.op(i))
        except Exception as exc:  # noqa: BLE001 - any failure of the program counts
            reason = f"raised {exc!r}"
        if reason is not None:
            failures.append(f"warm-up op {i} {wl.classes[i]}: {reason}")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    children = wl.rss_of_children
    cache_before = tracing.cache_snapshot()
    if tracer is not None:
        tracer.counters.clear()
    latencies: list[float] = []
    cpu_times: list[float] = []
    outputs = []
    clock = time.perf_counter
    t0 = clock()
    i = n_classes
    while True:
        done = i - n_classes
        if args.ops is not None:
            if done >= args.ops:
                break
        elif (done % n_classes == 0 and done >= MIN_OPS
              and clock() - t0 >= args.seconds):
            break
        if tracer is not None:
            tracer.op = i
        c = _cpu_s(children)
        s = clock()
        try:
            out = wl.op(i)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            out = exc
        latencies.append(clock() - s)
        cpu_times.append(_cpu_s(children) - c)
        outputs.append(out)
        i += 1
    wall = clock() - t0
    cache = tracing.cache_delta(cache_before, tracing.cache_snapshot())
    ops = len(outputs)

    digest = hashlib.sha256()
    timed_failed = 0
    for k, out in enumerate(outputs, start=n_classes):
        if isinstance(out, Exception):
            reason = f"raised {out!r}"
        else:
            reason = wl.check(k, out)
            digest.update(wl.digest(out))
        if reason is not None:
            timed_failed += 1
            failures.append(f"op {k} {wl.classes[k % n_classes]}: {reason}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "attempted": ops + n_classes,
        "failed": len(failures),
        "correct_timed_ops": ops - timed_failed,
        "failures": failures[:5],
        "wall_s": wall,
        "cpu_s": sum(cpu_times),
        "peak_rss_mb": _peak_rss_mb(children),
        "caches": cache,
        "digest": digest.hexdigest(),
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        **summarize(latencies, cpu_times, n_classes),
    }
    if tracer is not None:
        spans = work_dir / "spans" / f"{args.workload}-seed{args.seed}.npz"
        tracer.dump(str(spans))
        dumps = [tracing.load(str(spans))]
        if isinstance(wl, workloads.CliCold):
            dumps += [tracing.load(str(wl.trace_path(k))) for k in range(n_classes, i)]
            cache = cli_caches(dumps, ops)
            dumps[0]["counters"]["cli.stdout_bytes"] = sum(
                len(out[1]) for out in outputs if isinstance(out, tuple)
            )
        result["per_layer"] = per_layer(dumps, cache, ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
