"""hsdual benchmark: one workload per call, each in fresh interpreters.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ``src/``.  Every
worker process runs with BLAS pinned to one thread, and the load is closed
loop with a single client (see ``worker.py``).

``--trace 0`` prints the end-to-end metrics.  Set-up is timed five times (the
measuring worker, with two set-up-only workers before it and two after) and
``setup_s`` is their median.
``--trace 1`` prints the per-layer metrics: an untraced worker runs for half
the time, then a traced worker runs exactly the same ops, whose outputs must
hash identically; ``trace.overhead_ratio`` is their wall-time ratio.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give provenance, the reason
the workload was chosen, and each metric with its unit.  The exit code is 0
only when every op passed its oracle.  ``--smoke`` runs every workload at a
tiny size in both modes and checks that every metric named in
``BENCHMARK.json`` is printed with its unit and that no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

#: Wall-clock budget of one call, kept under three minutes.
DEADLINE_S = 170.0
SETUP_REPEATS = 5


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, its JSON summary or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_env(),
        text=True,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed (exit {code})")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run(workload: str, seed: int, seconds: float, trace: int,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        # Set-up-only workers run before and after the measuring one, so the
        # median samples the host at several moments of the run.
        extra = setup_repeats - 1
        setups = [spawn(base + ["--setup-only"], deadline)[0] for _ in range(extra // 2)]
        setup, res = spawn(base + ["--seconds", str(seconds)], deadline)
        setups.append(setup)
        setups += [spawn(base + ["--setup-only"], deadline)[0] for _ in range(extra - extra // 2)]
        cycle_s = sum(res["class_wall_s"])
        n_classes = len(res["class_wall_s"])
        res["metrics"] = {
            "ops_per_s": n_classes / cycle_s * res["correct_timed_ops"] / res["ops"],
            "latency_p50_ms": statistics.median(res["class_wall_s"]) * 1e3,
            "latency_tail_ms": res["tail_s"] * 1e3,
            "cpu_ms_per_op": statistics.fmean(res["class_cpu_s"]) * 1e3,
            "correct_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        res["setups_s"] = setups
        return res

    _, plain = spawn(base + ["--seconds", str(seconds / 2.0)], deadline)
    _, res = spawn(base + ["--ops", str(plain["ops"]), "--trace", "1"], deadline)
    if res["digest"] != plain["digest"]:
        res["failed"] += 1
        res["failures"].append("traced and untraced runs produced different outputs")
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    res["attempted"] += plain["attempted"]
    res["metrics"] = dict(res.pop("per_layer"))
    res["metrics"]["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
    return res


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(spec: dict, trace: int) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for one mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(res: dict, why: str, unit: dict) -> str:
    lines = [
        f"workload {res['workload']} seed {res['seed']}: {why}",
        "provenance " + json.dumps(res["provenance"], sort_keys=True),
        "duality caches (timed-phase hits and misses, final size) "
        + json.dumps(res["caches"], sort_keys=True),
        f"ops {res['ops']} timed, {res['attempted']} attempted, {res['failed']} failed",
        f"plain figures: {res['ops'] / res['wall_s']:.6g} ops/s over {res['wall_s']:.3f} s,"
        f" pooled median latency {res['pooled_p50_s'] * 1e3:.6g} ms,"
        f" mean CPU {res['cpu_s'] * 1e3 / res['ops']:.6g} ms/op",
    ]
    lines += [f"failure: {f}" for f in res["failures"]]
    for name, value in res["metrics"].items():
        line = f"  {name:40s} {value:14.6g} {unit[name]}"
        if name == "latency_tail_ms":
            line += (f"  (p{res['tail_percentile']:.2f}: {res['tail_beyond']} of"
                     f" {res['samples']} samples beyond)")
        if name == "setup_s":
            line += "  (median of " + ", ".join(f"{s:.3f}" for s in res["setups_s"]) + ")"
        lines.append(line)
    return "\n".join(lines)


def result_line(res: dict, unit: dict) -> str:
    """The final JSON line: exactly the metrics BENCHMARK.json lists."""
    if set(res["metrics"]) != set(unit):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(res['metrics']) ^ set(unit))}"
        )
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": u} for name, u in unit.items()},
    })


def smoke() -> int:
    """Tiny runs of every workload in both modes against BENCHMARK.json."""
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            unit = units(spec, trace)
            try:
                res = run(w["name"], seed=1, seconds=0.2, trace=trace, setup_repeats=1)
                out = json.loads(result_line(res, unit))
            except BenchError as exc:
                problems.append(f"{w['name']} trace={trace}: {exc}")
                continue
            for name, u in unit.items():
                got = out["metrics"].get(name, {})
                if got.get("unit") != u or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w['name']} trace={trace}: {name} printed as {got}")
            if out["failed"] or not out["correct"]:
                problems.append(f"{w['name']} trace={trace}: {res['failures']}")
            print(f"smoke {w['name']} trace={trace}: {len(out['metrics'])} metrics,"
                  f" {out['attempted']} ops, {out['failed']} failed", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args()

    if not (ROOT / "src" / "hsdual" / "__init__.py").is_file():
        print(f"error: no hsdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: --workload must be one of {sorted(why)}", file=sys.stderr)
        return 2
    unit = units(spec, args.trace)
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
        line = result_line(res, unit)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(res, why[args.workload], unit))
    print(line, flush=True)
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
