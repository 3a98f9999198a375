"""Benchmark runner for csext: cold-process runs of one workload.

    python3 perfbench/run.py --workload sym-sweep --seed 0 --seconds 27 --trace 0

Run from the root of a checkout.  Every timed run is a fresh interpreter
(perfbench/child.py), started one at a time until the next one would end
after --seconds (an untraced run always makes at least OP_CHILDREN of
them); each checks its own outputs against perfbench/golden/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, from untraced runs only; with --trace 1 they are
the per-layer ones, from traced runs that alternate with untraced runs (the
untraced runs give trace_overhead).  The metrics of the result are also
printed above the JSON line, by name and with their units.

run.py uses only the standard library.  It exits 2 without a result
when the checkout has no csext source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sym-sweep", "specht-build", "comb-sweep", "ext-queries")
# A run must end within 180 s whatever the program does; a child still
# running at this point is killed and its run counts as failed.
RUN_DEADLINE_S = 170
# Set-up takes well under a second but varies by +-20% from one process to
# the next, so set-up-only processes before each timed child are cheap and
# make the median of setup_s steadier than the few timed children alone.
SETUP_SAMPLES = 6
# op_p50_us and op_p99_us take each operation's fastest time over exactly
# this many untraced children (the first ones), so that parent and change use
# the same estimator whatever count their budget yields; an untraced run
# always makes at least this many.  It is the count a 27 s budget yields at
# the seed commit on a slow 2-core host.
OP_CHILDREN = {"sym-sweep": 2, "specht-build": 3, "comb-sweep": 3, "ext-queries": 5}
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_us": "us",
    "op_p99_us": "us",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    # A user's disk cache would turn Specht builds into loads.
    env.pop("CSEXT_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, timeout: float, mode: str | None = None) -> dict:
    """Run one child process; mode is None, "--trace" or "--setup-only"."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if mode:
        cmd.append(mode)
    spawned = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"killed after {timeout:.0f} s", "elapsed": timeout}
    elapsed = time.perf_counter() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    k = max(0, min(len(sorted_values) - 1, int(-(-q * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(children: list[dict], args) -> dict:
    ctx = next((c["context"] for c in children if "context" in c), {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": ctx.get("python", platform.python_version()),
        "numpy": ctx.get("numpy", "unknown"), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": read_commit(),
    }


def schedule(args) -> tuple[list[dict], list[float]]:
    """Start turns one at a time until the next would end after the budget.

    A turn is SETUP_SAMPLES set-up-only processes and then one timed child;
    spreading the set-up samples over the run keeps one slow second of the
    host from skewing all of them.  A traced run alternates traced and
    untraced timed children and has at least one of each; an untraced run has
    at least OP_CHILDREN.  Returns the timed children and the set-up-only
    setup_s.  A crashed process ends the schedule; its entry carries the
    operations the run planned, as the set-up-only processes report them.
    """
    t0 = time.perf_counter()

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - t0))

    kinds = [True, False] if args.trace else [False]
    minimum = {True: 1, False: 1 if args.trace else OP_CHILDREN[args.workload]}
    made = {True: 0, False: 0}
    last: dict[bool, float] = {}
    children: list[dict] = []
    setups: list[float] = []
    planned = 1
    turn = 0
    while True:
        traced = kinds[turn % len(kinds)]
        began = time.perf_counter()
        if all(made[k] >= minimum[k] for k in kinds) and began - t0 + last[traced] > args.seconds:
            break
        for _ in range(SETUP_SAMPLES):
            probe = run_child(args.workload, args.seed, remaining(), "--setup-only")
            if "crashed" in probe:
                return children + [{**probe, "planned": planned}], setups
            setups.append(probe["setup_s"])
            planned = probe["planned"]
        child = run_child(args.workload, args.seed, remaining(), "--trace" if traced else None)
        child["traced"] = traced
        children.append(child)
        last[traced] = time.perf_counter() - began
        made[traced] += 1
        if "crashed" in child:
            child["planned"] = planned
            break
        turn += 1
    return children, setups


def median_of(children: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in children)


def end_to_end(untraced: list[dict], setups: list[float], op_children: int) -> dict[str, float]:
    # Every child runs the same operations in the same order.  Each operation's
    # latency is its fastest time over the first op_children children: a stall
    # from outside the program (another tenant on a shared core) rarely hits
    # the same operation in every child, while a cost that recurs in every
    # child (a slow query, a collection pause) stays in the distribution.
    ops = sorted(min(xs) for xs in zip(*(c["ops_s"] for c in untraced[:op_children])))
    return {
        "wall_s": median_of(untraced, "wall_s"),
        "setup_s": statistics.median(setups + [c["setup_s"] for c in untraced]),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "op_p50_us": statistics.median(ops) * 1e6,
        "op_p99_us": percentile(ops, 99) * 1e6,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    out["trace_overhead"] = median_of(traced, "wall_s") / median_of(untraced, "wall_s")
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".share")) or name == "trace_overhead":
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("elim_cells"):
        return "cells"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/csext/__init__.py", "perfbench/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: nothing to measure, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    children, setups = schedule(args)
    crashed = [c for c in children if "crashed" in c]
    done = [c for c in children if "crashed" not in c]
    print("context: " + json.dumps(context(done, args)))

    # A crashed process fails every operation its run planned.
    attempted = sum(c["attempted"] for c in done) + sum(c["planned"] for c in crashed)
    failed = sum(c["failed"] for c in done) + sum(c["planned"] for c in crashed)
    errors = [c["error"] for c in done if c["error"]] + [c["crashed"] for c in crashed]
    digests = {c["digest"] for c in done}
    for err in errors:
        print("error: " + err.strip().splitlines()[-1], file=sys.stderr)
    for c in done:
        for var, val in c["thread_env"].items():
            if val is not None and val.isdigit() and int(val) > 1:
                print(f"warning: child ran with {var}={val}; timings include thread contention")
        if c["cache_env"]:
            print("warning: child saw CSEXT_CACHE_DIR; builds may have been cache loads")
    if len(digests) > 1:
        print(f"error: runs disagree on the output digest: {sorted(map(str, digests))}",
              file=sys.stderr)

    untraced = [c for c in done if not c["traced"]]
    traced = [c for c in done if c["traced"]]
    correct = not crashed and not errors and failed == 0 and len(digests) == 1
    print(f"runs: {len(untraced)} untraced, {len(traced)} traced; "
          f"fail_ratio = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    op_children = OP_CHILDREN[args.workload]
    if not untraced or (args.trace and not traced) or (not args.trace and len(untraced) < op_children):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    print("wall_s of each untraced run: " + " ".join(f"{c['wall_s']:.4f}" for c in untraced))
    if args.trace:
        layers = per_layer(traced, untraced)
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        e2e = end_to_end(untraced, setups, op_children)
        for name, value in e2e.items():
            print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
        n_ops = len(untraced[0]["ops_s"])
        print(f"setup_s samples: {len(setups) + len(untraced)}; op latency samples: {n_ops} "
              f"operations, each the fastest of the first {op_children} runs "
              f"({n_ops - -(-99 * n_ops // 100)} beyond op_p99_us)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
