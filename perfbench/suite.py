"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 [--trace] [--out FILE]

For each workload in BENCHMARK.json and each seed this runs perfbench/run.py
once for run_seconds, then prints, per metric, the median over seeds with its
unit, the quartiles, and the spread (distance between the quartiles as a
share of the median) next to the bound from BENCHMARK.json.  --trace adds one traced run per workload (first seed)
for the per-layer metrics.  --out writes every run's result and the machine
context as JSON.  Exits 1 if any run's outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    ctx = next((json.loads(x[len("context: "):]) for x in lines if x.startswith("context: ")), None)
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "error": proc.stderr.strip()[-1000:]}, ctx
    return json.loads(lines[-1]), ctx


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    record: dict = {"context": None, "runs": []}
    all_correct = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in args.seeds:
            result, ctx = run_once(workload, seed, spec["run_seconds"], 0)
            record["context"] = record["context"] or ctx
            record["runs"].append({"workload": workload, "seed": seed, "trace": 0, **result})
            all_correct &= bool(result.get("correct"))
            results.append(result)
        ok = [r for r in results if r.get("correct")]
        print(f"== {workload}: {len(ok)}/{len(results)} runs correct, "
              f"{sum(r.get('failed', 0) for r in results)} failed of "
              f"{sum(r.get('attempted', 0) for r in results)} attempted")
        for name, (unit, bound) in bounds.items():
            vals = [r["metrics"][name]["value"] for r in ok if name in r.get("metrics", {})]
            if vals:
                med, q1, q3, sp = spread(vals)
                print(f"  {name:<12} {med:14.6g} {unit:<3} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {sp:.4f} (bound {bound}) runs: "
                      + " ".join(f"{v:.4g}" for v in vals))
        if args.trace:
            result, _ = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
            record["runs"].append({"workload": workload, "seed": args.seeds[0], "trace": 1, **result})
            all_correct &= bool(result.get("correct"))
            for name, m in result.get("metrics", {}).items():
                print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
