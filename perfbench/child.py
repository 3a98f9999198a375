"""One cold benchmark process: set up, run a workload once, report one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --spawned-at T [--trace | --setup-only]

A --setup-only process reports setup_s and the number of operations the
run would attempt (run.py charges them as failed if a timed child crashes).

run.py starts a fresh interpreter for every timed run, because csext keeps
process-wide caches of Specht data; a second run in the same process would
time cache hits that no `csext` invocation ever gets.  --spawned-at is the
parent's time.perf_counter() just before it started this process (the clock
is system-wide), so setup_s includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
SPAN_DIR = ROOT / ".perfbench"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report setup_s and the planned operations")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import csext.cli  # noqa: F401  (what the `csext` command imports, numpy included)
    import numpy as np

    from perfbench import workloads as wl

    src = Path(csext.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"csext was imported from {src}, not from this checkout")
    work = wl.WORKLOADS[args.workload]()
    inputs = work.prepare(args.seed)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "planned": work.planned(inputs)}))
        return 0

    tracer = None
    if args.trace:
        from perfbench.layers import make_tracer

        tracer = make_tracer(f"{work.name}-{args.seed}-{os.getpid()}")
        tracer.install()
    error = None
    output, ops = None, []
    t0 = time.perf_counter()
    try:
        output, ops = work.run(inputs)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    if error is None:
        attempted, failed, digest = work.check(inputs, output, wl.golden_for(work, args.seed))
    else:
        # An exception fails every operation of the run.
        attempted = failed = work.planned(inputs)
        digest = None
    result = {
        "workload": work.name,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_s": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "error": error,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cache_env": os.environ.get("CSEXT_CACHE_DIR"),
        "context": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if tracer is not None:
        from perfbench.layers import layer_metrics

        result["layers"] = layer_metrics(tracer, wall_s)
        # Overwritten by the next traced run of the same workload.
        tracer.recorder.write(SPAN_DIR / f"spans-{work.name}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
