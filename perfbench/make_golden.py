"""Regenerate the golden outputs in perfbench/golden/ from the current source.

    python3 perfbench/make_golden.py

The committed files were generated from the commit that introduced the
benchmark.  Regenerate them only when a change is meant to alter an output,
and say so in that change: the benchmark counts every difference from these
files as a failed operation.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from csext import combinatorics as comb  # noqa: E402
from csext.errors import ScopeError  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

POOL_SEED = 701545
POOL_SIZE = 5000
PRIMES = (2, 3, 5, 7)
# The seeds whose whole query list is pinned by digest: the default seed and
# one held out from tuning.
DIGEST_SEEDS = (0, 90210)


def _fmt(t) -> str:
    return ",".join(str(x) for x in t)


def _random_weight(rng: random.Random, n: int, p: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(0, p + 2) for _ in range(n)), reverse=True))


def _gl_query(rng: random.Random, p: int, move: bool) -> str:
    n = rng.randint(2, 7)
    # A common shift exercises the determinant twist; negative entries would
    # read as options on the command line.
    shift = rng.choice((0, 0, 1, 2))
    lam = _random_weight(rng, n, p)
    mu = _random_weight(rng, n, p)
    if move:
        # Search for a big weight so the dim-1 path runs, mu = hat(lam).
        for _ in range(200):
            cand = _random_weight(rng, n, p)
            try:
                if comb.is_big_weight(cand, p):
                    lam, mu = cand, comb.hat(cand, p)
                    break
            except ScopeError:
                continue
    lam = tuple(x + shift for x in lam)
    mu = tuple(x + shift for x in mu)
    return f"gl {p} {_fmt(lam)} {_fmt(mu)}"


def _sym_query(rng: random.Random, p: int, move: bool) -> str:
    m = rng.randint(3, 12)
    parts = comb.enum_partitions(m)
    lam, mu = rng.choice(parts), rng.choice(parts)
    if move and p > 2:
        # mu = tilde(lam) for a big p-regular lam, so the dim-1 path runs.
        big = [x for x in parts if comb.is_big_partition(x, p) and comb.is_p_regular(x, p)]
        if big:
            lam = rng.choice(big)
            mu = comb.tilde(lam, p)
    return f"sym {p} {_fmt(lam)} {_fmt(mu)}"


def query_pool() -> list[str]:
    rng = random.Random(POOL_SEED)
    pool: dict[str, None] = {}
    while len(pool) < POOL_SIZE:
        p = rng.choice(PRIMES)
        move = rng.random() < 0.15
        make = _gl_query if rng.random() < 0.5 else _sym_query
        pool.setdefault(make(rng, p, move))
    return list(pool)


def ext_queries_golden() -> dict:
    queries = query_pool()
    work = wl.ExtQueries(pool={"queries": queries})
    results = work.run([(i, wl.query_argv(q)) for i, q in enumerate(queries)])[0]
    outputs: list[str] = []
    index: dict[str, int] = {}
    expected = []
    for code, out in results:
        if code not in (0, 2):
            raise SystemExit(f"query exited {code}; the pool must hold no failing operation")
        if out not in index:
            index[out] = len(outputs)
            outputs.append(out)
        expected.append([code, index[out]])
    digests = {}
    for seed in DIGEST_SEEDS:
        inputs = work.prepare(seed)
        digests[str(seed)] = work.digest(inputs, [results[i] for i, _ in inputs])
    return {"pool_seed": POOL_SEED, "queries": queries, "outputs": outputs,
            "expected": expected, "seed_digests": digests}


def main() -> None:
    out_dir = wl.GOLDEN_DIR
    out_dir.mkdir(exist_ok=True)
    shapes = comb.enum_partitions(wl.BUILD_M)
    for work in (wl.SymSweep(), wl.CombSweep(), wl.SpechtBuild(shapes=shapes)):
        inputs = work.prepare(0)
        output, _ = work.run(inputs)
        data = work.golden(inputs, output)
        (out_dir / f"{work.name}.json").write_text(json.dumps(data) + "\n")
        print(f"{work.name}: written")
    data = ext_queries_golden()
    codes = [c for c, _ in data["expected"]]
    ones = sum(1 for c, k in data["expected"] if '"dim": 1' in data["outputs"][k])
    (out_dir / "ext-queries.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"ext-queries: {len(codes)} queries, {codes.count(2)} out of scope, {ones} with dim 1")


if __name__ == "__main__":
    main()
