"""The benchmark workloads: inputs from a seed, the timed call, the output check.

Each workload runs once per fresh interpreter (see child.py).  `prepare`
builds the inputs from the seed and is part of set-up; `run` is the timed
section and returns the output together with one latency per operation;
`check` compares the output against the golden files and returns
(attempted, failed, digest).

The seed drives only the ext-queries sample and the shape order of
specht-build; the two sweeps are exhaustive and take no input from it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SYM_P, SYM_M = 5, 7
COMB_PRIMES, COMB_N, COMB_MAX_ENTRY = (2, 3, 5, 7), 10, 7
BUILD_P, BUILD_M, BUILD_CAP = 5, 8, 8
QUERY_COUNT = 4000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


class SymSweep:
    """harness.sweep_sym(p, m): Specht builds, radicals, heads, hom systems."""

    name = "sym-sweep"

    def __init__(self, p: int = SYM_P, m: int = SYM_M):
        self.p, self.m = p, m

    def prepare(self, seed: int):
        return (self.p, self.m)

    def run(self, inputs):
        from csext import harness

        t0 = time.perf_counter()
        report = harness.sweep_sym(*inputs)
        return report.to_csv(), [time.perf_counter() - t0]

    def planned(self, inputs) -> int:
        return len(load_golden(self.name)["csv"].splitlines()) - 1

    def check(self, inputs, csv_text: str, golden: dict | None):
        lines = csv_text.splitlines()[1:]
        failed = sum(1 for line in lines if ",mismatch," in line)
        if golden is not None:
            want = golden["csv"].splitlines()[1:]
            failed = max(failed, sum(1 for a, b in zip(lines, want) if a != b)
                         + abs(len(lines) - len(want)))
            attempted = len(want)
        else:
            attempted = len(lines)
        return attempted, failed, sha256(csv_text)

    def golden(self, inputs, csv_text: str) -> dict:
        return {"config": {"p": self.p, "m": self.m}, "csv_sha256": sha256(csv_text), "csv": csv_text}


class CombSweep:
    """harness.sweep_comb(primes, n, max_entry): combinatorics only."""

    name = "comb-sweep"

    def __init__(self, primes=COMB_PRIMES, n: int = COMB_N, max_entry: int = COMB_MAX_ENTRY):
        self.primes, self.n, self.max_entry = list(primes), n, max_entry

    def prepare(self, seed: int):
        return (self.primes, self.n, self.max_entry)

    def run(self, inputs):
        from csext import harness

        t0 = time.perf_counter()
        report = harness.sweep_comb(*inputs)
        elapsed = time.perf_counter() - t0
        counts = {k: report.summary[k] for k in
                  ("weights_checked", "checks_run", "big_weights", "hat_p_restricted")}
        return {"csv": report.to_csv(), "counts": counts}, [elapsed]

    def planned(self, inputs) -> int:
        return load_golden(self.name)["counts"]["weights_checked"]

    def check(self, inputs, output: dict, golden: dict | None):
        # Rows are counterexamples, one per failing weight and check.
        failed = output["csv"].count("\n") - 1
        attempted = output["counts"]["weights_checked"]
        if golden is not None:
            attempted = golden["counts"]["weights_checked"]
            if output["counts"] != golden["counts"] or sha256(output["csv"]) != golden["csv_sha256"]:
                failed = max(failed, 1)
        digest = sha256(output["csv"] + json.dumps(output["counts"], sort_keys=True))
        return attempted, failed, digest

    def golden(self, inputs, output: dict) -> dict:
        return {"config": {"primes": self.primes, "n": self.n, "max_entry": self.max_entry},
                "csv_sha256": sha256(output["csv"]), "counts": output["counts"]}


def _is_p_regular(shape, p: int) -> bool:
    return not shape or max(Counter(shape).values()) < p


class SpechtBuild:
    """specht_data, rad_dim and (p-regular shapes) simple_head for every
    partition of m, in a seeded order; never builds a hom system."""

    name = "specht-build"

    def __init__(self, p: int = BUILD_P, m: int = BUILD_M, cap: int = BUILD_CAP,
                 shapes: list | None = None):
        self.p, self.m, self.cap = p, m, cap
        self.shapes = shapes

    def prepare(self, seed: int):
        shapes = self.shapes
        if shapes is None:
            shapes = [tuple(r["shape"]) for r in load_golden(self.name)["records"]]
        shapes = [tuple(s) for s in shapes]
        random.Random(seed).shuffle(shapes)
        return [(s, _is_p_regular(s, self.p)) for s in shapes]

    def run(self, inputs):
        import warnings

        from csext import specht

        p, cap = self.p, self.cap
        records, ops = [], []
        clock = time.perf_counter
        with warnings.catch_warnings():
            # cap=8 warns about memory on every degree-8 build.
            warnings.simplefilter("ignore")
            for shape, regular in inputs:
                t0 = clock()
                dim = specht.specht_data(shape, p, cap).rep.dim
                rad = specht.rad_dim(shape, p, cap)
                head = specht.simple_head(shape, p, cap).dim if regular else None
                ops.append(clock() - t0)
                records.append({"shape": list(shape), "dim": dim, "rad_dim": rad, "head_dim": head})
        return records, ops

    @staticmethod
    def _canonical(records) -> list:
        return sorted(records, key=lambda r: r["shape"], reverse=True)

    def planned(self, inputs) -> int:
        return len(inputs)

    def check(self, inputs, records: list, golden: dict | None):
        attempted, failed = len(inputs), 0
        if golden is not None:
            want = {tuple(r["shape"]): r for r in golden["records"]}
            failed = sum(1 for r in records if want.get(tuple(r["shape"])) != r)
            failed += abs(len(want) - len(records))
            attempted = len(want)
        return attempted, failed, sha256(json.dumps(self._canonical(records)))

    def golden(self, inputs, records: list) -> dict:
        canon = self._canonical(records)
        return {"config": {"p": self.p, "m": self.m, "cap": self.cap},
                "sha256": sha256(json.dumps(canon)), "records": canon}


def query_argv(query: str) -> list[str]:
    """'gl 3 2,2,0,0 1,1,1,1' -> the argv of one `csext ext` JSON query."""
    side, p, lam, mu = query.split()
    return ["ext", side, "--p", p, "--lambda", lam, "--mu", mu, "--format", "json"]


class ExtQueries:
    """A seeded sample of `csext ext gl|sym ... --format json` queries, issued
    one after another through cli.main (a closed loop with one caller)."""

    name = "ext-queries"

    def __init__(self, count: int = QUERY_COUNT, pool: dict | None = None):
        self.count = count
        self._pool = pool

    def pool(self) -> dict:
        if self._pool is None:
            self._pool = load_golden(self.name)
        return self._pool

    def prepare(self, seed: int):
        queries = self.pool()["queries"]
        rng = random.Random(seed)
        picks = rng.sample(range(len(queries)), min(self.count, len(queries)))
        return [(i, query_argv(queries[i])) for i in picks]

    def run(self, inputs):
        from csext import cli

        results, ops = [], []
        clock = time.perf_counter
        real_out, real_err = sys.stdout, sys.stderr
        try:
            for _, argv in inputs:
                out, err = io.StringIO(), io.StringIO()
                sys.stdout, sys.stderr = out, err
                t0 = clock()
                code = cli.main(argv)
                ops.append(clock() - t0)
                results.append((code, out.getvalue()))
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        return results, ops

    @staticmethod
    def digest(inputs, results) -> str:
        rows = [[" ".join(argv), code, out] for (_, argv), (code, out) in zip(inputs, results)]
        return sha256(json.dumps(rows))

    def planned(self, inputs) -> int:
        return len(inputs)

    def check(self, inputs, results: list, golden: str | None):
        pool = self.pool()
        outputs, expected = pool["outputs"], pool["expected"]
        failed = sum(
            1 for (i, _), (code, out) in zip(inputs, results)
            if [code, out] != [expected[i][0], outputs[expected[i][1]]]
        )
        failed += abs(len(inputs) - len(results))
        digest = self.digest(inputs, results)
        if golden is not None and digest != golden:
            failed = len(inputs)
        return len(inputs), failed, digest


WORKLOADS = {w.name: w for w in (SymSweep, SpechtBuild, CombSweep, ExtQueries)}


def golden_for(workload, seed: int):
    """What a run is checked against.  ext-queries checks every query against
    the pool's answer table, and the whole list against the stored digest
    when the seed is one of the recorded ones."""
    if isinstance(workload, ExtQueries):
        return workload.pool()["seed_digests"].get(str(seed))
    return load_golden(workload.name)
