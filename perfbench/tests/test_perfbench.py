"""Tests of the benchmark itself: tracer restore, digests, span arithmetic.

    python3 -m unittest discover -s perfbench/tests -t .
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import csext.cli  # noqa: E402,F401
from csext import combinatorics, harness, oracle  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.layers import layer_metrics, make_tracer  # noqa: E402
from perfbench.trace import NO_PARENT, by_name, self_times  # noqa: E402


def bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "csext" or name.startswith("csext."))
            for attr, val in vars(mod).items()}


def small_workloads():
    return [
        wl.SymSweep(p=3, m=5),
        wl.SpechtBuild(p=3, m=5, cap=None, shapes=combinatorics.enum_partitions(5)),
        wl.CombSweep(primes=(2, 3), n=4, max_entry=3),
        wl.ExtQueries(count=300),
    ]


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_function(self):
        before = bindings()
        tracer = make_tracer("restore")
        with tracer:
            during = bindings()
            # Own-module names and from-import bindings are replaced by the
            # same wrapper.
            self.assertIsNot(during[("csext.combinatorics", "chi")], before[("csext.combinatorics", "chi")])
            self.assertIs(during[("csext.harness", "chi")], during[("csext.combinatorics", "chi")])
            self.assertIs(during[("csext.cli", "ext1_gl")], during[("csext.oracle", "ext1_gl")])
            self.assertIs(during[("csext", "sweep_sym")], during[("csext.harness", "sweep_sym")])
            # Private helpers and classes stay untouched.
            self.assertIs(during[("csext.specht", "_specht_data")], before[("csext.specht", "_specht_data")])
            self.assertIs(during[("csext.harness", "Report")], before[("csext.harness", "Report")])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_spans_nest_through_from_imports(self):
        tracer = make_tracer("nest")
        with tracer:
            harness.sweep_comb([3], 3, 2)
        spans = list(tracer.recorder.spans())
        root = spans[0]
        self.assertEqual(root.name, "harness.sweep_comb")
        self.assertEqual(root.parent, NO_PARENT)
        self.assertEqual(root.run_id, "nest")
        children = {s.name for s in spans if s.parent == 0}
        self.assertIn("combinatorics.is_p_restricted", children)
        self.assertTrue(all(s.start <= s.end for s in spans))

    def test_scope_refusals_are_counted(self):
        tracer = make_tracer("scope")
        with tracer:
            with self.assertRaises(oracle.ScopeError):
                oracle.ext1_sym((2, 2), (4,), 2)
            oracle.ext1_sym((2, 2), (4,), 3)
        metrics = layer_metrics(tracer, 1.0)
        self.assertEqual(metrics["oracle.scope_ratio"], 0.5)

    def test_traced_and_untraced_outputs_match(self):
        for work in small_workloads():
            with self.subTest(workload=work.name):
                inputs = work.prepare(7)
                tracer = make_tracer(work.name)
                with tracer:
                    traced_out, _ = work.run(inputs)
                plain_out, _ = work.run(inputs)
                traced = work.check(inputs, traced_out, None)
                plain = work.check(inputs, plain_out, None)
                self.assertEqual(traced, plain)
                self.assertEqual(traced[1], 0)
                self.assertGreater(len(tracer.recorder), 0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
        names = ["root", "a", "b", "c"]
        name_id = np.array([0, 1, 3, 2], dtype=np.int32)
        parent = np.array([NO_PARENT, 0, 1, 0], dtype=np.int32)
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        dur = end - start
        np.testing.assert_allclose(self_times(parent, dur), [3.0, 2.0, 1.0, 4.0])
        stats = by_name(names, name_id, parent, dur)
        self.assertEqual(stats["root"], (1, 10.0, 3.0))
        self.assertEqual(stats["a"], (1, 3.0, 2.0))
        self.assertEqual(stats["b"], (1, 4.0, 4.0))
        self.assertEqual(stats["c"], (1, 1.0, 1.0))
        # Self times add up to the root's duration: nothing counted twice.
        self.assertAlmostEqual(sum(s for _, _, s in stats.values()), 10.0)

    def test_repeated_names_aggregate(self):
        names = ["f", "g"]
        name_id = np.array([0, 1, 1, 0], dtype=np.int32)
        parent = np.array([NO_PARENT, 0, 0, NO_PARENT], dtype=np.int32)
        dur = np.array([5.0, 1.0, 2.0, 0.5])
        self.assertEqual(by_name(names, name_id, parent, dur), {"f": (2, 5.5, 2.5), "g": (2, 3.0, 3.0)})


class GoldenCheckTest(unittest.TestCase):
    def test_every_differing_row_fails(self):
        work = wl.SymSweep()
        golden = wl.load_golden(work.name)
        lines = golden["csv"].splitlines(keepends=True)
        self.assertEqual(work.check(None, golden["csv"], golden)[:2], (110, 0))
        k = next(i for i, line in enumerate(lines) if ",match," in line)
        lines[k] = lines[k].replace(",match,", ",mismatch,")
        self.assertEqual(work.check(None, "".join(lines), golden)[:2], (110, 1))
        self.assertEqual(work.check(None, "".join(lines[:-3]), golden)[:2], (110, 4))

    def test_query_answers_are_checked_for_any_seed(self):
        work = wl.ExtQueries(count=50)
        inputs = work.prepare(12345)
        results, _ = work.run(inputs)
        self.assertEqual(work.check(inputs, results, None)[:2], (50, 0))
        results[0] = (0, results[0][1] + " ")
        self.assertEqual(work.check(inputs, results, None)[:2], (50, 1))

    def test_recorded_seed_digests(self):
        work = wl.ExtQueries()
        for seed, digest in work.pool()["seed_digests"].items():
            inputs = work.prepare(int(seed))
            results, _ = work.run(inputs)
            self.assertEqual(work.check(inputs, results, wl.golden_for(work, int(seed))),
                             (len(inputs), 0, digest))


class RunScriptTest(unittest.TestCase):
    def test_refuses_a_checkout_without_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ext-queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_crashed_child_carries_the_planned_operations(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run

        def fake_child(workload, seed, timeout, mode=None):
            if mode == "--setup-only":
                return {"setup_s": 0.07, "planned": 22}
            return {"crashed": "exit -9: killed", "elapsed": 1.0}

        args = type("Args", (), {"workload": "specht-build", "seed": 1, "seconds": 27, "trace": 0})
        real, run.run_child = run.run_child, fake_child
        try:
            children, setups = run.schedule(args)
        finally:
            run.run_child = real
        self.assertEqual(len(setups), run.SETUP_SAMPLES)
        self.assertEqual([c["planned"] for c in children], [22])

    def test_op_latency_uses_the_first_children_only(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run

        children = [{"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0, "ops_s": [t, 2 * t]}
                    for t in (3.0, 2.0, 1.0)]
        e2e = run.end_to_end(children, [], op_children=2)
        self.assertEqual((e2e["op_p50_us"], e2e["op_p99_us"]), (3e6, 4e6))

    def test_benchmark_json_lists_what_run_py_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run

        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        tracer = make_tracer("names")
        names = set(layer_metrics(tracer, 1.0)) | {"trace_overhead"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
