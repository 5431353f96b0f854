"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each run here is shrunk with `limit` so the whole file takes about a minute;
analyze-large keeps its largest model, so it dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {"analyze-large": 1, "structure": 3}


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    """The record and the result line of a shrunken run."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, limit=TINY[workload])
    assert code == 0
    record, result = out.getvalue().splitlines()[-2:]
    return json.loads(record), json.loads(result)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        own_layer = {
            "analyze-large": "cli.analyze.engine_multiple",
            "structure": "exterior.primitive_decompose.s",
        }
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record, result = tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record["errors"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, key)
                    self.assertEqual(record["seed"], 7)
                    for field in ("git_sha", "python", "nproc", "operations"):
                        self.assertIn(field, record)
                    if trace == 0:
                        self.assertIn("op_s.tail", record)
                        self.assertGreaterEqual(record["samples"], record["operations"])
                    else:
                        for name in ("engine.run_to_convergence.s", "linalg.rank.s",
                                     "invariant.filtered_complex.s", "trace.overhead_s"):
                            self.assertNotEqual(result["metrics"][name]["value"], 0)
                        self.assertGreater(record["workload_layers"][own_layer[workload]], 0)


class WrongOracle(unittest.TestCase):
    """A deliberately wrong oracle value must turn into failed operations."""

    def assert_gate_catches(self, workload):
        record, result = tiny_run(workload, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["fail_frac"], 0)

    def test_structure(self):
        real = workloads.harmonic_oracle

        def wrong(sp, c):
            expected, projections = real(sp, c)
            return (expected[0] + 1,) + expected[1:], projections

        with mock.patch.object(workloads, "harmonic_oracle", wrong):
            self.assert_gate_catches("structure")

    def test_analyze_large(self):
        real = workloads.load_golden

        def wrong():
            golden = real()
            for entry in golden.values():
                entry["stable_at"] += 1
            return golden

        with mock.patch.object(workloads, "load_golden", wrong):
            self.assert_gate_catches("analyze-large")


class Inputs(unittest.TestCase):
    def test_acceptance_seed_reproduces_the_acceptance_suite(self):
        sp = run.import_specseq()
        rng = random.Random(workloads.ACCEPTANCE_SEED + 2)
        suite = [sp.sampling.sample_model(rng, "S") for _ in range(12)]
        self.assertEqual(workloads.s_suite(sp, workloads.ACCEPTANCE_SEED, 12), suite)

    def test_other_seeds_keep_the_shapes_and_change_the_matrices(self):
        sp = run.import_specseq()
        a = workloads.s_suite(sp, workloads.ACCEPTANCE_SEED, 12)
        b = workloads.s_suite(sp, workloads.HELD_OUT_SEED, 12)
        self.assertEqual([workloads.chain_dim(c) for c in a], [workloads.chain_dim(c) for c in b])
        self.assertNotEqual([c.base.L_maps for c in a], [c.base.L_maps for c in b])

    def test_same_seed_same_inputs(self):
        sp = run.import_specseq()
        self.assertEqual(workloads.random_forms(sp, 5, 20), workloads.random_forms(sp, 5, 20))
        self.assertEqual(workloads.s_suite(sp, 5, 8), workloads.s_suite(sp, 5, 8))

    def test_golden_covers_the_largest_models(self):
        sp = run.import_specseq()
        suite = workloads.s_suite(sp, workloads.ACCEPTANCE_SEED, workloads.SUITE_S_MODELS)
        chosen = workloads.largest(suite, workloads.ANALYZE_MODELS)
        self.assertEqual(sorted(workloads.load_golden()), sorted(f"S{i}" for i in chosen))


class Statistics(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail([1.0] * 19))
        self.assertEqual(run.tail([float(x) for x in range(20)])["percentile"], 50.0)
        self.assertEqual(run.tail([float(x) for x in range(100)])["percentile"], 90.0)
        self.assertEqual(run.tail([float(x) for x in range(1000)])["percentile"], 99.0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_checkout_and_prints_no_result(self):
        bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "structure",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
