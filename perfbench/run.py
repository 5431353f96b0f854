#!/usr/bin/env python3
"""Benchmark harness for specseq.

    python3 perfbench/run.py --workload analyze-large [--seed N] [--seconds 55] [--trace 0|1]

Run from the root of a specseq checkout; the package is imported from its
`src/` directory.  One workload runs in this one process, one operation at
a time.  Every operation's result is checked against an oracle; a wrong or
raising operation counts as failed and is never timed as a success.

`--trace 0` repeats passes until the next one would end after `--seconds`
(the first always runs).  A pass sets the workload up afresh (import, model
generation, model-file writing) and runs every operation of its fixed list
once.  `setup_s` is the median set-up; the operation metrics use each
operation's fastest time in the run.  `--trace 1` makes one pass in which every
operation runs once to warm up, then untraced and traced, followed by the
layer probes, and reports the per-layer metrics and the tracing overhead.

Standard output ends with two JSON lines: a record (seed, git SHA, Python
version, CPU count, operation and sample counts, the `op_s.tail` percentile,
every metric) and, last, the result: `correct`, `attempted`, `failed` and
`metrics`.  Traced runs also write their spans to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from math import ceil
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

import layers  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("linalg", "lefschetz", "invariant", "engine", "exterior", "verify",
           "sampling", "modelfile", "cli")


def import_specseq() -> SimpleNamespace:
    """Import the checkout's specseq afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "specseq" or m.startswith("specseq.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    return SimpleNamespace(**{m: importlib.import_module(f"specseq.{m}") for m in MODULES})


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]):
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for q in TAIL_LADDER:
        rank = ceil(q / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": q, "samples": len(ordered)}
    return None


class Runner:
    """Runs operations, checks them against their oracles, keeps the score."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._oracles: dict[int, object] = {}

    def run(self, i: int, op) -> float | None:
        """Seconds the call took, or None if it raised or its verdict failed."""
        self.attempted += 1
        try:
            start = perf_counter()
            result = op.call()
            elapsed = perf_counter() - start
            if i not in self._oracles:
                self._oracles[i] = op.oracle()
            if op.verdict(result, self._oracles[i]):
                return elapsed
            error = "result differs from the oracle"
        except Exception:
            error = traceback.format_exc(limit=3)
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {error}")
        return None


def timed_run(name: str, seed: int, seconds: float, workdir: str, limit=None):
    runner = Runner()
    samples: list[list[float]] = []
    setups: list[float] = []
    began = perf_counter()
    deadline = began + seconds
    while True:
        start = perf_counter()
        sp = import_specseq()
        wl = workloads.build(sp, name, seed, workdir, limit)
        setups.append(perf_counter() - start)
        samples = samples or [[] for _ in wl.ops]
        for j, op in enumerate(wl.ops):
            elapsed = runner.run(j, op)
            if elapsed is not None:
                samples[j].append(elapsed)
        now = perf_counter()
        if now + (now - began) / len(setups) > deadline:
            break

    best = [min(s) for s in samples if s]
    flat = [x for s in samples for x in s]
    metrics = {
        "ops_per_s": (len(best) / sum(best) if best else 0.0, "1/s"),
        "op_s.p50": (statistics.median(best) if best else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {
        "operations": len(wl.ops),
        "samples": len(flat),
        "passes": len(setups),
        "setup_samples_s": setups,
        "op_s.tail": tail(flat),
    }
    return runner, metrics, extra


def traced_run(name: str, seed: int, workdir: str, limit=None):
    sp = import_specseq()
    tracer = layers.Tracer()
    with tracer.installed(sp):
        wl = workloads.build(sp, name, seed, workdir, limit)

    runner = Runner()
    untraced = traced = 0.0
    for j, op in enumerate(wl.ops):
        runner.run(j, op)  # warm-up, which also computes the oracle
        tracer.op = op.label
        spent = {}
        # Alternate which side runs first, so neither gains from going second.
        for with_spans in (False, True) if j % 2 == 0 else (True, False):
            if with_spans:
                with tracer.installed(sp):
                    spent[True] = runner.run(j, replace(op, call=tracer.wrap("op", op.call)))
            else:
                spent[False] = runner.run(j, op)
        if None not in spent.values():
            untraced += spent[False]
            traced += spent[True]

    labels = {id(c): op.label for c, op in zip(wl.complexes, wl.ops)}
    counters = {"cells": 0, "useful_cells": 0, "max_coeff_bits": 0}
    with tracer.installed(sp):
        for c in wl.probe_complexes:
            tracer.op = f"probe:{labels.get(id(c), '?')}"
            with tracer.span("probe"):
                found = layers.probe(tracer, sp, c)
            counters["cells"] += found["cells"]
            counters["useful_cells"] += found["useful_cells"]
            counters["max_coeff_bits"] = max(counters["max_coeff_bits"], found["max_coeff_bits"])

    metrics = layers.layer_metrics(tracer, counters, sum(workloads.chain_dim(c) for c in wl.complexes))
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced if untraced else 0.0, "ratio")
    extra = {
        "operations": len(wl.ops),
        "spans": len(tracer.spans),
        "untraced_s": untraced,
        "traced_s": traced,
        "self_s": {k: v["self_s"] for k, v in sorted(tracer.totals().items())},
        "workload_layers": layers.workload_layer_metrics(tracer),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
    tracer.dump(spans_path)
    extra["spans_file"] = os.path.relpath(spans_path, ROOT)
    return runner, metrics, extra


def main(argv=None, limit=None) -> int:
    parser = argparse.ArgumentParser(description="specseq benchmark harness")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "specseq", "__init__.py")):
        print(f"error: no specseq package under {SRC}; run from a specseq checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            runner, metrics, extra = traced_run(args.workload, args.seed, workdir, limit)
        else:
            runner, metrics, extra = timed_run(
                args.workload, args.seed, args.seconds, workdir, limit
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_frac": runner.failed / runner.attempted if runner.attempted else 1.0,
        "errors": runner.errors,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
