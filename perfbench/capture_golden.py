#!/usr/bin/env python3
"""Write golden_analyze.json from the checkout's own `specseq analyze`.

    python3 perfbench/capture_golden.py

Runs `analyze --json` on the analyze-large models at the acceptance seed and
keeps the parts the benchmark compares: pages, de Rham dims, stable page and
verdicts.  These are invariants of the model's isomorphism class, so the
golden holds for every benchmark seed.  Capture it only from a commit whose
answers are trusted; the benchmark then holds later commits to it.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    workdir = os.path.join(run.OUT_DIR, f"golden-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        sp = run.import_specseq()
        wl = workloads.build(sp, "analyze-large", workloads.ACCEPTANCE_SEED, workdir)
        golden = {}
        for op in wl.ops:
            if op.call() != 0:
                print(f"error: analyze failed on {op.label}", file=sys.stderr)
                return 1
            with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
                golden[op.label] = workloads.analyze_summary(json.load(fh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} models to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
