"""Spans around the calls into each specseq layer, and the traced-run probes.

Tracing is done from the benchmark's side only.  While a `Tracer` is
installed, the public functions listed in `LAYER_FUNCTIONS` are replaced, in
every specseq module that imported them, by wrappers that record a span
(name, start, end, parent, operation id).  `linalg` is not wrapped, because
its functions are called millions of times inside the engine; it is timed by
probes on operands taken from the workload's complexes instead.  Spans stay
in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs wrapped while tracing; the span name is
# "<module>.<function>", except the ones renamed here.
LAYER_FUNCTIONS = (
    ("engine", "compute_page"),
    ("engine", "run_to_convergence"),
    ("engine", "check_abutment"),
    ("invariant", "build_model"),
    ("invariant", "filtered_complex"),
    ("invariant", "betti_numbers"),
    ("lefschetz", "generate_hlp_module"),
    ("lefschetz", "check_hard_lefschetz"),
    ("verify", "verify_E2"),
    ("verify", "verify_mainS"),
    ("verify", "model_star_duality"),
    ("verify", "harmonic_basis_S"),
    ("exterior", "primitive_decompose"),
    ("exterior", "star_relation_counterexamples"),
    ("modelfile", "load_model"),
    ("modelfile", "to_complex"),
    ("modelfile", "dump_model"),
    ("cli", "cmd_analyze"),
)
RENAMED = {"cli.cmd_analyze": "cli.analyze"}

LINALG_PROBES = ("rank", "kernel_basis", "intersect", "preimage", "quotient", "Matrix.apply")
MAX_PAGE = 10  # E_{P+2} with P = 2n and n <= 4, the sampler's bound


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, calls]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = "setup"

    @contextmanager
    def span(self, name: str, calls: int = 1):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, calls])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            label = name
            if name == "engine.compute_page":
                label = f"{name}.r{args[1] if len(args) > 1 else kwargs['r']}"
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, sp):
        """Wrap every layer function wherever a specseq module bound it."""
        originals = {}
        for mod_name, fn_name in LAYER_FUNCTIONS:
            fn = getattr(getattr(sp, mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            originals[id(fn)] = (fn, self.wrap(RENAMED.get(name, name), fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "specseq" and not mod_name.startswith("specseq."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def totals(self) -> dict[str, dict]:
        """Per span name: inclusive seconds, self seconds and calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, calls) in enumerate(self.spans):
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            t["calls"] += calls
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _coeff_bits(values) -> int:
    best = 0
    for x in values:
        if x:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _matrix_bits(m) -> int:
    return _coeff_bits(x for row in m.entries for x in row)


def probe(tracer: Tracer, sp, c) -> dict:
    """Layer probes on one complex; returns the counters they observe.

    Runs with the tracer installed, so the engine, invariant and lefschetz
    calls below record their own spans (each `compute_page` per page r).
    The linalg primitives are timed on each d_k and each F^p.
    """
    la = sp.linalg
    fc = sp.invariant.filtered_complex(c)
    sp.invariant.betti_numbers(c)
    sp.lefschetz.check_hard_lefschetz(c.base)
    pages, _ = sp.engine.run_to_convergence(fc)
    sp.engine.check_abutment(fc)

    e0 = pages[0]
    useful = sum(1 for cell in e0.cells.values() if cell.dim)
    counters = {
        "cells": len(e0.cells) * len(pages),
        "useful_cells": useful * len(pages),
        "max_coeff_bits": max((_matrix_bits(d) for d in fc.d), default=0),
    }
    bits = counters["max_coeff_bits"]
    kernels = []
    for d in fc.d:
        with tracer.span("linalg.rank"):
            la.rank(d)
        with tracer.span("linalg.kernel_basis"):
            ker = la.kernel_basis(d)
        kernels.append(ker)
        bits = max(bits, _matrix_bits(ker.basis))
    for k, d in enumerate(fc.d):
        for p in range(1, fc.max_filtration + 1):
            fp = fc.filt(p, k)
            with tracer.span("linalg.preimage"):
                pre = la.preimage(d, fc.filt(p, k + 1))
            with tracer.span("linalg.intersect"):
                cap = la.intersect(fp, kernels[k])
            with tracer.span("linalg.quotient"):
                quo = la.quotient(fp, fc.filt(p + 1, k))
            columns = fp.basis.columns()
            with tracer.span("linalg.Matrix.apply", calls=len(columns)):
                images = [d.apply(col) for col in columns]
            bits = max(
                bits,
                _matrix_bits(pre.basis),
                _matrix_bits(cap.basis),
                _matrix_bits(quo.project),
                _matrix_bits(quo.section),
                max((_coeff_bits(v) for v in images), default=0),
            )
    counters["max_coeff_bits"] = bits
    return counters


def layer_metrics(tracer: Tracer, counters: dict, chain_dim_total: int) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    totals = tracer.totals()
    out = {}

    def timing(name):
        t = totals.get(name, {"s": 0.0, "calls": 0})
        out[f"{name}.s"] = (t["s"], "s")
        out[f"{name}.calls"] = (t["calls"], "count")

    for r in range(MAX_PAGE + 1):
        timing(f"engine.compute_page.r{r}")
    timing("engine.run_to_convergence")
    timing("engine.check_abutment")
    out["engine.cells"] = (counters["cells"], "count")
    out["engine.cells_useful_frac"] = (
        counters["useful_cells"] / counters["cells"] if counters["cells"] else 0.0,
        "ratio",
    )
    for name in ("filtered_complex", "betti_numbers", "build_model"):
        timing(f"invariant.{name}")
    out["invariant.chain_dim_total"] = (chain_dim_total, "count")
    for name in LINALG_PROBES:
        timing(f"linalg.{name}")
    out["linalg.max_coeff_bits"] = (counters["max_coeff_bits"], "count")
    for name in ("generate_hlp_module", "check_hard_lefschetz"):
        timing(f"lefschetz.{name}")
    return out


def workload_layer_metrics(tracer: Tracer) -> dict:
    """Seconds, self seconds and calls of the layers only some workloads reach:
    verify, exterior, modelfile and cli.

    `cli.analyze.engine_multiple` is the time of one `analyze` call divided
    by the mean time of one `run_to_convergence` on the same model.
    """
    totals = tracer.totals()
    out = {}
    for name, t in sorted(totals.items()):
        if name.split(".")[0] in ("verify", "exterior", "modelfile", "cli"):
            out[f"{name}.s"] = t["s"]
            out[f"{name}.self_s"] = t["self_s"]
            out[f"{name}.calls"] = t["calls"]
    analyze: dict[str, float] = {}
    engine: dict[str, list[float]] = {}
    for name, start, end, _, op, _ in tracer.spans:
        if name == "cli.analyze":
            analyze[op] = analyze.get(op, 0.0) + end - start
        elif name == "engine.run_to_convergence":
            engine.setdefault(op.removeprefix("probe:"), []).append(end - start)
    ratios = [
        analyze[op] / (sum(engine[op]) / len(engine[op])) for op in analyze if engine.get(op)
    ]
    if ratios:
        out["cli.analyze.engine_multiple"] = sum(ratios) / len(ratios)
    return out
