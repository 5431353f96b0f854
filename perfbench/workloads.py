"""The benchmark workloads: seeded inputs, timed operations, oracles.

Every workload draws its models the way the acceptance suite draws its
S-type suite (`tests/test_acceptance.py`, `SEED = 20260823`, criterion 2).
The *shapes* of the models (n, s, primitive dimensions) always come from the
acceptance seed, so every seed does the same amount of work and
runs on different seeds are comparable.  The benchmark seed picks the random
change of basis that conjugates each base module.  At the acceptance seed the
models are exactly the acceptance suite's; any other seed gives isomorphic
models with different matrices, which is what a held-out seed is for.  Page
dimensions, de Rham dimensions and verdicts are invariants of the isomorphism
class, so one golden serves every seed.

A workload is built by `build(sp, name, seed, workdir)`, where `sp` holds
freshly imported `specseq` modules.  Building it is the workload's set-up.
Each `Op` is one timed call into the program plus an oracle that is
computed once, untimed, and a verdict that compares the call's result
with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

ACCEPTANCE_SEED = 20260823
HELD_OUT_SEED = 20260901
WORKLOADS = ("analyze-large", "structure")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_analyze.json")

# analyze-large takes the largest model of the S suite by chain dimension;
# structure takes the whole S suite, as acceptance criterion 9 does, and the
# traced run probes the engine on its first PROBED_MODELS models.
ANALYZE_MODELS = 1
SUITE_S_MODELS = 100
PROBED_MODELS = 12
DECOMPOSITIONS = 1000
STAR_FRAMES = tuple((n, s) for n in range(4) for s in range(5))


@dataclass
class Op:
    """One operation: `call` is timed, `oracle` and `verdict` are not."""

    label: str
    call: Callable[[], Any]
    oracle: Callable[[], Any]
    verdict: Callable[[Any, Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    complexes: list = field(default_factory=list)  # every model the ops use
    probe_complexes: list = field(default_factory=list)  # models the traced run probes


def s_suite(sp, seed: int, count: int) -> list:
    """The first `count` models of the acceptance S suite, in its order.

    Mirrors `sampling.sample_model(random.Random(ACCEPTANCE_SEED + 2), "S")`
    draw for draw, so that generation is timed through the public
    `lefschetz.generate_hlp_module` and `invariant.build_model` calls.  Only
    the module seed depends on `seed`.
    """
    shapes = random.Random(ACCEPTANCE_SEED + 2)
    cfg = sp.sampling.SampleConfig()
    out = []
    for i in range(count):
        s = shapes.randint(1, cfg.s_max)
        n = shapes.randint(1, cfg.n_max)
        pdims = sp.sampling.sample_primitive_dims(shapes, n, cfg)
        module_seed = shapes.getrandbits(32)
        if seed != ACCEPTANCE_SEED:
            module_seed = random.Random(f"{seed}/{i}").getrandbits(32)
        base = sp.lefschetz.generate_hlp_module(module_seed, n, pdims)
        out.append(sp.invariant.build_model(base, s, [Fraction(1)] * s))
    return out


def chain_dim(c) -> int:
    return sum(c.dim(k) for k in range(c.max_degree + 1))


# --- oracles -------------------------------------------------------------


def analyze_summary(report: dict) -> dict:
    """The parts of an `analyze --json` report the golden pins down."""
    return {
        "pages": report["pages"],
        "de_rham_dims": report["de_rham_dims"],
        "stable_at": report["stable_at"],
        "verdicts": [
            [v["theorem"], v["passed"], v["applicable"]] for v in report["verifications"]
        ],
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def harmonic_oracle(sp, c):
    """Predicted dims and, per degree, the projection of cocycles onto H^k."""
    la = sp.linalg
    projections = []
    for k in range(c.max_degree + 1):
        closed = la.kernel_basis(c.differentials[k])
        exact = la.image_basis(c.differentials[k - 1]) if k else la.Subspace.zero(c.dim(0))
        projections.append(la.quotient(closed, exact))
    return sp.verify.expected_dims_mainS(c.base, c.s), projections


def harmonic_verdict(sp, c, result, oracle) -> bool:
    """Duality passes, and the harmonic basis is closed and spans H^k exactly."""
    duality, (part_a, part_b) = result
    expected, projections = oracle
    if not duality.passed:
        return False
    by_degree: dict[int, list] = {}
    for el in part_a + part_b:
        if any(sp.invariant.differential(c, el).coeffs):
            return False
        by_degree.setdefault(el.total_degree, []).append(el.coeffs)
    for k, q in enumerate(projections):
        vecs = by_degree.get(k, [])
        if len(vecs) != expected[k]:
            return False
        classes = [q.project.apply(v) for v in vecs]
        span = sp.linalg.Subspace.span(q.dim, classes) if classes else sp.linalg.Subspace.zero(q.dim)
        if span.dim != len(vecs) or span.dim != q.dim:
            return False
    return True


def decomposition_verdict(sp, form, components) -> bool:
    """Every component is primitive and sum_i L^i beta_i is the form again."""
    ex = sp.exterior
    total = ex.Multivector.zero(form.frame, form.degree)
    for i, beta in components:
        if beta.degree >= 2 and not ex.lambda_op(beta).is_zero():
            return False
        for _ in range(i):
            beta = ex.lefschetz_L(beta)
        total = total + beta
    return total == form


def random_forms(sp, seed: int, count: int) -> list:
    """Random transverse forms drawn as acceptance criterion 8 draws them."""
    ex = sp.exterior
    rng = random.Random(seed + 8)
    forms = []
    for _ in range(count):
        n = rng.randint(1, 3)
        frame = ex.ModelFrame(n)
        r = rng.randint(0, 2 * n)
        coeffs = {
            idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for idx in ex.monomials(frame, r)
        }
        forms.append(ex.Multivector.make(frame, r, coeffs))
    return forms


# --- workloads -----------------------------------------------------------


def _none():
    return None


def largest(suite, count):
    """Indices of the `count` largest models by total chain dimension."""
    order = sorted(range(len(suite)), key=lambda i: (-chain_dim(suite[i]), i))
    return sorted(order[:count])


def analyze_large(sp, seed, workdir, limit):
    suite = s_suite(sp, seed, SUITE_S_MODELS)
    chosen = largest(suite, limit or ANALYZE_MODELS)
    out_path = os.path.join(workdir, "report.json")
    ops = []
    for i in chosen:
        c = suite[i]
        mf = sp.modelfile.from_module(c.base, c.s, c.lambdas, name=f"S{i}")
        path = os.path.join(workdir, f"S{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sp.modelfile.dump_model(mf))

        def call(path=path):
            with contextlib.redirect_stdout(io.StringIO()):
                return sp.cli.main(["analyze", path, "--json", out_path])

        def verdict(code, want):
            if code != 0:
                return False
            with open(out_path, encoding="utf-8") as fh:
                return analyze_summary(json.load(fh)) == want

        ops.append(Op(f"S{i}", call, lambda key=f"S{i}": load_golden()[key], verdict))
    used = [suite[i] for i in chosen]
    return Workload(ops, used, used)


def structure(sp, seed, workdir, limit):
    suite = s_suite(sp, seed, limit or SUITE_S_MODELS)
    forms = random_forms(sp, seed, limit or DECOMPOSITIONS)
    frames = [sp.exterior.ModelFrame(n, s) for n, s in STAR_FRAMES]
    v, ex = sp.verify, sp.exterior
    ops = [
        Op(
            f"harmonic[{i}]",
            lambda c=c: (v.model_star_duality(c), v.harmonic_basis_S(c)),
            lambda c=c: harmonic_oracle(sp, c),
            lambda result, oracle, c=c: harmonic_verdict(sp, c, result, oracle),
        )
        for i, c in enumerate(suite)
    ]
    ops += [
        Op(
            f"decompose[{i}]",
            lambda a=a: ex.primitive_decompose(a),
            _none,
            lambda result, _, a=a: decomposition_verdict(sp, a, result),
        )
        for i, a in enumerate(forms)
    ]
    ops += [
        Op(
            f"star[n={f.n},s={f.s}]",
            lambda f=f: ex.star_relation_counterexamples(f),
            _none,
            lambda result, _: result == [],
        )
        for f in frames
    ]
    # The engine is never called here; the traced run probes it anyway, so
    # its layer numbers sit beside end-to-end numbers it should not move.
    return Workload(ops, suite, suite[:PROBED_MODELS])


BUILDERS = {
    "analyze-large": analyze_large,
    "structure": structure,
}


def build(sp, name: str, seed: int, workdir: str, limit: int | None = None) -> Workload:
    """Generate the workload's inputs.  `limit` shrinks it for the benchmark's tests."""
    return BUILDERS[name](sp, seed, workdir, limit)
