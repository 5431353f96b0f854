"""Acceptance suite: one criterion per test, one printed verdict line each.

All checks are exact (integer dimensions, rational arithmetic); the only
tolerances are the runtime budgets.
"""

import random
import time
from fractions import Fraction

import pytest

import exterior_oracle as oracle
import model_oracle
from subquotient_oracle import dense_complex
from specseq.engine import FiltrationError, check_abutment, compute_page, run_to_convergence
from specseq.exterior import (
    ModelFrame,
    Multivector,
    hodge_star_transverse,
    j_action,
    lambda_op,
    lefschetz_L,
    monomials,
    primitive_decompose,
    star_relation_counterexamples,
    symplectic_star,
)
from specseq.invariant import betti_numbers, differential, filtered_complex
from specseq.lefschetz import (
    check_hard_lefschetz,
    generate_hlp_module,
    lefschetz_decompose_class,
)
from specseq.linalg import Matrix, Subspace, image_basis, kernel_basis, quotient
from specseq.modelfile import to_complex
from specseq.presets import PRESETS
from specseq.sampling import sample_model
from specseq.verify import (
    basic_betti_from_deRham,
    expected_dims_mainC,
    expected_dims_mainS,
    harmonic_basis_C,
    harmonic_basis_S,
    model_star_duality,
    primitive_betti_from_deRham,
    verify_E2,
    verify_mainC,
    verify_mainS,
)

SEED = 20260823


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def suite_S():
    rng = random.Random(SEED + 2)
    return [sample_model(rng, "S") for _ in range(100)]


@pytest.fixture(scope="session")
def suite_C():
    rng = random.Random(SEED + 3)
    return [sample_model(rng, "C") for _ in range(100)]


def test_criterion_1_E2(capsys):
    rng = random.Random(SEED + 1)
    start = time.time()
    failures = 0
    for _ in range(200):
        c = sample_model(rng, "mixed")
        if not verify_E2(c).passed:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60
    verdict(capsys, 1, ok, f"E2 on 200 models, {failures} failures, {elapsed:.1f}s (< 60s)")


def test_criterion_2_mainS(capsys, suite_S):
    start = time.time()
    failures = 0
    for c in suite_S:
        r = verify_mainS(c)
        if not (r.applicable and r.passed):
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 300
    verdict(
        capsys, 2, ok, f"mainS on 100 S-type models, {failures} failures, {elapsed:.1f}s (< 300s)"
    )


def test_criterion_3_mainC(capsys, suite_C):
    start = time.time()
    failures = 0
    non_hlp = 0
    for c in suite_C:
        if not check_hard_lefschetz(c.base).hlp:
            non_hlp += 1
        r = verify_mainC(c)
        if not (r.applicable and r.passed):
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and non_hlp > 0 and elapsed < 60
    verdict(
        capsys,
        3,
        ok,
        f"mainC on 100 C-type models ({non_hlp} non-HLP bases), "
        f"{failures} failures, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_recursion_roundtrips(capsys, suite_S, suite_C):
    failures = 0
    for c in suite_S:
        base, s = c.base, c.s
        B = expected_dims_mainS(base, s)
        pdims, basic = primitive_betti_from_deRham(B, s, base.n)
        report = check_hard_lefschetz(base)
        if pdims != report.primitive_dims[: base.n + 1] or basic != base.dims:
            failures += 1
    for c in suite_C:
        B = expected_dims_mainC(c.base, c.s)
        if basic_betti_from_deRham(B, c.s) != c.base.dims:
            failures += 1
    verdict(capsys, 4, failures == 0, f"recursion roundtrips on 200 models, {failures} failures")


def test_criterion_5_presets(capsys):
    expected = {
        "hopf-s3": (1, 0, 0, 1),
        "s5": (1, 0, 0, 0, 0, 1),
        "s2xs3": (1, 0, 1, 1, 0, 1),
        "torus-t3": (1, 3, 3, 1),
        "torus-t4": (1, 4, 6, 4, 1),
    }
    mismatches = [
        name
        for name, want in expected.items()
        if betti_numbers(to_complex(PRESETS[name])) != want
    ]
    verdict(
        capsys,
        5,
        not mismatches,
        f"preset Betti numbers exact ({len(expected)} presets)"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_6_star_relation(capsys):
    start = time.time()
    bad = 0
    cases = 0
    for n in range(3):
        for s in range(4):
            frame = ModelFrame(n, s)
            bad += len(star_relation_counterexamples(frame))
            cases += sum(
                len(monomials(frame, r)) * 2**s
                for r in range(frame.transverse_dim + 1)
            )
    elapsed = time.time() - start
    ok = bad == 0 and elapsed < 30
    verdict(
        capsys, 6, ok, f"star splitting identity, {cases} cases, {bad} failures, {elapsed:.1f}s (< 30s)"
    )


def test_criterion_7_operator_identities(capsys):
    failures = []
    for n in range(1, 4):
        f = ModelFrame(n)
        for r in range(2 * n + 1):
            for idx in monomials(f, r):
                a = Multivector.make(f, r, {idx: Fraction(1)})
                if symplectic_star(symplectic_star(a)) != a:
                    failures.append(("*s^2", n, idx))
                twice = hodge_star_transverse(hodge_star_transverse(a))
                if twice != a.scaled((-1) ** (r * (2 * n - r))):
                    failures.append(("*b^2", n, idx))
                if j_action(symplectic_star(a)) != hodge_star_transverse(a):
                    failures.append(("J*s", n, idx))
        for r in range(2 * n - 1):
            l_mat = oracle.operator_matrix(f, lefschetz_L, r, r + 2)
            lam_mat = oracle.operator_matrix(f, lambda_op, r + 2, r)
            if l_mat != lam_mat.transpose():
                failures.append(("adjoint", n, r))
    verdict(
        capsys, 7, not failures, f"operator identities exhaustive n <= 3, {len(failures)} failures"
    )


def test_criterion_8_decompositions(capsys):
    rng = random.Random(SEED + 8)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = ModelFrame(n)
        r = rng.randint(0, 2 * n)
        idxs = monomials(f, r)
        a = Multivector.make(
            f, r, {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for idx in idxs}
        )
        comps = primitive_decompose(a)
        total = Multivector.zero(f, r)
        for i, beta in comps:
            if beta.degree >= 2 and not lambda_op(beta).is_zero():
                failures += 1
            img = beta
            for _ in range(i):
                img = lefschetz_L(img)
            total = total + img
        if total != a:
            failures += 1
    modules = [
        generate_hlp_module(rng.getrandbits(32), n, (1,) + (1,) * n)
        for n in (1, 2, 3)
        for _ in range(4)
    ]
    # PH^d as the kernel of the dense L^{n-d+1}, independent of the library.
    primitive = {id(m): model_oracle.lefschetz_structure(m)[1] for m in modules}
    for _ in range(1000):
        m = rng.choice(modules)
        p = rng.randint(0, 2 * m.n)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m.dim_at(p)))
        comps = lefschetz_decompose_class(m, p, v)
        for i, beta in comps:
            if not primitive[id(m)][p - 2 * i].contains_vector(beta):
                failures += 1
        if model_oracle.reconstruct_class(m, p, comps) != v:
            failures += 1
    verdict(
        capsys, 8, failures == 0, f"2000 decomposition roundtrips exact, {failures} failures"
    )


def _harmonic_check_S(c):
    part_a, part_b = harmonic_basis_S(c)
    expected = expected_dims_mainS(c.base, c.s)
    by_degree = {}
    for el in part_a + part_b:
        if any(differential(c, el).coeffs):
            return False
        by_degree.setdefault(el.total_degree, []).append(el.coeffs)
    for k in range(c.max_degree + 1):
        vecs = by_degree.get(k, [])
        if len(vecs) != expected[k]:
            return False
        closed = kernel_basis(c.differentials[k])
        exact = image_basis(c.differentials[k - 1]) if k else Subspace.zero(c.dim(0))
        q = quotient(closed, exact)
        classes = [q.project.apply(v) for v in vecs]
        span = Subspace.span(q.dim, classes) if classes else Subspace.zero(q.dim)
        if span.dim != len(vecs) or span.dim != q.dim:
            return False
    return True


def _harmonic_check_C(c):
    elements = harmonic_basis_C(c)
    counts = [0] * (c.max_degree + 1)
    for el in elements:
        if any(differential(c, el).coeffs):
            return False
        counts[el.total_degree] += 1
    return tuple(counts) == expected_dims_mainC(c.base, c.s)


def test_criterion_9_harmonic_bases(capsys, suite_S, suite_C):
    failures = 0
    for c in suite_S:
        if not _harmonic_check_S(c):
            failures += 1
        if not model_star_duality(c).passed:
            failures += 1
    for c in suite_C:
        if not _harmonic_check_C(c):
            failures += 1
    verdict(
        capsys,
        9,
        failures == 0,
        f"harmonic bases and star duality on 200 models, {failures} failures",
    )


def test_criterion_10_engine_sanity(capsys, suite_S, suite_C):
    failures = 0
    for c in suite_S[:25] + suite_C[:25]:
        fc = filtered_complex(c)
        if not check_abutment(fc):
            failures += 1
        if run_to_convergence(fc)[0][-1].antidiagonal_totals(c.max_degree) != betti_numbers(c):
            failures += 1
    # Every reduction the pages and the cohomology read holds its certificate.
    for c in suite_S + suite_C:
        try:
            filtered_complex(c).reductions
        except FiltrationError:
            failures += 1
    # Trivially filtered complex: E_1 is plain cohomology and stays there.
    d = (
        Matrix.from_rows([[0, 0], [0, 0]]),
        Matrix.from_rows([[1, 0]]),
        Matrix.zero(0, 1),
    )
    fc = dense_complex(d, ((0, 0), (0, 0), (0,)), 0)
    page1 = compute_page(fc, 1)
    if not page1.antidiagonal_totals(2) == fc.cohomology_dims() == (2, 1, 0):
        failures += 1
    _, stable_at = run_to_convergence(fc)
    if stable_at > 1 or not check_abutment(fc):
        failures += 1
    verdict(
        capsys,
        10,
        failures == 0,
        f"abutment on 50 suite models, certified reductions on 200, plus trivial filtration, "
        f"{failures} failures",
    )
