import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq.engine import PageCell, run_to_convergence
from specseq.invariant import (
    betti_numbers,
    build_model,
    cohomology,
    differential,
    filtered_complex,
)
from specseq import verify
from specseq.lefschetz import (
    LefschetzModule,
    check_hard_lefschetz,
    generate_hlp_module,
    zero_l_block,
)
from specseq.linalg import Matrix, Subspace
from specseq.presets import PRESETS
from specseq.modelfile import to_complex
from specseq.sampling import MAX_PRIMITIVE_DIM, SampleConfig, sample_model, sample_primitive_dims
from specseq.verify import (
    HypothesisError,
    Witness,
    basic_betti_from_deRham,
    expected_dims_mainC,
    expected_dims_mainS,
    harmonic_basis_C,
    harmonic_basis_S,
    kernel_d2,
    model_star_duality,
    primitive_betti_from_deRham,
    verify_E2,
    verify_mainC,
    verify_mainS,
)

Q = Fraction

hlp_bases = st.tuples(
    st.integers(1, 3), st.integers(0, 2**31)
).map(lambda t: generate_hlp_module(t[1], t[0], (1,) + (1,) * t[0]))


def test_verify_E2_presets():
    for name, mf in PRESETS.items():
        assert verify_E2(to_complex(mf)).passed, name


def test_verify_E2_expected_table(cp1):
    hopf = build_model(cp1, 1, [1])
    r = verify_E2(hopf)
    assert r.passed
    assert dict(r.expected) == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}


@settings(deadline=None, max_examples=25)
@given(hlp_bases, st.integers(1, 3), st.data())
def test_verify_E2_any_lambdas(base, s, data):
    lambdas = [
        data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        for _ in range(s)
    ]
    assert verify_E2(build_model(base, s, lambdas)).passed


def test_kernel_d2_cases(cp1, t2):
    hopf = build_model(cp1, 1, [1])
    ker, expected = kernel_d2(hopf, 0, 1)
    assert (ker, expected) == (0, 0)  # d2(eta (x) 1) = omega != 0
    ker, expected = kernel_d2(hopf, 0, 0)
    assert (ker, expected) == (1, 1)  # q=0 kernels are the whole cell
    two = build_model(cp1, 2, [1, 1])
    ker, expected = kernel_d2(two, 0, 1)
    assert (ker, expected) == (1, 1)  # spanned by (eta1 - eta2) (x) 1


@settings(deadline=None, max_examples=15)
@given(hlp_bases, st.integers(1, 3))
def test_kernel_d2_matches_prediction(base, s):
    c = build_model(base, s, [1] * s)
    for p in range(2 * base.n + 1):
        for q in range(s + 1):
            ker, expected = kernel_d2(c, p, q)
            assert ker == expected, (p, q)


def test_kernel_d2_hypothesis_guard(cp1):
    with pytest.raises(HypothesisError):
        kernel_d2(build_model(cp1, 1, [0]), 0, 0)


def test_expected_dims_mainS_examples(cp1, cp2):
    assert expected_dims_mainS(cp1, 1) == (1, 0, 0, 1)
    assert expected_dims_mainS(cp2, 1) == (1, 0, 0, 0, 0, 1)
    s2xs2 = generate_hlp_module(1, 2, (1, 0, 1))
    assert expected_dims_mainS(s2xs2, 1) == (1, 0, 1, 1, 0, 1)


def test_verify_mainS_presets():
    for name in ("hopf-s3", "s5", "s2xs3", "s3xs1"):
        r = verify_mainS(to_complex(PRESETS[name]))
        assert r.applicable and r.passed, name


def test_verify_mainS_hypothesis_path(cp1):
    broken = zero_l_block(cp1, 0)
    r = verify_mainS(build_model(broken, 1, [1]))
    assert not r.applicable
    assert "hard Lefschetz" in r.hypothesis_violation
    r2 = verify_mainS(build_model(cp1, 1, [0]))
    assert not r2.applicable


def test_expected_dims_mainC_examples(cp1, t2):
    assert expected_dims_mainC(t2, 1) == (1, 3, 3, 1)
    point = generate_hlp_module(0, 0, (1,))
    assert expected_dims_mainC(point, 3) == (1, 3, 3, 1)
    assert expected_dims_mainC(cp1, 2) == (1, 2, 2, 2, 1)


def test_verify_mainC_presets():
    for name in ("torus-t3", "torus-t4"):
        r = verify_mainC(to_complex(PRESETS[name]))
        assert r.applicable and r.passed, name


def test_verify_mainC_type_guard(cp1):
    r = verify_mainC(build_model(cp1, 2, [1, 0]))
    assert not r.applicable


def _doctored(pages, r, dims=None, d_ranks=None):
    """A copy of `pages` with cell dims and d_r ranks of page r overridden."""
    page = pages[r]
    cells = dict(page.cells)
    for (p, q), dim in (dims or {}).items():
        cells[(p, q)] = PageCell(p, q, dim)
    out = list(pages)
    out[r] = replace(page, cells=cells, d_ranks=page.d_ranks if d_ranks is None else d_ranks)
    return out


def test_witnesses_name_cell_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    pages, stable_at = run_to_convergence(filtered_complex(hopf))
    assert verify_E2(hopf, (pages, stable_at)).passed
    pages = _doctored(pages, 1, d_ranks={(0, 1): 1})
    pages = _doctored(pages, 2, dims={(2, 0): 3})
    r = verify_E2(hopf, (pages, stable_at))
    assert not r.passed
    assert r.witnesses == (
        Witness("rank d_1", (0, 1), 0, 1),
        Witness("dim E_2", (2, 0), 1, 3),
    )
    assert str(r.witnesses[1]) == "dim E_2 at (p, q) = (2, 0): expected 1, got 3"


def test_witnesses_name_degree_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    pages, _ = run_to_convergence(filtered_complex(hopf))
    pages = _doctored(pages, -1, dims={(2, 1): 0})
    r = verify_mainS(hopf, (pages, 5), (1, 0, 1, 1))
    assert r.witnesses == (
        Witness("stable page", None, "<= 3", 5),
        Witness("E_infinity total", 3, 1, 0),
        Witness("direct cohomology", 2, 0, 1),
    )
    assert str(r.witnesses[1]) == "E_infinity total in degree 3: expected 1, got 0"

    cosymplectic = build_model(cp1, 1, [0])
    pages, _ = run_to_convergence(filtered_complex(cosymplectic))
    r = verify_mainC(cosymplectic, (_doctored(pages, -1, dims={(0, 1): 2}), 3))
    assert r.witnesses == (
        Witness("stable page", None, "<= 2", 3),
        Witness("E_infinity total", 1, 1, 2),
    )


def test_star_duality_witnesses_name_degree_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    classes = cohomology(hopf)
    assert model_star_duality(hopf, classes).passed
    # Classes that make every basis vector of C^3 a boundary kill H^3, so the
    # class of the star image of 1 (degree 0) vanishes.
    steps = tuple((j, 1, (), -1) for j in reversed(range(hopf.dim(3))))
    classes[3] = replace(classes[3], dim=0, steps=steps)
    r = model_star_duality(hopf, classes)
    assert r.witnesses == (
        Witness("rank of star-image classes", 0, 1, 0),
        Witness("rank of star-image classes vs part B", 0, 1, 0),
    )
    assert str(r.witnesses[0]) == "rank of star-image classes in degree 0: expected 1, got 0"


def test_star_duality_witnesses_a_non_closed_star_image(monkeypatch):
    # n = 2 with H^2 = span(omega, beta), beta primitive, and s = 1.  A star
    # that sends beta to omega makes the star image eta (x) omega of the
    # part-A element beta (degree 2) non-closed: d(eta (x) omega) = omega^2.
    # Then no star image is left in degree 3 to match part B's eta (x) beta.
    base = LefschetzModule(
        2,
        (1, 0, 2, 0, 1),
        (
            Matrix.from_rows([[1], [0]]),
            Matrix.zero(0, 0),
            Matrix.from_rows([[1, 0]]),
            Matrix.zero(0, 0),
            Matrix.zero(0, 1),
        ),
    )
    m = build_model(base, 1, [1])
    assert model_star_duality(m).passed
    real_star = verify.star_matrix

    def star(module, p):
        return Matrix.from_rows([[0, 1], [0, 0]]) if p == 2 else real_star(module, p)

    monkeypatch.setattr(verify, "star_matrix", star)
    r = model_star_duality(m)
    assert r.witnesses == (
        Witness("non-closed star images", 2, 0, 1),
        Witness("rank of star-image classes vs part B", 2, 1, 0),
        Witness("dims of part A + star images, part A + part B", 3, (1, 1), (0, 1)),
    )


def test_star_duality_witnesses_part_a_meeting_the_star_images(t2):
    # s = 2 over H^1 = PH^1: in degree 2 part A is (eta_1 - eta_2) (x) beta
    # and the star images are -(eta_1 + eta_2) (x) beta.  Classes in which
    # every eta_1 (x) h is exact as well put both in the span of the
    # eta_2 (x) beta, so part A and the star images no longer sum directly.
    # (A star alone cannot do this: in the basis eta_1, eta_1 - eta_i, the
    # eta_1 component of the class of a nonzero closed star image never
    # vanishes, and part A has none.)
    m = build_model(t2, 2, [1, 1])
    classes = cohomology(m)
    assert model_star_duality(m, classes).passed
    exact = [st for st in classes[2].steps if st[3] < 0]
    exact += [(m.index_of(2, ((1,), 1, t)), 1, (), -1) for t in range(2)]
    classes[2] = replace(classes[2], steps=tuple(sorted(exact, reverse=True)))
    r = model_star_duality(m, classes)
    assert r.witnesses == (Witness("dim of part A + star images", 2, 4, 2),)


def test_primitive_betti_recursion_examples():
    assert primitive_betti_from_deRham((1, 0, 0, 1), 1, 1) == ((1, 0), (1, 0, 1))
    assert primitive_betti_from_deRham((1, 0, 1, 1, 0, 1), 1, 2) == (
        (1, 0, 1),
        (1, 0, 2, 0, 1),
    )


def test_basic_betti_recursion_examples():
    assert basic_betti_from_deRham((1, 3, 3, 1), 1) == (1, 2, 1)
    # Betti numbers of T^(2n+s) recover those of T^(2n).
    assert basic_betti_from_deRham(tuple(comb(5, k) for k in range(6)), 3) == (1, 2, 1)
    assert basic_betti_from_deRham((1, 1), 1) == (1,)


def test_recursions_reject_inconsistent_input():
    with pytest.raises(ValueError):
        basic_betti_from_deRham((1, 0, 5, 1), 1)
    with pytest.raises(ValueError):
        primitive_betti_from_deRham((1, 0, 0, 1), 3, 1)


@settings(deadline=None, max_examples=25)
@given(hlp_bases, st.integers(1, 3))
def test_mainS_recursion_roundtrip(base, s):
    B = expected_dims_mainS(base, s)
    pdims, basic = primitive_betti_from_deRham(B, s, base.n)
    report = check_hard_lefschetz(base)
    assert pdims == report.primitive_dims[: base.n + 1]
    assert basic == base.dims


@settings(deadline=None, max_examples=25)
@given(hlp_bases, st.integers(1, 3))
def test_mainC_recursion_roundtrip(base, s):
    B = expected_dims_mainC(base, s)
    assert basic_betti_from_deRham(B, s) == base.dims


def test_harmonic_basis_C_torus(t2):
    m = build_model(t2, 1, [0])
    elements = harmonic_basis_C(m)
    counts = [0, 0, 0, 0]
    for el in elements:
        counts[el.total_degree] += 1
        assert not any(differential(m, el).coeffs)
    assert tuple(counts) == (1, 3, 3, 1)


def test_harmonic_basis_C_requires_c_type(cp1):
    with pytest.raises(HypothesisError):
        harmonic_basis_C(build_model(cp1, 1, [1]))


def test_harmonic_basis_S_hopf(cp1):
    hopf = build_model(cp1, 1, [1])
    part_a, part_b = harmonic_basis_S(hopf)
    assert [el.total_degree for el in part_a] == [0]
    assert [el.total_degree for el in part_b] == [3]
    for el in part_a + part_b:
        assert not any(differential(hopf, el).coeffs)


def test_harmonic_basis_S_difference_closed(cp1):
    m = build_model(cp1, 2, [1, 1])
    part_a, part_b = harmonic_basis_S(m)
    degree1 = [el for el in part_a if el.total_degree == 1]
    assert len(degree1) == 1  # (eta1 - eta2) (x) 1
    for el in part_a + part_b:
        assert not any(differential(m, el).coeffs)


@settings(deadline=None, max_examples=15)
@given(hlp_bases, st.integers(1, 3))
def test_harmonic_basis_S_counts_and_independence(base, s):
    c = build_model(base, s, [1] * s)
    part_a, part_b = harmonic_basis_S(c)
    expected = expected_dims_mainS(base, s)
    by_degree = {}
    for el in part_a + part_b:
        assert not any(differential(c, el).coeffs)
        by_degree.setdefault(el.total_degree, []).append(el.coeffs)
    from specseq.linalg import image_basis, kernel_basis, quotient

    for k in range(c.max_degree + 1):
        vecs = by_degree.get(k, [])
        assert len(vecs) == expected[k]
        closed = kernel_basis(c.differentials[k])
        exact = (
            image_basis(c.differentials[k - 1]) if k else Subspace.zero(c.dim(0))
        )
        q = quotient(closed, exact)
        classes = [q.project.apply(v) for v in vecs]
        span = Subspace.span(q.dim, classes) if classes else Subspace.zero(q.dim)
        assert span.dim == len(vecs) == q.dim


def test_model_star_duality_presets():
    for name in ("hopf-s3", "s5", "s2xs3", "s3xs1"):
        r = model_star_duality(to_complex(PRESETS[name]))
        assert r.applicable and r.passed, (name, r.witnesses)


def test_model_star_duality_middle_primitive(t2):
    # Base with nontrivial PH^1: the duality acts within a single degree.
    m = build_model(t2, 2, [1, 1])
    r = model_star_duality(m)
    assert r.passed, r.witnesses


@settings(deadline=None, max_examples=15)
@given(hlp_bases, st.integers(1, 3))
def test_model_star_duality_random(base, s):
    r = model_star_duality(build_model(base, s, [1] * s))
    assert r.passed, r.witnesses


@pytest.mark.parametrize("value", [-1, MAX_PRIMITIVE_DIM + 1])
def test_sample_config_rejects_max_primitive_dim_without_a_weight(value):
    with pytest.raises(ValueError, match="max_primitive_dim"):
        SampleConfig(max_primitive_dim=value)
    pdims = sample_primitive_dims(random.Random(0), 3, SampleConfig(max_primitive_dim=MAX_PRIMITIVE_DIM))
    assert max(pdims) <= MAX_PRIMITIVE_DIM


def test_poincare_symmetry_of_expected_dims():
    rng = random.Random(5)
    for _ in range(10):
        c = sample_model(rng, "S", SampleConfig(n_max=3))
        dims_s = expected_dims_mainS(c.base, c.s)
        assert dims_s == dims_s[::-1]
        dims_c = expected_dims_mainC(c.base, c.s)
        assert dims_c == dims_c[::-1]


def test_verify_mainS_cross_checks_cohomology(cp1):
    hopf = build_model(cp1, 1, [1])
    assert betti_numbers(hopf) == expected_dims_mainS(cp1, 1)
