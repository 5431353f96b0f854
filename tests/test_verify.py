import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_oracle

from specseq.engine import FilteredComplex, PageCell
from specseq.exterior import index_subset_sign
from specseq.invariant import (
    betti_numbers,
    build_model,
    cohomology,
    differential,
)
from specseq import engine, invariant, lefschetz, linalg, verify
from specseq.lefschetz import (
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
    VerificationReport,
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


def test_a_report_passes_only_where_it_applies_with_no_witness():
    witness = Witness("dim E_2", (0, 0), 1, 0)
    assert VerificationReport("E2").passed
    assert not VerificationReport("E2", (witness,)).passed
    report = VerificationReport("mainS", hypothesis_violation="not S-type")
    assert not report.applicable and not report.witnesses and not report.passed
    assert not VerificationReport("mainS", (witness,), "not S-type").passed


@pytest.mark.parametrize(
    "model, theorems",
    [
        (PRESETS["hopf-s3"], ["E2", "mainS", "star-duality"]),
        (PRESETS["torus-t3"], ["E2", "mainC"]),
        (replace(PRESETS["hopf-s3"], s=2, lambdas=(Q(1), Q(0))), ["E2"]),
    ],
    ids=["S", "C", "mixed"],
)
def test_analyze_reports_lists_the_theorems_in_order(model, theorems):
    reports = verify.analyze_reports(to_complex(model))
    assert [r.theorem for r in reports] == theorems
    assert all(r.passed for r in reports)


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


def test_kernel_d2_at_the_degree_edges(cp2):
    c = build_model(cp2, 2, [1, 1])
    with pytest.raises(ValueError, match="degree out of range"):
        kernel_d2(c, -1, 1)
    # Above the top degree H^p and Ker L are zero.
    assert [kernel_d2(c, 2 * cp2.n + 1, q) for q in range(3)] == [(0, 0)] * 3


def test_kernel_d2_over_every_cell_builds_one_filtered_complex(monkeypatch, cp2):
    built = []
    monkeypatch.setattr(
        FilteredComplex,
        "__post_init__",
        lambda fc, _fn=FilteredComplex.__post_init__: built.append(fc) or _fn(fc),
    )
    c = build_model(cp2, 3, [1, 1, 1])
    for p in range(2 * cp2.n + 1):
        for q in range(c.s + 1):
            ker, expected = kernel_d2(c, p, q)
            assert ker == expected
    assert len(built) == 1


@pytest.mark.parametrize("lambdas", [[1, 1], [0, 0]])
def test_the_verifiers_reduce_each_differential_once(monkeypatch, cp2, lambdas):
    # The verifiers as `analyze` runs them, each given only the complex.
    reduced = []
    for module in (engine, invariant, verify, lefschetz):
        if hasattr(module, "reduce_columns"):
            monkeypatch.setattr(
                module,
                "reduce_columns",
                lambda cols, *a, _fn=module.reduce_columns, **kw: reduced.append(cols)
                or _fn(cols, *a, **kw),
            )
    c = build_model(cp2, 2, lambdas)
    reports = verify.analyze_reports(c)
    betti_numbers(c)
    assert all(r.passed for r in reports)
    assert [sum(cols is d for cols in reduced) for d in c.integer_d] == [1] * (c.max_degree + 1)


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
    return tuple(out)


def _cache(c, **analysis):
    """Put doctored parts of the analysis into the cache of c, where every
    verifier reads them."""
    vars(c).update(analysis)


def test_witnesses_name_cell_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    assert verify_E2(hopf).passed
    pages, stable_at = hopf.spectral_sequence
    pages = _doctored(pages, 1, d_ranks={(0, 1): 1})
    pages = _doctored(pages, 2, dims={(2, 0): 3})
    _cache(hopf, spectral_sequence=(pages, stable_at))
    r = verify_E2(hopf)
    assert not r.passed
    assert r.witnesses == (
        Witness("rank d_1", (0, 1), 0, 1),
        Witness("dim E_2", (2, 0), 1, 3),
    )
    assert str(r.witnesses[1]) == "dim E_2 at (p, q) = (2, 0): expected 1, got 3"


def test_witnesses_name_degree_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    pages, _ = hopf.spectral_sequence
    classes = cohomology(hopf)
    _cache(
        hopf,
        spectral_sequence=(_doctored(pages, -1, dims={(2, 1): 0}), 5),
        # The boundary omega of H^2 counted as a class.
        cohomology=classes[:2] + (replace(classes[2], lows_prev={}),) + classes[3:],
    )
    assert betti_numbers(hopf) == (1, 0, 1, 1)
    r = verify_mainS(hopf)
    assert r.witnesses == (
        Witness("stable page", None, "<= 3", 5),
        Witness("E_infinity total", 3, 1, 0),
        Witness("direct cohomology", 2, 0, 1),
    )
    assert str(r.witnesses[1]) == "E_infinity total in degree 3: expected 1, got 0"

    cosymplectic = build_model(cp1, 1, [0])
    pages, _ = cosymplectic.spectral_sequence
    _cache(cosymplectic, spectral_sequence=(_doctored(pages, -1, dims={(0, 1): 2}), 3))
    r = verify_mainC(cosymplectic)
    assert r.witnesses == (
        Witness("stable page", None, "<= 2", 3),
        Witness("E_infinity total", 1, 1, 2),
    )


def _with_boundaries(q, boundaries):
    """The view q of H^k doctored so that `boundaries`, sparse vectors keyed
    by their lows, are its boundaries and every other zero column of its
    reduction a class."""
    R, V, lows = q.reduction
    V = list(V)
    for low, b in boundaries.items():
        V[low] = b
    return replace(q, reduction=(R, V, lows), lows_prev=dict.fromkeys(boundaries))


def test_star_duality_witnesses_name_degree_and_values(cp1):
    hopf = build_model(cp1, 1, [1])
    assert model_star_duality(hopf).passed
    # Classes that make every basis vector of C^3 a boundary kill H^3, so the
    # class of the star image of 1 (degree 0) vanishes.
    boundaries = {j: {j: 1} for j in range(hopf.dim(3))}
    classes = cohomology(hopf)
    _cache(hopf, cohomology=classes[:3] + (_with_boundaries(classes[3], boundaries),))
    r = model_star_duality(hopf)
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
    base = model_oracle.module_from_matrices(
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
    assert model_star_duality(build_model(base, 1, [1])).passed
    columns = lefschetz.lefschetz_columns(base)
    assert columns.primitive[2] == [{1: 1}]
    # The star image of beta = e_1 becomes omega = e_0.  A complex keeps its
    # chains, so a fresh one reads the doctored columns.
    star = columns.star[:2] + ([{0: 1}],) + columns.star[3:]
    doctored = replace(columns, star=star)
    monkeypatch.setattr(invariant, "lefschetz_columns", lambda module: doctored)
    r = model_star_duality(build_model(base, 1, [1]))
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
    assert model_star_duality(m).passed
    classes = cohomology(m)
    boundaries = dict(classes[2].boundaries)
    for t in range(2):
        j = m.index_of(2, ((1,), 1, t))
        boundaries[j] = {j: 1}
    doctored = _with_boundaries(classes[2], boundaries)
    _cache(m, cohomology=classes[:2] + (doctored,) + classes[3:])
    r = model_star_duality(m)
    assert r.witnesses == (Witness("dim of part A + star images", 2, 4, 2),)


@settings(deadline=None, max_examples=40)
@given(hlp_bases, st.integers(1, 3), st.data())
def test_star_duality_matches_the_two_reduction_reference(base, s, data):
    c = build_model(base, s, [1] * s)
    assert model_star_duality(c) == model_oracle.star_duality_reference(c)
    # On doctored views of H^k: boundaries dropped, and vectors with their
    # lows elsewhere added, so that classes vanish or stop being independent.
    doctored = []
    for q in cohomology(c):
        boundaries = {low: b for low, b in q.boundaries.items() if data.draw(st.booleans())}
        for low in data.draw(st.sets(st.integers(0, max(q.ambient_dim - 1, 0)), max_size=3)):
            if low < q.ambient_dim and low not in boundaries:
                entries = st.dictionaries(st.integers(0, low), st.integers(-2, 2), max_size=3)
                below = {i: x for i, x in data.draw(entries).items() if x and i < low}
                boundaries[low] = below | {low: data.draw(st.sampled_from([1, -1, 2]))}
        doctored.append(_with_boundaries(q, boundaries))
    _cache(c, cohomology=tuple(doctored))
    assert model_star_duality(c) == model_oracle.star_duality_reference(c)


@pytest.mark.parametrize("s", range(1, 8))
def test_closed_form_eta_forms_match_the_expanded_product(s):
    # Per subset I of {2..s}, in order: prod (eta_1 - eta_i) written in
    # closed form, eta_1 eta_I, and the star complements of the first, each
    # equal (keys in any order) to the product expanded factor by factor.
    subsets = [I for q in range(s) for I in itertools.combinations(range(2, s + 1), q)]
    forms = invariant._harmonic_eta_forms(s)
    assert len(forms) == len(subsets)
    for subset, (differences, with_eta_1, complements) in zip(subsets, forms):
        expanded = model_oracle._eta_product([{(1,): 1, (i,): -1} for i in subset])
        assert dict(differences) == expanded
        assert dict(with_eta_1) == {(1,) + subset: 1}
        assert dict(complements) == {
            tuple(j for j in range(1, s + 1) if j not in idx): a * (-1) ** index_subset_sign(idx)
            for idx, a in expanded.items()
        }


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


def test_recursions_refuse_lists_their_result_cannot_produce():
    # (1,) gives the S-type dims (1, 3, 3, 1) for s = 3, n = 0, and (1, 2, 1)
    # the C-type dims (1, 3, 3, 1) for s = 1; neither recursion meets a
    # negative dimension on the way.
    with pytest.raises(ValueError, match="primitive dims in degree 1: expected 0, got 3"):
        primitive_betti_from_deRham((1, 0, 0, 1), 3, 0)
    with pytest.raises(ValueError, match="basic dims in degree 3: expected 7, got 1"):
        basic_betti_from_deRham((1, 3, 3, 7), 1)
    # Nor can a list of the wrong length for n and s.
    for B in ((1,), (1, 0, 0, 1, 0)):
        with pytest.raises(ValueError, match="expected 4 Betti numbers for n=1, s=1"):
            primitive_betti_from_deRham(B, 1, 1)


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


def test_harmonic_basis_and_star_duality_build_no_canonical_subspace(monkeypatch):
    # Both read the integer bases of the Lefschetz structure, so neither
    # builds a dense `Subspace` of them.
    spans = []
    monkeypatch.setattr(
        linalg.Subspace,
        "span",
        staticmethod(lambda *a, _fn=linalg.Subspace.span: spans.append(a) or _fn(*a)),
    )
    c = build_model(generate_hlp_module(4, 2, (1, 1, 1)), 2, [1, 1])
    part_a, part_b = harmonic_basis_S(c)
    assert model_star_duality(c).passed
    assert part_a and part_b
    assert spans == []


def _count_chains(monkeypatch):
    """The arguments of every chain the complexes build, as they build them."""
    built = []
    monkeypatch.setattr(
        invariant,
        "_integer_chain",
        lambda *a, _fn=invariant._integer_chain: built.append(a) or _fn(*a),
    )
    return built


@pytest.mark.parametrize("model", ["hopf-s3", "s2xs3", "generated"])
def test_star_duality_and_the_harmonic_basis_build_each_chain_once(monkeypatch, model):
    # Both read the chains the complex keeps: part A, part B and one star
    # image per part-A chain, built on the first read and never again.
    built = _count_chains(monkeypatch)
    if model == "generated":
        c = build_model(generate_hlp_module(4, 2, (1, 1, 1)), 3, [1, 1, 1])
    else:
        c = to_complex(PRESETS[model])
    assert model_star_duality(c).passed
    part_a, part_b = harmonic_basis_S(c)
    assert part_a and part_b
    assert len(built) == 2 * len(part_a) + len(part_b)
    built.clear()
    assert model_star_duality(c).passed
    assert harmonic_basis_S(c) == (part_a, part_b)
    assert built == []


def test_the_harmonic_chains_are_built_only_where_the_theorems_apply(monkeypatch, cp1):
    built = _count_chains(monkeypatch)
    no_hlp = build_model(zero_l_block(cp1, 0), 1, [1])
    mixed = to_complex(replace(PRESETS["hopf-s3"], s=2, lambdas=(Q(1), Q(0))))
    for c in (no_hlp, mixed):
        assert not model_star_duality(c).applicable
        with pytest.raises(HypothesisError):
            harmonic_basis_S(c)
        assert "harmonic_chains" not in vars(c)
    assert built == []


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
