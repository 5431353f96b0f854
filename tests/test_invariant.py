import re
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq.engine import FilteredComplex, FiltrationError, compute_page, run_to_convergence
from specseq.invariant import (
    InvariantComplex,
    betti_numbers,
    build_model,
    cohomology,
    differential,
    element,
    filtered_complex,
)
from specseq.lefschetz import generate_hlp_module, zero_l_block
from specseq.linalg import (
    ContainmentError,
    DimensionMismatch,
    Matrix,
    Subspace,
    image_basis,
    integer_columns,
    kernel_basis,
    quotient,
    rank,
)

import model_oracle as oracle

Q = Fraction


def random_models():
    return st.tuples(
        st.integers(0, 3),  # n
        st.integers(1, 4),  # s
        st.integers(0, 2**31),
    ).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=t[1],
                max_size=t[1],
            ),
        )
    ).map(
        lambda pair: build_model(
            generate_hlp_module(pair[0][2], pair[0][0], (1,) + (1,) * pair[0][0]),
            pair[0][1],
            pair[1],
        )
    )


@st.composite
def typed_models(draw):
    """S-type, C-type and mixed models; lambdas with denominators up to 7, and
    every third base with one L block zeroed, so without hard Lefschetz."""
    n, s = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    pdims = (1,) + tuple(draw(st.integers(0, 2)) for _ in range(n))
    seed = draw(st.integers(0, 2**31))
    base = generate_hlp_module(seed, n, pdims)
    if n and seed % 3 == 0:
        base = zero_l_block(base, seed % (2 * n + 1))
    kind = draw(st.sampled_from(["S", "C", "mixed"]))
    if kind == "mixed":
        lambdas = st.fractions(min_value=-3, max_value=3, max_denominator=7)
        lams = draw(st.lists(lambdas, min_size=s, max_size=s))
    else:
        lams = [1 if kind == "S" else 0] * s
    return build_model(base, s, lams)


@settings(deadline=None, max_examples=60)
@given(typed_models())
def test_build_model_matches_the_dense_oracle(m):
    assert m.differentials == oracle.dense_differentials(m)
    for k, d in enumerate(m.differentials):
        cols = integer_columns(d)
        assert m.integer_d[k] == cols
        # Same rows in the same order, so the reductions take the same steps.
        assert [list(col.items()) for col in m.integer_d[k]] == [list(col.items()) for col in cols]


def test_hopf_model_shape(cp1):
    hopf = build_model(cp1, 1, [1])
    assert tuple(hopf.dim(k) for k in range(4)) == (1, 1, 1, 1)
    # d(eta (x) 1) = omega: the single degree-1 differential entry is 1.
    assert hopf.differentials[1].entries == ((Q(1),),)
    assert betti_numbers(hopf) == (1, 0, 0, 1)


def test_point_base_torus():
    point = generate_hlp_module(0, 0, (1,))
    t2 = build_model(point, 2, [1, 1])
    assert tuple(t2.dim(k) for k in range(3)) == (1, 2, 1)
    assert all(m.is_zero() for m in t2.differentials)  # L = 0 on a point


def test_c_type_differential_vanishes(t2):
    m = build_model(t2, 2, [0, 0])
    assert all(mat.is_zero() for mat in m.differentials)
    assert betti_numbers(m) == (1, 4, 6, 4, 1)


def test_s_zero_rejected(cp1):
    with pytest.raises(ValueError):
        build_model(cp1, 0, [])


def test_lambda_length_checked(cp1):
    with pytest.raises(ValueError):
        build_model(cp1, 2, [1])


def test_differential_sign_convention(cp1):
    # d(eta1 eta2 (x) h) = l1 eta2 (x) Lh - l2 eta1 (x) Lh.
    m = build_model(cp1, 2, [2, 3])
    x = element(m, 2, {((1, 2), 0, 0): Q(1)})
    dx = differential(m, x)
    expect = element(
        m, 3, {((2,), 2, 0): Q(2), ((1,), 2, 0): Q(-3)}
    )
    assert dx == expect


def test_index_of_finds_every_basis_element_and_names_an_unknown_one(t2):
    m = build_model(t2, 2, [1, 1])
    for k, layer in enumerate(m.basis):
        assert [m.index_of(k, b) for b in layer] == list(range(len(layer)))
    # ((1,), 0, 0) is eta_1 (x) 1, of degree 1, not 2; degree 7 is past the top.
    for k, b in ((2, ((1,), 0, 0)), (7, ((1, 2), 2, 0)), (-1, ((1, 2), 2, 0))):
        with pytest.raises(ValueError, match=re.escape(f"{b!r} is not a basis element in degree {k}")):
            m.index_of(k, b)


def test_chain_dims_binomial_convolution(t2):
    m = build_model(t2, 3, [1, 1, 1])
    for k in range(m.max_degree + 1):
        want = sum(
            comb(3, q) * (t2.dims[k - q] if 0 <= k - q <= 2 else 0)
            for q in range(4)
        )
        assert m.dim(k) == want


def test_filtration_subspace_cases(cp1):
    hopf = build_model(cp1, 1, [1])
    fc = filtered_complex(hopf)
    for k in range(4):
        assert fc.filt(0, k) == Subspace.full(hopf.dim(k))
    # Degree 1 is spanned by eta (x) H^0 only, so F^1 is zero there.
    assert fc.filt(1, 1).dim == 0
    assert fc.filt(2, 2).dim == 1
    for k in range(4):
        assert fc.filt(3, k).dim == 0


@settings(deadline=None, max_examples=30)
@given(random_models())
def test_d_squared_zero(m):
    for k in range(m.max_degree):
        assert (m.differentials[k + 1] @ m.differentials[k]).is_zero()


@settings(deadline=None, max_examples=20)
@given(random_models())
def test_d_raises_filtration_by_two(m):
    fc = filtered_complex(m)
    for k in range(m.max_degree):
        for p in range(2 * m.base.n + 1):
            fp = fc.filt(p, k)
            target = fc.filt(p + 2, k + 1)
            for col in fp.basis.columns():
                assert target.contains_vector(m.differentials[k].apply(col))


@settings(deadline=None, max_examples=20)
@given(random_models())
def test_euler_characteristic_vanishes(m):
    chi = sum((-1) ** k * m.dim(k) for k in range(m.max_degree + 1))
    assert chi == 0


def test_cohomology_representatives_are_cocycles(cp1):
    hopf = build_model(cp1, 1, [1])
    for k, q in enumerate(cohomology(hopf)):
        reps = Subspace.from_matrix(q.section)
        assert reps.dim == q.dim
        for col in reps.basis.columns():
            assert all(x == 0 for x in hopf.differentials[k].apply(col))


def _typed_model(n, s, seed, kind, lambdas, pdims, zero_block):
    base = generate_hlp_module(seed, n, (1 + pdims[0],) + tuple(pdims[1 : n + 1]))
    if zero_block and n:
        base = zero_l_block(base, seed % (2 * n - 1))  # no hard Lefschetz
    lambdas = {"S": [1] * s, "C": [0] * s, "mixed": lambdas[:s]}[kind]
    return build_model(base, s, lambdas)


def typed_models():
    """S-type, C-type and mixed-lambda models, some without hard Lefschetz;
    the mixed lambdas have denominators up to 7."""
    return st.builds(
        _typed_model,
        st.integers(0, 3),
        st.integers(1, 3),
        st.integers(0, 2**31),
        st.sampled_from(("S", "C", "mixed")),
        st.lists(st.fractions(-3, 3, max_denominator=7), min_size=3, max_size=3),
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
        st.booleans(),
    )


@settings(deadline=None, max_examples=40)
@given(typed_models())
def test_cohomology_matches_the_quotient_oracle(m):
    for k, h in enumerate(cohomology(m)):
        n = m.dim(k)
        exact = image_basis(m.differentials[k - 1]) if k else Subspace.zero(n)
        oracle = quotient(kernel_basis(m.differentials[k]), exact)
        assert h.dim == oracle.dim
        section = h.section.columns()
        assert len(section) == h.dim and h.section.rows == n
        for t, col in enumerate(section):
            assert not any(m.differentials[k].apply(col))
            assert h.project(col) == tuple(Q(int(u == t)) for u in range(h.dim))
        if k:
            for col in m.differentials[k - 1].columns():
                assert not any(h.project(col))
        if h.dim:
            classes = [oracle.project.apply(col) for col in section]
            assert rank(Matrix.from_cols(classes)) == h.dim


def test_cohomology_refuses_d_squared_nonzero(cp2):
    # Every degree is one-dimensional and d_3 = (1).  A doctored d_4 = (1)
    # makes d_4 d_3 nonzero: the low of the reduced d_3 is then a nonzero
    # column of the reduced d_4.
    m = build_model(cp2, 1, [1])
    doctored = list(m.differentials)
    doctored[4] = Matrix.from_rows([[1]])
    with pytest.raises(ContainmentError, match="degree 4"):
        cohomology(replace(m, differentials=tuple(doctored)))


def test_cohomology_refuses_d_squared_nonzero_at_a_zero_column(cp1):
    # Chain dims (1, 2, 1, ...): d_0 = (1, 1) has its low at index 1, a zero
    # column of d_1 = (1 0), yet d_1 d_0 = 1; only applying d_1 catches it.
    m = build_model(cp1, 2, [1, 1])
    assert (m.dim(0), m.dim(1)) == (1, 2)
    doctored = list(m.differentials)
    doctored[0] = Matrix.from_rows([[1], [1]])
    doctored[1] = Matrix.from_rows([[1, 0]] + [[0, 0]] * (m.dim(2) - 1))
    with pytest.raises(ContainmentError, match="degree 1"):
        cohomology(replace(m, differentials=tuple(doctored)))


def test_filtered_complex_construction(cp1):
    hopf = build_model(cp1, 1, [1])
    fc = filtered_complex(hopf)
    assert fc.chain_dims == (1, 1, 1, 1)
    assert fc.max_filtration == 2
    assert fc.cohomology_dims() == (1, 0, 0, 1)


def _dense_filtered_complex(m):
    """`filtered_complex(m)` built the generic way, from the dense matrices."""
    degrees = tuple(tuple(p for _, p, _ in layer) for layer in m.basis)
    return FilteredComplex(m.differentials, degrees, 2 * m.base.n)


@settings(deadline=None, max_examples=40)
@given(typed_models())
def test_filtered_complex_takes_the_models_columns(m):
    fc, dense = filtered_complex(m), _dense_filtered_complex(m)
    assert fc.integer_d is m.integer_d
    assert fc.pairs == dense.pairs
    pages, stable_at = run_to_convergence(fc)
    dense_pages, dense_stable_at = run_to_convergence(dense)
    assert stable_at == dense_stable_at
    for page, dense_page in zip(pages, dense_pages, strict=True):
        # Also against the page computed first on a complex of its own, so
        # that no cells of an earlier page can be reused.
        alone = compute_page(_dense_filtered_complex(m), page.r)
        for other in (dense_page, alone):
            assert list(page.cells.items()) == list(other.cells.items())
            assert page.d_ranks == other.d_ranks


@settings(deadline=None, max_examples=40)
@given(typed_models())
def test_cohomology_on_the_engines_reductions(m):
    assert cohomology(m, filtered_complex(m).basis_reductions()) == cohomology(m)


def test_reductions_of_a_reordered_basis_are_not_handed_over(cp1):
    m = build_model(cp1, 2, [1, 1])
    k = 2  # basic degrees (2, 0): eta_{} (x) H^2, then eta_{12} (x) H^0
    assert [p for _, p, _ in m.basis[k]] == [2, 0]
    basis = list(m.basis)
    basis[k] = m.basis[k][::-1]
    d = list(m.differentials)
    d[k - 1] = Matrix(d[k - 1].rows, d[k - 1].cols, d[k - 1].entries[::-1])
    d[k] = Matrix.from_cols(d[k].columns()[::-1], rows=d[k].rows)
    reordered = InvariantComplex(m.base, m.s, m.lambdas, tuple(basis), tuple(d))
    fc = filtered_complex(reordered)
    # The engine sorts the basis itself, so its pairs do not move ...
    assert fc.pairs == filtered_complex(m).pairs
    # ... but its reductions are of reordered columns, and are not handed over.
    with pytest.raises(FiltrationError, match=f"degree {k} "):
        fc.basis_reductions()
    assert betti_numbers(reordered) == betti_numbers(m)


def test_cohomology_refuses_the_reductions_of_another_complex(cp1, cp2):
    reductions = filtered_complex(build_model(cp2, 1, [1])).basis_reductions()
    with pytest.raises(DimensionMismatch):
        cohomology(build_model(cp1, 1, [1]), reductions)
