from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from specseq.engine import FiltrationError, compute_page, run_to_convergence
from specseq.invariant import (
    InvariantElement,
    betti_numbers,
    build_model,
    differential,
    filtered_complex,
)
from specseq.lefschetz import generate_hlp_module
from specseq.linalg import (
    Matrix,
    Subspace,
    image_basis,
    kernel_basis,
    quotient,
    rank,
    reduce_columns,
)

import model_oracle as oracle
from model_oracle import integer_columns, typed_models
from subquotient_oracle import dense_complex

Q = Fraction


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


def _element(m, k, terms):
    """sum terms[(I, p, t)] eta_I (x) h_{p,t} in C^k, each element placed at
    the offset of its block (I, p) plus t."""
    coeffs = [Q(0)] * m.dim(k)
    for (subset, p, t), v in terms.items():
        coeffs[m.offsets[k][(subset, p)] + t] += v
    return InvariantElement(k, tuple(coeffs))


def test_differential_sign_convention(cp1):
    # d(eta1 eta2 (x) h) = l1 eta2 (x) Lh - l2 eta1 (x) Lh.
    m = build_model(cp1, 2, [2, 3])
    x = _element(m, 2, {((1, 2), 0, 0): Q(1)})
    dx = differential(m, x)
    expect = _element(m, 3, {((2,), 2, 0): Q(2), ((1,), 2, 0): Q(-3)})
    assert dx == expect


def test_offsets_lay_out_the_blocks_in_order_at_running_offsets(t2):
    # T^2 has dims (1, 2, 1): each block eta_I (x) H^p starts where the one
    # before ends, with |I| ascending and each I in lexicographic order.
    m = build_model(t2, 2, [1, 1])
    assert list(m.offsets[1].items()) == [(((), 1), 0), (((1,), 0), 2), (((2,), 0), 3)]
    assert list(m.offsets[2].items()) == [(((), 2), 0), (((1,), 1), 1), (((2,), 1), 3), (((1, 2), 0), 5)]
    # The dense oracle enumerates the same order element by element.
    assert oracle.chain_basis(m, 1) == [((), 1, 0), ((), 1, 1), ((1,), 0, 0), ((2,), 0, 0)]
    assert oracle.chain_basis(m, 2) == [
        ((), 2, 0), ((1,), 1, 0), ((1,), 1, 1), ((2,), 1, 0), ((2,), 1, 1), ((1, 2), 0, 0)
    ]
    assert filtered_complex(m).degrees[1:3] == ((1, 1, 0, 0), (2, 1, 1, 1, 1, 0))


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
@given(typed_models())
def test_d_squared_zero(m):
    for k in range(m.max_degree):
        assert (m.differentials[k + 1] @ m.differentials[k]).is_zero()


@settings(deadline=None, max_examples=20)
@given(typed_models())
def test_d_raises_filtration_by_two(m):
    fc = filtered_complex(m)
    for k in range(m.max_degree):
        for p in range(2 * m.base.n + 1):
            fp = fc.filt(p, k)
            target = fc.filt(p + 2, k + 1)
            for col in fp.basis.columns():
                assert target.contains_vector(m.differentials[k].apply(col))


@settings(deadline=None, max_examples=20)
@given(typed_models())
def test_euler_characteristic_vanishes(m):
    chi = sum((-1) ** k * m.dim(k) for k in range(m.max_degree + 1))
    assert chi == 0


def _dense(v, n):
    """The sparse vector v as a dense tuple of length n."""
    return tuple(Q(v.get(i, 0)) for i in range(n))


def _representatives(h, n):
    """The V columns at the essential indices of h, dense, of length n."""
    return [_dense(h.reduction[1][j], n) for j in h.essential]


def test_cohomology_representatives_are_cocycles(cp1):
    hopf = build_model(cp1, 1, [1])
    for k, q in enumerate(hopf.cohomology):
        reps = _representatives(q, hopf.dim(k))
        assert len(reps) == q.dim == Subspace.span(hopf.dim(k), reps).dim
        for col in reps:
            assert all(x == 0 for x in hopf.differentials[k].apply(col))


@settings(deadline=None, max_examples=40)
@given(typed_models())
def test_cohomology_matches_the_quotient_oracle(m):
    for k, h in enumerate(m.cohomology):
        n = m.dim(k)
        exact = image_basis(m.differentials[k - 1]) if k else Subspace.zero(n)
        oracle = quotient(kernel_basis(m.differentials[k]), exact)
        assert h.dim == oracle.dim
        # The representatives are cocycles whose classes are a basis of H^k.
        reps = _representatives(h, n)
        for col in reps:
            assert not any(m.differentials[k].apply(col))
        if h.dim:
            classes = [oracle.project.apply(col) for col in reps]
            assert rank(Matrix.from_cols(classes)) == h.dim
        # The boundaries are cocycles of class zero with distinct lows, as
        # many as rank d_{k-1}: a basis of Im d_{k-1}.
        for low, b in h.boundaries.items():
            dense = _dense(b, n)
            assert max(b) == low and not any(m.differentials[k].apply(dense))
            assert not any(oracle.project.apply(dense))
        assert len(h.boundaries) == (rank(m.differentials[k - 1]) if k else 0)


def test_cohomology_refuses_d_squared_nonzero(cp2):
    # Every degree is one-dimensional and d_3 = (1).  A doctored d_4 = (1)
    # makes d_4 d_3 nonzero, which the engine refuses when it certifies the
    # reductions that direct cohomology reads.
    m = build_model(cp2, 1, [1])
    doctored = list(m.integer_d)
    doctored[4] = [{0: 1}]
    with pytest.raises(FiltrationError, match="d o d != 0 at degree 3$"):
        replace(m, integer_d=tuple(doctored)).cohomology


def test_cohomology_refuses_d_squared_nonzero_at_a_zero_column(cp1):
    # Chain dims (1, 2, 1, ...): d_0 = (1, 1) has its low at index 1, a zero
    # column of d_1 = (1 0), yet d_1 d_0 = 1; only applying d_1 catches it.
    m = build_model(cp1, 2, [1, 1])
    assert (m.dim(0), m.dim(1)) == (1, 2)
    doctored = list(m.integer_d)
    doctored[0] = [{0: 1, 1: 1}]
    doctored[1] = [{0: 1}, {}]
    with pytest.raises(FiltrationError, match="d o d != 0 at degree 0$"):
        replace(m, integer_d=tuple(doctored)).cohomology


def test_the_complex_keeps_one_analysis(cp2):
    m = build_model(cp2, 2, [1, 1])
    assert isinstance(m.cohomology, tuple) and m.cohomology is m.cohomology
    assert filtered_complex(m) is filtered_complex(m)
    pages, stable_at = m.spectral_sequence
    assert isinstance(pages, tuple) and m.spectral_sequence is m.spectral_sequence
    assert m.differentials is filtered_complex(m).d


def test_filtered_complex_construction(cp1):
    hopf = build_model(cp1, 1, [1])
    fc = filtered_complex(hopf)
    assert tuple(map(len, fc.degrees)) == (1, 1, 1, 1)
    assert fc.max_filtration == 2
    assert fc.cohomology_dims() == (1, 0, 0, 1)


def _dense_filtered_complex(m):
    """`filtered_complex(m)` built the generic way, from the dense matrices."""
    top = 2 * m.base.n + m.s
    degrees = tuple(tuple(p for _, p, _ in oracle.chain_basis(m, k)) for k in range(top + 1))
    return dense_complex(m.differentials, degrees, 2 * m.base.n)


@settings(deadline=None, max_examples=40)
@given(typed_models())
def test_filtered_complex_takes_the_models_columns(m):
    fc, dense = filtered_complex(m), _dense_filtered_complex(m)
    assert fc.integer_d is m.integer_d
    # The engine's dense view, built on first read, is the model's.
    assert fc.d == oracle.dense_differentials(m)
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


@settings(deadline=None, max_examples=60)
@given(typed_models())
def test_cleared_reductions_match_the_full_reduction(m):
    reductions = filtered_complex(m).reductions
    for k, (R, V, lows) in enumerate(reductions):
        cols = m.integer_d[k]
        full_R, full_V, full_lows = reduce_columns(cols)
        assert R == full_R and lows == full_lows
        cleared = {}
        if k:
            R_prev, _, lows_prev = reductions[k - 1]
            cleared = {low: R_prev[j] for low, j in lows_prev.items()}
        for j, v in enumerate(V):
            # A cleared column keeps the boundary with its low at j; every
            # other column of V is the full reduction's.
            assert v == cleared.get(j, full_V[j])


def test_reductions_of_a_reordered_basis_are_not_handed_over(cp1):
    m = build_model(cp1, 2, [1, 1])
    k = 2  # basic degrees (2, 0): eta_{} (x) H^2, then eta_{12} (x) H^0
    assert list(m.offsets[k].items()) == [(((), 2), 0), (((1, 2), 0), 1)]
    offsets = list(m.offsets)
    offsets[k] = {((1, 2), 0): 0, ((), 2): 1}
    d = list(m.integer_d)
    last = m.dim(k) - 1
    d[k - 1] = [dict(sorted((last - i, x) for i, x in col.items())) for col in d[k - 1]]
    d[k] = d[k][::-1]
    reordered = replace(m, offsets=tuple(offsets), integer_d=tuple(d))
    # The engine reduces in basis order, which is then not the filtration
    # order, so it refuses the complex that its pages and direct cohomology
    # would read.
    for read in (lambda: filtered_complex(reordered), lambda: betti_numbers(reordered)):
        with pytest.raises(FiltrationError, match=f"degree {k} "):
            read()
