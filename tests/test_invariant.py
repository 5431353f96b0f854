from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq.invariant import (
    betti_numbers,
    build_model,
    cohomology,
    differential,
    element,
    filtered_complex,
)
from specseq.lefschetz import generate_hlp_module
from specseq.linalg import Subspace

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


def test_filtered_complex_construction(cp1):
    hopf = build_model(cp1, 1, [1])
    fc = filtered_complex(hopf)
    assert fc.chain_dims == (1, 1, 1, 1)
    assert fc.max_filtration == 2
    assert fc.cohomology_dims() == (1, 0, 0, 1)
