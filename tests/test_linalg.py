from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exterior_oracle import solve
from model_oracle import inverse
from subquotient_oracle import InducedMapError, induced_map

from specseq.linalg import (
    ContainmentError,
    DimensionMismatch,
    Matrix,
    Subspace,
    image_basis,
    intersect,
    kernel_basis,
    preimage,
    quotient,
    rank,
    reduce_columns,
    rref,
    subspace_sum,
)

Q = Fraction

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def small_matrices(max_dim=4):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(rationals, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(Matrix.from_rows)
    )


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    _, pivots, rk = rref(m)
    assert rk == 1
    assert pivots == (0,)


def test_rref_identity():
    m = Matrix.identity(3)
    reduced, _, rk = rref(m)
    assert reduced == m
    assert rk == 3


def test_rref_swap():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    reduced, _, rk = rref(m)
    assert reduced == Matrix.identity(2)
    assert rk == 2


def test_kernel_proportional():
    ker = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ker == Subspace.span(2, [[-2, 1]])


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(3)).dim == 0
    assert kernel_basis(Matrix.zero(2, 3)) == Subspace.full(3)


def test_image_cases():
    assert image_basis(Matrix.from_rows([[1, 2], [2, 4]])) == Subspace.span(2, [[1, 2]])
    assert image_basis(Matrix.zero(3, 2)).dim == 0
    assert image_basis(Matrix.identity(3)) == Subspace.full(3)


def test_intersect_planes():
    xy = Subspace.coordinate(3, [0, 1])
    xz = Subspace.coordinate(3, [0, 2])
    assert intersect(xy, xz) == Subspace.coordinate(3, [0])


def test_intersect_idempotent_and_transverse_lines():
    v = Subspace.span(2, [[1, 1]])
    assert intersect(v, v) == v
    w = Subspace.span(2, [[1, -1]])
    assert intersect(v, w).dim == 0
    assert subspace_sum(v, w) == Subspace.full(2)


def test_sum_cases():
    x = Subspace.coordinate(2, [0])
    y = Subspace.coordinate(2, [1])
    assert subspace_sum(x, y) == Subspace.full(2)
    assert subspace_sum(x, Subspace.zero(2)) == x


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        intersect(Subspace.full(2), Subspace.full(3))
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))


def test_preimage_cases():
    f = Matrix.from_rows([[1, 0], [0, 0]])
    assert preimage(f, Subspace.full(2)) == Subspace.full(2)
    assert preimage(f, Subspace.zero(2)) == kernel_basis(f)
    assert preimage(f, Subspace.span(2, [[1, 0]])) == Subspace.full(2)


def test_quotient_trivial_cases():
    v = Subspace.full(3)
    assert quotient(v, v).dim == 0
    q = quotient(v, Subspace.zero(3))
    assert q.dim == 3
    assert rank(q.project) == 3


def test_quotient_plane_by_axis():
    q = quotient(Subspace.full(2), Subspace.coordinate(2, [0]))
    assert q.dim == 1
    assert (q.project @ q.section) == Matrix.identity(1)
    assert q.project.apply((Q(1), Q(0))) == (Q(0),)


def test_quotient_containment_checked():
    with pytest.raises(ContainmentError):
        quotient(Subspace.coordinate(3, [0]), Subspace.coordinate(3, [1]))


def test_induced_map_identity_and_zero():
    amb = Subspace.full(2)
    sub = Subspace.coordinate(2, [0])
    q = quotient(amb, sub)
    assert induced_map(Matrix.identity(2), q, q) == Matrix.identity(1)
    assert induced_map(Matrix.zero(2, 2), q, q) == Matrix.zero(1, 1)


def test_induced_map_rejects_non_preserving():
    amb = Subspace.full(2)
    q = quotient(amb, Subspace.coordinate(2, [0]))
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(InducedMapError):
        induced_map(swap, q, q)


def test_induced_map_agrees_on_representatives():
    # L-like map on a 2-step quotient pair: direct evaluation on lifted
    # representatives must match the induced matrix.
    f = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    src = quotient(Subspace.full(3), Subspace.coordinate(3, [0]))
    dst = quotient(Subspace.full(3), Subspace.coordinate(3, [0]))
    ind = induced_map(f, src, dst)
    for j in range(src.dim):
        rep = src.section.col(j)
        assert dst.project.apply(f.apply(rep)) == ind.col(j)


@settings(deadline=None, max_examples=60)
@given(small_matrices())
def test_rank_nullity(m):
    assert kernel_basis(m).dim + rank(m) == m.cols


@settings(deadline=None, max_examples=60)
@given(small_matrices(), st.data())
def test_modular_dimension_identity(m, data):
    other = data.draw(
        st.lists(
            st.lists(rationals, min_size=m.rows, max_size=m.rows),
            min_size=0,
            max_size=3,
        )
    )
    a = image_basis(m)
    b = Subspace.span(m.rows, other)
    assert (
        subspace_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim
    )


@settings(deadline=None, max_examples=40)
@given(small_matrices())
def test_preimage_contains_kernel(m):
    s = Subspace.span(m.rows, [[1] * m.rows])
    pre = preimage(m, s)
    assert pre.contains(kernel_basis(m))


def test_induced_map_functorial():
    f = Matrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    g = Matrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    q = quotient(Subspace.full(3), Subspace.zero(3))
    assert induced_map(g @ f, q, q) == induced_map(g, q, q) @ induced_map(f, q, q)


def test_inverse_and_solve():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert m @ inverse(m) == Matrix.identity(2)
    x = solve(m, (Q(3), Q(2)))
    assert m.apply(x) == (Q(3), Q(2))
    assert solve(Matrix.from_rows([[1, 0], [1, 0]]), (Q(0), Q(1))) is None


def test_exactness_is_deterministic():
    m = Matrix.from_rows([[Q(1, 3), Q(2, 7)], [Q(5, 11), Q(1, 2)]])
    assert rref(m) == rref(m)
    assert kernel_basis(m) == kernel_basis(m)


integer_matrices = st.integers(1, 5).flatmap(
    lambda rows: st.lists(
        st.dictionaries(st.integers(0, rows - 1), st.integers(-3, 3).filter(bool), max_size=rows),
        max_size=6,
    )
)


@settings(deadline=None, max_examples=100)
@given(integer_matrices)
def test_reduction_without_v_keeps_the_zero_columns_and_the_lows(cols):
    R, V, lows = reduce_columns(cols)
    bare_R, bare_V, bare_lows = reduce_columns(cols, with_v=False)
    assert bare_V == [] and bare_lows == lows
    for r, bare in zip(R, bare_R, strict=True):
        assert bool(r) == bool(bare)
        if r:
            # The same column up to a positive scale.
            assert bare.keys() == r.keys()
            [ratio] = {Q(bare[i], x) for i, x in r.items()}
            assert ratio > 0


@settings(deadline=None, max_examples=100)
@given(integer_matrices, integer_matrices)
def test_every_reduced_column_is_content_free(first, cols):
    # Each column the reduction reduces is divided by its content: with V the
    # gcd over R_j and V_j together is 1, and without V the gcd over a nonzero
    # R_j is 1, also when the reduction starts from pivots.  A cleared column
    # is taken as it is handed over, here twice a kernel vector.
    def content(*columns):
        return gcd(*(x for col in columns for x in col.values()))

    R, V, _ = reduce_columns(cols)
    cleared = {j: {i: 2 * x for i, x in V[j].items()} for j, r in enumerate(R) if not r}
    for clearing in ({}, cleared):
        R, V, _ = reduce_columns(cols, clearing)
        for j, (r, v) in enumerate(zip(R, V, strict=True)):
            assert j in clearing or content(r, v) == 1
    R_first, _, lows_first = reduce_columns(first, with_v=False)
    pivots = {low: R_first[j] for low, j in lows_first.items()}
    for R in (R_first, reduce_columns(cols, with_v=False, pivots=pivots)[0]):
        assert all(content(r) == 1 for r in R if r)


def test_cleared_columns_are_not_reduced():
    # d_0 = (1, 1)^T and d_1 = (1 -1): the reduced d_0 has its low at 1, and
    # column 1 of d_1 reduces to zero with V_1 = (1, 1).
    d1 = [{0: 1}, {0: -1}]
    R, V, lows = reduce_columns(d1, {1: {0: 1, 1: 1}})
    assert (R, V, lows) == reduce_columns(d1)
    assert (R, V, lows) == ([{0: 1}, {}], [{0: 1}, {0: 1, 1: 1}], {0: 0})
    assert reduce_columns(d1, {1: {0: 1, 1: 1}}, with_v=False) == ([{0: 1}, {}], [], {0: 0})


@settings(deadline=None, max_examples=100)
@given(integer_matrices, integer_matrices)
def test_reduction_from_pivots_is_the_reduction_of_the_pivots_then_the_columns(first, cols):
    # Reducing `first` gives pivots with distinct lows; starting from them,
    # the columns reduce as they do after `first` in one reduction.
    R_first, _, lows_first = reduce_columns(first, with_v=False)
    pivots = {low: R_first[j] for low, j in lows_first.items()}
    R, V, lows = reduce_columns(cols, with_v=False, pivots=pivots)
    whole_R, _, whole_lows = reduce_columns(first + cols, with_v=False)
    assert V == [] and R == whole_R[len(first) :]
    assert lows == {low: j - len(first) for low, j in whole_lows.items() if j >= len(first)}
    with pytest.raises(ValueError, match="with_v=False"):
        reduce_columns(cols, pivots=pivots or {0: {0: 1}})
