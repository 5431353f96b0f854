from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq.lefschetz import (
    HardLefschetzError,
    LefschetzModule,
    check_hard_lefschetz,
    check_top_degree,
    generate_hlp_module,
    kernel_L,
    l_power,
    lefschetz_decompose_class,
    primitive_subspace,
    reconstruct_class,
    star_matrix,
    zero_l_block,
)
from specseq.linalg import Matrix, Subspace, image_basis

Q = Fraction


def pdim_strategy(n):
    return st.tuples(
        st.just(1), *[st.integers(0, 2) for _ in range(n)]
    )


modules = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), pdim_strategy(n), st.integers(0, 2**31))
).map(lambda t: generate_hlp_module(t[2], t[0], t[1]))


def test_check_hlp_cp1(cp1):
    report = check_hard_lefschetz(cp1)
    assert report.hlp
    assert report.failing_degree is None


def test_check_hlp_zero_L_fails():
    m = LefschetzModule(
        1, (1, 0, 1), (Matrix.zero(1, 1), Matrix.zero(0, 0), Matrix.zero(0, 1))
    )
    report = check_hard_lefschetz(m)
    assert not report.hlp
    assert report.failing_degree == 1


def test_generated_module_is_hlp():
    m = generate_hlp_module(11, 2, (1, 2, 1))
    assert check_hard_lefschetz(m).hlp
    # H^2 = L H^0 (+) PH^2 and H^1 = PH^1, so the dims are symmetric (1,2,2,2,1).
    assert m.dims == (1, 2, 2, 2, 1)


def test_generate_known_dims():
    assert generate_hlp_module(0, 0, (1,)).dims == (1,)
    assert generate_hlp_module(0, 1, (1, 0)).dims == (1, 0, 1)
    assert generate_hlp_module(0, 2, (1, 0, 1)).dims == (1, 0, 2, 0, 1)


def test_generate_deterministic():
    a = generate_hlp_module(99, 2, (1, 1, 0))
    b = generate_hlp_module(99, 2, (1, 1, 0))
    assert a == b


def test_primitive_subspace_cases(cp1, cp2):
    assert primitive_subspace(cp1, 0) == Subspace.full(1)
    assert primitive_subspace(cp2, 2).dim == 0  # H^2 = L H^0 for CP^2
    m = generate_hlp_module(5, 2, (1, 0, 2))
    assert primitive_subspace(m, 2).dim == 2
    assert primitive_subspace(m, 3).dim == 0  # above middle degree


def test_kernel_L_cases(cp1, cp2):
    assert kernel_L(cp1, 0).dim == 0
    assert kernel_L(cp1, 2) == Subspace.full(1)
    assert kernel_L(cp2, 3).dim == 0


@settings(deadline=None, max_examples=25)
@given(modules)
def test_kernel_L_equals_shifted_primitives(m):
    # Under hard Lefschetz, Ker(L) at degree p >= n is L^{p-n} PH^{2n-p}.
    n = m.n
    for p in range(2 * n + 1):
        ker = kernel_L(m, p)
        if p < n:
            assert ker.dim == 0
        else:
            prim = primitive_subspace(m, 2 * n - p)
            shifted = image_basis(
                l_power(m, 2 * n - p, p - n) @ prim.basis
            )
            assert ker == shifted


@settings(deadline=None, max_examples=25)
@given(modules)
def test_hlp_report_invariants(m):
    report = check_hard_lefschetz(m)
    assert report.hlp
    n = m.n
    for k in range(2 * n + 1):
        assert m.dims[k] == m.dims[2 * n - k]
    for j in range(n + 1):
        below = m.dims[j - 2] if j >= 2 else 0
        assert report.primitive_dims[j] == m.dims[j] - below
    for p in range(n, 2 * n + 1):
        assert report.kernel_L_dims[p] == report.primitive_dims[2 * n - p]


def test_decompose_trivial_cases(cp1):
    assert lefschetz_decompose_class(cp1, 0, (Q(1),)) == [(0, (Q(1),))]
    # H^2(CP^1) = L H^0.
    assert lefschetz_decompose_class(cp1, 2, (Q(3),)) == [(1, (Q(3),))]


@settings(deadline=None, max_examples=25)
@given(modules, st.data())
def test_decompose_reconstruct_roundtrip(m, data):
    p = data.draw(st.integers(0, 2 * m.n))
    v = tuple(
        data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        for _ in range(m.dim_at(p))
    )
    comps = lefschetz_decompose_class(m, p, v)
    for i, beta in comps:
        assert primitive_subspace(m, p - 2 * i).contains_vector(beta)
    assert reconstruct_class(m, p, comps) == v


def test_decompose_requires_hlp():
    m = LefschetzModule(
        1, (1, 0, 1), (Matrix.zero(1, 1), Matrix.zero(0, 0), Matrix.zero(0, 1))
    )
    with pytest.raises(HardLefschetzError):
        lefschetz_decompose_class(m, 0, (Q(1),))


@settings(deadline=None, max_examples=25)
@given(modules)
def test_star_matrix_matches_per_class_construction(m):
    # Oracle: decompose each basis class, v = sum_i L^i beta_i, and map it to
    # sum_i L^{n-p+i} beta_i one class at a time.
    n = m.n
    for p in range(2 * n + 1):
        star = star_matrix(m, p)
        assert (star.rows, star.cols) == (m.dims[2 * n - p], m.dims[p])
        for t in range(m.dims[p]):
            v = tuple(Q(int(j == t)) for j in range(m.dims[p]))
            image = [Q(0)] * m.dims[2 * n - p]
            for i, beta in lefschetz_decompose_class(m, p, v):
                piece = l_power(m, p - 2 * i, n - p + i).apply(beta)
                image = [x + y for x, y in zip(image, piece)]
            assert star.col(t) == tuple(image)


def test_star_matrix_requires_hlp():
    m = LefschetzModule(
        1, (1, 0, 1), (Matrix.zero(1, 1), Matrix.zero(0, 0), Matrix.zero(0, 1))
    )
    # H^2 has no Lefschetz piece at all: L H^0 = 0.
    with pytest.raises(HardLefschetzError):
        star_matrix(m, 2)


def test_zero_l_block_breaks_hlp():
    m = generate_hlp_module(3, 2, (1, 1, 0))
    # The structure is computed first on the intact module; the copy must not
    # share it.
    assert check_hard_lefschetz(m).hlp
    broken = zero_l_block(m, 0)
    assert not check_hard_lefschetz(broken).hlp


def test_check_top_degree(cp1):
    assert check_top_degree(cp1)
    assert not check_top_degree(
        LefschetzModule(
            1, (1, 0, 0), (Matrix.zero(0, 1), Matrix.zero(0, 0), Matrix.zero(0, 0))
        )
    )
    assert check_top_degree(generate_hlp_module(8, 3, (1, 1, 0, 1)))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LefschetzModule(1, (1, 0), (Matrix.zero(1, 1),))
    with pytest.raises(ValueError):
        LefschetzModule(
            1, (1, 0, 1), (Matrix.zero(2, 1), Matrix.zero(0, 0), Matrix.zero(0, 1))
        )
