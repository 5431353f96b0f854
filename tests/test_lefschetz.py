import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specseq import lefschetz
from specseq.lefschetz import (
    HardLefschetzError,
    LefschetzModule,
    check_hard_lefschetz,
    generate_hlp_module,
    lefschetz_columns,
    lefschetz_decompose_class,
    zero_l_block,
)
from specseq.linalg import Matrix, Subspace, image_basis

import model_oracle as oracle
from model_oracle import (
    check_top_degree,
    integer_columns,
    kernel_L,
    l_power,
    module_from_matrices,
    primitive_subspace,
    reconstruct_class,
)

Q = Fraction


def pdim_strategy(n):
    return st.tuples(
        st.just(1), *[st.integers(0, 2) for _ in range(n)]
    )


modules = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), pdim_strategy(n), st.integers(0, 2**31))
).map(lambda t: generate_hlp_module(t[2], t[0], t[1]))


def _conjugate(m, diagonals):
    """m with L_p replaced by D_{p+2} L_p D_p^{-1}, D_p = diag(diagonals[p])."""
    l_maps = tuple(
        Matrix(
            l.rows,
            l.cols,
            tuple(
                tuple(diagonals[p + 2][i] * x / diagonals[p][j] for j, x in enumerate(row))
                for i, row in enumerate(l.entries)
            ),
        )
        for p, l in enumerate(m.L_maps)
    )
    return module_from_matrices(m.n, m.dims, l_maps)


_odd_units = st.builds(Q, st.sampled_from([1, -1, 3, -3, 5]), st.sampled_from([1, 3, 5]))

# A graded automorphism keeps hard Lefschetz.  A diagonal one with odd
# entries over 2^p in degree p gives L a common denominator e > 1 (a factor
# 1/4 on an L that has an odd entry), which the generated modules never have.
scaled_modules = (
    modules.flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.tuples(*(st.lists(_odd_units, min_size=d, max_size=d) for d in m.dims)),
        )
    )
    .map(lambda t: _conjugate(t[0], [[u / 2**p for u in us] for p, us in enumerate(t[1])]))
    .filter(lambda m: m.den > 1)
)


def test_check_hlp_cp1(cp1):
    report = check_hard_lefschetz(cp1)
    assert report.hlp
    assert report.failing_degree is None


def test_check_hlp_zero_L_fails():
    m = module_from_matrices(
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
@given(modules | scaled_modules, st.data())
def test_decompose_reconstruct_roundtrip(m, data):
    p = data.draw(st.integers(0, 2 * m.n))
    v = tuple(
        data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        for _ in range(m.dim_at(p))
    )
    comps = lefschetz_decompose_class(m, p, v)
    primitive = oracle.lefschetz_structure(m)[1]
    for i, beta in comps:
        assert primitive[p - 2 * i].contains_vector(beta)
    assert reconstruct_class(m, p, comps) == v


def test_decompose_requires_hlp():
    m = module_from_matrices(
        1, (1, 0, 1), (Matrix.zero(1, 1), Matrix.zero(0, 0), Matrix.zero(0, 1))
    )
    with pytest.raises(HardLefschetzError):
        lefschetz_decompose_class(m, 0, (Q(1),))


@settings(deadline=None, max_examples=25)
@given(modules)
def test_star_matrix_matches_per_class_construction(m):
    # The oracle's star matrix against the decomposition: decompose each
    # basis class, v = sum_i L^i beta_i, and map it to sum_i L^{n-p+i} beta_i
    # one class at a time.
    n = m.n
    to_pieces = oracle.lefschetz_structure(m)[5]
    for p in range(2 * n + 1):
        if to_pieces[p] is None:
            continue
        star = oracle.star_matrix(m, p)
        assert (star.rows, star.cols) == (m.dims[2 * n - p], m.dims[p])
        for t in range(m.dims[p]):
            v = tuple(Q(int(j == t)) for j in range(m.dims[p]))
            image = [Q(0)] * m.dims[2 * n - p]
            for i, beta in lefschetz_decompose_class(m, p, v):
                piece = l_power(m, p - 2 * i, n - p + i).apply(beta)
                image = [x + y for x, y in zip(image, piece)]
            assert star.col(t) == tuple(image)


def _maybe_broken(m, seed):
    """Half the modules lose one L block and, with it, hard Lefschetz."""
    return zero_l_block(m, seed % (2 * m.n + 1)) if seed % 2 else m


@st.composite
def arbitrary_modules(draw):
    """Any module with n <= 3, each dims[p] <= 3 and L_p of small ints, not
    only a conjugated free one: half the draws have symmetric dims, the
    others any dims, and every L_p may have zero columns and any rank."""
    n = draw(st.integers(0, 3))
    low = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        dims = low + low[-2::-1]
    else:
        dims = low + draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    L = []
    for p, dim in enumerate(dims):
        rows = dims[p + 2] if p + 2 <= 2 * n else 0
        column = st.lists(st.integers(-2, 2), min_size=rows, max_size=rows)
        cols = draw(st.lists(column, min_size=dim, max_size=dim))
        L.append([{i: x for i, x in enumerate(col) if x} for col in cols])
    return LefschetzModule(n, tuple(dims), tuple(L))


# L^1: H^0 -> H^2 is injective, but dim H^2 is 2.
ASYMMETRIC = LefschetzModule(1, (1, 0, 2), ([{0: 1}], [], [{}, {}]))
# L^1 is an isomorphism on H^1 = 0; L^2: H^0 -> H^4 is zero.
FAILS_AT_2 = LefschetzModule(2, (1, 0, 1, 0, 1), ([{0: 1}], [], [{}], [], [{}]))
# L^1: H^2 -> H^4 is square and kills (0, 1), which L^2 kills too:
# PH^2 = span (0, 1) is half of H^2 and holds the kernel, so the star image
# of its basis is zero.
SINGULAR_ON_PH = LefschetzModule(
    3, (1, 0, 2, 0, 2, 0, 1), ([{0: 1, 1: 1}], [], [{0: 1}, {}], [], [{0: 1}, {}], [], [{}])
)


def _matches_the_l_power_oracle(m):
    report, primitive, kernel = oracle.lefschetz_structure(m)[:3]
    assert check_hard_lefschetz(m) == report
    for p in range(2 * m.n + 1):
        assert primitive_subspace(m, p) == primitive[p]
        assert kernel_L(m, p) == kernel[p]


def _dense(v, dim):
    return tuple(Q(v.get(i, 0)) for i in range(dim))


def _integer_columns_span_the_canonical_subspaces(m):
    columns = lefschetz_columns(m)
    report, primitive, kernel = oracle.lefschetz_structure(m)[:3]
    assert check_hard_lefschetz(m) == report
    for p, dim in enumerate(m.dims):
        for vectors, canonical in (
            (columns.primitive[p], primitive[p]),
            (columns.kernel[p], kernel[p]),
        ):
            # As many vectors as the dimension, spanning the same subspace:
            # a basis of it.
            assert len(vectors) == canonical.dim
            assert Subspace.span(dim, [_dense(v, dim) for v in vectors]) == canonical
            assert all(isinstance(x, int) for v in vectors for x in v.values())


def _star_images_are_positive_multiples_of_the_star(m):
    n = m.n
    columns = lefschetz_columns(m)
    to_pieces = oracle.lefschetz_structure(m)[5]
    for p, dim in enumerate(m.dims):
        assert len(columns.star[p]) == len(columns.primitive[p])
        if not columns.primitive[p]:
            continue
        if to_pieces[p] is None:
            assert not check_hard_lefschetz(m).hlp
            continue
        star = oracle.star_matrix(m, p)
        for beta, image in zip(columns.primitive[p], columns.star[p], strict=True):
            expected = star.apply(_dense(beta, dim))
            actual = _dense(image, m.dims[2 * n - p])
            if not any(expected):
                # Only without hard Lefschetz can L^{n-p} kill a primitive class.
                assert not check_hard_lefschetz(m).hlp and not any(actual)
                continue
            [ratio] = {a / e for a, e in zip(actual, expected) if e or a}
            assert ratio > 0


@settings(deadline=None, max_examples=30)
@given(modules | scaled_modules, st.integers(0, 2**31))
def test_structure_matches_the_l_power_oracle(m, seed):
    _matches_the_l_power_oracle(_maybe_broken(m, seed))


@settings(deadline=None, max_examples=30)
@given(modules, st.integers(0, 2**31))
def test_integer_columns_span_the_canonical_subspaces(m, seed):
    _integer_columns_span_the_canonical_subspaces(_maybe_broken(m, seed))


@settings(deadline=None, max_examples=30)
@given(modules, st.integers(0, 2**31))
def test_star_images_are_positive_multiples_of_the_star(m, seed):
    _star_images_are_positive_multiples_of_the_star(_maybe_broken(m, seed))


@settings(deadline=None, max_examples=40)
@given(arbitrary_modules())
@example(ASYMMETRIC)
@example(FAILS_AT_2)
@example(SINGULAR_ON_PH)
def test_arbitrary_modules_match_the_dense_oracle(m):
    _matches_the_l_power_oracle(m)
    _integer_columns_span_the_canonical_subspaces(m)
    _star_images_are_positive_multiples_of_the_star(m)


def test_the_examples_are_the_cases_they_name():
    assert check_hard_lefschetz(ASYMMETRIC).failing_degree == 1
    assert check_hard_lefschetz(FAILS_AT_2).failing_degree == 2
    report = check_hard_lefschetz(SINGULAR_ON_PH)
    assert report.failing_degree == 1
    assert report.primitive_dims[2] == 1
    assert SINGULAR_ON_PH.dims[2] == SINGULAR_ON_PH.dims[4] == 2


def test_integer_l_maps_share_one_denominator():
    m = module_from_matrices(
        1,
        (1, 0, 2),
        (Matrix.from_rows([[Q(1, 2)], [Q(2, 3)]]), Matrix.zero(0, 0), Matrix.zero(0, 2)),
    )
    columns, den = m.L, m.den
    assert den == 6
    assert columns == ([{0: 3, 1: 4}], [], [{}, {}])
    assert [integer_columns(l, den) for l in m.L_maps] == list(columns)


def test_the_structure_reduces_each_map_once(monkeypatch):
    # Ker L_p once per p, PH^p once per p < n (PH^n is Ker L_n) and the star
    # images once per k = 1..n: 4n + 1 reductions, none of them of an
    # identity, and L_n's columns in one only.  L is tripled, so no power of
    # it, no image under one and no L column is an identity column.
    g = generate_hlp_module(11, 3, (1, 1, 2, 1))
    tripled = tuple([{i: 3 * x for i, x in v.items()} for v in cols] for cols in g.L)
    m = LefschetzModule(g.n, g.dims, tripled)
    reduced = []
    monkeypatch.setattr(
        lefschetz,
        "reduce_columns",
        lambda cols, *a, _fn=lefschetz.reduce_columns, **kw: reduced.append(list(cols))
        or _fn(cols, *a, **kw),
    )
    assert check_hard_lefschetz(m).hlp
    lefschetz_columns(m)
    assert len(reduced) == 4 * m.n + 1
    assert not any(cols and cols == [{j: 1} for j in range(len(cols))] for cols in reduced)
    assert sum(cols == m.L[m.n] for cols in reduced) == 1


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
        module_from_matrices(
            1, (1, 0, 0), (Matrix.zero(0, 1), Matrix.zero(0, 0), Matrix.zero(0, 0))
        )
    )
    assert check_top_degree(generate_hlp_module(8, 3, (1, 1, 0, 1)))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LefschetzModule(1, (1, 0), ([{}],))
    with pytest.raises(ValueError):
        LefschetzModule(1, (1, 0, 1), ([{1: 1}], [], [{}]))


@pytest.mark.parametrize(
    "L, den, message",
    [
        (([{0: 1}, {}], [], [{}]), 1, "L at degree 0 has 2 columns, not dims[0] = 1"),
        (([{0: 1}], [], []), 1, "L at degree 2 has 0 columns, not dims[2] = 1"),
        (([{1: 1}], [], [{}]), 1, "L at degree 0 has row index 1, not below 1"),
        (([{0: 1}], [], [{0: 1}]), 1, "L at degree 2 has row index 0, not below 0"),
        (([{-1: 1}], [], [{}]), 1, "L at degree 0 has row index -1, not below 1"),
        (([{0: 0}], [], [{}]), 1, "L at degree 0 has entry 0, not a nonzero int"),
        (([{0: Q(1, 2)}], [], [{}]), 1, "L at degree 0 has entry Fraction(1, 2), not a nonzero int"),
        (([{0: True}], [], [{}]), 1, "L at degree 0 has entry True, not a nonzero int"),
        (([{0: 2}], [], [{}]), 4, "den 4 is not the least: 2 divides it and every entry of L"),
        (([{}], [], [{}]), 3, "den 3 is not the least: 3 divides it and every entry of L"),
        (([{0: 1}], [], [{}]), 0, "den must be a positive int, not 0"),
    ],
    ids=[
        "extra-column",
        "missing-column",
        "row-at-the-target-dim",
        "row-into-no-target",
        "negative-row",
        "zero-entry",
        "fraction-entry",
        "bool-entry",
        "common-factor",
        "zero-L-over-3",
        "zero-den",
    ],
)
def test_the_constructor_refuses_malformed_columns(L, den, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LefschetzModule(1, (1, 0, 1), L, den)


def test_modules_over_the_least_denominator_compare_equal():
    half = module_from_matrices(1, (1, 0, 1), ([[Q(1, 2)]], Matrix.zero(0, 0), Matrix.zero(0, 1)))
    assert half == LefschetzModule(1, (1, 0, 1), ([{0: 1}], [], [{}]), 2)
    assert half.L_maps[0] == Matrix.from_rows([[Q(1, 2)]])
    # The dense view is built once and cannot be set.
    assert half.L_maps is half.L_maps
    with pytest.raises(AttributeError):
        half.L_maps = ()


def test_zero_l_block_keeps_the_least_denominator():
    zero = Matrix.zero(0, 1)
    m = module_from_matrices(2, (1,) * 5, ([[Q(1, 2)]], [[Q(1, 3)]], [[0]], zero, zero))
    assert m.den == 6
    broken = zero_l_block(m, 1)
    assert broken == module_from_matrices(2, (1,) * 5, ([[Q(1, 2)]], [[0]], [[0]], zero, zero))
    assert (broken.L, broken.den) == (([{0: 1}], [{}], [{}], [{}], [{}]), 2)
    assert zero_l_block(broken, 0).den == 1


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.integers(0, 2**32 - 1),
            st.just(n),
            st.tuples(st.integers(1, 2), *[st.integers(0, 2) for _ in range(n)]),
        )
    )
)
def test_generated_modules_match_the_dense_conjugation(args):
    # Every column of the integer conjugation against the dense products of
    # the old generator, with the same draws and `inverse`.
    seed, n, pdims = args
    m = generate_hlp_module(seed, n, pdims)
    assert m.L_maps == oracle.dense_hlp_module(seed, n, pdims)
    assert m.den == 1
    assert all(list(col) == sorted(col) for cols in m.L for col in cols)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LefschetzModule(-1, (), ()), "n must be non-negative"),
        (lambda: LefschetzModule(1, (1, 1), ([], [])), r"dims must have length 2n\+1"),
        (lambda: LefschetzModule(0, (-1,), ([],)), "dims must be non-negative"),
        (lambda: generate_hlp_module(0, 1, (1,)), r"primitive_dims must have length n\+1"),
        (lambda: generate_hlp_module(0, 1, (0, 1)), r"primitive_dims\[0\] must be at least 1"),
        (lambda: lefschetz_decompose_class(generate_hlp_module(0, 1, (1, 1)), 3, []), "degree out of range"),
        (
            lambda: lefschetz_decompose_class(generate_hlp_module(0, 1, (1, 1)), 0, [Q(1), Q(2)]),
            "vector length does not match dim H",
        ),
    ],
    ids=[
        "negative-n",
        "dims-length",
        "negative-dim",
        "primitive-dims-length",
        "no-primitive-class-in-degree-0",
        "decompose-degree-out-of-range",
        "decompose-vector-length",
    ],
)
def test_malformed_module_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
