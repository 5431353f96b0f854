import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subquotient_oracle as oracle

from specseq import engine
from specseq.engine import (
    FilteredComplex,
    FiltrationError,
    check_abutment,
    compute_page,
    run_to_convergence,
)
from specseq.invariant import betti_numbers, build_model, filtered_complex
from specseq.linalg import Matrix, kernel_basis, rank, reduce_columns

from model_oracle import inverse, typed_models


def trivial_filtration(chain_dims, d):
    """The two-step filtration F^0 = everything, F^1 = 0."""
    return oracle.dense_complex(d, tuple((0,) * dim for dim in chain_dims), 0)


def infinity_page(fc):
    return compute_page(fc, fc.max_filtration + 2)


def test_two_term_complex_dies_at_E1():
    d = (Matrix.from_rows([[1]]), Matrix.zero(0, 1))
    fc = trivial_filtration((1, 1), d)
    page1 = compute_page(fc, 1)
    assert page1.cell_dims() == {}


def test_zero_differential_stable_at_zero():
    d = (Matrix.zero(2, 2), Matrix.zero(0, 2))
    fc = trivial_filtration((2, 2), d)
    pages, stable_at = run_to_convergence(fc)
    assert stable_at == 0
    assert pages[0].cell_dims() == {(0, 0): 2, (0, 1): 2}
    assert check_abutment(fc)


def test_trivial_filtration_gives_cohomology_at_E1():
    d = (
        Matrix.from_rows([[0, 0], [0, 0]]),
        Matrix.from_rows([[1, 0]]),
        Matrix.zero(0, 1),
    )
    fc = trivial_filtration((2, 2, 1), d)
    page1 = compute_page(fc, 1)
    totals = page1.antidiagonal_totals(2)
    assert totals == fc.cohomology_dims() == (2, 1, 0)
    _, stable_at = run_to_convergence(fc)
    assert stable_at <= 1


def test_hopf_pages(cp1):
    fc = filtered_complex(build_model(cp1, 1, [1]))
    pages, stable_at = run_to_convergence(fc)
    assert stable_at == 3
    page0 = pages[0]
    # E_0 cells are C(s,q) * dims[p].
    assert page0.cell_dims() == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert not page0.d_ranks
    assert not pages[1].d_ranks
    assert pages[-1].antidiagonal_totals(3) == (1, 0, 0, 1)
    assert check_abutment(fc)


def test_malformed_filtration_rejected():
    d = ([{0: 1}], [{}])  # d_0 = (1)
    # F^1 in degree 0 is everything but d does not map it into F^1 of degree 1.
    with pytest.raises(FiltrationError):
        FilteredComplex(((1,), (0,)), 1, d, (1, 1))


def test_filtration_degrees_checked():
    d = ([{0: 1}], [{}])  # d_0 = (1)
    for degrees, bound in (
        (((0,), (2,)), 1),  # above the bound
        (((-1,), (0,)), 1),  # negative
        (((True,), (1,)), 1),  # not an integer
        (((0, 0), (0,)), 1),  # more vectors than d has columns
        (((0,),), 1),  # d covers a degree the filtration does not
        (((0,), (0,)), -1),  # negative bound
    ):
        with pytest.raises(FiltrationError):
            FilteredComplex(degrees, bound, d, (1, 1))
    assert FilteredComplex(((0,), (1,)), 1, d, (1, 1)).filt(1, 1).dim == 1


def test_non_complex_rejected():
    d = (Matrix.from_rows([[1]]), Matrix.from_rows([[1]]), Matrix.zero(0, 1))
    with pytest.raises(FiltrationError):
        trivial_filtration((1, 1, 1), d).reductions


def test_handed_over_columns_are_checked():
    # The checks read the integer columns a caller hands over: these square
    # to nonzero (refused on the first read of the reductions), have too
    # many columns, or miss a degree.
    degrees = ((0,), (0,), (0,))
    with pytest.raises(FiltrationError, match="^d o d != 0 at degree 0$"):
        FilteredComplex(degrees, 0, ([{0: 1}], [{0: 1}], [{}]), (1, 1, 1)).reductions
    with pytest.raises(FiltrationError, match="wrong shape"):
        FilteredComplex(degrees, 0, ([{0: 1}], [{}, {}], [{}]), (1, 1, 1))
    with pytest.raises(FiltrationError, match="every degree"):
        FilteredComplex(degrees, 0, ([{0: 1}], [{}]), (1, 1, 1))


@pytest.fixture
def no_reduction(monkeypatch):
    """No reduction can run: `engine.reduce_columns` is not callable."""
    monkeypatch.setattr(engine, "reduce_columns", None)


@pytest.mark.parametrize(
    "integer_d, message",
    [
        # d_0 has two columns, but degree 0 has one basis vector.
        (([{0: 1}, {}], [{}], [{}]), "differential at degree 0 has the wrong shape"),
        # d_1 hits row 1 of degree 2, which has one basis vector.
        (([{}], [{1: 1}], [{}]), "differential at degree 1 has the wrong shape"),
        (([{}], [{-1: 1}], [{}]), "differential at degree 1 has the wrong shape"),
        # d_2 targets the zero space.
        (([{}], [{}], [{0: 1}]), "differential at degree 2 has the wrong shape"),
        # An explicit zero would be taken for the low of its column.
        (([{}], [{0: 0}], [{}]), "^differential at degree 1: zero in vector 0$"),
        # Entries and row indices are ints, not bools: reduce_columns takes
        # the gcd of entries, and a row index True would become a low.
        *(
            (([{}], [{0: x}], [{}]), f"^differential at degree 1: vector 0 has entry {text}, not an int$")
            for x, text in ((Fraction(1, 2), r"Fraction\(1, 2\)"), (0.5, r"0\.5"), (True, "True"))
        ),
        (
            ([{True: 1}], [{}, {}], [{}]),
            "^differential at degree 0 has the wrong shape: vector 0 hits row True of 2$",
        ),
        (
            ([{}], [{0.0: 1}], [{}]),
            r"^differential at degree 1 has the wrong shape: vector 0 hits row 0\.0 of 1$",
        ),
    ],
)
def test_integer_columns_of_the_wrong_shape_are_refused_before_any_reduction(
    no_reduction, integer_d, message
):
    # A complex has no matrices to take its shape from; its columns are
    # checked against the filtration degrees.  Degrees 0 and 2 have one
    # basis vector, and degree 1 as many as d_1 has columns.
    degrees = ((0,), (0,) * len(integer_d[1]), (0,))
    with pytest.raises(FiltrationError, match=message):
        FilteredComplex(degrees, 0, integer_d, (1, 1, 1))


@pytest.mark.parametrize("den", [0, -1, 1.5, True, Fraction(3)])
def test_bad_denominators_are_refused_before_any_reduction(no_reduction, den):
    message = f"degree 1 has denominator {den!r}, not an integer >= 1"
    with pytest.raises(FiltrationError, match=f"^{re.escape(message)}$"):
        FilteredComplex(((0,), (0,), (0,)), 0, ([{}], [{}], [{}]), (1, den, 1))


# d_0 = ((1, 2), (1, 2)): column 1 reduces to zero, with V_1 = (-2, 1).
# d_1 = (1 -1) kills Im d_0, and its column 1 is cleared at the low of d_0.
_DOCTORED = ((0, 0), (0, 0), (0,)), 0, ([{0: 1, 1: 1}, {0: 2, 1: 2}], [{0: 1}, {0: -1}], [{}])


@pytest.mark.parametrize(
    "k, doctor, message",
    [
        (0, lambda R, V, lows: (R, [V[0], {1: 1}], lows), "d_0: R_1 != D V_1"),  # V not updated
        (0, lambda R, V, lows: (R, V, {0: 0}), "d_0: the lows are misrecorded at column 0"),
        (0, lambda R, V, lows: (R, V[:1], lows), "d_0: R and V have 2 and 1 columns, not 2"),
        (
            0,
            lambda R, V, lows: ([R[0], {0: 2, 1: 2}], [V[0], {1: 1}], {1: 1}),
            "d_0: columns 0 and 1 share the low 1",
        ),
        (
            0,
            lambda R, V, lows: ([R[0], {0: -2, 1: -2}], [V[0], {0: -2, 1: 0}], lows),
            "d_0: V_1 is not triangular with a nonzero entry at 1",
        ),
        # The cleared column keeps e_1, which d_1 does not kill.
        (1, lambda R, V, lows: (R, [V[0], {1: 1}], lows), "d_1: cleared column 1: R_1 != 0 or V_1"),
    ],
)
def test_doctored_reductions_fail_the_certificate(monkeypatch, k, doctor, message):
    calls = iter(range(3))

    def doctored(cols, cleared):
        reduction = reduce_columns(cols, cleared)
        return doctor(*reduction) if next(calls) == k else reduction

    monkeypatch.setattr(engine, "reduce_columns", doctored)
    with pytest.raises(FiltrationError, match=re.escape(message)):
        FilteredComplex(*_DOCTORED, (1, 1, 1)).reductions


def test_integer_columns_build_the_dense_view_only_when_read():
    degrees = ((0,), (1, 0), (1,))
    fc = FilteredComplex(degrees, 1, ([{0: 2}], [{}, {0: 1}], [{}]), (3, 1, 1))
    assert "d" not in vars(fc)
    assert fc.d == (
        Matrix.from_rows([[Fraction(2, 3)], [0]]),
        Matrix.from_rows([[0, 1]]),
        Matrix.zero(0, 1),
    )
    with pytest.raises(FiltrationError, match="denominators"):
        FilteredComplex(degrees, 1, fc.integer_d, (3, 1))


def _assert_page_turning(pages, ker_dim, rk_in):
    """dim E_{r+1}^{p,q} = dim ker d_r^{p,q} - rank of d_r into (p,q)."""
    for r, (page, nxt) in enumerate(zip(pages, pages[1:])):
        for (p, q) in page.cells:
            assert nxt.dim(p, q) == ker_dim(page, p, q) - rk_in(page, p - r, q + r - 1)


@settings(deadline=None, max_examples=20)
@given(typed_models(max_n=2))
def test_page_turning_identity(m):
    fc = filtered_complex(m)
    pages, _ = run_to_convergence(fc)
    _assert_page_turning(
        pages,
        lambda page, p, q: page.dim(p, q) - page.d_rank(p, q),
        lambda page, p, q: page.d_rank(p, q),
    )
    ref_pages, _ = oracle.run_to_convergence(fc)
    _assert_page_turning(
        ref_pages,
        lambda page, p, q: kernel_basis(page.d_maps[(p, q)]).dim,
        lambda page, p, q: rank(page.d_maps[(p, q)]) if (p, q) in page.d_maps else 0,
    )


def _assert_pages_read_one_sweep(fc, pages, stable_at):
    """The stable page is 1 + the largest gap (0 with no pairs), a page with
    vanishing d_r shares its cells with E_{r+1}, and every page past E_{P+2}
    is E_{P+2} with its own r and no ranks."""
    gaps = [b - a for degree_pairs in fc.pairs for a, b in degree_pairs]
    assert stable_at == (max(gaps) + 1 if gaps else 0)
    for page, nxt in zip(pages, pages[1:]):
        if not page.d_ranks:
            assert page.cells is nxt.cells, page.r
    last = pages[-1]
    assert last.r == fc.max_filtration + 2
    for r in (last.r + 1, last.r + 7):
        beyond = compute_page(fc, r)
        assert beyond.r == r and beyond.d_ranks == {}
        assert beyond.cells == last.cells


def _assert_engines_agree(fc):
    pages, stable_at = run_to_convergence(fc)
    ref_pages, ref_stable_at = oracle.run_to_convergence(fc)
    assert stable_at == ref_stable_at
    _assert_pages_read_one_sweep(fc, pages, stable_at)
    for page, ref in zip(pages, ref_pages, strict=True):
        assert page.cell_dims() == ref.cell_dims(), page.r
        assert page.d_ranks == ref.d_ranks(), page.r
    return pages, stable_at


@settings(deadline=None, max_examples=20)
@given(typed_models(max_n=2))
def test_rank_engine_matches_oracle(m):
    pages, _ = _assert_engines_agree(filtered_complex(m))
    # betti_numbers reduces kernels and images, not the persistence pairs.
    assert pages[-1].antidiagonal_totals(m.max_degree) == betti_numbers(m)


def _interval_complex(P, K, pieces, free, seed):
    """Direct sum of interval pieces and free classes, in a scrambled basis.

    A piece (k, a, b) is x in degree k at filtration a with d x = y in degree
    k+1 at filtration b.  Vectors are listed in random order, then every
    degree is conjugated by a random exact unipotent change of basis that
    preserves the filtration.
    """
    rng = random.Random(seed)
    layers = [[] for _ in range(K + 1)]  # (filtration degree, role)
    for i, (k, a, b) in enumerate(pieces):
        layers[k].append((a, ("x", i)))
        layers[k + 1].append((b, ("y", i)))
    for i, (k, a) in enumerate(free):
        layers[k].append((a, ("free", i)))
    for layer in layers:
        rng.shuffle(layer)
    degrees = tuple(tuple(deg for deg, _ in layer) for layer in layers)

    def unipotent(layer):
        n = len(layer)
        order = sorted(range(n), key=lambda j: (layer[j][0], rng.random()))
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for t, i in enumerate(order):
            for j in order[:t]:  # deg(i) >= deg(j): F^p is preserved
                rows[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        return Matrix(n, n, tuple(tuple(row) for row in rows))

    g = [unipotent(layer) for layer in layers]
    d = []
    for k in range(K + 1):
        tgt = layers[k + 1] if k < K else []
        pos = {role: i for i, (_, role) in enumerate(tgt)}
        cols = [
            [Fraction(int(role[0] == "x" and pos.get(("y", role[1])) == i)) for i in range(len(tgt))]
            for _, role in layers[k]
        ]
        plain = Matrix.from_cols(cols, rows=len(tgt)) if cols else Matrix.zero(len(tgt), 0)
        d.append((g[k + 1] @ plain @ inverse(g[k])) if k < K else plain)
    return oracle.dense_complex(d, degrees, P)


interval_specs = st.tuples(st.integers(0, 5), st.integers(1, 3)).flatmap(
    lambda pk: st.tuples(
        st.just(pk[0]),
        st.just(pk[1]),
        st.lists(
            st.tuples(
                st.integers(0, pk[1] - 1), st.integers(0, pk[0]), st.integers(0, pk[0])
            ).map(lambda t: (t[0], min(t[1:]), max(t[1:]))),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.tuples(st.integers(0, pk[1]), st.integers(0, pk[0])), max_size=3),
        st.integers(0, 2**32),
    )
)


@settings(deadline=None, max_examples=30)
@given(interval_specs)
@example((5, 3, [(0, 0, 1), (1, 0, 3), (1, 1, 1), (2, 0, 5)], [(0, 2)], 7))
def test_interval_pieces_on_every_page(spec):
    # A piece with gap b - a lives on E_r exactly for r <= b - a, and d_r
    # kills it for r = b - a: every page, every d_r rank and the stable page
    # are known in closed form, including nonzero d_1 and d_r with r >= 3.
    P, K, pieces, free, seed = spec
    fc = _interval_complex(P, K, pieces, free, seed)
    for k in range(K + 1):
        assert sorted(fc.pairs[k]) == sorted((a, b) for j, a, b in pieces if j == k)
    pages, stable_at = _assert_engines_agree(fc)
    assert stable_at == max(b - a for _, a, b in pieces) + 1
    for page in pages:
        r = page.r
        dims: dict = {}
        ranks: dict = {}
        for k, a in free:
            dims[(a, k - a)] = dims.get((a, k - a), 0) + 1
        for k, a, b in pieces:
            if r <= b - a:
                dims[(a, k - a)] = dims.get((a, k - a), 0) + 1
                dims[(b, k + 1 - b)] = dims.get((b, k + 1 - b), 0) + 1
            if r == b - a:
                ranks[(a, k - a)] = ranks.get((a, k - a), 0) + 1
        assert page.cell_dims() == dims, r
        assert page.d_ranks == ranks, r
    # The pieces are acyclic: the cohomology is spanned by the free classes.
    assert fc.cohomology_dims() == tuple(sum(k == j for k, _ in free) for j in range(K + 1))
    assert check_abutment(fc)


def test_abutment_fails_on_a_doctored_pairing(cp1):
    # The cohomology side never reads the pairs, so a pairing that lost a
    # pair must fail the check.  The pages read the pairs through the one
    # gap sweep a complex keeps, so the pairs of a fresh complex are
    # doctored before any page is computed from it.
    assert check_abutment(filtered_complex(build_model(cp1, 1, [1])))
    fc = filtered_complex(build_model(cp1, 1, [1]))
    k = next(k for k, pairs in enumerate(fc.pairs) if pairs)
    doctored = list(fc.pairs)
    doctored[k] = fc.pairs[k][1:]
    fc.__dict__["pairs"] = tuple(doctored)
    assert not check_abutment(fc)


@settings(deadline=None, max_examples=20)
@given(typed_models(max_n=2))
def test_abutment_on_random_models(m):
    fc = filtered_complex(m)
    assert check_abutment(fc)
    assert infinity_page(fc).antidiagonal_totals(m.max_degree) == betti_numbers(m)


@settings(deadline=None, max_examples=15)
@given(typed_models(max_n=2))
def test_support_bound(m):
    fc = filtered_complex(m)
    einf = infinity_page(fc)
    for (p, q), dim in einf.cell_dims().items():
        assert 0 <= p <= 2 * m.base.n
        assert 0 <= q <= m.s


def test_compute_page_deterministic(cp1):
    fc = filtered_complex(build_model(cp1, 1, [1]))
    a = compute_page(fc, 2)
    b = compute_page(fc, 2)
    fresh = compute_page(filtered_complex(build_model(cp1, 1, [1])), 2)
    assert a.cell_dims() == b.cell_dims() == fresh.cell_dims()
    assert a.d_ranks == b.d_ranks == fresh.d_ranks
    assert oracle.compute_page(fc, 2).d_maps == oracle.compute_page(fc, 2).d_maps
