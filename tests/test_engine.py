import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subquotient_oracle as oracle

from specseq.engine import (
    FilteredComplex,
    FiltrationError,
    check_abutment,
    compute_page,
    infinity_page,
    run_to_convergence,
    trivial_filtration,
)
from specseq.invariant import betti_numbers, build_model, filtered_complex
from specseq.lefschetz import generate_hlp_module
from specseq.linalg import Matrix, inverse, kernel_basis, rank

Q = Fraction


def random_models():
    return st.tuples(
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(0, 2**31),
        st.sampled_from(["S", "C", "mixed"]),
    ).map(_make_model)


def _make_model(t):
    n, s, seed, kind = t
    base = generate_hlp_module(seed, n, (1,) + (1,) * n)
    if kind == "S":
        lambdas = [1] * s
    elif kind == "C":
        lambdas = [0] * s
    else:
        lambdas = [Q((seed % 7) - 3, 1 + seed % 3)] * s
    return build_model(base, s, lambdas)


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
    assert page0.differentials_vanish()
    assert pages[1].differentials_vanish()
    assert pages[-1].antidiagonal_totals(3) == (1, 0, 0, 1)
    assert check_abutment(fc)


def test_malformed_filtration_rejected():
    d = (Matrix.from_rows([[1]]), Matrix.zero(0, 1))
    # F^1 in degree 0 is everything but d does not map it into F^1 of degree 1.
    with pytest.raises(FiltrationError):
        FilteredComplex(d, ((1,), (0,)), 1)


def test_filtration_degrees_checked():
    d = (Matrix.from_rows([[1]]), Matrix.zero(0, 1))
    for degrees, bound in (
        (((0,), (2,)), 1),  # above the bound
        (((-1,), (0,)), 1),  # negative
        (((True,), (1,)), 1),  # not an integer
        (((0, 0), (0,)), 1),  # more vectors than d has columns
        (((0,),), 1),  # d covers a degree the filtration does not
        (((0,), (0,)), -1),  # negative bound
    ):
        with pytest.raises(FiltrationError):
            FilteredComplex(d, degrees, bound)
    assert FilteredComplex(d, ((0,), (1,)), 1).filt(1, 1).dim == 1


def test_non_complex_rejected():
    d = (Matrix.from_rows([[1]]), Matrix.from_rows([[1]]), Matrix.zero(0, 1))
    with pytest.raises(FiltrationError):
        trivial_filtration((1, 1, 1), d)


def test_handed_over_columns_are_checked():
    # The checks read the integer columns a caller hands over, not the
    # matrices: here d is a complex, but the columns square to nonzero.
    d = (Matrix.from_rows([[1]]), Matrix.zero(1, 1), Matrix.zero(0, 1))
    degrees = ((0,), (0,), (0,))
    with pytest.raises(FiltrationError, match="d o d"):
        FilteredComplex(d, degrees, 0, integer_d=([{0: 1}], [{0: 1}], [{}]))
    with pytest.raises(FiltrationError, match="wrong shape"):
        FilteredComplex(d, degrees, 0, integer_d=([{0: 1}], [{}, {}], [{}]))
    with pytest.raises(FiltrationError, match="every degree"):
        FilteredComplex(d, degrees, 0, integer_d=([{0: 1}], [{}]))


def _assert_page_turning(pages, ker_dim, rk_in):
    """dim E_{r+1}^{p,q} = dim ker d_r^{p,q} - rank of d_r into (p,q)."""
    for r, (page, nxt) in enumerate(zip(pages, pages[1:])):
        for (p, q) in page.cells:
            assert nxt.dim(p, q) == ker_dim(page, p, q) - rk_in(page, p - r, q + r - 1)


@settings(deadline=None, max_examples=20)
@given(random_models())
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


def _assert_engines_agree(fc):
    pages, stable_at = run_to_convergence(fc)
    ref_pages, ref_stable_at = oracle.run_to_convergence(fc)
    assert stable_at == ref_stable_at
    for page, ref in zip(pages, ref_pages, strict=True):
        assert page.cell_dims() == ref.cell_dims(), page.r
        assert page.d_ranks == ref.d_ranks(), page.r
        assert page.differentials_vanish() == ref.differentials_vanish()
    return pages, stable_at


@settings(deadline=None, max_examples=20)
@given(random_models())
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
    return FilteredComplex(tuple(d), degrees, P)


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
    # pair must fail the check.
    fc = filtered_complex(build_model(cp1, 1, [1]))
    assert check_abutment(fc)
    k = next(k for k, pairs in enumerate(fc.pairs) if pairs)
    doctored = list(fc.pairs)
    doctored[k] = fc.pairs[k][1:]
    fc.__dict__["pairs"] = tuple(doctored)
    assert not check_abutment(fc)


@settings(deadline=None, max_examples=20)
@given(random_models())
def test_abutment_on_random_models(m):
    fc = filtered_complex(m)
    assert check_abutment(fc)
    assert infinity_page(fc).antidiagonal_totals(m.max_degree) == betti_numbers(m)


@settings(deadline=None, max_examples=15)
@given(random_models())
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
