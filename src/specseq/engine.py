"""Spectral sequence of a finite-dimensional filtered cochain complex.

The filtration is given on an adapted basis: every basis vector carries one
filtration degree, and F^p C^k is spanned by the vectors of degree >= p.
Every filtration of a finite-dimensional complex has such a basis, and the
invariant-forms models come with one (the basic degree).  On it, one column
reduction of each d_k pairs basis vectors x of degree k with basis vectors
y of degree k+1 (the persistence pairing), and the rank of every block of d
that the pages read (the rank invariant of Basu & Parida 2017) is a count
of pairs: by the pairing lemma (Edelsbrunner, Letscher & Zomorodian 2002;
Cohen-Steiner, Edelsbrunner & Morozov 2006), the rank of d_k from F^a C^k
into C^{k+1} / F^b C^{k+1} is the number of pairs with deg x >= a and
deg y < b.  A pair with gap g = deg y - deg x is a piece x -> y that lives
on E_r for r <= g and that d_g kills, so with k = p + q

    dim E_r^{p,q} = gr^p_k - #{pairs with g < r and x or y at (p, q)},
    rank d_r^{p,q} = #{pairs with g = r and x at (p, q)}.

The first line is dim Z_r / B_r for the subquotient Z_r^{p,q} =
F^p C^k cap d^{-1}(F^{p+r} C^{k+1}); the tests keep that subquotient engine
as the reference these counts are checked against.  A page depends only on
the set of gaps g < r, so pages with the same set share their cells.

Where every degree lists its basis in descending filtration degree, as the
invariant-forms models do, the reduction runs on the columns and rows in
basis order: it is then the reduction R = D V of d_k itself, and direct
cohomology can read it instead of reducing d_k again
(`FilteredComplex.basis_reductions`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .linalg import (
    Matrix,
    Reduction,
    SparseColumn,
    Subspace,
    apply_columns,
    integer_columns,
    rank,
    reduce_columns,
)


class FiltrationError(ValueError):
    """The data does not define a filtered cochain complex."""


@dataclass(frozen=True)
class FilteredComplex:
    """Cochain complex in degrees 0..K with a bounded decreasing filtration.

    `degrees[k][j]` is the filtration degree, in 0..max_filtration, of basis
    vector j in degree k.  `d[k]` maps degree k to degree k+1; the last one
    targets the zero space.  The checks and the persistence pairing read each
    d_k as sparse integer columns, `integer_d`: `invariant.filtered_complex`
    hands over the columns its complex already holds, and a complex built
    from the matrices alone converts them.  Each d_k is reduced once, on
    first use (`reductions`), and every page computed from the complex reads
    the pairs of that reduction.
    """

    d: tuple[Matrix, ...]
    degrees: tuple[tuple[int, ...], ...]
    max_filtration: int
    # `linalg.integer_columns` of each d_k; only `invariant.filtered_complex`
    # passes it, with the columns its complex holds.
    integer_d: tuple[list[SparseColumn], ...] | None = field(
        default=None, kw_only=True, repr=False, compare=False
    )
    # The pairs, the cancelled gaps and the cells of the last page computed.
    _last_page: list = field(
        default_factory=lambda: [None, None, None], init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.integer_d is None:
            object.__setattr__(self, "integer_d", tuple(integer_columns(m) for m in self.d))
        K = len(self.degrees) - 1
        P = self.max_filtration
        if K < 0 or P < 0:
            raise FiltrationError("empty complex or negative filtration bound")
        if len(self.d) != K + 1 or len(self.integer_d) != K + 1:
            raise FiltrationError("d and the filtration degrees must cover every degree")
        for k, src in enumerate(self.degrees):
            if any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x <= P for x in src):
                raise FiltrationError(f"filtration degrees at degree {k} must be integers in 0..{P}")
            tgt = self.degrees[k + 1] if k < K else ()
            cols = self.integer_d[k]
            if self.d[k].cols != len(src) or self.d[k].rows != len(tgt) or len(cols) != len(src):
                raise FiltrationError(f"differential at degree {k} has the wrong shape")
            for j, col in enumerate(cols):
                for i in col:
                    if tgt[i] < src[j]:
                        raise FiltrationError(
                            f"d does not preserve F^{src[j]} at degree {k}: "
                            f"vector {j} hits vector {i} of filtration degree {tgt[i]}"
                        )
        for k in range(K):
            if any(apply_columns(self.integer_d[k + 1], col) for col in self.integer_d[k]):
                raise FiltrationError(f"d o d != 0 at degree {k}")

    @property
    def chain_dims(self) -> tuple[int, ...]:
        return tuple(len(src) for src in self.degrees)

    @property
    def max_degree(self) -> int:
        return len(self.degrees) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return len(self.degrees[k])
        return 0

    def filt(self, p: int, k: int) -> Subspace:
        """F^p in degree k, extended by full below p=0 and zero above the bound."""
        if not 0 <= k <= self.max_degree:
            return Subspace.zero(0)
        src = self.degrees[k]
        return Subspace.coordinate(len(src), [j for j, deg in enumerate(src) if deg >= p])

    @cached_property
    def _gr_dims(self) -> dict[tuple[int, int], int]:
        """dim gr^p C^k = dim F^p C^k / F^{p+1} C^k at each (p, k - p) where it
        is nonzero, k ascending, then p ascending."""
        out = {}
        for k, src in enumerate(self.degrees):
            counts = Counter(src)
            for p in sorted(counts):
                out[(p, k - p)] = counts[p]
        return out

    @cached_property
    def _orders(self) -> tuple[Sequence[int], ...]:
        """Per degree 0..K+1, the basis indices by descending filtration degree,
        ties in basis order: a `range` where the basis is in that order."""
        out = []
        for src in (*self.degrees, ()):
            if all(a >= b for a, b in zip(src, src[1:])):
                out.append(range(len(src)))
            else:
                out.append(sorted(range(len(src)), key=src.__getitem__, reverse=True))
        return tuple(out)

    @cached_property
    def reductions(self) -> tuple[Reduction, ...]:
        """`reductions[k]` is `linalg.reduce_columns` of d_k with its columns
        (the vectors x of degree k) and its rows (the vectors y of degree
        k+1) each in descending filtration degree, ties in basis order."""
        out = []
        for k, cols in enumerate(self.integer_d):
            order, rows = self._orders[k], self._orders[k + 1]
            if not (isinstance(order, range) and isinstance(rows, range)):
                at = {i: t for t, i in enumerate(rows)}
                cols = [{at[i]: x for i, x in cols[j].items()} for j in order]
            out.append(reduce_columns(cols))
        return tuple(out)

    def basis_reductions(self) -> tuple[Reduction, ...]:
        """`reductions`, checked to be those of each d_k in basis order.

        They are when every degree lists its basis in descending filtration
        degree, as the invariant-forms models do; then direct cohomology can
        read them (`invariant.cohomology`).  Otherwise this raises
        `FiltrationError`, since the reductions are of reordered columns.
        """
        for k, order in enumerate(self._orders[:-1]):
            if not isinstance(order, range):
                raise FiltrationError(
                    f"degree {k} does not list its basis in descending filtration degree, "
                    "so its reduction is not in basis order"
                )
        return self.reductions

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`pairs[k]` lists (deg x, deg y) for the persistence pairs of d_k:
        each nonzero column of the reduced d_k (`reductions`) pairs its
        vector x with the row y at its low."""
        out = []
        for k, (_, _, by_low) in enumerate(self.reductions):
            src = self.degrees[k]
            tgt = self.degrees[k + 1] if k < self.max_degree else ()
            order, rows = self._orders[k], self._orders[k + 1]
            out.append(tuple(sorted((src[order[j]], tgt[rows[low]]) for low, j in by_low.items())))
        return tuple(out)

    def cohomology_dims(self) -> tuple[int, ...]:
        """dim H^k from `rank` of each d_k, an elimination independent of the
        persistence pairs, so `check_abutment` cross-checks them."""
        ranks = [rank(m) for m in self.d]
        return tuple(
            self.dim(k) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(self.max_degree + 1)
        )


def trivial_filtration(chain_dims: Sequence[int], d: Sequence[Matrix]) -> FilteredComplex:
    """The two-step filtration F^0 = everything, F^1 = 0."""
    return FilteredComplex(tuple(d), tuple((0,) * dim for dim in chain_dims), 0)


@dataclass(frozen=True)
class PageCell:
    p: int
    q: int
    dim: int


@dataclass(frozen=True)
class SpectralPage:
    """Page E_r.  `cells` holds every (p, q) with gr^p C^{p+q} nonzero (all
    other cells are zero on every page); `d_ranks` holds the nonzero ranks of
    d_r^{p,q}, which maps into (p+r, q-r+1)."""

    r: int
    cells: dict[tuple[int, int], PageCell]
    d_ranks: dict[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0

    def d_rank(self, p: int, q: int) -> int:
        return self.d_ranks.get((p, q), 0)

    def cell_dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

    def antidiagonal_totals(self, max_degree: int) -> tuple[int, ...]:
        totals = [0] * (max_degree + 1)
        for (p, q), c in self.cells.items():
            k = p + q
            if 0 <= k <= max_degree:
                totals[k] += c.dim
        return tuple(totals)

    def differentials_vanish(self) -> bool:
        return not self.d_ranks


def compute_page(fc: FilteredComplex, r: int) -> SpectralPage:
    """Page E_r, counted from the persistence pairs: each pair with gap
    g < r has cancelled x against y, and the pairs with g = r give the ranks
    of d_r.  The cells depend only on the set of cancelled gaps, so a page
    with the same pairs and the same set as the last page computed from `fc`
    shares that page's cells (`PageCell` is frozen)."""
    if r < 0:
        raise ValueError("page index must be non-negative")
    pairs = fc.pairs
    cancelled: set[int] = set()
    ranks: dict[tuple[int, int], int] = {}
    for k, degree_pairs in enumerate(pairs):
        for a, b in degree_pairs:
            if b - a < r:
                cancelled.add(b - a)
            elif b - a == r:
                ranks[(a, k - a)] = ranks.get((a, k - a), 0) + 1
    last = fc._last_page
    if last[0] is pairs and last[1] == cancelled:
        return SpectralPage(r, last[2], ranks)
    dims = dict(fc._gr_dims)
    for k, degree_pairs in enumerate(pairs):
        for a, b in degree_pairs:
            if b - a < r:  # d_{b-a} cancelled x against y
                dims[(a, k - a)] -= 1
                dims[(b, k + 1 - b)] -= 1
    cells = {(p, q): PageCell(p, q, dim) for (p, q), dim in dims.items()}
    last[:] = pairs, cancelled, cells
    return SpectralPage(r, cells, ranks)


def run_to_convergence(fc: FilteredComplex) -> tuple[list[SpectralPage], int]:
    """All pages through E_{P+2} (which is E_infinity) and the first stable page.

    Each page is one `compute_page(fc, r)` call, r ascending, so a page whose
    set of cancelled gaps is that of the page before shares its cells.
    d_r vanishes exactly when E_{r+1} has the cell dimensions of E_r, so the
    stable page is the first one from which every page has the cell
    dimensions of E_{P+2}.
    """
    last = fc.max_filtration + 2
    pages = [compute_page(fc, r) for r in range(last + 1)]
    final_dims = pages[last].cell_dims()
    stable_at = last
    while stable_at > 0 and pages[stable_at - 1].cell_dims() == final_dims:
        stable_at -= 1
    return pages, stable_at


def infinity_page(fc: FilteredComplex) -> SpectralPage:
    return compute_page(fc, fc.max_filtration + 2)


def check_abutment(fc: FilteredComplex) -> bool:
    """Anti-diagonal totals of the stable page equal the cohomology dims.

    The page side comes from the persistence pairs, the cohomology side
    from `linalg.rank`; the check fails when the two eliminations disagree.
    """
    einf = infinity_page(fc)
    return einf.antidiagonal_totals(fc.max_degree) == fc.cohomology_dims()
