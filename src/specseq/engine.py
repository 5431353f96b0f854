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
as the reference these counts are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .linalg import Matrix, Subspace, rank


class FiltrationError(ValueError):
    """The data does not define a filtered cochain complex."""


@dataclass(frozen=True)
class FilteredComplex:
    """Cochain complex in degrees 0..K with a bounded decreasing filtration.

    `degrees[k][j]` is the filtration degree, in 0..max_filtration, of basis
    vector j in degree k.  `d[k]` maps degree k to degree k+1; the last one
    targets the zero space.  The persistence pairs of each d_k are computed
    once, on first use, and shared by every page computed from the complex.
    """

    d: tuple[Matrix, ...]
    degrees: tuple[tuple[int, ...], ...]
    max_filtration: int

    def __post_init__(self):
        K = len(self.degrees) - 1
        P = self.max_filtration
        if K < 0 or P < 0:
            raise FiltrationError("empty complex or negative filtration bound")
        if len(self.d) != K + 1:
            raise FiltrationError("d and the filtration degrees must cover every degree")
        for k, src in enumerate(self.degrees):
            if any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x <= P for x in src):
                raise FiltrationError(f"filtration degrees at degree {k} must be integers in 0..{P}")
            tgt = self.degrees[k + 1] if k < K else ()
            if self.d[k].cols != len(src) or self.d[k].rows != len(tgt):
                raise FiltrationError(f"differential at degree {k} has the wrong shape")
            for i, row in enumerate(self.d[k].entries):
                for j, x in enumerate(row):
                    if x and tgt[i] < src[j]:
                        raise FiltrationError(
                            f"d does not preserve F^{src[j]} at degree {k}: "
                            f"vector {j} hits vector {i} of filtration degree {tgt[i]}"
                        )
        for k in range(K):
            if not (self.d[k + 1] @ self.d[k]).is_zero():
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
    def pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`pairs[k]` lists (deg x, deg y) for the persistence pairs of d_k.

        The columns of d_k (the vectors x of degree k) are taken in descending
        filtration degree and the rows in descending degree.  Left to right,
        each column is reduced by exact integer column operations against the
        reduced columns before it until its lowest nonzero row is the lowest
        row of no other column; the column then pairs with that row y.
        """
        out = []
        for k, src in enumerate(self.degrees):
            tgt = self.degrees[k + 1] if k < self.max_degree else ()
            rows = sorted(range(len(tgt)), key=tgt.__getitem__, reverse=True)
            entries = self.d[k].entries
            by_low: dict[int, list[int]] = {}  # lowest row -> reduced column
            found = []
            for j in sorted(range(len(src)), key=src.__getitem__, reverse=True):
                col = [entries[i][j] for i in rows]
                den = lcm(*(x.denominator for x in col))
                v = [x.numerator * (den // x.denominator) for x in col]
                low = _lowest(v)
                while low in by_low:
                    w = by_low[low]
                    lead, c = w[low], v[low]
                    v = [lead * x - c * y for x, y in zip(v, w)]
                    low = _lowest(v)
                if low is not None:
                    g = gcd(*v)
                    by_low[low] = [x // g for x in v]
                    found.append((src[j], tgt[rows[low]]))
            out.append(tuple(found))
        return tuple(out)

    def cohomology_dims(self) -> tuple[int, ...]:
        """dim H^k from `rank` of each d_k, an elimination independent of the
        persistence pairs, so `check_abutment` cross-checks them."""
        ranks = [rank(m) for m in self.d]
        return tuple(
            self.dim(k) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(self.max_degree + 1)
        )


def _lowest(v: list[int]) -> int | None:
    """Index of the last nonzero entry of v, or None when v is zero."""
    return next((i for i in range(len(v) - 1, -1, -1) if v[i]), None)


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
    if r < 0:
        raise ValueError("page index must be non-negative")
    dims: dict[tuple[int, int], int] = {}
    for k, degrees in enumerate(fc.degrees):
        for p in range(fc.max_filtration + 1):
            gr = degrees.count(p)  # dim F^p C^k / F^{p+1} C^k
            if gr:
                dims[(p, k - p)] = gr
    ranks: dict[tuple[int, int], int] = {}
    for k, pairs in enumerate(fc.pairs):
        for a, b in pairs:
            if b - a < r:  # d_{b-a} cancelled x against y
                dims[(a, k - a)] -= 1
                dims[(b, k + 1 - b)] -= 1
            elif b - a == r:
                ranks[(a, k - a)] = ranks.get((a, k - a), 0) + 1
    return SpectralPage(
        r,
        {(p, q): PageCell(p, q, dim) for (p, q), dim in dims.items()},
        ranks,
    )


def run_to_convergence(fc: FilteredComplex) -> tuple[list[SpectralPage], int]:
    """All pages through E_{P+2} (which is E_infinity) and the first stable page.

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
