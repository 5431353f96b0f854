"""Spectral sequence of a finite-dimensional filtered cochain complex.

The filtration is given on an adapted basis: every basis vector carries one
filtration degree, and F^p C^k is spanned by the vectors of degree >= p.
Every filtration of a finite-dimensional complex has such a basis, and the
invariant-forms models come with one (the basic degree).  On it, page
dimensions are rank differences of blocks of d (the rank-invariant reading
of Basu & Parida 2017; Romero, Rubio & Sergeraert 2006).  With

    R_k(a, b) = rank of d_k restricted to the basis vectors of degree >= a,
                read modulo F^b C^{k+1} (rows of degree < b),

and k = p + q,

    dim E_r^{p,q} = gr^p_k - [R_k(p, p+r) - R_k(p+1, p+r)]
                           - [R_{k-1}(p-r+1, p+1) - R_{k-1}(p-r+1, p)],
    rank d_r^{p,q} = R_k(p, p+r+1) - R_k(p, p+r)
                     - R_k(p+1, p+r+1) + R_k(p+1, p+r).

The first line is dim Z_r / B_r for the subquotient Z_r^{p,q} =
F^p C^k cap d^{-1}(F^{p+r} C^{k+1}); the tests keep that subquotient engine
as the reference these formulas are checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from .linalg import Matrix, Subspace, prefix_ranks, rank


class FiltrationError(ValueError):
    """The data does not define a filtered cochain complex."""


@dataclass(frozen=True)
class FilteredComplex:
    """Cochain complex in degrees 0..K with a bounded decreasing filtration.

    `degrees[k][j]` is the filtration degree, in 0..max_filtration, of basis
    vector j in degree k.  `d[k]` maps degree k to degree k+1; the last one
    targets the zero space.  The ranks R_k(a, b) are cached on the complex
    and shared by every page computed from it.
    """

    d: tuple[Matrix, ...]
    degrees: tuple[tuple[int, ...], ...]
    max_filtration: int
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def filtered_rank(self, k: int, a: int, b: int) -> int:
        """R_k(a, b): rank of d_k from F^a C^k into C^{k+1} / F^b C^{k+1}."""
        P = self.max_filtration
        a = max(a, 0)
        if not 0 <= k <= self.max_degree or a > P or b <= 0:
            return 0
        profile = self._ranks.get((k, a))
        if profile is None:
            profile = self._ranks[(k, a)] = self._rank_profile(k, a)
        return profile[min(b, P + 1)]

    def _rank_profile(self, k: int, a: int) -> tuple[int, ...]:
        """R_k(a, b) for b = 0..P+1, from one elimination over rows by degree."""
        cols = [j for j, deg in enumerate(self.degrees[k]) if deg >= a]
        tgt = self.degrees[k + 1] if k < self.max_degree else ()
        order = sorted(range(len(tgt)), key=tgt.__getitem__)
        entries = self.d[k].entries
        ranks = prefix_ranks([[entries[i][j] for j in cols] for i in order])
        sorted_degrees = [tgt[i] for i in order]
        return tuple(
            ranks[bisect_left(sorted_degrees, b)] for b in range(self.max_filtration + 2)
        )

    def cohomology_dims(self) -> tuple[int, ...]:
        """dim H^k from `rank` of each d_k, an elimination independent of the
        cached rank profiles, so `check_abutment` cross-checks them."""
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
    if r < 0:
        raise ValueError("page index must be non-negative")
    R = fc.filtered_rank
    cells: dict[tuple[int, int], PageCell] = {}
    d_ranks: dict[tuple[int, int], int] = {}
    for k, degrees in enumerate(fc.degrees):
        for p in range(fc.max_filtration + 1):
            gr = degrees.count(p)  # dim F^p C^k / F^{p+1} C^k
            if not gr:
                continue
            q = k - p
            dim = (
                gr
                - (R(k, p, p + r) - R(k, p + 1, p + r))
                - (R(k - 1, p - r + 1, p + 1) - R(k - 1, p - r + 1, p))
            )
            cells[(p, q)] = PageCell(p, q, dim)
            rk = R(k, p, p + r + 1) - R(k, p, p + r) - R(k, p + 1, p + r + 1) + R(k, p + 1, p + r)
            if rk:
                d_ranks[(p, q)] = rk
    return SpectralPage(r, cells, d_ranks)


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

    The page side comes from the cached rank profiles, the cohomology side
    from `linalg.rank`; the check fails when the two eliminations disagree.
    """
    einf = infinity_page(fc)
    return einf.antidiagonal_totals(fc.max_degree) == fc.cohomology_dims()
