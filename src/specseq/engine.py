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
the set of gaps g < r, so one sweep groups the pairs by gap, and the pages
with the same set share their cells.  A pair with gap g changes E_g into
E_{g+1} and no later page, so the sequence is stable from 1 + the largest
gap on.

Every degree lists its basis in descending filtration degree, as the
invariant-forms models do, so the reduction runs on the columns and rows in
basis order: it is the reduction R = D V of d_k itself, and direct
cohomology counts its lows instead of reducing d_k again
(`invariant.betti_numbers`).  Each d_k is reduced after d_{k-1}, and the
columns at the lows of the reduced d_{k-1} are cleared, not reduced (Chen &
Kerber, *Persistent homology computation with a twist*, 2011).  Each
reduction is certified before its lows clear any column of the next, and on
the cleared columns that certificate is the check of d o d = 0.  The
boundaries the columns were cleared with are kept (`boundaries`), a basis
of each Im d_{k-1}, for star duality to reduce against.

A complex is given as sparse integer columns with one denominator per d_k,
and the checks and the reductions read those columns.  The dense `Fraction`
matrices `FilteredComplex.d` are built only when a caller reads them, which
`analyze` never does.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .linalg import (
    Matrix,
    Reduction,
    SparseColumn,
    Subspace,
    apply_columns,
    from_integer_columns,
    rank,
    reduce_columns,
)


class FiltrationError(ValueError):
    """The data does not define a filtered cochain complex."""


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Cochain complex in degrees 0..K with a bounded decreasing filtration.

    `degrees[k][j]` is the filtration degree, in 0..max_filtration, of basis
    vector j in degree k; each degree lists its basis in descending
    filtration degree.  d_k maps degree k to degree k+1, and the last one
    targets the zero space.  d_k is `integer_d[k]`, sparse integer columns,
    over `denominators[k]`.  Each d_k is reduced and certified once, on
    first use (`reductions`), and every page computed from the complex reads
    the pairs of that reduction, grouped by gap once (`gap_sweep`).
    """

    degrees: tuple[tuple[int, ...], ...]
    max_filtration: int
    integer_d: tuple[list[SparseColumn], ...] = field(repr=False)
    denominators: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        K = len(self.degrees) - 1
        P = self.max_filtration
        if K < 0 or P < 0:
            raise FiltrationError("empty complex or negative filtration bound")
        if len(self.integer_d) != K + 1 or len(self.denominators) != K + 1:
            raise FiltrationError(
                "d, its denominators and the filtration degrees must cover every degree"
            )
        for k, (src, den) in enumerate(zip(self.degrees, self.denominators)):
            if isinstance(den, bool) or not isinstance(den, int) or den < 1:
                raise FiltrationError(f"degree {k} has denominator {den!r}, not an integer >= 1")
            if any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x <= P for x in src):
                raise FiltrationError(f"filtration degrees at degree {k} must be integers in 0..{P}")
            if any(a < b for a, b in zip(src, src[1:])):
                raise FiltrationError(
                    f"degree {k} does not list its basis in descending filtration degree"
                )
            tgt = self.degrees[k + 1] if k < K else ()
            rows = len(tgt)
            cols = self.integer_d[k]
            if len(cols) != len(src):
                raise FiltrationError(f"differential at degree {k} has the wrong shape")
            for j, col in enumerate(cols):
                for i, x in col.items():
                    if type(i) is not int or not 0 <= i < rows:
                        raise FiltrationError(
                            f"differential at degree {k} has the wrong shape: "
                            f"vector {j} hits row {i!r} of {rows}"
                        )
                    if type(x) is not int:
                        raise FiltrationError(
                            f"differential at degree {k}: vector {j} has entry {x!r}, not an int"
                        )
                    if not x:
                        raise FiltrationError(f"differential at degree {k}: zero in vector {j}")
                    if tgt[i] < src[j]:
                        raise FiltrationError(
                            f"d does not preserve F^{src[j]} at degree {k}: "
                            f"vector {j} hits vector {i} of filtration degree {tgt[i]}"
                        )

    @cached_property
    def d(self) -> tuple[Matrix, ...]:
        """Each d_k as a dense `Fraction` matrix, `integer_d[k]` over
        `denominators[k]`, built on first read."""
        return tuple(
            from_integer_columns(cols, self.dim(k + 1), den)
            for k, (cols, den) in enumerate(zip(self.integer_d, self.denominators))
        )

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
    def reductions(self) -> tuple[Reduction, ...]:
        """`reductions[k]` is `linalg.reduce_columns` of d_k: its columns are
        the vectors x of degree k and its rows the vectors y of degree k+1,
        each in descending filtration degree, as the basis lists them.

        The columns of d_k at the lows of the reduced d_{k-1} are cleared
        (Chen & Kerber 2011): the reduced column of d_{k-1} with its low at
        such an index lies in Ker d_k, since d o d = 0, so that column of
        d_k reduces to zero.  Its R column is zero and its V column is that
        boundary; R, the lows and every other column of V are those of the
        full reduction.  `_certify` checks each before its lows clear."""
        out: list[Reduction] = []
        cleared: dict[int, SparseColumn] = {}
        for k, cols in enumerate(self.integer_d):
            R, V, lows = reduce_columns(cols, cleared)
            _certify(k, cols, (R, V, lows), cleared)
            out.append((R, V, lows))
            cleared = {low: R[j] for low, j in lows.items()}
        return tuple(out)

    @cached_property
    def boundaries(self) -> tuple[dict[int, SparseColumn], ...]:
        """`boundaries[k]` maps each low of the reduced d_{k-1} to the V
        column of d_k at that index, the reduced column of d_{k-1} that
        cleared it (the same object): a basis of Im d_{k-1} with distinct
        lows, empty at k = 0."""
        reductions = self.reductions
        return tuple(
            {low: V[low] for low in reductions[k - 1][2]} if k else {}
            for k, (_, V, _) in enumerate(reductions)
        )

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`pairs[k]` lists (deg x, deg y) for the persistence pairs of d_k:
        each nonzero column of the reduced d_k (`reductions`) pairs its
        vector x with the row y at its low."""
        out = []
        for k, (_, _, by_low) in enumerate(self.reductions):
            src = self.degrees[k]
            tgt = self.degrees[k + 1] if k < self.max_degree else ()
            out.append(tuple(sorted((src[j], tgt[low]) for low, j in by_low.items())))
        return tuple(out)

    @cached_property
    def gap_sweep(self) -> tuple[tuple[int, ...], dict, tuple[dict, ...]]:
        """The pairs grouped by gap, in one sweep: the distinct gaps g
        ascending, each g's ranks {(p, q): rank d_g^{p,q}} (a pair with x at
        (p, q) adds one), and `cells[i]`, the cells of the pages on which the
        first i gaps have cancelled.  E_0 has dim gr^p C^{p+q} at each (p, q)
        where that is nonzero, k = p + q ascending, then p ascending.  A pair
        with gap g cancels x at (p, q) against y at (p + g, q - g + 1), the
        target of d_g."""
        ranks: dict[int, dict[tuple[int, int], int]] = {}
        for k, degree_pairs in enumerate(self.pairs):
            for a, b in degree_pairs:
                at = ranks.setdefault(b - a, {})
                at[(a, k - a)] = at.get((a, k - a), 0) + 1
        gaps = tuple(sorted(ranks))
        dims = {
            (p, k - p): src.count(p) for k, src in enumerate(self.degrees) for p in sorted(set(src))
        }
        cells = [{pq: PageCell(*pq, dim) for pq, dim in dims.items()}]
        for g in gaps:
            for (p, q), count in ranks[g].items():
                dims[(p, q)] -= count
                dims[(p + g, q - g + 1)] -= count
            cells.append({pq: PageCell(*pq, dim) for pq, dim in dims.items()})
        return gaps, ranks, tuple(cells)

    def cohomology_dims(self) -> tuple[int, ...]:
        """dim H^k from `rank` of each d_k, an elimination independent of the
        persistence pairs, so `check_abutment` cross-checks them."""
        ranks = [rank(m) for m in self.d]
        return tuple(
            self.dim(k) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(self.max_degree + 1)
        )


def _certify(k: int, cols: list[SparseColumn], reduction: Reduction, cleared: dict) -> None:
    """Certify `reduction` as R = D V of d_k, D with columns `cols` (McConnell,
    Mehlhorn, Naher & Schweitzer, *Certifying algorithms*, 2011): R_j = D V_j,
    max(V_j) = j with V_j[j] != 0, and the lows are {max(R_j): j} over the
    nonzero R_j.  A cleared column holds its boundary from `cleared`, and
    those of d_{k-1}, certified first, are a basis of Im d_{k-1}, so D
    killing them is d o d = 0, refused as "d o d != 0 at degree k-1";
    every other error names d_k, and the column where it has one."""
    R, V, lows = reduction
    if not len(R) == len(V) == len(cols):
        raise FiltrationError(f"d_{k}: R and V have {len(R)} and {len(V)} columns, not {len(cols)}")
    found: dict[int, int] = {}
    for j, (r, v, col) in enumerate(zip(R, V, cols)):
        if not v.get(j) or (len(v) > 1 and max(v) != j):
            raise FiltrationError(f"d_{k}: V_{j} is not triangular with a nonzero entry at {j}")
        if j in cleared:
            if apply_columns(cols, cleared[j]):
                raise FiltrationError(f"d o d != 0 at degree {k - 1}")
            if r or v != cleared[j]:
                raise FiltrationError(f"d_{k}: cleared column {j}: R_{j} != 0 or V_{j} != boundary")
        # At V_j = e_j, D V_j is column j, which holds no zero entry.
        elif r != (col if len(v) == 1 and v[j] == 1 else apply_columns(cols, v)):
            raise FiltrationError(f"d_{k}: R_{j} != D V_{j}")
        if r and found.setdefault(max(r), j) != j:
            raise FiltrationError(f"d_{k}: columns {found[max(r)]} and {j} share the low {max(r)}")
    if lows != found:
        j = min(j for _, j in lows.items() ^ found.items())
        raise FiltrationError(f"d_{k}: the lows are misrecorded at column {j}")


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


def compute_page(fc: FilteredComplex, r: int) -> SpectralPage:
    """Page E_r, counted from the persistence pairs: each pair with gap
    g < r has cancelled x against y, and the pairs with g = r give the ranks
    of d_r.  Both are read from `fc.gap_sweep`, so every page with the same
    set of cancelled gaps shares one `cells` mapping (`PageCell` is frozen),
    and every page from E_{P+1} on is E_infinity with no ranks."""
    if r < 0:
        raise ValueError("page index must be non-negative")
    gaps, ranks, cells = fc.gap_sweep
    return SpectralPage(r, cells[bisect_left(gaps, r)], dict(ranks.get(r, ())))


def run_to_convergence(fc: FilteredComplex) -> tuple[list[SpectralPage], int]:
    """All pages through E_{P+2} (which is E_infinity) and the first stable page.

    Each page is one `compute_page(fc, r)` call.  A pair with gap g lives on
    E_r for r <= g and on no later page, so the stable page is 1 + the
    largest gap, and 0 when there are no pairs.
    """
    pages = [compute_page(fc, r) for r in range(fc.max_filtration + 3)]
    gaps = fc.gap_sweep[0]
    return pages, gaps[-1] + 1 if gaps else 0


def check_abutment(fc: FilteredComplex) -> bool:
    """Anti-diagonal totals of E_{P+2}, which is E_infinity, equal the
    cohomology dims.

    The page side comes from the persistence pairs, the cohomology side
    from `linalg.rank`; the check fails when the two eliminations disagree.
    """
    einf = compute_page(fc, fc.max_filtration + 2)
    return einf.antidiagonal_totals(fc.max_degree) == fc.cohomology_dims()
