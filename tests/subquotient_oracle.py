"""The subquotient spectral-sequence engine, kept as the reference for tests.

Pages come straight from the definition

    E_r^{p,q} = Z_r^{p,q} / B_r^{p,q},
    Z_r^{p,q} = F^p C^{p+q} cap d^{-1}(F^{p+r} C^{p+q+1}),
    B_r^{p,q} = (F^{p+1} C^{p+q} cap Z_r^{p,q})
                + (d(F^{p-r+1} C^{p+q-1}) cap F^p C^{p+q}),

with d_r the map induced by d on the subquotients.  It reads a
`FilteredComplex` only through `filt`, `d`, `dim`, `max_degree` and
`max_filtration`, so it shares none of the rank formulas it checks.

`dense_complex` builds a `FilteredComplex` from dense matrices on a basis in
any order, as the tests' hand-made complexes come.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from model_oracle import integer_columns
from specseq.engine import FilteredComplex
from specseq.linalg import (
    DimensionMismatch,
    Matrix,
    Quotient,
    Subspace,
    intersect,
    preimage,
    quotient,
    rank,
    subspace_sum,
)


def dense_complex(
    d: Sequence[Matrix], degrees: Sequence[Sequence[int]], max_filtration: int
) -> FilteredComplex:
    """The complex with differentials d_k on a basis of filtration degrees
    `degrees`, each degree's basis first sorted into descending filtration
    degree (ties in basis order), as the engine takes it.  Each d_k is
    handed over as integer columns over the lcm of its denominators."""
    orders = [sorted(range(len(src)), key=lambda j, src=src: -src[j]) for src in degrees]
    orders.append([])
    integer_d, denominators = [], []
    for k, m in enumerate(d):
        cols, rows = orders[k], orders[k + 1]
        sorted_m = Matrix.from_rows([[m.entries[i][j] for j in cols] for i in rows], len(cols))
        den = lcm(*(x.denominator for row in m.entries for x in row))
        integer_d.append(integer_columns(sorted_m, den))
        denominators.append(den)
    sorted_degrees = tuple(tuple(src[j] for j in order) for src, order in zip(degrees, orders))
    return FilteredComplex(sorted_degrees, max_filtration, tuple(integer_d), tuple(denominators))


class InducedMapError(ValueError):
    """The map does not preserve the subspaces, so no quotient map exists.

    Hitting this from the oracle engine signals a modeling bug, not bad data.
    """


def induced_map(f: Matrix, src: Quotient, dst: Quotient) -> Matrix:
    """Matrix of the map induced by f on src.ambient/src.sub -> dst.ambient/dst.sub."""
    if f.cols != src.ambient.ambient_dim or f.rows != dst.ambient.ambient_dim:
        raise DimensionMismatch("f does not map the source ambient into the target ambient")
    for col in src.ambient.basis.columns():
        if not dst.ambient.contains_vector(f.apply(col)):
            raise InducedMapError("f does not map the source ambient space into the target")
    for col in src.sub.basis.columns():
        if not dst.sub.contains_vector(f.apply(col)):
            raise InducedMapError("f does not preserve the subspaces; induced map undefined")
    return dst.project @ f @ src.section


@dataclass(frozen=True)
class OraclePage:
    r: int
    cells: dict[tuple[int, int], Quotient]  # inside the chain space of degree p+q
    d_maps: dict[tuple[int, int], Matrix]  # (p,q) -> matrix into (p+r, q-r+1)

    def dim(self, p: int, q: int) -> int:
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0

    def cell_dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

    def d_ranks(self) -> dict[tuple[int, int], int]:
        return {pq: rank(m) for pq, m in self.d_maps.items() if not m.is_zero()}

    def differentials_vanish(self) -> bool:
        return all(m.is_zero() for m in self.d_maps.values())


def _d_out(fc, k: int) -> Matrix:
    """The differential out of degree k (into a zero space off the ends)."""
    if 0 <= k <= fc.max_degree:
        return fc.d[k]
    return Matrix.zero(fc.dim(k + 1), fc.dim(k))


def _cell_spaces(fc, r: int, p: int, k: int) -> tuple[Subspace, Subspace]:
    fp = fc.filt(p, k)
    z = intersect(fp, preimage(_d_out(fc, k), fc.filt(p + r, k + 1)))
    b1 = intersect(fc.filt(p + 1, k), z)
    if k >= 1:
        d_in = _d_out(fc, k - 1)
        prev = fc.filt(p - r + 1, k - 1)
        image = Subspace.span(fc.dim(k), [d_in.apply(col) for col in prev.basis.columns()])
        b2 = intersect(image, fp)
    else:
        b2 = Subspace.zero(fc.dim(k))
    return z, subspace_sum(b1, b2)


def compute_page(fc, r: int) -> OraclePage:
    if r < 0:
        raise ValueError("page index must be non-negative")
    cells: dict[tuple[int, int], Quotient] = {}
    for p in range(fc.max_filtration + 1):
        for k in range(fc.max_degree + 1):
            z, b = _cell_spaces(fc, r, p, k)
            cells[(p, k - p)] = quotient(z, b)
    d_maps: dict[tuple[int, int], Matrix] = {}
    for (p, qq), cell in cells.items():
        k = p + qq
        target = cells.get((p + r, qq - r + 1))
        if target is None:
            # The target cell sits outside the stored grid, where it is zero.
            zero = Subspace.zero(fc.dim(k + 1))
            target = quotient(zero, zero)
        d_maps[(p, qq)] = induced_map(_d_out(fc, k), cell, target)
    return OraclePage(r, cells, d_maps)


def run_to_convergence(fc) -> tuple[list[OraclePage], int]:
    """All pages through E_{P+2} and the first page from which every later
    page has the same cell dimensions and vanishing differentials, found by
    comparing the pages; the engine's stable page, 1 + the largest gap, is
    checked against it."""
    last = fc.max_filtration + 2
    pages = [compute_page(fc, r) for r in range(last + 1)]
    final_dims = pages[last].cell_dims()
    stable_at = last
    for r in range(last, -1, -1):
        if pages[r].cell_dims() == final_dims and pages[r].differentials_vanish():
            stable_at = r
        else:
            break
    return pages, stable_at
