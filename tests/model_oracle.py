"""Reference constructions for the invariant-forms model, kept for tests.

`dense_differentials` builds each d_k entry by entry as dense `Fraction`
columns; `lefschetz_structure` and `star_matrix` recompute a module's
Lefschetz data with `l_power` for every power they read.  Neither shares the
sparse integer scatter of `build_model` or the power table of the library.
"""

from __future__ import annotations

from fractions import Fraction

from specseq.invariant import InvariantComplex
from specseq.lefschetz import LefschetzModule, LefschetzReport, l_power
from specseq.linalg import Matrix, Subspace, inverse, kernel_basis, rank


def dense_differentials(c: InvariantComplex) -> tuple[Matrix, ...]:
    """d(eta_I (x) h) = sum_m (-1)^m lambda_{i_m} eta_{I minus i_m} (x) L h."""
    n, top = c.base.n, c.max_degree
    out = []
    for k in range(top + 1):
        rows = c.dim(k + 1) if k < top else 0
        cols = []
        for subset, p, t in c.basis[k]:
            col = [Fraction(0)] * rows
            if k < top and p + 2 <= 2 * n:
                lcol = c.base.L_maps[p].col(t)
                for m, i in enumerate(subset):
                    rest = subset[:m] + subset[m + 1 :]
                    for u, v in enumerate(lcol):
                        if v:
                            col[c.index_of(k + 1, (rest, p + 2, u))] += (-1) ** m * c.lambdas[i - 1] * v
            cols.append(col)
        out.append(Matrix.from_cols(cols, rows=rows) if cols else Matrix.zero(rows, 0))
    return tuple(out)


def lefschetz_structure(module: LefschetzModule):
    """(report, primitive, kernel, blocks, systems, to_pieces), as `_Structure` holds them."""
    n = module.n
    degrees = range(2 * n + 1)
    failing = None
    for k in range(n + 1):
        m = l_power(module, n - k, k)
        if m.rows != m.cols or rank(m) != m.rows:
            failing = k
            break
    primitive = tuple(
        kernel_basis(l_power(module, p, n - p + 1)) if p <= n else Subspace.zero(module.dims[p])
        for p in degrees
    )
    kernel = tuple(kernel_basis(module.L_maps[p]) for p in degrees)
    blocks, systems, to_pieces = [], [], []
    for p in degrees:
        pieces, cols = [], []
        for i in range(p // 2 + 1):
            d = p - 2 * i
            if d > n:
                continue
            images = (l_power(module, d, i) @ primitive[d].basis).columns()
            if any(any(col) for col in images):
                pieces.append((i, primitive[d]))
                cols += images
        system = Matrix.from_cols(cols, rows=module.dims[p])
        try:
            inv = inverse(system)
        except ValueError:
            inv = None
        blocks.append(tuple(pieces))
        systems.append(system)
        to_pieces.append(inv)
    report = LefschetzReport(
        failing is None,
        failing,
        tuple(ph.dim for ph in primitive),
        tuple(ker.dim for ker in kernel),
    )
    return report, primitive, kernel, tuple(blocks), tuple(systems), tuple(to_pieces)


def star_matrix(module: LefschetzModule, p: int) -> Matrix:
    """[L^{n-p+i} beta columns] @ B_p^{-1}, under hard Lefschetz."""
    n = module.n
    _, _, _, blocks, _, to_pieces = lefschetz_structure(module)
    cols = []
    for i, prim in blocks[p]:
        cols += (l_power(module, p - 2 * i, n - p + i) @ prim.basis).columns()
    return Matrix.from_cols(cols, rows=module.dims[2 * n - p]) @ to_pieces[p]
