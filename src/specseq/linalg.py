"""Exact linear algebra over the rationals.

Two representations live here.  A matrix scaled by one common denominator
is a list of sparse integer columns, and `reduce_columns` and
`apply_columns` work on them without fractions.  Everything the library
computes takes this path: the filtered-complex checks, the engine's
persistence pairing (which clears the columns it knows reduce to zero,
and whose lows direct cohomology counts), the star-duality check, which
reduces its groups of cocycles with no V, starting from the boundaries the
pairing cleared with and the groups reduced before them as pivots, and the
Lefschetz structure's powers of L, ranks and kernels.  The model file
parser, the presets, `generate_hlp_module` and `invariant.build_model`
make integer columns directly.

`Matrix` and `Subspace` are dense, with `fractions.Fraction` entries;
subspaces are kept in a canonical column-echelon basis so that equality of
subspaces is plain equality of the stored data, and ranks, kernels and
quotients come from row reduction.  `from_integer_columns` gives the dense
view of integer columns, which `LefschetzModule.L_maps` and
`FilteredComplex.d` are; no command builds either.  The rest of the
dense toolkit serves `engine.check_abutment` (`rank`), the test oracles
and the benchmark probes; `analyze` calls none of it.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

Q = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


class ContainmentError(ValueError):
    """A subspace that was required to contain another does not."""


# A sparse integer column: row index -> nonzero entry.
SparseColumn = dict[int, int]
# One `reduce_columns` result: R, V (empty when not built) and the map from
# each low to its column.
Reduction = tuple[list[SparseColumn], list[SparseColumn], dict[int, int]]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix; `entries` is a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: Iterable[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return Matrix(len(data), cols, data)

    @staticmethod
    def from_cols(cols_: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols_ = [tuple(_frac(x) for x in c) for c in cols_]
        if rows is None:
            if not cols_:
                raise ValueError("cannot infer row count of an empty matrix")
            rows = len(cols_[0])
        data = tuple(tuple(c[i] for c in cols_) for i in range(rows))
        return Matrix(rows, len(cols_), data)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(tuple([_ZERO] * cols) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        )

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for row in self.entries:
            acc = _ZERO
            for a, b in zip(row, v):
                if a and b:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions do not match")
        other_rows = other.entries
        out = []
        for i in range(self.rows):
            acc = [_ZERO] * other.cols
            for k, a in enumerate(self.entries[i]):
                if a:
                    brow = other_rows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def scaled(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix(
            self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries)
        )


def _rref_data(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    pr = 0
    nrows = len(rows)
    for pc in range(cols):
        pivot = None
        for i in range(pr, nrows):
            if rows[i][pc]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        lead = rows[pr][pc]
        if lead != 1:
            rows[pr] = [x / lead for x in rows[pr]]
        prow = rows[pr]
        for i in range(nrows):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form of `m` with pivot columns and rank."""
    rows = [list(r) for r in m.entries]
    rows, pivots = _rref_data(rows, m.cols)
    reduced = Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows))
    return reduced, tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim with canonical column-echelon basis.

    The basis columns are the nonzero rows of the row-reduced span, so two
    equal subspaces always compare equal as dataclasses.
    """

    ambient_dim: int
    basis: Matrix  # ambient_dim x dim

    @property
    def dim(self) -> int:
        return self.basis.cols

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[_frac(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
        rows, pivots = _rref_data(rows, ambient_dim)
        basis_rows = rows[: len(pivots)]
        basis = Matrix.from_cols(basis_rows, rows=ambient_dim) if basis_rows else Matrix.zero(
            ambient_dim, 0
        )
        return Subspace(ambient_dim, basis)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @staticmethod
    def coordinate(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given coordinate directions."""
        vecs = []
        for i in sorted(set(indices)):
            v = [_ZERO] * ambient_dim
            v[i] = _ONE
            vecs.append(v)
        return Subspace.span(ambient_dim, vecs)

    def pivots(self) -> tuple[int, ...]:
        """Leading-one positions of the canonical basis columns."""
        out = []
        for j in range(self.dim):
            for i in range(self.ambient_dim):
                if self.basis.entries[i][j]:
                    out.append(i)
                    break
        return tuple(out)

    def coords_of(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of v w.r.t. the canonical basis (valid when v lies here)."""
        return tuple(_frac(v[p]) for p in self.pivots())

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        v = tuple(_frac(x) for x in v)
        return self.basis.apply(self.coords_of(v)) == v

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains_vector(c) for c in other.basis.columns())


def kernel_basis(m: Matrix) -> Subspace:
    """Basis of {v : m v = 0} as a subspace of the column space domain."""
    reduced, pivots, rk = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.entries[r][fc]
        vecs.append(v)
    return Subspace.span(m.cols, vecs)


def image_basis(m: Matrix) -> Subspace:
    """Column span of m."""
    return Subspace.span(m.rows, m.columns())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # Solve A x = B y; the intersection is A x over kernel vectors (x | y).
    stacked = Matrix.from_cols(
        a.basis.columns() + [tuple(-x for x in c) for c in b.basis.columns()],
        rows=a.ambient_dim,
    )
    ker = kernel_basis(stacked)
    vecs = []
    for kv in ker.basis.columns():
        x = kv[: a.dim]
        vecs.append(a.basis.apply(x))
    return Subspace.span(a.ambient_dim, vecs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, a.basis.columns() + b.basis.columns())


def annihilator_rows(s: Subspace) -> Matrix:
    """A matrix C with ker C = s (rows span the annihilator of s)."""
    ker = kernel_basis(s.basis.transpose())
    if ker.dim == 0:
        return Matrix.zero(0, s.ambient_dim)
    return ker.basis.transpose()


def preimage(f: Matrix, s: Subspace) -> Subspace:
    """{v : f v in s}; always contains ker f."""
    if f.rows != s.ambient_dim:
        raise DimensionMismatch("codomain of f does not match ambient of s")
    c = annihilator_rows(s)
    if c.rows == 0:
        return Subspace.full(f.cols)
    return kernel_basis(c @ f)


@dataclass(frozen=True)
class Quotient:
    """The quotient ambient/sub with a fixed projection and section.

    `project` (dim x N) annihilates `sub` and restricts to the quotient map
    on `ambient`; `section` (N x dim) picks canonical coset representatives,
    with project @ section the identity.
    """

    ambient: Subspace
    sub: Subspace
    dim: int
    project: Matrix
    section: Matrix


def quotient(ambient: Subspace, sub: Subspace) -> Quotient:
    if sub.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not ambient.contains(sub):
        raise ContainmentError("sub is not contained in ambient")
    n = ambient.ambient_dim
    m = ambient.dim
    amb_pivots = ambient.pivots()
    # Work in coordinates of the ambient subspace: coordinates are just the
    # entries at the pivot rows of the canonical basis.
    sub_coords = [
        [col[p] for p in amb_pivots] for col in sub.basis.columns()
    ]  # k vectors in Q^m
    reduced, piv = _rref_data([list(v) for v in sub_coords], m)
    red_rows = reduced[: len(piv)]
    free = [c for c in range(m) if c not in piv]
    qdim = len(free)
    # project, in ambient coordinates: x |-> (x - sum_t x[piv_t] * red_rows[t]) at free positions
    proj_rows = []
    for f in free:
        row = [_ZERO] * n
        row[amb_pivots[f]] = _ONE
        for t, pc in enumerate(piv):
            coeff = red_rows[t][f]
            if coeff:
                row[amb_pivots[pc]] -= coeff
        proj_rows.append(tuple(row))
    project = Matrix(qdim, n, tuple(proj_rows))
    section = (
        Matrix.from_cols([ambient.basis.col(f) for f in free], rows=n)
        if qdim
        else Matrix.zero(n, 0)
    )
    return Quotient(ambient, sub, qdim, project, section)


def from_integer_columns(cols: Sequence[SparseColumn], rows: int, den: int = 1) -> Matrix:
    """The `rows` x len(cols) matrix with sparse integer columns `cols`, each
    entry over `den`: the dense view of integer columns."""
    entries = [[_ZERO] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            entries[i][j] = Fraction(x, den)
    return Matrix(rows, len(cols), tuple(map(tuple, entries)))


def reduce_columns(
    cols: Sequence[SparseColumn],
    cleared: Mapping[int, SparseColumn] | None = None,
    *,
    with_v: bool = True,
    pivots: Mapping[int, SparseColumn] | None = None,
) -> Reduction:
    """The column reduction R = D V of the integer matrix D with columns `cols`.

    Left to right, each column is reduced against the reduced columns before
    it until its lowest nonzero row, its low, is the low of no other column
    (Cohen-Steiner, Edelsbrunner & Morozov 2006).  The same column operations
    on the identity give V, upper triangular with a nonzero diagonal.  Each
    step scales by the coprime parts of the two pivots, as in Bareiss (1968),
    so every entry stays an integer.  Returns R, V and the map from each low
    to its column: the nonzero columns of R are a basis of Im D, and V_j at
    the zero columns j of R are a basis of Ker D.

    `cleared` maps a column j to a vector of Ker D with its low at j, which
    a column known to reduce to zero has (clearing; Chen & Kerber 2011).
    That column is not reduced: its R column is zero and its V column is
    that vector.  Zero columns of R take part in no other step, so every
    other column, and every low, is what the full reduction gives.  With
    `with_v=False` no V is built and the V returned is empty; the zero
    columns and the lows are the same, and each nonzero R column is a
    positive multiple of the one the full reduction gives.

    `pivots` maps lows to columns already reduced, one per low, that the
    reduction starts from as if they stood before `cols`; the mapping is
    copied once, and the pivots are not reduced again and not returned.
    Each nonzero R column then extends a basis of the span of the pivots,
    so the number of lows returned is the rank that `cols` adds to that
    span, and the pivots together with the reduced columns at those lows
    are the pivots to reduce further columns from.  Pivots have no V
    column, so they need `with_v=False`.
    """
    if pivots and with_v:
        raise ValueError("pivots have no V columns; reduce with with_v=False")
    R: list[SparseColumn] = []
    V: list[SparseColumn] = []
    by_low: dict[int, int] = {}
    # Each low -> the reduced column with that low, and its V column (none
    # for a pivot).
    reduced = dict(pivots) if pivots else {}
    reduced_v: dict[int, SparseColumn] = {}
    for j, col in enumerate(cols):
        if cleared and j in cleared:
            R.append({})
            if with_v:
                V.append(cleared[j])
            continue
        r = dict(col)
        v = {j: 1} if with_v else {}
        low = max(r, default=None)
        while low in reduced:
            p = reduced[low]
            g = gcd(p[low], r[low])
            a, c = p[low] // g, r[low] // g
            r = _combine(a, r, c, p)
            if with_v:
                v = _combine(a, v, c, reduced_v[low])
            low = max(r, default=None)
        if v or len(r) != 1:
            g = gcd(*r.values(), *v.values())
        else:  # one entry, the gcd of which is its absolute value
            (x,) = r.values()
            g = abs(x)
        if g != 1:
            r = {i: x // g for i, x in r.items()}
            v = {i: x // g for i, x in v.items()}
        if low is not None:
            by_low[low] = j
            reduced[low] = r
            if with_v:
                reduced_v[low] = v
        R.append(r)
        if with_v:
            V.append(v)
    return R, V, by_low


def apply_columns(cols: Sequence[SparseColumn], w: SparseColumn) -> SparseColumn:
    """The integer matrix with columns `cols` times w, zero entries dropped."""
    acc: SparseColumn = {}
    for j, x in w.items():
        for i, y in cols[j].items():
            acc[i] = acc.get(i, 0) + x * y
    return {i: x for i, x in acc.items() if x}


def _combine(a: int, x: SparseColumn, c: int, y: SparseColumn) -> SparseColumn:
    """a x - c y, with zero entries dropped."""
    out = {i: a * t for i, t in x.items()} if a != 1 else dict(x)
    for i, t in y.items():
        s = out.get(i, 0) - c * t
        if s:
            out[i] = s
        else:
            del out[i]
    return out
