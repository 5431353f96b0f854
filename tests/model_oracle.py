"""Reference constructions for the invariant-forms model, kept for tests.

`dense_differentials` builds each d_k entry by entry as dense `Fraction`
columns; `lefschetz_structure` and `star_matrix` recompute a module's
Lefschetz data with `l_power`, a dense product of the L matrices, for every
power they read, and `reconstruct_class` sums the dense images L^i beta_i.
None of them shares the sparse integer scatter of `build_model` or the
power table of the library.  `primitive_subspace` and `kernel_L` are the
canonical dense subspaces spanned by the library's integer bases
(`lefschetz_columns`), for comparison with the `l_power` kernels.
`module_from_matrices` builds a module from dense `Fraction` matrices through
`integer_columns`, `typed_models` draws the models the engine and model
tests run on, and `dense_hlp_module` is `generate_hlp_module` as it built
L, by dense products with `inverse` of the unipotent automorphisms.
`star_duality_reference` is `verify.model_star_duality` as it read its
ranks before each group was reduced once per degree: two reductions of
prefixes of the groups per degree, each from the boundaries of H^k, on
chains placed by a search of the basis, with the eta forms built afresh
on every call by `_eta_product`, the wedge product expanded factor by
factor, which the library's closed-form eta forms are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from specseq.exterior import _merge_sign, index_subset_sign
from specseq.invariant import CohomologyGroup, InvariantComplex, build_model
from specseq.lefschetz import (
    LefschetzModule,
    LefschetzReport,
    generate_hlp_module,
    lefschetz_columns,
    zero_l_block,
)
from specseq.linalg import (
    DimensionMismatch,
    Matrix,
    SparseColumn,
    Subspace,
    _rref_data,
    apply_columns,
    kernel_basis,
    rank,
    reduce_columns,
)
from specseq.verify import VerificationReport, Witness, _hypothesis


def integer_columns(m: Matrix, den: int | None = None) -> list[SparseColumn]:
    """The columns of `m` times the common denominator of its entries.

    `den`, when given, is a common multiple of those denominators to scale
    by instead, so that several matrices can share one scale.
    """
    cols = [
        {i: x for i, x in enumerate(col) if x}
        for col in (zip(*m.entries) if m.rows else [()] * m.cols)
    ]
    if den is None:
        den = lcm(*(x.denominator for col in cols for x in col.values()))
    return [{i: x.numerator * (den // x.denominator) for i, x in col.items()} for col in cols]


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices are invertible")
    n = m.rows
    one, zero = Fraction(1), Fraction(0)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(m.entries)]
    aug, pivots = _rref_data(aug, 2 * n)
    if list(pivots[:n]) != list(range(n)) or len(pivots) < n:
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(tuple(row[n:]) for row in aug[:n]))


def module_from_matrices(n: int, dims, maps, labels=None) -> LefschetzModule:
    """The module whose L_p is the dense matrix maps[p] (any exact entries),
    its columns over the least common denominator of every entry."""
    maps = [m if isinstance(m, Matrix) else Matrix.from_rows(m) for m in maps]
    for p, m in enumerate(maps):
        # Integer columns carry no zero rows, so the row count is checked here.
        if m.rows != (dims[p + 2] if p + 2 < len(dims) else 0):
            raise ValueError(f"L matrix at degree {p} has {m.rows} rows")
    den = lcm(*(Fraction(x).denominator for m in maps for row in m.entries for x in row))
    return LefschetzModule(n, tuple(dims), tuple(integer_columns(m, den) for m in maps), den, labels)


@st.composite
def typed_models(draw, max_n=3):
    """S-type, C-type and mixed models of n <= max_n and s <= 4, over bases
    with a one- or two-dimensional H^0; lambdas with denominators up to 7,
    and every third base with one L block zeroed, so without hard
    Lefschetz, and every fifth with fractions in its L maps."""
    n, s = draw(st.integers(0, max_n)), draw(st.integers(1, 4))
    pdims = tuple(draw(st.integers(1, 2) if p == 0 else st.integers(0, 2)) for p in range(n + 1))
    seed = draw(st.integers(0, 2**31))
    base = generate_hlp_module(seed, n, pdims)
    if n and seed % 3 == 0:
        base = zero_l_block(base, seed % (2 * n + 1))
    if seed % 5 == 1:
        # Each L map times its own fraction, which keeps every rank.
        scaled = tuple(l.scaled(Fraction(2 + p, 3 + p % 4)) for p, l in enumerate(base.L_maps))
        base = module_from_matrices(base.n, base.dims, scaled)
    kind = draw(st.sampled_from(["S", "C", "mixed"]))
    if kind == "mixed":
        lambdas = st.fractions(min_value=-3, max_value=3, max_denominator=7)
        lams = draw(st.lists(lambdas, min_size=s, max_size=s))
    else:
        lams = [1 if kind == "S" else 0] * s
    return build_model(base, s, lams)


def check_top_degree(module: LefschetzModule) -> bool:
    """Homological-orientability shadow: the top graded piece is a line."""
    return module.dims[2 * module.n] == 1


def dense_hlp_module(seed: int, n: int, primitive_dims) -> tuple[Matrix, ...]:
    """The L matrices of `generate_hlp_module(seed, n, primitive_dims)`, built
    densely: the free module's L conjugated by unipotent matrices, with the
    same random draws, each inverse from `inverse`."""
    basis = []
    for r in range(2 * n + 1):
        layer = [
            (j, (r - j) // 2, t)
            for j in range(min(r, n) + 1)
            if (r - j) % 2 == 0 and (r - j) // 2 <= n - j
            for t in range(primitive_dims[j])
        ]
        basis.append(sorted(layer))
    free = []
    for p in range(2 * n + 1):
        target = basis[p + 2] if p + 2 <= 2 * n else []
        rows = [[Fraction(0)] * len(basis[p]) for _ in target]
        for c, (j, i, t) in enumerate(basis[p]):
            if i + 1 <= n - j:
                rows[target.index((j, i + 1, t))][c] = Fraction(1)
        free.append(Matrix(len(target), len(basis[p]), tuple(map(tuple, rows))))
    rng = random.Random(seed)
    autos = []
    for layer in basis:
        d = len(layer)
        autos.append(
            Matrix.from_rows(
                [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(d)] for i in range(d)],
                d,
            )
        )
    return tuple(
        autos[p + 2] @ free[p] @ inverse(autos[p]) if p + 2 <= 2 * n else free[p]
        for p in range(2 * n + 1)
    )


def _eta_product(factors) -> dict[tuple[int, ...], int]:
    """Wedge product in the exterior algebra on eta_1..eta_s (1-based
    tuples), with integer coefficients, expanded factor by factor."""
    acc = {(): 1}
    for f in factors:
        nxt: dict[tuple[int, ...], int] = {}
        for idx_a, ca in acc.items():
            for idx_b, cb in f.items():
                merged = _merge_sign(idx_a, idx_b)
                if merged is None:
                    continue
                key, sign = merged
                nxt[key] = nxt.get(key, 0) + sign * ca * cb
        acc = {k: v for k, v in nxt.items() if v}
    return acc


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


def l_power(module: LefschetzModule, p: int, m: int) -> Matrix:
    """Matrix of L^m : H^p -> H^{p+2m} (zero-dimensional outside 0..2n)."""
    if m < 0:
        raise ValueError("negative power")
    result = Matrix.identity(module.dim_at(p))
    deg = p
    for _ in range(m):
        if 0 <= deg <= 2 * module.n:
            step = module.L_maps[deg]
        else:
            step = Matrix.zero(module.dim_at(deg + 2), module.dim_at(deg))
        result = step @ result
        deg += 2
    return result


def reconstruct_class(module: LefschetzModule, p: int, components) -> tuple[Fraction, ...]:
    """Inverse of `lefschetz_decompose_class`: sum_i L^i beta_i in H^p."""
    acc = [Fraction(0)] * module.dim_at(p)
    for i, beta in components:
        acc = [a + b for a, b in zip(acc, l_power(module, p - 2 * i, i).apply(beta))]
    return tuple(acc)


def _span(dim: int, vectors: list[SparseColumn]) -> Subspace:
    """The canonical subspace spanned by sparse integer vectors of length dim."""
    return Subspace.span(dim, ([v.get(i, 0) for i in range(dim)] for v in vectors))


def primitive_subspace(module: LefschetzModule, p: int) -> Subspace:
    """The span of the library's integer basis of PH^p; zero above the middle degree."""
    return _span(module.dims[p], lefschetz_columns(module).primitive[p])


def kernel_L(module: LefschetzModule, p: int) -> Subspace:
    """The span of the library's integer basis of Ker(L: H^p -> H^{p+2})."""
    return _span(module.dims[p], lefschetz_columns(module).kernel[p])


def lefschetz_structure(module: LefschetzModule):
    """(report, primitive, kernel, blocks, systems, to_pieces) of the module.

    `blocks[p]` are the pieces (i, PH^{p-2i}) with L^i nonzero on them,
    `systems[p]` is B_p, the matrix of their L^i beta columns, and
    `to_pieces[p]` is B_p^{-1}, or None when B_p is not invertible.
    """
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


def _chain(c: InvariantComplex, eta_form, p: int, h: SparseColumn) -> tuple[int, SparseColumn]:
    """sum_I a_I eta_I (x) h, each element placed by its index in the basis."""
    degree = p + len(next(iter(eta_form)))
    layer = c.basis[degree]
    return degree, {
        layer.index((subset, p, t)): a * x for subset, a in eta_form.items() for t, x in h.items()
    }


def _eta_forms(s: int):
    """Per subset I of {2..s}: prod_{i in I} (eta_1 - eta_i), and eta_1 eta_I."""
    for q in range(s):
        for subset in itertools.combinations(range(2, s + 1), q):
            yield _eta_product([{(1,): 1, (i,): -1} for i in subset]), {(1,) + subset: 1}


def _class_ranks(q: CohomologyGroup, *groups: list[SparseColumn]) -> list[int]:
    """Ranks of the classes of groups[0], groups[0] + groups[1], ...: one
    reduction of all the groups from the boundaries of q, counted over the
    prefixes."""
    columns: list[SparseColumn] = []
    ends = []
    for group in groups:
        columns += group
        ends.append(len(columns))
    reduced = reduce_columns(columns, with_v=False, pivots=q.boundaries)[0]
    return [sum(1 for r in reduced[:end] if r) for end in ends]


def star_duality_reference(c: InvariantComplex) -> VerificationReport:
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("star-duality", hypothesis_violation=violation)
    n, s = c.base.n, c.s
    total_deg = 2 * n + s
    columns = lefschetz_columns(c.base)
    part_a: dict[int, list[SparseColumn]] = {}
    part_b: dict[int, list[SparseColumn]] = {}
    images: dict[int, list[SparseColumn]] = {}
    for differences, with_eta_1 in _eta_forms(s):
        complements = {
            tuple(j for j in range(1, s + 1) if j not in subset): a
            * (-1) ** index_subset_sign(subset)
            for subset, a in differences.items()
        }
        q = len(next(iter(differences)))
        for p in range(2 * n + 1):
            for kappa in columns.kernel[p]:
                k, v = _chain(c, with_eta_1, p, kappa)
                part_b.setdefault(k, []).append(v)
            sign = (-1) ** ((s - q) * p)
            star_form = {subset: sign * a for subset, a in complements.items()}
            for beta, w in zip(columns.primitive[p], columns.star[p]):
                k, v = _chain(c, differences, p, beta)
                part_a.setdefault(k, []).append(v)
                images.setdefault(k, []).append(_chain(c, star_form, 2 * n - p, w)[1])
    witnesses = []
    for k in range(total_deg + 1):
        k2 = total_deg - k
        starred_k = images.get(k, [])
        closed = [v for v in starred_k if not apply_columns(c.integer_d[k2], v)]
        if len(closed) != len(starred_k):
            witnesses.append(Witness("non-closed star images", k, 0, len(starred_k) - len(closed)))
        a2, b2 = part_a.get(k2, []), part_b.get(k2, [])
        rank_img, combined, both = _class_ranks(c.cohomology[k2], closed, a2, b2)
        rank_a2, target = _class_ranks(c.cohomology[k2], a2, b2)
        if rank_img != len(closed):
            witnesses.append(Witness("rank of star-image classes", k, len(closed), rank_img))
        if rank_img != len(b2):
            witnesses.append(Witness("rank of star-image classes vs part B", k, len(b2), rank_img))
        direct = rank_a2 + rank_img
        if combined != direct:
            witnesses.append(Witness("dim of part A + star images", k2, direct, combined))
        if not combined == target == both:
            witnesses.append(
                Witness(
                    "dims of part A + star images, part A + part B",
                    k2,
                    (both, both),
                    (combined, target),
                )
            )
    return VerificationReport("star-duality", tuple(witnesses))
