"""Finite graded models of basic cohomology with the Lefschetz operator.

A module holds the dimensions of the graded pieces H^0..H^{2n} and, per
degree, cup product with the transverse symplectic class: every
L_p: H^p -> H^{p+2} as sparse integer columns over one common denominator
(`LefschetzModule.L` and `.den`).  That is the only form of L a module
stores; the model file, the presets and `generate_hlp_module` produce it,
and `dump_model` writes it.  `LefschetzModule.L_maps`, the dense `Fraction`
matrices, is a view built on first read that no command reads, kept for the
test oracles and the benchmark.  The Lefschetz structure is computed once
per module, on first use, and kept on it: each power of L is one
`apply_columns` from the power before, and each map is reduced once.  Each
Ker L_p is one `reduce_columns`, the columns of V at the zero columns of R;
each primitive subspace PH^d = Ker L^{n-d+1} below the middle degree is one
more, and PH^n is Ker L_n.  The star images L^{n-d} beta of the PH^d basis
vectors come from the same powers, and hard Lefschetz is read off them:
L^k: H^{n-k} -> H^{n+k} is an isomorphism iff the dims agree and the star
images of the PH^{n-k} basis are independent, because Ker L^k lies inside
Ker L^{k+1} = PH^{n-k}.  That is one reduction with no V per k = 1..n.
`lefschetz_columns` returns those integer bases.  The S-type verifiers read
nothing else, and `lefschetz_decompose_class` solves on them too.  The
arithmetic is exact: `int` on the columns, `Fraction` only where a result
is divided by a denominator.  No dense subspace is built here; the tests
keep dense kernels of the powers of L, and the reconstruction
sum_i L^i beta_i, as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .linalg import Matrix, SparseColumn, apply_columns, from_integer_columns, reduce_columns


class HardLefschetzError(ValueError):
    """An operation that needs the hard Lefschetz property was called without it."""


@dataclass(frozen=True)
class LefschetzModule:
    """L_p: H^p -> H^{p+2} is `L[p]` / `den`: dims[p] sparse integer columns,
    with row indices below dims[p+2] (no rows at p > 2n - 2) and nonzero
    int entries.  `den` is the least such denominator, so equal modules
    compare equal."""

    n: int
    dims: tuple[int, ...]
    L: tuple[list[SparseColumn], ...] = field(hash=False)  # lists do not hash
    den: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if len(self.dims) != 2 * self.n + 1:
            raise ValueError("dims must have length 2n+1")
        if any(d < 0 for d in self.dims):
            raise ValueError("dims must be non-negative")
        if len(self.L) != 2 * self.n + 1:
            raise ValueError("one list of L columns per degree 0..2n is required")
        for p, cols in enumerate(self.L):
            if len(cols) != self.dims[p]:
                raise ValueError(f"L at degree {p} has {len(cols)} columns, not dims[{p}] = {self.dims[p]}")
            rows = self.dim_at(p + 2)
            for col in cols:
                for i, x in col.items():
                    if type(i) is not int or not 0 <= i < rows:
                        raise ValueError(f"L at degree {p} has row index {i!r}, not below {rows}")
                    if type(x) is not int or not x:
                        raise ValueError(f"L at degree {p} has entry {x!r}, not a nonzero int")
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"den must be a positive int, not {self.den!r}")
        g = gcd(self.den, *(x for cols in self.L for col in cols for x in col.values()))
        if g != 1:
            raise ValueError(f"den {self.den} is not the least: {g} divides it and every entry of L")

    def dim_at(self, p: int) -> int:
        if 0 <= p <= 2 * self.n:
            return self.dims[p]
        return 0

    # Each of these is computed on first use and kept: the module is
    # immutable, and every query on it reads them.

    @cached_property
    def L_maps(self) -> tuple[Matrix, ...]:
        """Each L_p as a dense `Fraction` matrix, dims[p+2] x dims[p]."""
        return tuple(
            from_integer_columns(cols, self.dim_at(p + 2), self.den) for p, cols in enumerate(self.L)
        )

    @cached_property
    def _structure(self) -> tuple[LefschetzReport, LefschetzColumns]:
        return _compute_structure(self)


@dataclass(frozen=True)
class LefschetzReport:
    hlp: bool
    failing_degree: int | None
    primitive_dims: tuple[int, ...]
    kernel_L_dims: tuple[int, ...]


@dataclass(frozen=True)
class LefschetzColumns:
    """Integer bases of the Lefschetz data, per degree p = 0..2n.

    `primitive[p]` is a basis of PH^p (empty above the middle degree) and
    `kernel[p]` one of Ker(L: H^p -> H^{p+2}).  `star[p][t]` is
    L^{n-p} primitive[p][t] times e^{n-p}, where e is the common denominator
    `LefschetzModule.den` of the L columns.  On a primitive class the model
    star is L^{n-p}, so each `star[p][t]` is a positive multiple of the star
    of `primitive[p][t]`.  Every vector is a sparse integer column.
    """

    primitive: tuple[list[SparseColumn], ...]
    kernel: tuple[list[SparseColumn], ...]
    star: tuple[list[SparseColumn], ...]


def _kernel(cols: list[SparseColumn]) -> list[SparseColumn]:
    """A basis of the kernel of the integer matrix with columns `cols`."""
    R, V, _ = reduce_columns(cols)
    return [v for r, v in zip(R, V) if not r]


def _compute_structure(module: LefschetzModule) -> tuple[LefschetzReport, LefschetzColumns]:
    n, dims, L = module.n, module.dims, module.L
    kernel = tuple(_kernel(cols) for cols in L)
    # powers[d][m] = e^m L^m: H^d -> H^{d+2m} for d <= n, each one
    # `apply_columns` from the one before: m <= n - d + 1 below the middle
    # degree, and m = 0 at d = n, where L^1 would be L_n itself.
    powers = []
    for d in range(n + 1):
        table = [[{j: 1} for j in range(dims[d])]]
        for m in range(n - d + (d < n)):
            table.append([apply_columns(L[d + 2 * m], col) for col in table[-1]])
        powers.append(table)
    # PH^p = Ker(L^{n-p+1}: H^p -> H^{2n-p+2}), zero above the middle degree.
    # PH^n is Ker L_n, reduced above, in copies: no two bases share a vector.
    primitive = tuple(
        _kernel(powers[p][n - p + 1]) if p < n else [dict(v) for v in kernel[n]] if p == n else []
        for p in range(2 * n + 1)
    )
    star = tuple(
        [apply_columns(powers[p][n - p], beta) for beta in primitive[p]] if p <= n else []
        for p in range(2 * n + 1)
    )
    # L^k: H^{n-k} -> H^{n+k} is an isomorphism iff the dims agree and it is
    # injective.  On H^{n-k}, Ker L^k lies inside Ker L^{k+1}, which is
    # PH^{n-k}, so Ker L^k is the kernel of L^k on PH^{n-k}: L^k is injective
    # iff the star images of the PH^{n-k} basis are independent.  L^0 is the
    # identity and is not checked.
    failing = None
    for k in range(1, n + 1):
        if dims[n + k] != dims[n - k] or not all(reduce_columns(star[n - k], with_v=False)[0]):
            failing = k
            break
    report = LefschetzReport(
        failing is None,
        failing,
        tuple(map(len, primitive)),
        tuple(map(len, kernel)),
    )
    return report, LefschetzColumns(primitive, kernel, star)


def _check_degree(module: LefschetzModule, p: int) -> None:
    if not 0 <= p <= 2 * module.n:
        raise ValueError("degree out of range")


def check_hard_lefschetz(module: LefschetzModule) -> LefschetzReport:
    """hlp iff L^k: H^{n-k} -> H^{n+k} is an isomorphism for every k <= n."""
    return module._structure[0]


def lefschetz_columns(module: LefschetzModule) -> LefschetzColumns:
    """The integer bases of PH^p and Ker L, and the star images of PH^p."""
    return module._structure[1]


def lefschetz_decompose_class(
    module: LefschetzModule, p: int, v: Sequence[Fraction]
) -> list[tuple[int, tuple[Fraction, ...]]]:
    """Unique decomposition v = sum_i L^i beta_i with beta_i primitive.

    Requires the hard Lefschetz property; the returned beta_i are vectors
    in H^{p-2i} and only the nonzero components are listed.  One
    `reduce_columns` runs over the pieces e^i L^i beta_t, for each beta_t
    in the integer basis of PH^{p-2i} with i <= n - (p-2i), and then D v,
    where e is `module.den` and D the lcm of the denominators of v.  Under
    hard Lefschetz the pieces are a basis of H^p, so D v reduces to zero,
    and its column w of V gives beta_i = sum_t w_t e^i beta_t / (-w_last D).
    """
    if not check_hard_lefschetz(module).hlp:
        raise HardLefschetzError("module does not satisfy hard Lefschetz")
    _check_degree(module, p)
    if len(v) != module.dims[p]:
        raise ValueError("vector length does not match dim H^p")
    n = module.n
    L, e = module.L, module.den
    primitive = lefschetz_columns(module).primitive
    blocks = []  # (i, index of the first piece of L^i PH^{p-2i})
    cols: list[SparseColumn] = []
    for i in range(p // 2 + 1):
        d = p - 2 * i
        if i > n - d:  # d > n, or L^i kills PH^d
            continue
        blocks.append((i, len(cols)))
        for beta in primitive[d]:
            for m in range(i):
                beta = apply_columns(L[d + 2 * m], beta)
            cols.append(beta)
    den = lcm(*(x.denominator for x in v))
    cols.append({j: (x * den).numerator for j, x in enumerate(v) if x})
    w = reduce_columns(cols)[1][-1]
    scale = -w[len(cols) - 1] * den
    out = []
    for i, start in blocks:
        basis = primitive[p - 2 * i]
        beta = apply_columns(basis, {t: w.get(start + t, 0) for t in range(len(basis))})
        if beta:
            dim = module.dims[p - 2 * i]
            out.append((i, tuple(Fraction(beta.get(j, 0) * e**i, scale) for j in range(dim))))
    return out


def _free_hlp_data(n: int, primitive_dims: Sequence[int]):
    """Dims and L columns of the free module generated by the primitive blocks.

    Degree-r basis: all (j, i, t) with j + 2i = r, 0 <= i <= n - j,
    t < primitive_dims[j]; L shifts i by one and kills i = n - j.
    """
    basis = []
    for r in range(2 * n + 1):
        layer = []
        for j in range(min(r, n) + 1):
            if (r - j) % 2:
                continue
            i = (r - j) // 2
            if i > n - j:
                continue
            for t in range(primitive_dims[j]):
                layer.append((j, i, t))
        layer.sort()
        basis.append(layer)
    l_free = []
    for p in range(2 * n + 1):
        index = {b: r for r, b in enumerate(basis[p + 2])} if p + 2 <= 2 * n else {}
        l_free.append([{index[(j, i + 1, t)]: 1} if i < n - j else {} for j, i, t in basis[p]])
    return tuple(len(layer) for layer in basis), l_free


def _unipotent(rng: random.Random, d: int) -> list[SparseColumn]:
    """The columns of a random integer d x d upper unitriangular matrix, its
    entries above the diagonal drawn row by row from -2..2."""
    cols: list[SparseColumn] = [{j: 1} for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = rng.randint(-2, 2)
            if x:
                cols[j][i] = x
    return cols


def _unipotent_inverse(cols: list[SparseColumn]) -> list[SparseColumn]:
    """The columns of the inverse of an upper unitriangular integer matrix,
    each solved from A b = e_j by back-substitution: b_k is what is left of
    the right-hand side at row k, and b_k times column k of A comes off it."""
    inv = []
    for j in range(len(cols)):
        rest = {j: 1}
        b = {}
        for k in range(j, -1, -1):
            x = rest.pop(k, 0)
            if x:
                b[k] = x
                for i, y in cols[k].items():
                    if i != k:
                        rest[i] = rest.get(i, 0) - x * y
        inv.append(b)
    return inv


def generate_hlp_module(seed: int, n: int, primitive_dims: Sequence[int]) -> LefschetzModule:
    """Seeded hard-Lefschetz module with the given primitive dimensions.

    The free module over the primitive blocks is conjugated by a random
    unipotent graded automorphism A so L is not trivially block-structured:
    L_p = A_{p+2} L_free_p A_p^{-1}, column by column.  Both A and its
    inverse are integer matrices, so the module's denominator is 1.
    """
    primitive_dims = tuple(primitive_dims)
    if len(primitive_dims) != n + 1:
        raise ValueError("primitive_dims must have length n+1")
    if primitive_dims and primitive_dims[0] < 1:
        raise ValueError("primitive_dims[0] must be at least 1")
    dims, l_free = _free_hlp_data(n, primitive_dims)
    rng = random.Random(seed)
    autos = [_unipotent(rng, d) for d in dims]
    L = []
    for p in range(2 * n + 1):
        if p + 2 <= 2 * n:
            images = (apply_columns(l_free[p], w) for w in _unipotent_inverse(autos[p]))
            L.append([dict(sorted(apply_columns(autos[p + 2], v).items())) for v in images])
        else:
            L.append(l_free[p])
    return LefschetzModule(n, dims, tuple(L))


def zero_l_block(module: LefschetzModule, p: int) -> LefschetzModule:
    """Copy of the module with L zeroed out at degree p (non-HLP generator)."""
    L = list(module.L)
    L[p] = [{} for _ in L[p]]
    g = gcd(module.den, *(x for cols in L for col in cols for x in col.values()))
    if g != 1:
        L = [[{i: x // g for i, x in col.items()} for col in cols] for cols in L]
    return LefschetzModule(module.n, module.dims, tuple(L), module.den // g)
