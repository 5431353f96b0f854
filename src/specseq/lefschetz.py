"""Finite graded models of basic cohomology with the Lefschetz operator.

A module holds the dimensions of the graded pieces H^0..H^{2n} and, per
degree, the matrix of cup product with the transverse symplectic class.
The hard Lefschetz property, primitive subspaces, Ker(L), and the
class-level Lefschetz decomposition are all plain rank computations here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    Matrix,
    Subspace,
    inverse,
    kernel_basis,
    rank,
    solve,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class HardLefschetzError(ValueError):
    """An operation that needs the hard Lefschetz property was called without it."""


@dataclass(frozen=True)
class LefschetzModule:
    n: int
    dims: tuple[int, ...]
    L_maps: tuple[Matrix, ...]  # L_maps[p]: H^p -> H^{p+2}
    labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if len(self.dims) != 2 * self.n + 1:
            raise ValueError("dims must have length 2n+1")
        if any(d < 0 for d in self.dims):
            raise ValueError("dims must be non-negative")
        if len(self.L_maps) != 2 * self.n + 1:
            raise ValueError("one L matrix per degree 0..2n is required")
        for p, m in enumerate(self.L_maps):
            target = self.dims[p + 2] if p + 2 <= 2 * self.n else 0
            if m.cols != self.dims[p] or m.rows != target:
                raise ValueError(f"L matrix at degree {p} has shape {m.rows}x{m.cols}")
        if self.labels is not None:
            if len(self.labels) != len(self.dims) or any(
                len(ls) != d for ls, d in zip(self.labels, self.dims)
            ):
                raise ValueError("labels do not match dims")

    def dim_at(self, p: int) -> int:
        if 0 <= p <= 2 * self.n:
            return self.dims[p]
        return 0


@dataclass(frozen=True)
class LefschetzReport:
    hlp: bool
    failing_degree: int | None
    primitive_dims: tuple[int, ...]
    kernel_L_dims: tuple[int, ...]


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


def check_hard_lefschetz(module: LefschetzModule) -> LefschetzReport:
    """hlp iff L^k: H^{n-k} -> H^{n+k} is an isomorphism for every k <= n."""
    n = module.n
    failing = None
    for k in range(n + 1):
        m = l_power(module, n - k, k)
        if m.rows != m.cols or rank(m) != m.rows:
            failing = k
            break
    prim = tuple(primitive_subspace(module, p).dim for p in range(2 * n + 1))
    kerl = tuple(kernel_L(module, p).dim for p in range(2 * n + 1))
    return LefschetzReport(failing is None, failing, prim, kerl)


def primitive_subspace(module: LefschetzModule, p: int) -> Subspace:
    """Ker(L^{n-p+1}: H^p -> H^{2n-p+2}); zero above the middle degree."""
    if not 0 <= p <= 2 * module.n:
        raise ValueError("degree out of range")
    power = module.n - p + 1
    if power <= 0:
        return Subspace.zero(module.dims[p])
    return kernel_basis(l_power(module, p, power))


def kernel_L(module: LefschetzModule, p: int) -> Subspace:
    if not 0 <= p <= 2 * module.n:
        raise ValueError("degree out of range")
    return kernel_basis(module.L_maps[p])


def lefschetz_blocks(
    module: LefschetzModule, p: int
) -> tuple[list[tuple[int, Subspace]], Matrix]:
    """The Lefschetz pieces of H^p and the matrix B_p of their images.

    Blocks are (i, primitive subspace of H^{p-2i}) for each i with L^i
    nonzero on that subspace; the columns of B_p are L^i beta over each
    block's basis in turn.  Under hard Lefschetz H^p is the direct sum of
    the pieces L^i PH^{p-2i}, so B_p is square and invertible.
    """
    blocks: list[tuple[int, Subspace]] = []
    cols: list[tuple[Fraction, ...]] = []
    for i in range(p // 2 + 1):
        d = p - 2 * i
        if d > module.n:
            continue
        prim = primitive_subspace(module, d)
        images = (l_power(module, d, i) @ prim.basis).columns()
        if any(any(col) for col in images):
            blocks.append((i, prim))
            cols += images
    return blocks, Matrix.from_cols(cols, rows=module.dim_at(p))


def lefschetz_decompose_class(
    module: LefschetzModule, p: int, v: Sequence[Fraction]
) -> list[tuple[int, tuple[Fraction, ...]]]:
    """Unique decomposition v = sum_i L^i beta_i with beta_i primitive.

    Requires the hard Lefschetz property; the returned beta_i are vectors
    in H^{p-2i} and only the nonzero components are listed.
    """
    if not check_hard_lefschetz(module).hlp:
        raise HardLefschetzError("module does not satisfy hard Lefschetz")
    if len(v) != module.dim_at(p):
        raise ValueError("vector length does not match dim H^p")
    blocks, system = lefschetz_blocks(module, p)
    sol = solve(system, v)
    if sol is None:
        raise HardLefschetzError("decomposition system inconsistent")
    out = []
    pos = 0
    for i, prim in blocks:
        coeffs = sol[pos : pos + prim.dim]
        pos += prim.dim
        if any(coeffs):
            out.append((i, prim.basis.apply(coeffs)))
    return out


def star_matrix(module: LefschetzModule, p: int) -> Matrix:
    """Model star H^p -> H^{2n-p}: sum_i L^i beta_i maps to sum_i L^{n-p+i} beta_i.

    One product, [L^{n-p+i} beta columns] @ B_p^{-1}.  Needs the hard
    Lefschetz property; the caller checks it once for the whole module.
    """
    n = module.n
    blocks, system = lefschetz_blocks(module, p)
    try:
        to_pieces = inverse(system)
    except ValueError:
        raise HardLefschetzError(f"H^{p} is not the sum of its Lefschetz pieces") from None
    cols: list[tuple[Fraction, ...]] = []
    for i, prim in blocks:
        cols += (l_power(module, p - 2 * i, n - p + i) @ prim.basis).columns()
    return Matrix.from_cols(cols, rows=module.dim_at(2 * n - p)) @ to_pieces


def reconstruct_class(
    module: LefschetzModule, p: int, components: Sequence[tuple[int, Sequence[Fraction]]]
) -> tuple[Fraction, ...]:
    """Inverse of lefschetz_decompose_class: sum_i L^i beta_i in H^p."""
    acc = [_ZERO] * module.dim_at(p)
    for i, beta in components:
        img = l_power(module, p - 2 * i, i).apply(tuple(Fraction(x) for x in beta))
        acc = [x + y for x, y in zip(acc, img)]
    return tuple(acc)


def check_top_degree(module: LefschetzModule) -> bool:
    """Homological-orientability shadow: the top graded piece is a line."""
    return module.dims[2 * module.n] == 1


def _free_hlp_data(n: int, primitive_dims: Sequence[int]):
    """Basis and L of the free module generated by the primitive blocks.

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
    l_maps = []
    for p in range(2 * n + 1):
        target = basis[p + 2] if p + 2 <= 2 * n else []
        index = {b: r for r, b in enumerate(target)}
        rows = [[_ZERO] * len(basis[p]) for _ in range(len(target))]
        for c, (j, i, t) in enumerate(basis[p]):
            if i + 1 <= n - j:
                rows[index[(j, i + 1, t)]][c] = _ONE
        l_maps.append(Matrix(len(target), len(basis[p]), tuple(tuple(r) for r in rows)))
    dims = tuple(len(layer) for layer in basis)
    return dims, tuple(l_maps)


def _unipotent(rng: random.Random, d: int) -> Matrix:
    rows = [
        [
            _ONE if i == j else (Fraction(rng.randint(-2, 2)) if j > i else _ZERO)
            for j in range(d)
        ]
        for i in range(d)
    ]
    return Matrix(d, d, tuple(tuple(r) for r in rows))


def generate_hlp_module(seed: int, n: int, primitive_dims: Sequence[int]) -> LefschetzModule:
    """Seeded hard-Lefschetz module with the given primitive dimensions.

    The free module over the primitive blocks is conjugated by a random
    unipotent graded automorphism so L is not trivially block-structured.
    """
    primitive_dims = tuple(primitive_dims)
    if len(primitive_dims) != n + 1:
        raise ValueError("primitive_dims must have length n+1")
    if primitive_dims and primitive_dims[0] < 1:
        raise ValueError("primitive_dims[0] must be at least 1")
    dims, l_free = _free_hlp_data(n, primitive_dims)
    rng = random.Random(seed)
    autos = [_unipotent(rng, d) for d in dims]
    autos_inv = [inverse(a) for a in autos]
    l_maps = []
    for p in range(2 * n + 1):
        if p + 2 <= 2 * n:
            l_maps.append(autos[p + 2] @ l_free[p] @ autos_inv[p])
        else:
            l_maps.append(l_free[p])
    return LefschetzModule(n, dims, tuple(l_maps))


def zero_l_block(module: LefschetzModule, p: int) -> LefschetzModule:
    """Copy of the module with L zeroed out at degree p (non-HLP generator)."""
    l_maps = list(module.L_maps)
    l_maps[p] = Matrix.zero(l_maps[p].rows, l_maps[p].cols)
    return LefschetzModule(module.n, module.dims, tuple(l_maps), module.labels)
