"""Finite graded models of basic cohomology with the Lefschetz operator.

A module holds the dimensions of the graded pieces H^0..H^{2n} and, per
degree, the matrix of cup product with the transverse symplectic class.
The hard Lefschetz property, primitive subspaces, Ker(L), and the
class-level Lefschetz decomposition are all plain rank computations here.
They are computed once per module, on first use, and kept on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg import (
    Matrix,
    Subspace,
    inverse,
    kernel_basis,
    rank,
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

    @cached_property
    def _structure(self) -> _Structure:
        # Computed on first use and kept: the module is immutable, and every
        # Lefschetz query on it reads this one structure.
        return _compute_structure(self)


@dataclass(frozen=True)
class LefschetzReport:
    hlp: bool
    failing_degree: int | None
    primitive_dims: tuple[int, ...]
    kernel_L_dims: tuple[int, ...]


@dataclass(frozen=True)
class _Structure:
    """The Lefschetz data of one module, indexed by degree p = 0..2n.

    `blocks[p]` and `systems[p]` are what `lefschetz_blocks` returns;
    `to_pieces[p]` is B_p^{-1}, or None when B_p is not invertible, which
    happens only without hard Lefschetz.
    """

    report: LefschetzReport
    primitive: tuple[Subspace, ...]
    kernel: tuple[Subspace, ...]
    blocks: tuple[tuple[tuple[int, Subspace], ...], ...]
    systems: tuple[Matrix, ...]
    to_pieces: tuple[Matrix | None, ...]


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


def _compute_structure(module: LefschetzModule) -> _Structure:
    n = module.n
    degrees = range(2 * n + 1)
    failing = None
    for k in range(n + 1):
        m = l_power(module, n - k, k)
        if m.rows != m.cols or rank(m) != m.rows:
            failing = k
            break
    # PH^p = Ker(L^{n-p+1}: H^p -> H^{2n-p+2}), zero above the middle degree.
    primitive = tuple(
        kernel_basis(l_power(module, p, n - p + 1)) if p <= n else Subspace.zero(module.dims[p])
        for p in degrees
    )
    kernel = tuple(kernel_basis(module.L_maps[p]) for p in degrees)
    blocks, systems, to_pieces = [], [], []
    for p in degrees:
        pieces: list[tuple[int, Subspace]] = []
        cols: list[tuple[Fraction, ...]] = []
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
    return _Structure(report, primitive, kernel, tuple(blocks), tuple(systems), tuple(to_pieces))


def _check_degree(module: LefschetzModule, p: int) -> None:
    if not 0 <= p <= 2 * module.n:
        raise ValueError("degree out of range")


def check_hard_lefschetz(module: LefschetzModule) -> LefschetzReport:
    """hlp iff L^k: H^{n-k} -> H^{n+k} is an isomorphism for every k <= n."""
    return module._structure.report


def primitive_subspace(module: LefschetzModule, p: int) -> Subspace:
    """Ker(L^{n-p+1}: H^p -> H^{2n-p+2}); zero above the middle degree."""
    _check_degree(module, p)
    return module._structure.primitive[p]


def kernel_L(module: LefschetzModule, p: int) -> Subspace:
    _check_degree(module, p)
    return module._structure.kernel[p]


def lefschetz_blocks(
    module: LefschetzModule, p: int
) -> tuple[list[tuple[int, Subspace]], Matrix]:
    """The Lefschetz pieces of H^p and the matrix B_p of their images.

    Blocks are (i, primitive subspace of H^{p-2i}) for each i with L^i
    nonzero on that subspace; the columns of B_p are L^i beta over each
    block's basis in turn.  Under hard Lefschetz H^p is the direct sum of
    the pieces L^i PH^{p-2i}, so B_p is square and invertible.
    """
    _check_degree(module, p)
    structure = module._structure
    return list(structure.blocks[p]), structure.systems[p]


def lefschetz_decompose_class(
    module: LefschetzModule, p: int, v: Sequence[Fraction]
) -> list[tuple[int, tuple[Fraction, ...]]]:
    """Unique decomposition v = sum_i L^i beta_i with beta_i primitive.

    Requires the hard Lefschetz property; the returned beta_i are vectors
    in H^{p-2i} and only the nonzero components are listed.  The coordinates
    of v on the pieces are B_p^{-1} v.
    """
    if not check_hard_lefschetz(module).hlp:
        raise HardLefschetzError("module does not satisfy hard Lefschetz")
    _check_degree(module, p)
    if len(v) != module.dims[p]:
        raise ValueError("vector length does not match dim H^p")
    structure = module._structure
    coords = structure.to_pieces[p].apply(v)
    out = []
    pos = 0
    for i, prim in structure.blocks[p]:
        coeffs = coords[pos : pos + prim.dim]
        pos += prim.dim
        if any(coeffs):
            out.append((i, prim.basis.apply(coeffs)))
    return out


def star_matrix(module: LefschetzModule, p: int) -> Matrix:
    """Model star H^p -> H^{2n-p}: sum_i L^i beta_i maps to sum_i L^{n-p+i} beta_i.

    One product, [L^{n-p+i} beta columns] @ B_p^{-1}.  Needs the hard
    Lefschetz property; the caller checks it once for the whole module.
    """
    _check_degree(module, p)
    n = module.n
    structure = module._structure
    to_pieces = structure.to_pieces[p]
    if to_pieces is None:
        raise HardLefschetzError(f"H^{p} is not the sum of its Lefschetz pieces")
    cols: list[tuple[Fraction, ...]] = []
    for i, prim in structure.blocks[p]:
        cols += (l_power(module, p - 2 * i, n - p + i) @ prim.basis).columns()
    return Matrix.from_cols(cols, rows=module.dims[2 * n - p]) @ to_pieces


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
