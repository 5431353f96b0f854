"""Definitions of Lambda and of the primitive decomposition, kept as references for tests.

Here Lambda is the conjugate *_s L *_s of L by the symplectic star, the
primitive forms of a degree are a kernel basis of its matrix, and a form is
decomposed by solving the reconstruction system sum_i L^i beta_i = a over
those bases.  None of this shares code with the pair contraction and the sl2
recursion that `specseq.exterior` uses.  The volume form and the metric
inner product of forms, which only the tests read, are here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from specseq.exterior import (
    Coeff,
    ModelFrame,
    Multivector,
    _check_frames,
    _require_transverse,
    lefschetz_L,
    monomials,
    symplectic_star,
)
from specseq.linalg import DimensionMismatch, Matrix, kernel_basis, rref

_ZERO = Fraction(0)
_ONE = Fraction(1)


def transverse_volume(frame: ModelFrame) -> Multivector:
    """omega^n / n! = e^1 ^ ... ^ e^{2n}."""
    return Multivector.make(frame, 2 * frame.n, {tuple(range(frame.transverse_dim)): _ONE})


def form_inner_product(a: Multivector, b: Multivector) -> Coeff:
    """Metric inner product of forms; the monomial basis is orthonormal."""
    _check_frames(a, b)
    if a.degree != b.degree:
        return 0
    d = dict(b.terms)
    return sum((c * d.get(idx, 0) for idx, c in a.terms), 0)


def lambda_op(a: Multivector) -> Multivector:
    """Lambda = *s L *s, the degree -2 dual of L."""
    _require_transverse(a)
    if a.degree < 2:
        return Multivector.zero(a.frame, a.degree - 2)
    return symplectic_star(lefschetz_L(symplectic_star(a)))


def _vector_of(a: Multivector, monos: Sequence[tuple[int, ...]]) -> tuple[Fraction, ...]:
    d = dict(a.terms)
    return tuple(d.get(m, _ZERO) for m in monos)


def _from_vector(frame: ModelFrame, degree: int, monos, vec) -> Multivector:
    return Multivector.make(frame, degree, {m: c for m, c in zip(monos, vec) if c})


def operator_matrix(frame: ModelFrame, op, degree: int, out_degree: int) -> Matrix:
    """Matrix of a linear operator on transverse forms, monomial bases."""
    src = monomials(frame, degree)
    dst = monomials(frame, out_degree)
    cols = []
    for m in src:
        img = op(Multivector.make(frame, degree, {m: _ONE}))
        cols.append(_vector_of(img, dst))
    if not cols:
        return Matrix.zero(len(dst), 0)
    return Matrix.from_cols(cols, rows=len(dst))


def primitive_monomial_basis(frame: ModelFrame, degree: int) -> list[Multivector]:
    """Basis of the primitive forms (ker Lambda) of the given degree."""
    monos = monomials(frame, degree)
    if not monos:
        return []
    lam = operator_matrix(frame, lambda_op, degree, degree - 2)
    ker = kernel_basis(lam)
    return [_from_vector(frame, degree, monos, col) for col in ker.basis.columns()]


def solve(a: Matrix, b: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of a x = b (free variables set to zero), or None."""
    if len(b) != a.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    aug = Matrix.from_rows([r + (b[i],) for i, r in enumerate(a.entries)], cols=a.cols + 1)
    reduced, pivots, _ = rref(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entries[r][a.cols]
    return tuple(x)


def primitive_decompose(a: Multivector) -> list[tuple[int, Multivector]]:
    """Write a homogeneous form as sum_i L^i beta_i with beta_i primitive.

    The components are found by solving the reconstruction system directly;
    uniqueness of the decomposition makes the system uniquely solvable.
    """
    _require_transverse(a)
    frame = a.frame
    r = a.degree
    monos_r = monomials(frame, r)
    if not monos_r:
        return []
    blocks: list[tuple[int, list[Multivector]]] = []
    cols = []
    for i in range(r // 2 + 1):
        d = r - 2 * i
        if d > frame.n:
            continue
        prim = primitive_monomial_basis(frame, d)
        if not prim:
            continue
        blocks.append((i, prim))
        for beta in prim:
            img = beta
            for _ in range(i):
                img = lefschetz_L(img)
            cols.append(_vector_of(img, monos_r))
    if not cols:
        if a.is_zero():
            return []
        raise ValueError("no primitive components available; inconsistent input")
    system = Matrix.from_cols(cols, rows=len(monos_r))
    sol = solve(system, _vector_of(a, monos_r))
    if sol is None:
        raise ValueError("primitive decomposition system is inconsistent")
    out = []
    pos = 0
    for i, prim in blocks:
        beta = Multivector.zero(frame, r - 2 * i)
        for basis_vec in prim:
            c = sol[pos]
            pos += 1
            if c:
                beta = beta + basis_vec.scaled(c)
        if not beta.is_zero():
            out.append((i, beta))
    return out
