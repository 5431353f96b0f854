"""Formal model of the invariant-forms complex.

The complex is H_b (x) Lambda<eta_1..eta_s>, where H_b is a finite graded
Lefschetz module standing in for basic cohomology.  The differential is the
unique derivation with d(eta_i) = lambda_i * omega and d = 0 on H_b, etas
written to the left of basic classes:

    d(eta_I (x) h) = sum_m (-1)^(m-1) lambda_{i_m} eta_{I minus i_m} (x) L h.

The filtration by basic degree (F^p = span of terms with deg h >= p) is
what the spectral-sequence engine consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lefschetz import LefschetzModule
from .linalg import Matrix, Quotient, Subspace, image_basis, kernel_basis, quotient

_ZERO = Fraction(0)

# basis element: (I as sorted 1-based tuple, basic degree p, basis index t)
BasisElement = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class InvariantElement:
    total_degree: int
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class InvariantComplex:
    base: LefschetzModule
    s: int
    lambdas: tuple[Fraction, ...]
    basis: tuple[tuple[BasisElement, ...], ...]  # per total degree
    differentials: tuple[Matrix, ...]  # differentials[k]: C^k -> C^{k+1}

    @property
    def max_degree(self) -> int:
        return len(self.basis) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return len(self.basis[k])
        return 0

    def index_of(self, k: int, element: BasisElement) -> int:
        return self.basis[k].index(element)

    def is_s_type(self) -> bool:
        return all(lam == 1 for lam in self.lambdas)

    def is_c_type(self) -> bool:
        return all(lam == 0 for lam in self.lambdas)


def build_model(base: LefschetzModule, s: int, lambdas: Sequence) -> InvariantComplex:
    if s < 1:
        raise ValueError("s must be at least 1; s = 0 has no eta directions")
    lambdas = tuple(Fraction(x) for x in lambdas)
    if len(lambdas) != s:
        raise ValueError("lambdas must have length s")
    n = base.n
    max_deg = 2 * n + s
    basis: list[tuple[BasisElement, ...]] = []
    index: list[dict[BasisElement, int]] = []
    for k in range(max_deg + 1):
        layer: list[BasisElement] = []
        for q in range(min(s, k) + 1):
            p = k - q
            if p > 2 * n:
                continue
            for subset in itertools.combinations(range(1, s + 1), q):
                for t in range(base.dims[p]):
                    layer.append((subset, p, t))
        basis.append(tuple(layer))
        index.append({b: i for i, b in enumerate(layer)})
    diffs: list[Matrix] = []
    for k in range(max_deg + 1):
        tgt = len(basis[k + 1]) if k + 1 <= max_deg else 0
        cols: list[list[Fraction]] = []
        for subset, p, t in basis[k]:
            col = [_ZERO] * tgt
            if k + 1 <= max_deg and p + 2 <= 2 * n:
                lcol = base.L_maps[p].col(t)
                for m, i in enumerate(subset):
                    lam = lambdas[i - 1]
                    if not lam:
                        continue
                    sign = -1 if m % 2 else 1
                    rest = subset[:m] + subset[m + 1 :]
                    for u, v in enumerate(lcol):
                        if v:
                            col[index[k + 1][(rest, p + 2, u)]] += sign * lam * v
            cols.append(col)
        if cols:
            diffs.append(Matrix.from_cols(cols, rows=tgt))
        else:
            diffs.append(Matrix.zero(tgt, 0))
    return InvariantComplex(base, s, lambdas, tuple(basis), tuple(diffs))


def differential(c: InvariantComplex, x: InvariantElement) -> InvariantElement:
    k = x.total_degree
    if len(x.coeffs) != c.dim(k):
        raise ValueError("coefficient vector does not match chain dimension")
    return InvariantElement(k + 1, c.differentials[k].apply(x.coeffs))


def element(c: InvariantComplex, k: int, terms: dict[BasisElement, Fraction]) -> InvariantElement:
    coeffs = [_ZERO] * c.dim(k)
    for b, v in terms.items():
        coeffs[c.index_of(k, b)] += Fraction(v)
    return InvariantElement(k, tuple(coeffs))


def cohomology(c: InvariantComplex) -> list[Quotient]:
    """Per degree k, H^k = Ker d_k / Im d_{k-1} as a `Quotient`.

    `.dim` is the Betti number, `.project` maps cocycles to their classes and
    the columns of `.section` are representative cocycles.
    """
    out = []
    for k in range(c.max_degree + 1):
        closed = kernel_basis(c.differentials[k])
        exact = image_basis(c.differentials[k - 1]) if k else Subspace.zero(c.dim(0))
        out.append(quotient(closed, exact))
    return out


def betti_numbers(c: InvariantComplex) -> tuple[int, ...]:
    return tuple(q.dim for q in cohomology(c))


def filtered_complex(c: InvariantComplex):
    """The complex with its basic-degree filtration, engine-ready.

    The basis is adapted: each eta_I (x) h sits in filtration degree deg h.
    """
    from .engine import FilteredComplex

    degrees = tuple(tuple(p for _, p, _ in layer) for layer in c.basis)
    return FilteredComplex(c.differentials, degrees, 2 * c.base.n)
