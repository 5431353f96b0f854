"""Formal model of the invariant-forms complex.

The complex is H_b (x) Lambda<eta_1..eta_s>, where H_b is a finite graded
Lefschetz module standing in for basic cohomology.  The differential is the
unique derivation with d(eta_i) = lambda_i * omega and d = 0 on H_b, etas
written to the left of basic classes:

    d(eta_I (x) h) = sum_m (-1)^(m-1) lambda_{i_m} eta_{I minus i_m} (x) L h.

The filtration by basic degree (F^p = span of terms with deg h >= p) is
what the spectral-sequence engine consumes.

The working form of each d_k is sparse integer columns, scaled by one
common denominator (`InvariantComplex.integer_d`): `build_model` scatters
the entries straight into it, and the engine, direct cohomology and the
star-duality check read it.  `InvariantComplex.differentials` holds the
same maps as dense `Fraction` matrices, a view for callers.  Each layer of
the basis is listed in descending basic degree, so the engine's reduction
of each d_k is in basis order and direct cohomology can share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .lefschetz import LefschetzModule
from .linalg import (
    ContainmentError,
    DimensionMismatch,
    Matrix,
    Reduction,
    SparseColumn,
    apply_columns,
    integer_columns,
    reduce_columns,
)

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
        """Position of `element` in the basis of C^k."""
        position = self._positions[k].get(element) if 0 <= k <= self.max_degree else None
        if position is None:
            raise ValueError(f"{element!r} is not a basis element in degree {k}")
        return position

    @cached_property
    def _positions(self) -> tuple[dict[BasisElement, int], ...]:
        return tuple({b: i for i, b in enumerate(layer)} for layer in self.basis)

    @cached_property
    def integer_d(self) -> tuple[list[SparseColumn], ...]:
        """Each d_k as sparse integer columns, equal to `linalg.integer_columns(d_k)`.

        `build_model` sets them as it builds the differentials; a complex
        made otherwise converts them on first use.
        """
        return tuple(integer_columns(d) for d in self.differentials)

    def is_s_type(self) -> bool:
        return all(lam == 1 for lam in self.lambdas)

    def is_c_type(self) -> bool:
        return all(lam == 0 for lam in self.lambdas)


def build_model(base: LefschetzModule, s: int, lambdas: Sequence) -> InvariantComplex:
    """The complex H_b (x) Lambda<eta_1..eta_s> with d(eta_i) = lambda_i * omega.

    Each d_k is scattered straight into sparse integer columns: its entries
    are the products +-lambda_i times an entry of L, and every column is
    scaled by the common denominator of all the entries of d_k, so the
    columns equal `linalg.integer_columns(d_k)`, rows in ascending order.
    The dense `differentials` are built from the same entries, and the
    complex keeps the columns and the position of every basis element.
    """
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
    # Per degree p, the nonzero entries (u, v) of each column of L: H^p -> H^{p+2}.
    l_cols = [[[(u, v) for u, v in enumerate(col) if v] for col in m.columns()] for m in base.L_maps]
    diffs: list[Matrix] = []
    integer_d: list[list[SparseColumn]] = []
    for k in range(max_deg + 1):
        target = index[k + 1] if k < max_deg else {}
        entries: list[list[tuple[int, Fraction]]] = []
        for subset, p, t in basis[k]:
            col: list[tuple[int, Fraction]] = []
            if k < max_deg and p + 2 <= 2 * n:
                for m, i in enumerate(subset):
                    lam = lambdas[i - 1]
                    if not lam:
                        continue
                    coef = -lam if m % 2 else lam
                    rest = subset[:m] + subset[m + 1 :]
                    col += [(target[(rest, p + 2, u)], coef * v) for u, v in l_cols[p][t]]
            # Distinct (m, u) hit distinct rows, so no entry is a sum.
            col.sort()
            entries.append(col)
        den = lcm(*(x.denominator for col in entries for _, x in col))
        integer_d.append([{i: x.numerator * (den // x.denominator) for i, x in col} for col in entries])
        rows = [[_ZERO] * len(entries) for _ in range(len(target))]
        for j, col in enumerate(entries):
            for i, x in col:
                rows[i][j] = x
        diffs.append(Matrix(len(rows), len(entries), tuple(map(tuple, rows))))
    c = InvariantComplex(base, s, lambdas, tuple(basis), tuple(diffs))
    # Fill the two caches with what was built here.
    vars(c).update(integer_d=tuple(integer_d), _positions=tuple(index))
    return c


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


@dataclass(frozen=True)
class CohomologyGroup:
    """H^k = Ker d_k / Im d_{k-1} on a basis of Q^N triangular in the low.

    Every index j of C^k (dimension N) is the lowest nonzero entry of one
    basis vector: a reduced column of d_{k-1} when j is one of its lows, the
    column V_j of the reduction of d_k when j is an essential index, and e_j
    when column j of the reduced d_k is nonzero.  The first two kinds span
    Ker d_k, and the essential ones give the classes.  `steps` lists, by
    descending j, the vectors that are not e_j as (j, lead, rest, slot): the
    integer entry at j, the other entries, and the class index, or -1 for a
    boundary.
    """

    ambient_dim: int
    dim: int
    steps: tuple[tuple[int, int, tuple[tuple[int, int], ...], int], ...]

    @property
    def section(self) -> Matrix:
        """Representative cocycles of the classes, as the columns of a matrix."""
        cols = [[_ZERO] * self.ambient_dim for _ in range(self.dim)]
        for j, lead, rest, slot in self.steps:
            if slot >= 0:
                cols[slot][j] = Fraction(lead)
                for i, x in rest:
                    cols[slot][i] = Fraction(x)
        return Matrix.from_cols(cols, rows=self.ambient_dim) if cols else Matrix.zero(
            self.ambient_dim, 0
        )

    def project(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of v at the classes, by back-substitution over the basis.

        It kills Im d_{k-1} and is the identity on the section's columns.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match the chain dimension")
        v = [x if isinstance(x, Fraction) else Fraction(x) for x in v]
        out = [_ZERO] * self.dim
        for j, lead, rest, slot in self.steps:
            if not v[j]:
                continue
            c = v[j] / lead
            for i, x in rest:
                v[i] -= c * x
            if slot >= 0:
                out[slot] = c
        return tuple(out)


def cohomology(
    c: InvariantComplex, reductions: Sequence[Reduction] | None = None
) -> list[CohomologyGroup]:
    """Per degree k, H^k from one exact column reduction of each d_k.

    Reducing d_k (`linalg.reduce_columns`) serves two degrees: its zero
    columns give Ker d_k for H^k, and its nonzero columns give Im d_k, with
    distinct lows, for H^{k+1}.  Each reduced column of d_{k-1} must be
    killed by d_k and have its low at a zero column of the reduced d_k;
    otherwise `ContainmentError` names k.  `.dim` is the Betti number,
    `.project` maps cocycles to their classes and the columns of `.section`
    are representative cocycles.

    `reductions` are those of `c.integer_d` in basis order, when the caller
    has them: `filtered_complex(c).basis_reductions()`, which checks that
    order.  Without them each d_k is reduced here.
    """
    cols = c.integer_d
    if reductions is None:
        reductions = [reduce_columns(d) for d in cols]
    elif [len(R) for R, _, _ in reductions] != [c.dim(k) for k in range(c.max_degree + 1)]:
        raise DimensionMismatch("the reductions do not match the chain dimensions")
    out = []
    for k, (R, V, _) in enumerate(reductions):
        boundaries: dict[int, SparseColumn] = {}
        if k:
            R_prev, _, lows_prev = reductions[k - 1]
            for low, j in lows_prev.items():
                if R[low] or apply_columns(cols[k], R_prev[j]):
                    raise ContainmentError(f"Im d_{k - 1} is not inside Ker d_{k} in degree {k}")
                boundaries[low] = R_prev[j]
        essential = [j for j in range(c.dim(k)) if not R[j] and j not in boundaries]
        slot = {j: t for t, j in enumerate(essential)}
        steps = []
        for j in range(c.dim(k) - 1, -1, -1):
            if R[j]:
                continue
            vec = boundaries[j] if j in boundaries else V[j]
            rest = tuple((i, x) for i, x in vec.items() if i != j)
            steps.append((j, vec[j], rest, slot.get(j, -1)))
        out.append(CohomologyGroup(c.dim(k), len(essential), tuple(steps)))
    return out


def betti_numbers(c: InvariantComplex) -> tuple[int, ...]:
    return tuple(q.dim for q in cohomology(c))


def filtered_complex(c: InvariantComplex):
    """The complex with its basic-degree filtration, engine-ready.

    The basis is adapted: each eta_I (x) h sits in filtration degree deg h.
    The engine reads the complex's integer columns, `c.integer_d`, with no
    conversion of its own.
    """
    from .engine import FilteredComplex

    degrees = tuple(tuple(p for _, p, _ in layer) for layer in c.basis)
    return FilteredComplex(c.differentials, degrees, 2 * c.base.n, integer_d=c.integer_d)
