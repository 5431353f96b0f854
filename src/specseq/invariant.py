"""Formal model of the invariant-forms complex.

The complex is H_b (x) Lambda<eta_1..eta_s>, where H_b is a finite graded
Lefschetz module standing in for basic cohomology.  The differential is the
unique derivation with d(eta_i) = lambda_i * omega and d = 0 on H_b, etas
written to the left of basic classes:

    d(eta_I (x) h) = sum_m (-1)^(m-1) lambda_{i_m} eta_{I minus i_m} (x) L h.

The filtration by basic degree (F^p = span of terms with deg h >= p) is
what the spectral-sequence engine consumes.

A complex holds each d_k as sparse integer columns and one denominator
(`InvariantComplex.integer_d` and `.denominators`): `build_model` scatters
integer products of the lambda numerators and the integer columns of L
(`LefschetzModule.L`) straight into them, each entry placed by the offset
of its block eta_I (x) H^p in the basis (`InvariantComplex.offsets`, the
one stored layout; element eta_I (x) h_{p,t} sits at its block's offset
plus t).  The complex keeps its analysis, each part built once, on first
read: the engine's filtered complex on those columns (`InvariantComplex.filtered_complex`,
which reduces each d_k once, certifies the reduction, d o d = 0 included,
and keeps the boundaries it clears with), the pages with the stable page
(`.spectral_sequence`), and the S-type harmonic cocycles with the star
images of part A (`.harmonic_chains`), sparse integer vectors placed by the
offsets.  Direct cohomology (`betti_numbers`) is a count of the lows of the
same reductions.  Each layer of the basis is listed in descending basic
degree, as the engine requires, so those reductions are in basis order.
Every verifier reads these, so a model is analysed once, whichever
verifiers run.
`InvariantComplex.differentials`, the same maps as dense `Fraction`
matrices, is the engine's dense view, built on first read; `analyze`
never reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .engine import FilteredComplex, SpectralPage, run_to_convergence
from .exterior import index_subset_sign
from .lefschetz import LefschetzModule, lefschetz_columns
from .linalg import Matrix, SparseColumn

# block of consecutive basis elements: (I, basic degree p)
Block = tuple[tuple[int, ...], int]
# sum_I a_I eta_I with integer a_I, keyed by the 1-based tuples I.
EtaForm = Mapping[tuple[int, ...], int]
# a chain: total degree and sparse integer vector
Chain = tuple[int, SparseColumn]


@dataclass(frozen=True)
class InvariantElement:
    total_degree: int
    coeffs: tuple[int | Fraction, ...]  # exact; whole numbers may be ints


@dataclass(frozen=True)
class InvariantComplex:
    """C^k is the sum of the blocks eta_I (x) H^p with |I| + p = k.  Per k,
    `offsets` maps each block (I, p), in basis order, to the position of
    its first element eta_I (x) h_{p,0}; its dims[p] elements follow in t."""

    base: LefschetzModule
    s: int
    lambdas: tuple[Fraction, ...]
    offsets: tuple[dict[Block, int], ...] = field(hash=False)  # dicts do not hash
    # d_k: C^k -> C^{k+1} is integer_d[k] / denominators[k], as sparse columns.
    integer_d: tuple[list[SparseColumn], ...] = field(hash=False)  # lists do not hash
    denominators: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return len(self.offsets) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return len(self.integer_d[k])
        return 0

    @cached_property
    def filtered_complex(self) -> FilteredComplex:
        """The complex with its basic-degree filtration, engine-ready.

        The basis is adapted: each eta_I (x) h sits in filtration degree
        deg h.  The engine reads `integer_d` with no conversion of its own,
        checks d o d = 0 on it when it certifies its reductions, and builds
        its dense `d` only when read.
        """
        dims = self.base.dims
        degrees = tuple(tuple(p for _, p in layer for _ in range(dims[p])) for layer in self.offsets)
        return FilteredComplex(degrees, 2 * self.base.n, self.integer_d, self.denominators)

    @cached_property
    def spectral_sequence(self) -> tuple[tuple[SpectralPage, ...], int]:
        """Pages E_0..E_{P+2} (E_{P+2} is E_infinity) and the first stable
        page, as `run_to_convergence` gives them for `filtered_complex`."""
        pages, stable_at = run_to_convergence(self.filtered_complex)
        return tuple(pages), stable_at

    @cached_property
    def harmonic_chains(self) -> tuple[tuple[Chain, ...], tuple[Chain, ...], tuple[SparseColumn, ...]]:
        """The S-type harmonic cocycles (all lambda_i = 1, a hard Lefschetz
        base, which their readers check first): part A, the products of the
        differences (eta_1 - eta_i) with the integer basis of each PH^p,
        part B, eta_1 eta_I times that of Ker L, and the star image of each
        part-A chain, aligned with part A.  The star sends eta_I (x) h to
        (-1)^(sign(I, I^c) + (s - |I|) deg h) eta_{I^c} (x) star(h), and a
        primitive beta of degree p to L^{n-p} beta; the bases and images
        are the integer columns of `lefschetz_columns`.  Each chain is a
        positive multiple of one of the rational model, which changes
        neither closedness nor any span.
        """
        n, s = self.base.n, self.s
        columns = lefschetz_columns(self.base)
        part_a: list[Chain] = []
        part_b: list[Chain] = []
        images: list[SparseColumn] = []
        for differences, with_eta_1, complements in _harmonic_eta_forms(s):
            q = len(next(iter(differences)))
            for p in range(2 * n + 1):
                part_b += [_integer_chain(self, with_eta_1, p, kappa) for kappa in columns.kernel[p]]
                sign = (-1) ** ((s - q) * p)
                star_form = {subset: sign * a for subset, a in complements.items()}
                for beta, w in zip(columns.primitive[p], columns.star[p]):
                    part_a.append(_integer_chain(self, differences, p, beta))
                    images.append(_integer_chain(self, star_form, 2 * n - p, w)[1])
        return tuple(part_a), tuple(part_b), tuple(images)

    @property
    def differentials(self) -> tuple[Matrix, ...]:
        """Each d_k: C^k -> C^{k+1} as a dense `Fraction` matrix, the
        engine's view `FilteredComplex.d`; nothing on the `analyze` path
        reads it."""
        return self.filtered_complex.d

    def is_s_type(self) -> bool:
        return all(lam == 1 for lam in self.lambdas)

    def is_c_type(self) -> bool:
        return all(lam == 0 for lam in self.lambdas)


@cache
def _harmonic_eta_forms(s: int) -> tuple[tuple[EtaForm, EtaForm, EtaForm], ...]:
    """Per subset I of {2..s}: prod_{i in I} (eta_1 - eta_i), eta_1 eta_I,
    and the star of the first's eta part, each eta_J sent to
    (-1)^sign(J, J^c) eta_{J^c}, before the factor (-1)^((s - |I|) * deg h).

    With I = (i_0 < ... < i_{q-1}), the product has q + 1 terms: every
    factor gives -eta_i, which is (-1)^q eta_I, or the factor at position m
    gives eta_1, moved to the front past m others, and the rest give -eta_i,
    which is (-1)^(q - 1 + m) eta_1 eta_{I minus i_m}.  The forms depend on
    s alone, so they are built once per s, as read-only mappings.
    """
    out = []
    for q in range(s):
        for subset in itertools.combinations(range(2, s + 1), q):
            differences = {subset: (-1) ** q}
            for m in range(q):
                differences[(1,) + subset[:m] + subset[m + 1 :]] = (-1) ** (q - 1 + m)
            complements = {
                tuple(j for j in range(1, s + 1) if j not in idx): a
                * (-1) ** index_subset_sign(idx)
                for idx, a in differences.items()
            }
            forms = differences, {(1,) + subset: 1}, complements
            out.append(tuple(MappingProxyType(form) for form in forms))
    return tuple(out)


def _integer_chain(c: InvariantComplex, eta_form: EtaForm, p: int, h: SparseColumn) -> Chain:
    """Degree and sparse integer vector of sum_I a_I eta_I (x) h; the
    element eta_I (x) h_{p,t} sits at the offset of its block (I, p) plus t."""
    degree = p + len(next(iter(eta_form)))
    offsets = c.offsets[degree]
    return degree, {
        offsets[(subset, p)] + t: a * x for subset, a in eta_form.items() for t, x in h.items()
    }


def build_model(base: LefschetzModule, s: int, lambdas: Sequence) -> InvariantComplex:
    """The complex H_b (x) Lambda<eta_1..eta_s> with d(eta_i) = lambda_i * omega.

    Each d_k is scattered straight into sparse integer columns, with no
    fractions: its entries are the products +-lambda_i times an entry of L,
    so the integer numerators a_i of the lambda_i over their common
    denominator times the integer columns of L (`base.L`, over their common
    denominator e = `base.den`) give d_k times (the lambda denominator
    times e).  Dividing by the gcd of that scale and every entry leaves d_k
    times the least common denominator of its own entries, with rows in
    ascending order: the columns that the dense d_k gives over that
    denominator.  Each block eta_I (x) H^p starts at a running offset, where
    the one before ends, which places every entry.  The complex keeps the
    columns, their denominators and the offsets; it builds no dense matrix.
    """
    if s < 1:
        raise ValueError("s must be at least 1; s = 0 has no eta directions")
    lambdas = tuple(Fraction(x) for x in lambdas)
    if len(lambdas) != s:
        raise ValueError("lambdas must have length s")
    n = base.n
    max_deg = 2 * n + s
    offsets: list[dict[Block, int]] = []
    for k in range(max_deg + 1):
        starts: dict[Block, int] = {}
        size = 0
        for q in range(min(s, k) + 1):
            p = k - q
            if p > 2 * n or not base.dims[p]:
                continue
            for subset in itertools.combinations(range(1, s + 1), q):
                starts[(subset, p)] = size
                size += base.dims[p]
        offsets.append(starts)
    lam_den = lcm(*(lam.denominator for lam in lambdas))
    lam_num = [lam.numerator * (lam_den // lam.denominator) for lam in lambdas]
    l_cols, l_den = base.L, base.den
    scale = lam_den * l_den
    integer_d: list[list[SparseColumn]] = []
    denominators: list[int] = []
    for k in range(max_deg + 1):
        target = offsets[k + 1] if k < max_deg else {}
        columns: list[SparseColumn] = []
        for subset, p in offsets[k]:
            # L_p has dims[p] columns, empty at p > 2n - 2 (so at k = max_deg).
            for image in l_cols[p]:
                col: list[tuple[int, int]] = []
                if image:
                    for m, i in enumerate(subset):
                        a = lam_num[i - 1]
                        if not a:
                            continue
                        if m % 2:
                            a = -a
                        start = target[(subset[:m] + subset[m + 1 :], p + 2)]
                        col += [(start + u, a * v) for u, v in image.items()]
                # Distinct (m, u) hit distinct rows, so no entry is a sum.
                col.sort()
                columns.append(dict(col))
        g = gcd(scale, *(x for col in columns for x in col.values()))
        if g != 1:
            columns = [{i: x // g for i, x in col.items()} for col in columns]
        integer_d.append(columns)
        denominators.append(scale // g)
    return InvariantComplex(base, s, lambdas, tuple(offsets), tuple(integer_d), tuple(denominators))


def differential(c: InvariantComplex, x: InvariantElement) -> InvariantElement:
    k = x.total_degree
    if len(x.coeffs) != c.dim(k):
        raise ValueError("coefficient vector does not match chain dimension")
    return InvariantElement(k + 1, c.differentials[k].apply(x.coeffs))


def betti_numbers(c: InvariantComplex) -> tuple[int, ...]:
    """dim H^k = dim C^k - rank d_k - rank d_{k-1}, read from the engine's
    reductions (`FilteredComplex.reductions`): C^k has one column of the
    reduced d_k per basis vector, and each rank is a number of lows."""
    reductions = c.filtered_complex.reductions
    return tuple(
        len(R) - len(lows) - (len(reductions[k - 1][2]) if k else 0)
        for k, (R, _, lows) in enumerate(reductions)
    )


def filtered_complex(c: InvariantComplex) -> FilteredComplex:
    """The engine's filtered complex of c: `InvariantComplex.filtered_complex`."""
    return c.filtered_complex
