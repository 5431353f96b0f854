"""Executable forms of the structural theorems.

Each verifier compares engine output against a closed-form prediction:

- E2 description: dim E_2^{p,q} = dim H^p * C(s,q), with d_0 = d_1 = 0.
- S-type degeneration: stable page <= 3 and de Rham dims given by the
  primitive / Ker(L) convolution formula.
- C-type degeneration: stable page <= 2 and de Rham dims given by the
  binomial convolution with the base dims.
- Betti recursions inverting those formulas.
- Harmonic bases and the star duality between their two halves.

Verifiers whose theorem carries hypotheses (S-type lambdas, hard
Lefschetz) report a hypothesis violation instead of pass/fail when the
input does not qualify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .engine import SpectralPage, compute_page, run_to_convergence
from .exterior import _merge_sign, index_subset_sign
from .invariant import (
    CohomologyGroup,
    InvariantComplex,
    InvariantElement,
    betti_numbers,
    cohomology,
    filtered_complex,
)
from .lefschetz import (
    LefschetzModule,
    check_hard_lefschetz,
    kernel_L,
    primitive_subspace,
    star_matrix,
)
from .linalg import SparseColumn, apply_columns, integer_columns, reduce_columns

_ZERO = Fraction(0)


class HypothesisError(ValueError):
    """The theorem's hypotheses do not hold for this input."""


# Pages E_0..E_{P+2} and the stable page, as `run_to_convergence` returns them.
PageSequence = tuple[list[SpectralPage], int]


@dataclass(frozen=True)
class Witness:
    """One failed comparison: what was checked, where, and both values.

    `where` is a cell (p, q), a degree k, or None for a whole-sequence check.
    """

    check: str
    where: tuple[int, int] | int | None
    expected: object
    actual: object

    def __str__(self) -> str:
        if isinstance(self.where, tuple):
            at = f" at (p, q) = {self.where}"
        elif self.where is not None:
            at = f" in degree {self.where}"
        else:
            at = ""
        return f"{self.check}{at}: expected {self.expected}, got {self.actual}"


def _degree_witnesses(check: str, expected: Sequence[int], actual: Sequence[int]) -> list[Witness]:
    pairs = itertools.zip_longest(expected, actual)
    return [Witness(check, k, e, a) for k, (e, a) in enumerate(pairs) if e != a]


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    passed: bool
    expected: tuple
    actual: tuple
    witnesses: tuple = ()
    hypothesis_violation: str | None = None

    @property
    def applicable(self) -> bool:
        return self.hypothesis_violation is None


def _binom(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _hypothesis(c: InvariantComplex) -> str | None:
    """Why the S-type theorems do not apply to c, or None when they do."""
    if not c.is_s_type():
        return "not S-type: some lambda_i differs from 1"
    if not check_hard_lefschetz(c.base).hlp:
        return "base module does not satisfy hard Lefschetz"
    return None


def verify_E2(c: InvariantComplex, sequence: PageSequence | None = None) -> VerificationReport:
    """dim E_2^{p,q} = dim H^p * C(s,q), and d_0 = d_1 = 0.

    `sequence` is the model's `run_to_convergence` result, when the caller
    has it; otherwise pages 0..2 are computed here.
    """
    if sequence is None:
        fc = filtered_complex(c)
        pages = [compute_page(fc, r) for r in range(3)]
    else:
        pages = sequence[0]
    witnesses = []
    for r in (0, 1):
        for pq, rk in sorted(pages[r].d_ranks.items()):
            witnesses.append(Witness(f"rank d_{r}", pq, 0, rk))
    expected = {}
    for p in range(2 * c.base.n + 1):
        for q in range(c.s + 1):
            d = c.base.dims[p] * _binom(c.s, q)
            if d:
                expected[(p, q)] = d
    actual = pages[2].cell_dims()
    for pq in sorted(expected.keys() | actual.keys()):
        if expected.get(pq, 0) != actual.get(pq, 0):
            witnesses.append(Witness("dim E_2", pq, expected.get(pq, 0), actual.get(pq, 0)))
    return VerificationReport(
        "E2",
        not witnesses,
        tuple(sorted(expected.items())),
        tuple(sorted(actual.items())),
        tuple(witnesses),
    )


def kernel_d2(c: InvariantComplex, p: int, q: int) -> tuple[int, int]:
    """dim Ker(d_2^{p,q}) from the engine, with the predicted dimension.

    Prediction: C(s-1,q) * dim H^p for the difference-product part plus
    C(s-1,q-1) * dim Ker(L)^p for the eta-times-Ker(L) part.
    """
    violation = _hypothesis(c)
    if violation:
        raise HypothesisError(violation)
    page2 = compute_page(filtered_complex(c), 2)
    actual = page2.dim(p, q) - page2.d_rank(p, q)
    zdim = kernel_L(c.base, p).dim if p <= 2 * c.base.n else 0
    hdim = c.base.dim_at(p)
    expected = _binom(c.s - 1, q) * hdim + _binom(c.s - 1, q - 1) * zdim
    return actual, expected


def expected_dims_mainS(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Predicted de Rham dims of an S-type model over a hard Lefschetz base."""
    report = check_hard_lefschetz(base)
    if not report.hlp:
        raise HypothesisError("base module does not satisfy hard Lefschetz")
    pdim = report.primitive_dims
    zdim = report.kernel_L_dims

    def at(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0

    out = []
    for k in range(2 * base.n + s + 1):
        total = 0
        for q in range(s):
            total += _binom(s - 1, q) * (at(pdim, k - q) + at(zdim, k - q - 1))
        out.append(total)
    return tuple(out)


def _limiting_totals(c: InvariantComplex, sequence: PageSequence | None):
    if sequence is None:
        sequence = run_to_convergence(filtered_complex(c))
    pages, stable_at = sequence
    return pages[-1].antidiagonal_totals(c.max_degree), stable_at


def verify_mainS(
    c: InvariantComplex,
    sequence: PageSequence | None = None,
    betti: tuple[int, ...] | None = None,
) -> VerificationReport:
    """S-type degeneration: stable page <= 3 and dims match the prediction.

    `sequence` and `betti` are the model's `run_to_convergence` result and
    direct cohomology dims, when the caller has them.
    """
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("mainS", False, (), (), (), violation)
    expected = expected_dims_mainS(c.base, c.s)
    totals, stable_at = _limiting_totals(c, sequence)
    direct = betti_numbers(c) if betti is None else betti
    witnesses = []
    if stable_at > 3:
        witnesses.append(Witness("stable page", None, "<= 3", stable_at))
    witnesses += _degree_witnesses("E_infinity total", expected, totals)
    witnesses += _degree_witnesses("direct cohomology", expected, direct)
    return VerificationReport(
        "mainS", not witnesses, expected, totals + (("stable_at", stable_at),), tuple(witnesses)
    )


def expected_dims_mainC(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Binomial convolution of the base dims with C(s, .)."""

    def at(i):
        return base.dims[i] if 0 <= i < len(base.dims) else 0

    return tuple(
        sum(_binom(s, q) * at(k - q) for q in range(s + 1))
        for k in range(2 * base.n + s + 1)
    )


def verify_mainC(c: InvariantComplex, sequence: PageSequence | None = None) -> VerificationReport:
    """C-type degeneration: stable page <= 2 and dims match the convolution.

    `sequence` is the model's `run_to_convergence` result, when the caller
    has it.
    """
    if not c.is_c_type():
        return VerificationReport(
            "mainC", False, (), (), (), "not C-type: some lambda_i is nonzero"
        )
    expected = expected_dims_mainC(c.base, c.s)
    totals, stable_at = _limiting_totals(c, sequence)
    witnesses = []
    if stable_at > 2:
        witnesses.append(Witness("stable page", None, "<= 2", stable_at))
    witnesses += _degree_witnesses("E_infinity total", expected, totals)
    return VerificationReport(
        "mainC", not witnesses, expected, totals + (("stable_at", stable_at),), tuple(witnesses)
    )


def primitive_betti_from_deRham(
    B: Sequence[int], s: int, n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invert the S-type formula: de Rham dims -> (primitive dims, basic dims).

    pdim[k] = B[k] - sum_{i<k} C(s-1, k-i) pdim[i] for k <= n, then the basic
    dims follow from the Lefschetz decomposition and Poincare symmetry.
    """
    pdim: list[int] = []
    for k in range(n + 1):
        value = B[k] - sum(_binom(s - 1, k - i) * pdim[i] for i in range(k))
        if value < 0:
            raise ValueError(
                f"negative primitive dimension at degree {k}: "
                "input is not the Betti sequence of such a manifold"
            )
        pdim.append(value)
    basic = [0] * (2 * n + 1)
    for r in range(n + 1):
        basic[r] = sum(pdim[r - 2 * i] for i in range(r // 2 + 1))
    for r in range(n + 1, 2 * n + 1):
        basic[r] = basic[2 * n - r]
    return tuple(pdim), tuple(basic)


def basic_betti_from_deRham(B: Sequence[int], s: int) -> tuple[int, ...]:
    """Invert the C-type convolution: b[k] = B[k] - sum_{i<k} C(s,k-i) b[i]."""
    top = len(B) - 1 - s
    if top < 0:
        raise ValueError("Betti list shorter than s+1")
    b: list[int] = []
    for k in range(top + 1):
        value = B[k] - sum(_binom(s, k - i) * b[i] for i in range(k))
        if value < 0:
            raise ValueError(
                f"negative basic dimension at degree {k}: "
                "input is not the Betti sequence of such a manifold"
            )
        b.append(value)
    return tuple(b)


def harmonic_basis_C(c: InvariantComplex) -> list[InvariantElement]:
    """For C-type models every basis element eta_I (x) h is harmonic."""
    if not c.is_c_type():
        raise HypothesisError("not C-type: some lambda_i is nonzero")
    out = []
    for k in range(c.max_degree + 1):
        for i in range(c.dim(k)):
            coeffs = [_ZERO] * c.dim(k)
            coeffs[i] = Fraction(1)
            out.append(InvariantElement(k, tuple(coeffs)))
    return out


def _eta_product(factors: Sequence[dict[tuple[int, ...], int]]) -> dict[tuple[int, ...], int]:
    """Wedge product in the exterior algebra on eta_1..eta_s (1-based tuples),
    with integer coefficients."""
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


def _chain_from_eta(c: InvariantComplex, eta_form, p: int, h: Sequence[Fraction]):
    """The chain sum_I coeff_I eta_I (x) h as an InvariantElement."""
    degree = p + (len(next(iter(eta_form))) if eta_form else 0)
    coeffs = [_ZERO] * c.dim(degree)
    for subset, ec in eta_form.items():
        for t, hv in enumerate(h):
            if hv:
                coeffs[c.index_of(degree, (subset, p, t))] += ec * hv
    return InvariantElement(degree, tuple(coeffs))


def _harmonic_eta_forms(s: int):
    """Per subset I of {2..s}: prod_{i in I} (eta_1 - eta_i), and eta_1 eta_I."""
    for q in range(s):
        for subset in itertools.combinations(range(2, s + 1), q):
            yield _eta_product([{(1,): 1, (i,): -1} for i in subset]), {(1,) + subset: 1}


def harmonic_basis_S(
    c: InvariantComplex,
) -> tuple[list[InvariantElement], list[InvariantElement]]:
    """The two halves of the S-type harmonic basis.

    Part A: products of differences (eta_1 - eta_i) over subsets of {2..s}
    times primitive classes.  Part B: eta_1 eta_I times Ker(L) classes.
    """
    violation = _hypothesis(c)
    if violation:
        raise HypothesisError(violation)
    part_a: list[InvariantElement] = []
    part_b: list[InvariantElement] = []
    for differences, with_eta_1 in _harmonic_eta_forms(c.s):
        for p in range(2 * c.base.n + 1):
            primitive = primitive_subspace(c.base, p).basis.columns()
            kernel = kernel_L(c.base, p).basis.columns()
            part_a += [_chain_from_eta(c, differences, p, beta) for beta in primitive]
            part_b += [_chain_from_eta(c, with_eta_1, p, kappa) for kappa in kernel]
    return part_a, part_b


def _integer_chain(
    c: InvariantComplex, eta_form: dict[tuple[int, ...], int], p: int, h: SparseColumn
) -> tuple[int, SparseColumn]:
    """Degree and sparse integer vector of sum_I a_I eta_I (x) h."""
    degree = p + len(next(iter(eta_form)))
    return degree, {
        c.index_of(degree, (subset, p, t)): a * x
        for subset, a in eta_form.items()
        for t, x in h.items()
    }


def _class_ranks(q: CohomologyGroup, *groups: Sequence[SparseColumn]) -> list[int]:
    """Ranks of the classes of the cocycles in groups[0], groups[0] + groups[1], ...

    One `reduce_columns` over [the boundaries of q (its steps with slot -1) |
    the groups].  The reduction runs left to right, so the nonzero reduced
    columns of each prefix are a basis of its span.  Those after the
    boundaries count the rank with the boundaries minus the rank of the
    boundaries, which is the rank of the classes.
    """
    columns = [{**dict(rest), j: lead} for j, lead, rest, slot in q.steps if slot < 0]
    ends = [len(columns)]
    for group in groups:
        columns += group
        ends.append(len(columns))
    reduced = reduce_columns(columns)[0]
    return [sum(1 for r in reduced[ends[0] : end] if r) for end in ends[1:]]


def model_star_duality(
    c: InvariantComplex, classes: Sequence[CohomologyGroup] | None = None
) -> VerificationReport:
    """Star carries the part-A span onto the complementary part-B summand.

    Per degree k with k' = 2n+s-k: star images of part A are cocycles, their
    classes are independent, and together with the part-A classes of degree
    k' they span exactly what part A and part B of degree k' span, with the
    sum direct.  This is the model form of the statement that the second
    half of the harmonic basis consists of star-duals of the first.

    On the complex, eta_I (x) h maps to +-eta_{I^c} (x) star(h) with the
    exponent sign(I, I^c) + (s - |I|) * deg(h).  Part A, part B and the star
    images are sparse integer vectors, each a multiple of its rational form,
    which changes neither closedness nor any span.  Closedness applies the
    complex's integer d, and every rank of classes is one column reduction
    (`_class_ranks`); two spans are equal iff each has the rank of their sum.

    `classes` is the model's `cohomology`, when the caller has it.
    """
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("star-duality", False, (), (), (), violation)
    if classes is None:
        classes = cohomology(c)
    n, s = c.base.n, c.s
    total_deg = 2 * n + s
    bases = [primitive_subspace(c.base, p).basis for p in range(2 * n + 1)]
    primitive = [integer_columns(m) for m in bases]
    kernel = [integer_columns(kernel_L(c.base, p).basis) for p in range(2 * n + 1)]
    starred = [
        integer_columns(star_matrix(c.base, p) @ m) if m.cols else [] for p, m in enumerate(bases)
    ]
    part_a: dict[int, list[SparseColumn]] = {}
    part_b: dict[int, list[SparseColumn]] = {}
    images: dict[int, list[SparseColumn]] = {}  # by the degree of the part-A element
    for differences, with_eta_1 in _harmonic_eta_forms(s):
        # The star of the eta part, before the factor (-1)^((s - |I|) * deg h).
        complements = {
            tuple(j for j in range(1, s + 1) if j not in subset): a
            * (-1) ** index_subset_sign(subset, s)
            for subset, a in differences.items()
        }
        q = len(next(iter(differences)))
        for p in range(2 * n + 1):
            for kappa in kernel[p]:
                k, v = _integer_chain(c, with_eta_1, p, kappa)
                part_b.setdefault(k, []).append(v)
            if not primitive[p]:
                continue
            sign = (-1) ** ((s - q) * p)
            star_form = {subset: sign * a for subset, a in complements.items()}
            for beta, w in zip(primitive[p], starred[p]):
                k, v = _integer_chain(c, differences, p, beta)
                part_a.setdefault(k, []).append(v)
                images.setdefault(k, []).append(_integer_chain(c, star_form, 2 * n - p, w)[1])
    witnesses = []
    checked = []
    for k in range(total_deg + 1):
        k2 = total_deg - k
        starred_k = images.get(k, [])
        closed = [v for v in starred_k if not apply_columns(c.integer_d[k2], v)]
        if len(closed) != len(starred_k):
            witnesses.append(Witness("non-closed star images", k, 0, len(starred_k) - len(closed)))
        a2, b2 = part_a.get(k2, []), part_b.get(k2, [])
        rank_img, combined, both = _class_ranks(classes[k2], closed, a2, b2)
        rank_a2, target = _class_ranks(classes[k2], a2, b2)
        if rank_img != len(closed):
            witnesses.append(Witness("rank of star-image classes", k, len(closed), rank_img))
        if rank_img != len(b2):
            witnesses.append(
                Witness("rank of star-image classes vs part B", k, len(b2), rank_img)
            )
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
        checked.append((k, rank_img))
    return VerificationReport(
        "star-duality", not witnesses, (), tuple(checked), tuple(witnesses)
    )
