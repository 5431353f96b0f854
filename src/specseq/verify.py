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
    InvariantComplex,
    InvariantElement,
    betti_numbers,
    cohomology,
    differential,
    filtered_complex,
)
from .lefschetz import (
    LefschetzModule,
    check_hard_lefschetz,
    kernel_L,
    primitive_subspace,
    star_matrix,
)
from .linalg import Matrix, Quotient, Subspace, subspace_sum

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


def _eta_product(factors: Sequence[dict[tuple[int, ...], Fraction]]):
    """Wedge product in the exterior algebra on eta_1..eta_s (1-based tuples)."""
    acc = {(): Fraction(1)}
    for f in factors:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for idx_a, ca in acc.items():
            for idx_b, cb in f.items():
                merged = _merge_sign(idx_a, idx_b)
                if merged is None:
                    continue
                key, sign = merged
                nxt[key] = nxt.get(key, _ZERO) + sign * ca * cb
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
    for q in range(c.s):
        for subset in itertools.combinations(range(2, c.s + 1), q):
            differences = _eta_product([{(1,): Fraction(1), (i,): Fraction(-1)} for i in subset])
            with_eta_1 = {(1,) + subset: Fraction(1)}
            for p in range(2 * c.base.n + 1):
                primitive = primitive_subspace(c.base, p).basis.columns()
                kernel = kernel_L(c.base, p).basis.columns()
                part_a += [_chain_from_eta(c, differences, p, beta) for beta in primitive]
                part_b += [_chain_from_eta(c, with_eta_1, p, kappa) for kappa in kernel]
    return part_a, part_b


def model_star(
    c: InvariantComplex, x: InvariantElement, stars: Sequence[Matrix]
) -> InvariantElement:
    """Star on the whole complex, degree k -> 2n+s-k.

    eta_I (x) h maps to +-eta_{I^c} (x) star(h) with the exponent
    sign(I, I^c) + (s - |I|) * deg(h); `stars[p]` is the base star on H^p.
    """
    n, s = c.base.n, c.s
    k = x.total_degree
    target = 2 * n + s - k
    coeffs = [_ZERO] * c.dim(target)
    for pos, (subset, p, t) in enumerate(c.basis[k]):
        cv = x.coeffs[pos]
        if not cv:
            continue
        comp = tuple(j for j in range(1, s + 1) if j not in subset)
        sign = (-1) ** (index_subset_sign(subset, s) + (s - len(subset)) * p)
        for u, v in enumerate(stars[p].col(t)):
            if v:
                coeffs[c.index_of(target, (comp, 2 * n - p, u))] += sign * cv * v
    return InvariantElement(target, tuple(coeffs))


def _class_span(q: Quotient, cocycles: Sequence[InvariantElement]) -> Subspace:
    """Span of the cohomology classes of the cocycles, in the coordinates of q."""
    vecs = [q.project.apply(el.coeffs) for el in cocycles]
    return Subspace.span(q.dim, vecs) if vecs else Subspace.zero(q.dim)


def model_star_duality(
    c: InvariantComplex, classes: Sequence[Quotient] | None = None
) -> VerificationReport:
    """Star carries the part-A span onto the complementary part-B summand.

    Per degree k with k' = 2n+s-k: star images of part A are cocycles, their
    classes are independent, and together with the part-A classes of degree
    k' they span exactly what part A and part B of degree k' span, with the
    sum direct.  This is the model form of the statement that the second
    half of the harmonic basis consists of star-duals of the first.

    `classes` is the model's `cohomology`, when the caller has it.
    """
    try:
        part_a, part_b = harmonic_basis_S(c)
    except HypothesisError as exc:
        return VerificationReport("star-duality", False, (), (), (), str(exc))
    if classes is None:
        classes = cohomology(c)
    stars = [star_matrix(c.base, p) for p in range(2 * c.base.n + 1)]
    by_degree_a: dict[int, list[InvariantElement]] = {}
    by_degree_b: dict[int, list[InvariantElement]] = {}
    for el in part_a:
        by_degree_a.setdefault(el.total_degree, []).append(el)
    for el in part_b:
        by_degree_b.setdefault(el.total_degree, []).append(el)
    total_deg = 2 * c.base.n + c.s
    witnesses = []
    checked = []
    for k in range(total_deg + 1):
        k2 = total_deg - k
        starred = [model_star(c, el, stars) for el in by_degree_a.get(k, [])]
        images = [img for img in starred if not any(differential(c, img).coeffs)]
        if len(images) != len(starred):
            witnesses.append(Witness("non-closed star images", k, 0, len(starred) - len(images)))
        span_img = _class_span(classes[k2], images)
        span_a2 = _class_span(classes[k2], by_degree_a.get(k2, []))
        span_b2 = _class_span(classes[k2], by_degree_b.get(k2, []))
        count_b2 = len(by_degree_b.get(k2, []))
        if span_img.dim != len(images):
            witnesses.append(Witness("rank of star-image classes", k, len(images), span_img.dim))
        if span_img.dim != count_b2:
            witnesses.append(
                Witness("rank of star-image classes vs part B", k, count_b2, span_img.dim)
            )
        combined = subspace_sum(span_a2, span_img)
        target = subspace_sum(span_a2, span_b2)
        direct = span_a2.dim + span_img.dim
        if combined.dim != direct:
            witnesses.append(Witness("dim of part A + star images", k2, direct, combined.dim))
        if combined != target:
            # Two subspaces are equal iff each has the dimension of their sum.
            both = subspace_sum(combined, target).dim
            witnesses.append(
                Witness(
                    "dims of part A + star images, part A + part B",
                    k2,
                    (both, both),
                    (combined.dim, target.dim),
                )
            )
        checked.append((k, span_img.dim))
    return VerificationReport(
        "star-duality", not witnesses, (), tuple(checked), tuple(witnesses)
    )
