"""Executable forms of the structural theorems.

Each verifier compares engine output against a closed-form prediction:

- E2 description: dim E_2^{p,q} = dim H^p * C(s,q), with d_0 = d_1 = 0.
- S-type degeneration: stable page <= 3 and de Rham dims given by the
  primitive / Ker(L) convolution formula; C-type: stable page <= 2 and the
  binomial convolution with the base dims.  One check serves both.
- Betti recursions inverting those formulas, by one recursion.
- Harmonic bases and the star duality between their two halves, both
  built from the integer bases and star images of the base's Lefschetz
  structure (`lefschetz.lefschetz_columns`), never from the canonical
  subspaces.  Star duality reduces part A and the star images once per
  degree, with no V: part A from the boundaries of H^k, which direct
  cohomology holds reduced already, and the star images and part B from
  those boundaries together with part A's reduced columns.

Every verifier takes only the complex and reads the analysis it keeps
(`InvariantComplex.spectral_sequence` and `.cohomology`), so the pages and
the cohomology of one model are computed once, whichever verifiers run.

A report is its witnesses: it passes only where it applies and holds
none.  Verifiers whose theorem carries hypotheses (S-type lambdas, hard
Lefschetz) report a hypothesis violation instead when the input does not
qualify.  `analyze_reports` lists the verifiers that `analyze` runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from types import MappingProxyType
from typing import Mapping, Sequence

from .exterior import index_subset_sign
from .invariant import (
    InvariantComplex,
    InvariantElement,
    betti_numbers,
)
from .lefschetz import LefschetzModule, check_hard_lefschetz, lefschetz_columns
from .linalg import SparseColumn, apply_columns, reduce_columns

_ZERO = Fraction(0)

# sum_I a_I eta_I with integer a_I, keyed by the 1-based tuples I.
EtaForm = Mapping[tuple[int, ...], int]


class HypothesisError(ValueError):
    """The theorem's hypotheses do not hold for this input."""


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
    """A verdict: the witnesses of its failed comparisons, or why the theorem
    does not apply.  It passes only where it applies and has no witness."""

    theorem: str
    witnesses: tuple[Witness, ...] = ()
    hypothesis_violation: str | None = None

    @property
    def applicable(self) -> bool:
        return self.hypothesis_violation is None

    @property
    def passed(self) -> bool:
        return self.applicable and not self.witnesses


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


def analyze_reports(c: InvariantComplex) -> list[VerificationReport]:
    """The verdicts `analyze` reports: E2, then mainS and star duality on an
    S-type model, or mainC on a C-type one."""
    reports = [verify_E2(c)]
    if c.is_s_type():
        reports += [verify_mainS(c), model_star_duality(c)]
    if c.is_c_type():
        reports.append(verify_mainC(c))
    return reports


def verify_E2(c: InvariantComplex) -> VerificationReport:
    """dim E_2^{p,q} = dim H^p * C(s,q), and d_0 = d_1 = 0."""
    pages = c.spectral_sequence[0]
    witnesses = [
        Witness(f"rank d_{r}", pq, 0, rk) for r in (0, 1) for pq, rk in sorted(pages[r].d_ranks.items())
    ]
    expected = {(p, q): d * _binom(c.s, q) for p, d in enumerate(c.base.dims) for q in range(c.s + 1)}
    actual = pages[2].cell_dims()
    for pq in sorted(expected.keys() | actual.keys()):
        if expected.get(pq, 0) != actual.get(pq, 0):
            witnesses.append(Witness("dim E_2", pq, expected.get(pq, 0), actual.get(pq, 0)))
    return VerificationReport("E2", tuple(witnesses))


def kernel_d2(c: InvariantComplex, p: int, q: int) -> tuple[int, int]:
    """dim Ker(d_2^{p,q}) from the engine, with the predicted dimension.

    Prediction: C(s-1,q) * dim H^p for the difference-product part plus
    C(s-1,q-1) * dim Ker(L)^p for the eta-times-Ker(L) part.
    """
    violation = _hypothesis(c)
    if violation:
        raise HypothesisError(violation)
    if p < 0:
        raise ValueError("degree out of range")
    page2 = c.spectral_sequence[0][2]
    actual = page2.dim(p, q) - page2.d_rank(p, q)
    zdim = check_hard_lefschetz(c.base).kernel_L_dims[p] if p <= 2 * c.base.n else 0
    hdim = c.base.dim_at(p)
    expected = _binom(c.s - 1, q) * hdim + _binom(c.s - 1, q - 1) * zdim
    return actual, expected


def _degeneration(
    c: InvariantComplex,
    theorem: str,
    expected: Sequence[int],
    last_page: int,
    direct: Sequence[int] | None,
) -> VerificationReport:
    """The sequence is stable by page `last_page`, and the E_infinity totals,
    and the direct cohomology dims where given, are `expected`."""
    pages, stable_at = c.spectral_sequence
    witnesses = []
    if stable_at > last_page:
        witnesses.append(Witness("stable page", None, f"<= {last_page}", stable_at))
    witnesses += _degree_witnesses(
        "E_infinity total", expected, pages[-1].antidiagonal_totals(c.max_degree)
    )
    if direct is not None:
        witnesses += _degree_witnesses("direct cohomology", expected, direct)
    return VerificationReport(theorem, tuple(witnesses))


def expected_dims_mainS(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Predicted de Rham dims of an S-type model over a hard Lefschetz base."""
    report = check_hard_lefschetz(base)
    if not report.hlp:
        raise HypothesisError("base module does not satisfy hard Lefschetz")
    pdim = report.primitive_dims
    zdim = report.kernel_L_dims

    def at(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0

    return tuple(
        sum(_binom(s - 1, q) * (at(pdim, k - q) + at(zdim, k - q - 1)) for q in range(s))
        for k in range(2 * base.n + s + 1)
    )


def verify_mainS(c: InvariantComplex) -> VerificationReport:
    """S-type degeneration: stable page <= 3, and the E_infinity totals and
    the direct cohomology dims match the prediction."""
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("mainS", hypothesis_violation=violation)
    return _degeneration(c, "mainS", expected_dims_mainS(c.base, c.s), 3, betti_numbers(c))


def expected_dims_mainC(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Binomial convolution of the base dims with C(s, .)."""
    return tuple(
        sum(_binom(s, q) * base.dim_at(k - q) for q in range(s + 1))
        for k in range(2 * base.n + s + 1)
    )


def verify_mainC(c: InvariantComplex) -> VerificationReport:
    """C-type degeneration: stable page <= 2 and dims match the convolution."""
    if not c.is_c_type():
        return VerificationReport("mainC", hypothesis_violation="not C-type: some lambda_i is nonzero")
    return _degeneration(c, "mainC", expected_dims_mainC(c.base, c.s), 2, None)


def _invert(B: Sequence[int], m: int, top: int, what: str) -> tuple[int, ...]:
    """x[k] = B[k] - sum_{i<k} C(m, k-i) x[i] for k <= top, refusing a
    negative x[k], which no manifold of the kind has."""
    x: list[int] = []
    for k in range(top + 1):
        value = B[k] - sum(_binom(m, k - i) * x[i] for i in range(k))
        if value < 0:
            raise ValueError(
                f"negative {what} dimension at degree {k}: "
                "input is not the Betti sequence of such a manifold"
            )
        x.append(value)
    return tuple(x)


def primitive_betti_from_deRham(
    B: Sequence[int], s: int, n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invert the S-type formula: de Rham dims -> (primitive dims, basic dims).

    pdim[k] = B[k] - sum_{i<k} C(s-1, k-i) pdim[i] for k <= n, then the basic
    dims follow from the Lefschetz decomposition and Poincare symmetry.
    """
    pdim = _invert(B, s - 1, n, "primitive")
    basic = [0] * (2 * n + 1)
    for r in range(n + 1):
        basic[r] = sum(pdim[r - 2 * i] for i in range(r // 2 + 1))
    for r in range(n + 1, 2 * n + 1):
        basic[r] = basic[2 * n - r]
    return pdim, tuple(basic)


def basic_betti_from_deRham(B: Sequence[int], s: int) -> tuple[int, ...]:
    """Invert the C-type convolution: b[k] = B[k] - sum_{i<k} C(s,k-i) b[i]."""
    top = len(B) - 1 - s
    if top < 0:
        raise ValueError("Betti list shorter than s+1")
    return _invert(B, s, top, "basic")


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


def harmonic_basis_S(
    c: InvariantComplex,
) -> tuple[list[InvariantElement], list[InvariantElement]]:
    """The two halves of the S-type harmonic basis.

    Part A: products of differences (eta_1 - eta_i) over subsets of {2..s}
    times primitive classes.  Part B: eta_1 eta_I times Ker(L) classes.
    The classes are the integer bases of PH^p and Ker L that
    `lefschetz_columns` holds.
    """
    violation = _hypothesis(c)
    if violation:
        raise HypothesisError(violation)

    def element(eta_form: EtaForm, p: int, h: SparseColumn) -> InvariantElement:
        degree, v = _integer_chain(c, eta_form, p, h)
        coeffs = [0] * c.dim(degree)
        for i, x in v.items():
            coeffs[i] = x
        return InvariantElement(degree, tuple(coeffs))

    columns = lefschetz_columns(c.base)
    part_a: list[InvariantElement] = []
    part_b: list[InvariantElement] = []
    for differences, with_eta_1, _ in _harmonic_eta_forms(c.s):
        for p in range(2 * c.base.n + 1):
            part_a += [element(differences, p, beta) for beta in columns.primitive[p]]
            part_b += [element(with_eta_1, p, kappa) for kappa in columns.kernel[p]]
    return part_a, part_b


def _integer_chain(
    c: InvariantComplex, eta_form: EtaForm, p: int, h: SparseColumn
) -> tuple[int, SparseColumn]:
    """Degree and sparse integer vector of sum_I a_I eta_I (x) h; the
    element eta_I (x) h_{p,t} sits at the offset of its block (I, p) plus t."""
    degree = p + len(next(iter(eta_form)))
    offsets = c.offsets[degree]
    return degree, {
        offsets[(subset, p)] + t: a * x for subset, a in eta_form.items() for t, x in h.items()
    }


def _added_rank(
    cols: list[SparseColumn], pivots: Mapping[int, SparseColumn], extend: bool = False
) -> tuple[int, Mapping[int, SparseColumn]]:
    """The rank that `cols` adds to the span of `pivots`, from a reduction
    with no V, and the pivots to reduce further columns from: with `extend`,
    `pivots` together with the reduced columns at the new lows, otherwise
    `pivots` itself.  No columns need no reduction."""
    if not cols:
        return 0, pivots
    R, _, lows = reduce_columns(cols, with_v=False, pivots=pivots)
    if extend and lows:
        pivots = pivots | {low: R[j] for low, j in lows.items()}
    return len(lows), pivots


def model_star_duality(c: InvariantComplex) -> VerificationReport:
    """Star carries the part-A span onto the complementary part-B summand.

    Per degree k with k' = 2n+s-k: star images of part A are cocycles, their
    classes are independent, and together with the part-A classes of degree
    k' they span exactly what part A and part B of degree k' span, with the
    sum direct.  This is the model form of the statement that the second
    half of the harmonic basis consists of star-duals of the first.

    On the complex, eta_I (x) h maps to +-eta_{I^c} (x) star(h) with the
    exponent sign(I, I^c) + (s - |I|) * deg(h).  On a primitive class beta
    of degree p, star(h) is L^{n-p} beta.  Part A, part B and the star
    images are sparse integer vectors built from the integer bases of PH^p
    and Ker L and the star images L^{n-p} beta that `lefschetz_columns`
    holds.  Each is a positive multiple of a vector of the rational model,
    and a scale or a change of basis of PH^p changes neither closedness nor
    any span.  Closedness applies the complex's integer d.  Each rank of
    classes is the number of lows that a column reduction with no V returns,
    starting from the boundaries of H^k' as pivots, already reduced.  Per
    degree, part A is reduced once, and the star images once, from the
    boundaries together with part A's reduced columns.  Part B is reduced
    from those pivots, and from them with the star images' reduced columns
    added.  (Reduced after part B instead, the star images reduce to zero
    through more steps.)  The star images alone are reduced only when they
    add fewer classes to part A's than there are of them; otherwise their
    classes are independent.  Two spans are equal iff each has the rank of
    their sum.  A group with no columns adds no rank and is not reduced, and
    pivots are extended by a group's reduced columns only for a reduction
    that reads them.
    """
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("star-duality", hypothesis_violation=violation)
    classes = c.cohomology
    n, s = c.base.n, c.s
    total_deg = 2 * n + s
    columns = lefschetz_columns(c.base)
    primitive, kernel, starred = columns.primitive, columns.kernel, columns.star
    part_a: dict[int, list[SparseColumn]] = {}
    part_b: dict[int, list[SparseColumn]] = {}
    images: dict[int, list[SparseColumn]] = {}  # by the degree of the part-A element
    for differences, with_eta_1, complements in _harmonic_eta_forms(s):
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
    for k in range(total_deg + 1):
        k2 = total_deg - k
        starred_k = images.get(k, [])
        closed = [v for v in starred_k if not apply_columns(c.integer_d[k2], v)]
        if len(closed) != len(starred_k):
            witnesses.append(Witness("non-closed star images", k, 0, len(starred_k) - len(closed)))
        a2, b2 = part_a.get(k2, []), part_b.get(k2, [])
        boundaries = classes[k2].boundaries
        rank_a2, with_a = _added_rank(a2, boundaries, extend=bool(closed or b2))
        added, with_images = _added_rank(closed, with_a, extend=bool(b2))
        combined = rank_a2 + added
        target = rank_a2 + _added_rank(b2, with_a)[0]
        both = combined + _added_rank(b2, with_images)[0]
        if added == len(closed):  # independent even beside part A's classes
            rank_img = added
        else:
            rank_img = _added_rank(closed, boundaries)[0]
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
    return VerificationReport("star-duality", tuple(witnesses))
