"""Executable forms of the structural theorems.

Each verifier compares engine output against a closed-form prediction:

- E2 description: dim E_2^{p,q} = dim H^p * C(s,q), with d_0 = d_1 = 0.
- S-type degeneration: stable page <= 3 and de Rham dims given by the
  primitive / Ker(L) convolution formula; C-type: stable page <= 2 and the
  binomial convolution with the base dims.  One check serves both, against
  the E_infinity totals and the direct cohomology.  On S-type models mainS
  also checks dim Ker d_2 on every cell of the E_2 page.
- Betti recursions inverting those formulas, by one recursion, each
  refusing a list that its result does not give back.
- Harmonic bases and the star duality between their two halves, both
  read from the harmonic cocycles and star images the complex keeps
  (`InvariantComplex.harmonic_chains`).  Star duality reduces part A and
  the star images once per degree, with no V: part A from the boundaries
  that the engine cleared with, a reduced basis of Im d_{k-1}
  (`FilteredComplex.boundaries`), and the star images and part B from
  those boundaries together with part A's reduced columns.

Every verifier takes only the complex and reads the analysis it keeps
(`InvariantComplex.spectral_sequence`, `.filtered_complex` and
`.harmonic_chains`), so the pages, the reductions and the chains of one
model are built once, whichever verifiers run.

A report is its witnesses: it passes only where it applies and holds
none.  Verifiers whose theorem carries hypotheses (S-type lambdas, hard
Lefschetz) report a hypothesis violation instead when the input does not
qualify.  `analyze_reports` lists the verifiers that `analyze` runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .invariant import Chain, InvariantComplex, InvariantElement, betti_numbers
from .lefschetz import LefschetzModule, check_hard_lefschetz
from .linalg import SparseColumn, apply_columns, reduce_columns

_ZERO = Fraction(0)


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


def _degeneration(
    c: InvariantComplex, expected: Sequence[int], last_page: int, direct: Sequence[int]
) -> list[Witness]:
    """The sequence is stable by page `last_page`, and the E_infinity totals
    and the direct cohomology dims are `expected`."""
    pages, stable_at = c.spectral_sequence
    witnesses = []
    if stable_at > last_page:
        witnesses.append(Witness("stable page", None, f"<= {last_page}", stable_at))
    witnesses += _degree_witnesses(
        "E_infinity total", expected, pages[-1].antidiagonal_totals(c.max_degree)
    )
    witnesses += _degree_witnesses("direct cohomology", expected, direct)
    return witnesses


def expected_dims_mainS(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Predicted de Rham dims of an S-type model over a hard Lefschetz base."""
    report = check_hard_lefschetz(base)
    if not report.hlp:
        raise HypothesisError("base module does not satisfy hard Lefschetz")
    return _mainS_dims(report.primitive_dims, report.kernel_L_dims, s)


def _mainS_dims(pdim: Sequence[int], zdim: Sequence[int], s: int) -> tuple[int, ...]:
    """sum_q C(s-1, q) (p_{k-q} + z_{k-q-1}) from the primitive dims p and
    the Ker L dims z, in degrees k <= 2n + s."""
    return _convolve([a + b for a, b in itertools.zip_longest(pdim, (0, *zdim), fillvalue=0)], s - 1)


def verify_mainS(c: InvariantComplex) -> VerificationReport:
    """S-type degeneration: stable page <= 3, and the E_infinity totals and
    the direct cohomology dims match the prediction.  On the E_2 page, every
    dim Ker d_2^{p,q} is C(s-1,q) dim H^p for the difference-product part
    plus C(s-1,q-1) dim Ker(L)^p for the eta-times-Ker(L) part."""
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("mainS", hypothesis_violation=violation)
    witnesses = _degeneration(c, expected_dims_mainS(c.base, c.s), 3, betti_numbers(c))
    page2 = c.spectral_sequence[0][2]
    for p, (hdim, zdim) in enumerate(zip(c.base.dims, check_hard_lefschetz(c.base).kernel_L_dims)):
        for q in range(c.s + 1):
            expected = _binom(c.s - 1, q) * hdim + _binom(c.s - 1, q - 1) * zdim
            actual = page2.dim(p, q) - page2.d_rank(p, q)
            if expected != actual:
                witnesses.append(Witness("dim Ker d_2", (p, q), expected, actual))
    return VerificationReport("mainS", tuple(witnesses))


def expected_dims_mainC(base: LefschetzModule, s: int) -> tuple[int, ...]:
    """Binomial convolution of the base dims with C(s, .)."""
    return _convolve(base.dims, s)


def _convolve(x: Sequence[int], m: int) -> tuple[int, ...]:
    """y[k] = sum_i C(m, k-i) x[i] for k < len(x) + m."""
    return tuple(sum(_binom(m, k - i) * xi for i, xi in enumerate(x)) for k in range(len(x) + m))


def verify_mainC(c: InvariantComplex) -> VerificationReport:
    """C-type degeneration: stable page <= 2 and dims match the convolution."""
    if not c.is_c_type():
        return VerificationReport("mainC", hypothesis_violation="not C-type: some lambda_i is nonzero")
    expected = expected_dims_mainC(c.base, c.s)
    return VerificationReport("mainC", tuple(_degeneration(c, expected, 2, betti_numbers(c))))


_IMPOSSIBLE = "input is not the Betti sequence of such a manifold"


def _invert(B: Sequence[int], m: int, top: int, what: str) -> tuple[int, ...]:
    """x[k] = B[k] - sum_{i<k} C(m, k-i) x[i] for k <= top, refusing a
    negative x[k], which no manifold of the kind has."""
    x: list[int] = []
    for k in range(top + 1):
        value = B[k] - sum(_binom(m, k - i) * x[i] for i in range(k))
        if value < 0:
            raise ValueError(f"negative {what} dimension at degree {k}: {_IMPOSSIBLE}")
        x.append(value)
    return tuple(x)


def _recheck(B: Sequence[int], dims: Sequence[int], what: str) -> None:
    """Refuse B where it differs from `dims`, the Betti numbers that the
    recursion's result gives, which no manifold of the kind allows."""
    wrong = _degree_witnesses(f"Betti number recomputed from the {what} dims", B, dims)
    if wrong:
        raise ValueError(f"{wrong[0]}: {_IMPOSSIBLE}")


def primitive_betti_from_deRham(
    B: Sequence[int], s: int, n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invert the S-type formula: de Rham dims -> (primitive dims, basic dims).

    pdim[k] = B[k] - sum_{i<k} C(s-1, k-i) pdim[i] for k <= n, then the basic
    dims follow from the Lefschetz decomposition and Poincare symmetry.
    Under hard Lefschetz dim Ker L = pdim[2n-t] in degrees t >= n, 0 below.
    """
    if len(B) != 2 * n + s + 1:
        raise ValueError(f"expected {2 * n + s + 1} Betti numbers for n={n}, s={s}")
    pdim = _invert(B, s - 1, n, "primitive")
    _recheck(B, _mainS_dims(pdim, (0,) * n + pdim[::-1], s), "primitive")
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
    basic = _invert(B, s, top, "basic")
    _recheck(B, _convolve(basic, s), "basic")
    return basic


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


def harmonic_basis_S(c: InvariantComplex) -> tuple[list[InvariantElement], list[InvariantElement]]:
    """The two halves of the S-type harmonic basis, the dense view of parts
    A and B of `InvariantComplex.harmonic_chains`.

    Part A: products of differences (eta_1 - eta_i) over subsets of {2..s}
    times primitive classes.  Part B: eta_1 eta_I times Ker(L) classes.
    """
    violation = _hypothesis(c)
    if violation:
        raise HypothesisError(violation)
    return tuple(
        [InvariantElement(k, tuple(map(v.get, range(c.dim(k)), itertools.repeat(0)))) for k, v in part]
        for part in c.harmonic_chains[:2]
    )


def _by_degree(chains: Iterable[Chain]) -> dict[int, list[SparseColumn]]:
    out: dict[int, list[SparseColumn]] = {}
    for k, v in chains:
        out.setdefault(k, []).append(v)
    return out


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
    """
    violation = _hypothesis(c)
    if violation:
        return VerificationReport("star-duality", hypothesis_violation=violation)
    total_deg = 2 * c.base.n + c.s
    chains_a, chains_b, starred = c.harmonic_chains
    part_a, part_b = _by_degree(chains_a), _by_degree(chains_b)
    images = _by_degree((k, w) for (k, _), w in zip(chains_a, starred))  # by part A's degree
    witnesses = []
    for k in range(total_deg + 1):
        k2 = total_deg - k
        starred_k = images.get(k, [])
        closed = [v for v in starred_k if not apply_columns(c.integer_d[k2], v)]
        if len(closed) != len(starred_k):
            witnesses.append(Witness("non-closed star images", k, 0, len(starred_k) - len(closed)))
        a2, b2 = part_a.get(k2, []), part_b.get(k2, [])
        boundaries = c.filtered_complex.boundaries[k2]
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
