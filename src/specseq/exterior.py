"""Pointwise exterior algebra over the transverse model space.

The model space is R^{2n} (+) R^s with an orthonormal covector basis
e^1,...,e^{2n}, eta_1,...,eta_s, the standard symplectic two-form
omega = sum e^{2i-1} ^ e^{2i} on the transverse factor, and the compatible
complex structure J e_{2i-1} = e_{2i}.  Everything here is fiberwise linear
algebra with exact `int`/`Fraction` arithmetic: wedge products, the
symplectic and metric star operators, the Lefschetz operators L and Lambda,
and the primitive decomposition.  A whole-number coefficient is stored as an
`int`, so forms with whole coefficients, such as every monomial the star
check builds, never touch `Fraction`; `Fraction(k) == k` and their hashes
agree, so equality of forms does not depend on which type a coefficient has.

Index layout: 0..2n-1 are the transverse covectors (0-based), 2n..2n+s-1
are eta_1..eta_s.  Public constructors take 1-based labels to match the
usual e^1, eta_1 notation.

An operation whose result terms cannot collide sets them in order without
an accumulator.  For increasing tuples of one length, A < B exactly when
the least index of the symmetric difference lies in A.  So the complements
of a form's terms come in reverse order (the Hodge stars), and one monomial
wedged with each of a form's terms gives distinct products in the same
order (`wedge` with a one-term factor).  J maps distinct monomials to
distinct monomials, each with a closed-form sign, which are only sorted
(`j_action`).  The pair contraction and insertion behind Lambda and L map
terms to `{idx: c}` maps, and the primitive decomposition runs on such
maps, building a form only for each piece it returns.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

Q = Fraction
Coeff = int | Fraction  # exact; `make` stores a whole number as an int
_ZERO = 0
_ONE = 1


class FrameMismatch(ValueError):
    """Operands belong to different model frames."""


class TransverseRequired(ValueError):
    """The operator is only defined on forms over the transverse factor."""


@dataclass(frozen=True)
class ModelFrame:
    """Model space parameters: transverse dimension 2n, corank s."""

    n: int
    s: int = 0

    def __post_init__(self):
        if self.n < 0 or self.s < 0:
            raise ValueError("n and s must be non-negative")

    @property
    def transverse_dim(self) -> int:
        return 2 * self.n

    @property
    def total_dim(self) -> int:
        return 2 * self.n + self.s


@dataclass(frozen=True, slots=True)
class Multivector:
    """Homogeneous element of the exterior algebra over the model space.

    `terms` maps strictly increasing index tuples of length `degree` to
    nonzero rational coefficients; it is stored sorted for canonical
    equality.  The operations use exact `int`/`Fraction` arithmetic, on
    ints wherever both operands are whole numbers held as ints.
    """

    frame: ModelFrame
    degree: int
    terms: tuple[tuple[tuple[int, ...], Coeff], ...]

    @staticmethod
    def make(frame: ModelFrame, degree: int, coeffs: Mapping[tuple[int, ...], Coeff]) -> "Multivector":
        """The form sum c e^idx, with every index tuple checked against the
        frame: `degree` strictly increasing ints in range(frame.total_dim).

        The one point where coefficients are normalised for exact
        `int`/`Fraction` arithmetic: a whole number is stored as an `int`,
        any other value as a `Fraction`.
        """
        cleaned = {}
        for idx, c in coeffs.items():
            if type(c) is not int:
                c = c if isinstance(c, Fraction) else Fraction(c)
                c = c.numerator if c.denominator == 1 else c
            idx = tuple(idx)
            if len(idx) != degree or any(type(i) is not int for i in idx) or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if idx and (idx[0] < 0 or idx[-1] >= frame.total_dim):
                raise ValueError(f"index out of range for frame: {idx}")
            if c:
                cleaned[idx] = c
        return Multivector._trusted(frame, degree, cleaned)

    @staticmethod
    def _trusted(frame: ModelFrame, degree: int, coeffs: Mapping[tuple[int, ...], Coeff]) -> "Multivector":
        """`make` for the results of operations on valid forms: the index
        tuples are known to be valid and the coefficients to be exact, so
        only the zero terms are dropped."""
        if len(coeffs) == 1:
            ((i, c),) = coeffs.items()
            return _form(frame, degree, ((i, c),) if c else ())
        return _form(frame, degree, tuple(sorted((i, c) for i, c in coeffs.items() if c)))

    @staticmethod
    def zero(frame: ModelFrame, degree: int) -> "Multivector":
        return _form(frame, max(degree, 0), ())

    def is_zero(self) -> bool:
        return not self.terms

    def is_transverse(self) -> bool:
        td = self.frame.transverse_dim
        return all(not idx or idx[-1] < td for idx, _ in self.terms)

    def coefficient(self, idx: Sequence[int]) -> Coeff:
        idx = tuple(idx)
        for t, c in self.terms:
            if t == idx:
                return c
        return _ZERO

    def __add__(self, other: "Multivector") -> "Multivector":
        _check_frames(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        acc = dict(self.terms)
        for idx, c in other.terms:
            prev = acc.get(idx)
            acc[idx] = c if prev is None else prev + c
        return Multivector._trusted(self.frame, self.degree, acc)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + -other

    def __neg__(self) -> "Multivector":
        return self.scaled(-1)

    def scaled(self, c) -> "Multivector":
        if c == 1:
            return self
        if c == -1:
            return _form(self.frame, self.degree, tuple((idx, -v) for idx, v in self.terms))
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        if not c:
            return Multivector.zero(self.frame, self.degree)
        return _form(self.frame, self.degree, tuple((idx, c * v) for idx, v in self.terms))

    def __rmul__(self, c) -> "Multivector":
        return self.scaled(c)


_SET_FRAME = Multivector.frame.__set__
_SET_DEGREE = Multivector.degree.__set__
_SET_TERMS = Multivector.terms.__set__


def _form(frame: ModelFrame, degree: int, terms: tuple) -> Multivector:
    """The form with these fields, for the results of operations: the slots
    are set directly, which takes half the time of the frozen dataclass's
    `__init__`.  The result is the same frozen `Multivector`."""
    form = object.__new__(Multivector)
    _SET_FRAME(form, frame)
    _SET_DEGREE(form, degree)
    _SET_TERMS(form, terms)
    return form


def _check_frames(a: Multivector, b: Multivector):
    if a.frame is not b.frame and a.frame != b.frame:
        raise FrameMismatch(f"frames differ: {a.frame} vs {b.frame}")


def scalar(frame: ModelFrame, value=1) -> Multivector:
    return Multivector.make(frame, 0, {(): value})


def covector(frame: ModelFrame, i: int) -> Multivector:
    """The transverse covector e^i, 1-based, 1 <= i <= 2n."""
    if not 1 <= i <= frame.transverse_dim:
        raise ValueError(f"transverse covector index out of range: {i}")
    return Multivector.make(frame, 1, {(i - 1,): _ONE})


def eta(frame: ModelFrame, j: int) -> Multivector:
    """The covector eta_j, 1-based, 1 <= j <= s."""
    if not 1 <= j <= frame.s:
        raise ValueError(f"eta index out of range: {j}")
    return Multivector.make(frame, 1, {(frame.transverse_dim + j - 1,): _ONE})


def omega(frame: ModelFrame) -> Multivector:
    """The standard symplectic form sum_i e^{2i-1} ^ e^{2i}."""
    return Multivector(frame, 2, tuple(((2 * i, 2 * i + 1), _ONE) for i in range(frame.n)))


def monomials(frame: ModelFrame, degree: int, transverse: bool = True) -> list[tuple[int, ...]]:
    top = frame.transverse_dim if transverse else frame.total_dim
    if degree < 0 or degree > top:
        return []
    return list(itertools.combinations(range(top), degree))


def _inversion_parity(seq: Sequence[int]) -> int:
    """Parity (0 or 1) of the number of pairs out of order in seq.

    For distinct entries it is the sign exponent of the sorting permutation.
    """
    return sum(1 for i, x in enumerate(seq) for y in seq[i + 1 :] if x > y) % 2


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted concatenation of two increasing tuples with the wedge sign, or
    None when they share an index.

    When every index of one tuple lies below every index of the other, the
    merge is a concatenation, with |a| |b| inversions when b comes first.
    Otherwise the inversions of a + b are the pairs x in a, y in b with
    x > y; for each y they are the bits of a's mask above y.
    """
    if not a or not b or a[-1] < b[0]:
        return a + b, 1
    if b[-1] < a[0]:
        return b + a, -1 if len(a) & len(b) & 1 else 1
    mask = 0
    for x in a:
        mask |= 1 << x
    parity = 0
    for y in b:
        if mask & (1 << y):
            return None
        parity += (mask >> y).bit_count()
    return tuple(sorted(a + b)), -1 if parity & 1 else 1


# frozenset(range(total)) per total, built once; one immutable entry per
# frame dimension in use.
_INDICES: dict[int, frozenset[int]] = {}


def _complement_sign(idx: tuple[int, ...], total: int) -> tuple[tuple[int, ...], int]:
    """The indices of range(total) missing from idx, and the sign of idx + them.

    idx[k] - k complement indices lie below idx[k], each an inversion.
    """
    indices = _INDICES.get(total)
    if indices is None:
        indices = _INDICES[total] = frozenset(range(total))
    comp = tuple(sorted(indices.difference(idx)))
    k = len(idx)
    return comp, -1 if (sum(idx) - k * (k - 1) // 2) & 1 else 1


def _complement_star(a: Multivector, total: int) -> Multivector:
    """The Hodge star of a on range(total): e^I -> sign(I, I^c) e^(I^c).

    Distinct terms have distinct complements, which come in reverse order,
    so the result's terms are set directly.
    """
    terms = []
    for idx, c in reversed(a.terms):
        comp, sign = _complement_sign(idx, total)
        terms.append((comp, c if sign > 0 else -c))
    return _form(a.frame, total - a.degree, tuple(terms))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    _check_frames(a, b)
    products = []
    for ia, ca in a.terms:
        for ib, cb in b.terms:
            merged = _merge_sign(ia, ib)
            if merged is not None:
                idx, sign = merged
                products.append((idx, ca * cb if sign > 0 else -(ca * cb)))
    degree = a.degree + b.degree
    if len(a.terms) == 1 or len(b.terms) == 1:
        # One monomial times distinct monomials: distinct products, in order.
        return _form(a.frame, degree, tuple(products))
    acc: dict[tuple[int, ...], Coeff] = {}
    for idx, c in products:
        prev = acc.get(idx)
        acc[idx] = c if prev is None else prev + c
    return Multivector._trusted(a.frame, degree, acc)


def lefschetz_L(a: Multivector) -> Multivector:
    """omega ^ a (degree +2): insert each pair e^{2i-1} ^ e^{2i} missing from a term.

    The pair passes the indices below it as a block of two, so no sign
    arises; L is the transpose of lambda_op's contraction.
    """
    _require_transverse(a)
    return Multivector._trusted(a.frame, a.degree + 2, _insert_pairs(a.terms, a.frame.n))


def _insert_pairs(terms: Iterable[tuple[tuple[int, ...], Coeff]], n: int) -> dict[tuple[int, ...], Coeff]:
    """L on the (idx, c) terms of a transverse form over n pairs, as an {idx: c} map."""
    acc: dict[tuple[int, ...], Coeff] = {}
    for idx, c in terms:
        for i in range(n):
            lo = 2 * i
            if lo in idx or lo + 1 in idx:
                continue
            p = bisect_left(idx, lo)
            key = idx[:p] + (lo, lo + 1) + idx[p:]
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return acc


def _require_transverse(a: Multivector):
    if not a.is_transverse():
        raise TransverseRequired("operator only defined on transverse forms")


def symplectic_star(a: Multivector) -> Multivector:
    """The fiberwise symplectic star, fixed by b ^ *a = pairing(b, a) vol.

    The pairing induced by omega^{-1} is the metric pairing twisted by J, so
    the star is (-1)^k J *_b on degree-k forms.
    """
    _require_transverse(a)
    return j_action(hodge_star_transverse(a)).scaled((-1) ** a.degree)


def hodge_star_transverse(a: Multivector) -> Multivector:
    """Metric Hodge star on the transverse factor, volume omega^n/n!."""
    _require_transverse(a)
    return _complement_star(a, a.frame.transverse_dim)


def full_hodge_star(a: Multivector) -> Multivector:
    """Hodge star on the whole model space.

    The orientation is eta_1 ^ ... ^ eta_s ^ omega^n/n!, which for the
    internal index order (transverse first) agrees with the standard one
    because the transverse factor is even-dimensional.
    """
    return _complement_star(a, a.frame.total_dim)


def j_action(a: Multivector) -> Multivector:
    """Pullback along J (J e_{2i-1} = e_{2i}), acting factorwise on forms.

    On covectors, J e^{2i-1} = -e^{2i} and J e^{2i} = e^{2i-1}; 0-based,
    even t -> -(t+1) and odd t -> t-1.  A lone index of its pair moves to
    its partner, and a full pair (2i, 2i+1) maps to (2i+1, 2i), one
    inversion.  So e^I maps to (-1)^(even indices + full pairs) e^J(I), and
    distinct monomials have distinct images, whose terms are set directly
    (in sorted order; J does not keep the order of the terms).
    """
    _require_transverse(a)
    terms = []
    for idx, c in a.terms:
        present = set(idx)
        key = tuple([t if t ^ 1 in present else t ^ 1 for t in idx])
        evens = len([t for t in idx if not t & 1])
        pairs = len(idx) - len({t >> 1 for t in idx})  # two indices in one slot t >> 1
        terms.append((key, -c if (evens + pairs) & 1 else c))
    terms.sort()
    return _form(a.frame, a.degree, tuple(terms))


def lambda_op(a: Multivector) -> Multivector:
    """Lambda, the transpose of L: contract each pair e^{2i-1} ^ e^{2i}.

    Lambda e^I = sum over the pairs {2i-1, 2i} inside I of e^{I minus the
    pair}.  No sign arises, because L = omega ^ . inserts a pair without one.
    """
    _require_transverse(a)
    if a.degree < 2:
        return Multivector.zero(a.frame, a.degree - 2)
    return Multivector._trusted(a.frame, a.degree - 2, _contract_pairs(a.terms))


def _contract_pairs(terms: Iterable[tuple[tuple[int, ...], Coeff]]) -> dict[tuple[int, ...], Coeff]:
    """Lambda on the (idx, c) terms of a transverse form, as an {idx: c} map."""
    acc: dict[tuple[int, ...], Coeff] = {}
    for idx, c in terms:
        # In an increasing tuple a pair (2i, 2i+1), 0-based, sits side by side.
        for k in range(len(idx) - 1):
            if idx[k] % 2 == 0 and idx[k + 1] == idx[k] + 1:
                key = idx[:k] + idx[k + 2 :]
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
    return acc


def primitive_decompose(a: Multivector) -> list[tuple[int, Multivector]]:
    """Write a homogeneous form as sum_i L^i beta_i with beta_i primitive.

    The sl2 recursion (Huybrechts, Complex Geometry, 1.2): for a primitive
    beta of degree d, Lambda^m L^m beta = c_m beta with
    c_m = m! (n-d)! / (n-d-m)!, and Lambda^m kills L^i beta for i < m.  So,
    from the largest m down, beta_m = Lambda^m(rest) / c_m and rest loses
    L^m beta_m.  There are no primitive forms of degree d > n, and
    L^m beta = 0 when m > n - d, so those m are skipped.  The last step,
    m = 0, has c_0 = 1, so for a form of degree r <= n, beta_0 is what is
    left; for r > n there is no m = 0 step, and what is left must be zero.
    Returns the nonzero (i, beta_i) in increasing i.  Lambda and L keep a
    form transverse, so only `a` is checked; rest, Lambda^m(rest) and
    L^m beta_m are {idx: c} maps.
    """
    _require_transverse(a)
    n = a.frame.n
    rest = dict(a.terms)
    out = []
    for m in range(a.degree // 2, 0, -1):
        d = a.degree - 2 * m
        if d > n or m > n - d:
            continue
        beta = rest
        for _ in range(m):
            beta = _contract_pairs(beta.items())
        scale = Fraction(factorial(n - d - m), factorial(m) * factorial(n - d))
        if scale == 1:  # as in `scaled`, whole coefficients stay ints
            beta = {idx: c for idx, c in beta.items() if c}
        else:
            beta = {idx: scale * c for idx, c in beta.items() if c}
        if not beta:
            continue
        image = beta
        for _ in range(m):
            image = _insert_pairs(image.items(), n)
        for idx, c in image.items():
            prev = rest.get(idx)
            rest[idx] = -c if prev is None else prev - c
        out.append((m, Multivector._trusted(a.frame, d, beta)))
    if any(rest.values()):
        if a.degree > n:
            raise ValueError("the primitive components do not reconstruct the form")
        out.append((0, Multivector._trusted(a.frame, a.degree, rest)))
    return out[::-1]


def star_relation_counterexamples(frame: ModelFrame) -> list[tuple]:
    """Exhaustive check of the eta-splitting rule for the full Hodge star.

    For every transverse monomial alpha of degree r and subset I of {1..s}:
    *(eta_I ^ alpha) = (-1)^(sign(I, I^c) + (s-|I|) r) eta_{I^c} ^ *_b alpha.
    Returns the list of (I, alpha-index, got, expected) mismatches.
    """
    s, td = frame.s, frame.transverse_dim
    # Per eta subset I: eta_I, eta_{I^c} and sign(I, I^c), built once.
    subsets = []
    for size in range(s + 1):
        for subset in itertools.combinations(range(1, s + 1), size):
            comp = tuple(td + j - 1 for j in range(1, s + 1) if j not in subset)
            eta_part = _form(frame, size, ((tuple(td + j - 1 for j in subset), _ONE),))
            comp_part = _form(frame, s - size, ((comp, _ONE),))
            subsets.append((subset, eta_part, comp_part, index_subset_sign(subset)))
    bad = []
    for r in range(td + 1):
        for alpha_idx in monomials(frame, r):
            alpha = _form(frame, r, ((alpha_idx, _ONE),))
            star_alpha = hodge_star_transverse(alpha)
            for subset, eta_part, comp_part, subset_sign in subsets:
                lhs = full_hodge_star(wedge(eta_part, alpha))
                sign = (-1) ** (subset_sign + (s - len(subset)) * r)
                rhs = wedge(comp_part, star_alpha).scaled(sign)
                if lhs != rhs:
                    bad.append((subset, alpha_idx, lhs, rhs))
    return bad


def index_subset_sign(subset: Sequence[int]) -> int:
    """Inversion parity (0 or 1) of (subset, complement) as a permutation of 1..s.

    `subset` = (i_1 < ... < i_k) must be increasing, of 1-based indices.
    i_m has i_m - m complement indices below it, each an inversion, so s
    does not enter.
    """
    k = len(subset)
    return (sum(subset) - k * (k + 1) // 2) & 1
