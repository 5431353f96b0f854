"""Pointwise exterior algebra over the transverse model space.

The model space is R^{2n} (+) R^s with an orthonormal covector basis
e^1,...,e^{2n}, eta_1,...,eta_s, the standard symplectic two-form
omega = sum e^{2i-1} ^ e^{2i} on the transverse factor, and the compatible
complex structure J e_{2i-1} = e_{2i}.  Everything here is fiberwise linear
algebra with exact rational coefficients: wedge products, the symplectic
and metric star operators, the Lefschetz operators L and Lambda, and the
primitive decomposition.

Index layout: 0..2n-1 are the transverse covectors (0-based), 2n..2n+s-1
are eta_1..eta_s.  Public constructors take 1-based labels to match the
usual e^1, eta_1 notation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

Q = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@dataclass(frozen=True)
class Multivector:
    """Homogeneous element of the exterior algebra over the model space.

    `terms` maps strictly increasing index tuples of length `degree` to
    nonzero rational coefficients; it is stored sorted for canonical
    equality.
    """

    frame: ModelFrame
    degree: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def make(frame: ModelFrame, degree: int, coeffs: Mapping[tuple[int, ...], Fraction]) -> "Multivector":
        """The form sum c e^idx, with every index tuple checked against the frame."""
        cleaned = {}
        for idx, c in coeffs.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if not c:
                continue
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if idx and idx[-1] >= frame.total_dim:
                raise ValueError(f"index out of range for frame: {idx}")
            cleaned[idx] = c
        return Multivector._trusted(frame, degree, cleaned)

    @staticmethod
    def _trusted(frame: ModelFrame, degree: int, coeffs: Mapping[tuple[int, ...], Fraction]) -> "Multivector":
        """`make` for the results of operations on valid forms: the index
        tuples are known to be valid and the coefficients to be Fractions, so
        only the zero terms are dropped."""
        return Multivector(frame, degree, tuple(sorted((i, c) for i, c in coeffs.items() if c)))

    @staticmethod
    def zero(frame: ModelFrame, degree: int) -> "Multivector":
        return Multivector(frame, max(degree, 0), ())

    def is_zero(self) -> bool:
        return not self.terms

    def is_transverse(self) -> bool:
        td = self.frame.transverse_dim
        return all(i < td for idx, _ in self.terms for i in idx)

    def coefficient(self, idx: Sequence[int]) -> Fraction:
        idx = tuple(idx)
        for t, c in self.terms:
            if t == idx:
                return c
        return _ZERO

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, operator.sub)

    def _combine(self, other: "Multivector", op) -> "Multivector":
        _check_frames(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        acc = dict(self.terms)
        for idx, c in other.terms:
            acc[idx] = op(acc.get(idx, _ZERO), c)
        return Multivector._trusted(self.frame, self.degree, acc)

    def __neg__(self) -> "Multivector":
        return self.scaled(-1)

    def scaled(self, c) -> "Multivector":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return Multivector.zero(self.frame, self.degree)
        return Multivector(self.frame, self.degree, tuple((idx, c * v) for idx, v in self.terms))

    def __rmul__(self, c) -> "Multivector":
        return self.scaled(c)


def _check_frames(a: Multivector, b: Multivector):
    if a.frame != b.frame:
        raise FrameMismatch(f"frames differ: {a.frame} vs {b.frame}")


def scalar(frame: ModelFrame, value=1) -> Multivector:
    return Multivector.make(frame, 0, {(): Fraction(value)})


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


def transverse_volume(frame: ModelFrame) -> Multivector:
    """omega^n / n! = e^1 ^ ... ^ e^{2n}."""
    return Multivector.make(frame, 2 * frame.n, {tuple(range(frame.transverse_dim)): _ONE})


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
    """Sorted concatenation of two increasing tuples with the wedge sign."""
    if set(a) & set(b):
        return None
    return tuple(sorted(a + b)), (-1) ** _inversion_parity(a + b)


def _complement_sign(idx: tuple[int, ...], total: int) -> tuple[tuple[int, ...], int]:
    comp = tuple(i for i in range(total) if i not in idx)
    merged = _merge_sign(idx, comp)
    assert merged is not None
    return comp, merged[1]


def wedge(a: Multivector, b: Multivector) -> Multivector:
    _check_frames(a, b)
    acc: dict[tuple[int, ...], Fraction] = {}
    for ia, ca in a.terms:
        for ib, cb in b.terms:
            merged = _merge_sign(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            acc[idx] = acc.get(idx, _ZERO) + sign * ca * cb
    return Multivector._trusted(a.frame, a.degree + b.degree, acc)


def lefschetz_L(a: Multivector) -> Multivector:
    """omega ^ a (degree +2)."""
    _require_transverse(a)
    return wedge(omega(a.frame), a)


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
    td = a.frame.transverse_dim
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms:
        comp, sign = _complement_sign(idx, td)
        acc[comp] = acc.get(comp, _ZERO) + sign * c
    return Multivector._trusted(a.frame, td - a.degree, acc)


def full_hodge_star(a: Multivector) -> Multivector:
    """Hodge star on the whole model space.

    The orientation is eta_1 ^ ... ^ eta_s ^ omega^n/n!, which for the
    internal index order (transverse first) agrees with the standard one
    because the transverse factor is even-dimensional.
    """
    total = a.frame.total_dim
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms:
        comp, sign = _complement_sign(idx, total)
        acc[comp] = acc.get(comp, _ZERO) + sign * c
    return Multivector._trusted(a.frame, total - a.degree, acc)


def j_action(a: Multivector) -> Multivector:
    """Pullback along J (J e_{2i-1} = e_{2i}), acting factorwise on forms."""
    _require_transverse(a)
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms:
        # On covectors, J e^{2i-1} = -e^{2i} and J e^{2i} = e^{2i-1};
        # 0-based: even t -> -(t+1), odd t -> t-1.  The image indices of a
        # monomial are distinct, so only a reordering sign remains.
        sign = 1
        mapped = []
        for t in idx:
            if t % 2 == 0:
                mapped.append(t + 1)
                sign = -sign
            else:
                mapped.append(t - 1)
        sign *= (-1) ** _inversion_parity(mapped)
        key = tuple(sorted(mapped))
        acc[key] = acc.get(key, _ZERO) + sign * c
    return Multivector._trusted(a.frame, a.degree, acc)


def lambda_op(a: Multivector) -> Multivector:
    """Lambda, the transpose of L: contract each pair e^{2i-1} ^ e^{2i}.

    Lambda e^I = sum over the pairs {2i-1, 2i} inside I of e^{I minus the
    pair}.  No sign arises, because L = omega ^ . inserts a pair without one.
    """
    _require_transverse(a)
    if a.degree < 2:
        return Multivector.zero(a.frame, a.degree - 2)
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms:
        # In an increasing tuple a pair (2i, 2i+1), 0-based, sits side by side.
        for k in range(len(idx) - 1):
            if idx[k] % 2 == 0 and idx[k + 1] == idx[k] + 1:
                key = idx[:k] + idx[k + 2 :]
                acc[key] = acc.get(key, _ZERO) + c
    return Multivector._trusted(a.frame, a.degree - 2, acc)


def primitive_decompose(a: Multivector) -> list[tuple[int, Multivector]]:
    """Write a homogeneous form as sum_i L^i beta_i with beta_i primitive.

    The sl2 recursion (Huybrechts, Complex Geometry, 1.2): for a primitive
    beta of degree d, Lambda^m L^m beta = c_m beta with
    c_m = m! (n-d)! / (n-d-m)!, and Lambda^m kills L^i beta for i < m.  So,
    from the largest m down, beta_m = Lambda^m(rest) / c_m and rest loses
    L^m beta_m.  There are no primitive forms of degree d > n, and
    L^m beta = 0 when m > n - d, so those m are skipped.  Returns the nonzero
    (i, beta_i) in increasing i.
    """
    _require_transverse(a)
    n = a.frame.n
    rest = a
    out = []
    for m in range(a.degree // 2, -1, -1):
        d = a.degree - 2 * m
        if d > n or m > n - d:
            continue
        beta = rest
        for _ in range(m):
            beta = lambda_op(beta)
        if beta.is_zero():
            continue
        beta = beta.scaled(Fraction(factorial(n - d - m), factorial(m) * factorial(n - d)))
        image = beta
        for _ in range(m):
            image = lefschetz_L(image)
        rest = rest - image
        out.append((m, beta))
    if not rest.is_zero():
        raise ValueError("the primitive components do not reconstruct the form")
    return out[::-1]


def form_inner_product(a: Multivector, b: Multivector) -> Fraction:
    """Metric inner product of forms; the monomial basis is orthonormal."""
    _check_frames(a, b)
    if a.degree != b.degree:
        return _ZERO
    d = dict(b.terms)
    return sum((c * d.get(idx, _ZERO) for idx, c in a.terms), _ZERO)


def star_relation_counterexamples(frame: ModelFrame) -> list[tuple]:
    """Exhaustive check of the eta-splitting rule for the full Hodge star.

    For every transverse monomial alpha of degree r and subset I of {1..s}:
    *(eta_I ^ alpha) = (-1)^(sign(I, I^c) + (s-|I|) r) eta_{I^c} ^ *_b alpha.
    Returns the list of (I, alpha-index, got, expected) mismatches.
    """
    s = frame.s
    # Per eta subset I: eta_I, eta_{I^c} and sign(I, I^c), built once.
    subsets = []
    for size in range(s + 1):
        for subset in itertools.combinations(range(1, s + 1), size):
            eta_part = scalar(frame)
            for j in subset:
                eta_part = wedge(eta_part, eta(frame, j))
            comp_part = scalar(frame)
            for j in range(1, s + 1):
                if j not in subset:
                    comp_part = wedge(comp_part, eta(frame, j))
            subsets.append((subset, eta_part, comp_part, index_subset_sign(subset, s)))
    bad = []
    for r in range(frame.transverse_dim + 1):
        for alpha_idx in monomials(frame, r):
            alpha = Multivector.make(frame, r, {alpha_idx: _ONE})
            star_alpha = hodge_star_transverse(alpha)
            for subset, eta_part, comp_part, subset_sign in subsets:
                lhs = full_hodge_star(wedge(eta_part, alpha))
                sign = (-1) ** (subset_sign + (s - len(subset)) * r)
                rhs = wedge(comp_part, star_alpha).scaled(sign)
                if lhs != rhs:
                    bad.append((subset, alpha_idx, lhs, rhs))
    return bad


def index_subset_sign(subset: Sequence[int], s: int) -> int:
    """Inversion parity (0 or 1) of (subset, complement) as a permutation of 1..s."""
    comp = [j for j in range(1, s + 1) if j not in subset]
    return _inversion_parity(list(subset) + comp)
