import itertools
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle as oracle
from exterior_oracle import form_inner_product, transverse_volume
from specseq.exterior import (
    FrameMismatch,
    ModelFrame,
    Multivector,
    TransverseRequired,
    _complement_sign,
    _inversion_parity,
    _merge_sign,
    covector,
    eta,
    full_hodge_star,
    hodge_star_transverse,
    index_subset_sign,
    j_action,
    lambda_op,
    lefschetz_L,
    monomials,
    omega,
    primitive_decompose,
    scalar,
    star_relation_counterexamples,
    symplectic_star,
    wedge,
)
from specseq.modelfile import FLAG_LIMITS

Q = Fraction


def mono(frame, degree, idx, c=1):
    return Multivector.make(frame, degree, {tuple(idx): Q(c)})


def random_forms(frame, degree):
    idxs = monomials(frame, degree)
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=len(idxs),
        max_size=len(idxs),
    ).map(lambda cs: Multivector.make(frame, degree, dict(zip(idxs, cs))))


@pytest.mark.parametrize(
    "degree, idx",
    [(2, (1, 0)), (2, (1, 1)), (1, (4,)), (2, (0, 4)), (2, (0,)), (1, (0, 1)), (1, (-1,)), (1, (1.0,))],
)
def test_make_rejects_bad_index_tuples(degree, idx):
    # Unsorted, repeated, out of range (total dim 2n + s = 4), of the wrong
    # length or not an int, with a zero coefficient too; operations on valid
    # forms skip these checks, `make` does not.
    for c in (Q(1), 0):
        with pytest.raises(ValueError):
            Multivector.make(ModelFrame(1, 2), degree, {idx: c})


def test_sub_and_scaled_drop_zero_terms():
    f = ModelFrame(2)
    a = mono(f, 2, (0, 1)) + mono(f, 2, (2, 3), 3)
    assert (a - a).is_zero() and a.scaled(0).is_zero()
    assert a - mono(f, 2, (0, 1)) == mono(f, 2, (2, 3), 3)
    assert -a == a.scaled(-1) == Multivector.make(f, 2, {(0, 1): -1, (2, 3): -3})
    with pytest.raises(ValueError):
        a - mono(f, 1, (0,))
    with pytest.raises(FrameMismatch):
        a - mono(ModelFrame(3), 2, (0, 1))


def _sign_by_count(a, b):
    """(-1) to the number of pairs x in a, y in b with x > y: the sign of
    sorting the concatenation a + b of two increasing tuples."""
    return (-1) ** sum(x > y for x in a for y in b)


def _complement_by_count(idx, total):
    comp = tuple(i for i in range(total) if i not in idx)
    return comp, _sign_by_count(idx, comp)


def test_merge_and_complement_signs_count_the_inversions():
    subsets = [c for k in range(8) for c in itertools.combinations(range(7), k)]
    for a in subsets:
        for total in range(max(a, default=-1) + 1, 8):
            assert _complement_sign(a, total) == _complement_by_count(a, total)
        for b in subsets:
            expect = None if set(a) & set(b) else (tuple(sorted(a + b)), _sign_by_count(a, b))
            assert _merge_sign(a, b) == expect


def test_scaled_by_one_minus_one_and_zero_match_the_products():
    f = ModelFrame(2)
    a = mono(f, 2, (0, 1), Q(2, 3)) + mono(f, 2, (1, 3), -5)
    for c in (1, -1, 0, Q(1), Q(-1), Q(0)):
        product = Multivector(f, 2, tuple((idx, Q(c) * v) for idx, v in a.terms if c))
        assert a.scaled(c) == product


def test_wedge_basic():
    f = ModelFrame(1)
    assert wedge(covector(f, 1), covector(f, 2)) == mono(f, 2, (0, 1))
    a = covector(f, 1)
    assert wedge(a, a).is_zero()


def test_wedge_expansion():
    f = ModelFrame(2)
    a = covector(f, 1) + covector(f, 3)
    b = covector(f, 2) + covector(f, 4)
    expect = (
        mono(f, 2, (0, 1))
        + mono(f, 2, (0, 3))
        + mono(f, 2, (2, 3))
        + mono(f, 2, (1, 2), -1)  # e3^e2 = -e2^e3
    )
    assert wedge(a, b) == expect


def _wedge_by_pairs(a, b):
    """The sum over term pairs of +-ca cb e^(ia + ib), signed by counting
    the inversions, the pairs that share an index left out."""
    acc = {}
    for ia, ca in a.terms:
        for ib, cb in b.terms:
            if not set(ia) & set(ib):
                idx = tuple(sorted(ia + ib))
                acc[idx] = acc.get(idx, 0) + _sign_by_count(ia, ib) * ca * cb
    return Multivector.make(a.frame, a.degree + b.degree, acc)


# Forms on ModelFrame(3, 2), indices 0..7.  Against (2, 5), the terms of
# MIXED lie wholly below (0, 1), wholly above (6, 7), interleaved (1, 3),
# (0, 3), (3, 4) and (1, 6), or overlapping (2, 4) and (5, 7).
ONE = {(2, 5): Q(2, 3)}
MIXED = {(0, 1): 1, (0, 3): -2, (1, 3): Q(1, 2), (1, 6): 3, (2, 4): -1, (3, 4): 5, (5, 7): 4, (6, 7): Q(-3, 2)}


@pytest.mark.parametrize(
    "a, b",
    [
        (ONE, MIXED),  # one term on the left
        (MIXED, ONE),  # one term on the right
        ({(): 3}, MIXED),  # a one-term scalar
        (MIXED, {(): Q(-1, 2)}),
        (ONE, {(0, 1): 1}),  # one term each: wholly below, above, interleaved, overlapping
        (ONE, {(6, 7): -1}),
        ({(0, 1): 1}, ONE),
        ({(6, 7): -1}, ONE),
        (ONE, {(3, 4): 2}),
        (ONE, {(2, 4): 2}),
        (ONE, {}),
        ({(0,): 1, (2,): 2, (5,): -1}, MIXED),  # products that collide
        ({(1, 2): 1, (3, 5): -1, (0, 4): 2}, {(0, 6): 1, (2, 3): 1, (4, 7): Q(1, 3)}),
    ],
)
def test_wedge_matches_the_sum_over_term_pairs(a, b):
    f = ModelFrame(3, 2)
    a = Multivector.make(f, len(next(iter(a))), a)
    b = Multivector.make(f, len(next(iter(b))) if b else 2, b)
    assert wedge(a, b) == _wedge_by_pairs(a, b)


def test_wedge_frame_mismatch():
    with pytest.raises(FrameMismatch):
        wedge(covector(ModelFrame(1), 1), covector(ModelFrame(2), 1))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_wedge_graded_commutative(data):
    f = ModelFrame(2)
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3))
    a = data.draw(random_forms(f, p))
    b = data.draw(random_forms(f, q))
    assert wedge(a, b) == wedge(b, a).scaled((-1) ** (p * q)) == _wedge_by_pairs(a, b)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_wedge_associative(data):
    f = ModelFrame(2)
    a = data.draw(random_forms(f, 1))
    b = data.draw(random_forms(f, 1))
    c = data.draw(random_forms(f, 2))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_lefschetz_L_cases():
    f1 = ModelFrame(1)
    assert lefschetz_L(scalar(f1)) == omega(f1)
    assert lefschetz_L(omega(f1)).is_zero()
    f2 = ModelFrame(2)
    assert lefschetz_L(covector(f2, 1)) == mono(f2, 3, (0, 2, 3))


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.integers(0, 2 * n).flatmap(lambda r: random_forms(ModelFrame(n), r))
    )
)
def test_lefschetz_L_is_the_wedge_with_omega(a):
    assert lefschetz_L(a) == wedge(omega(a.frame), a)


def test_symplectic_star_low_degree():
    f = ModelFrame(1)
    assert symplectic_star(scalar(f)) == transverse_volume(f)
    # With the omega-inverse pairing, *s e1 = -e1 and *s e2 = -e2; this is
    # the sign under which *s*s = id and J *s = *b both hold.
    assert symplectic_star(covector(f, 1)) == covector(f, 1).scaled(-1)
    assert symplectic_star(covector(f, 2)) == covector(f, 2).scaled(-1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_star_involution(n):
    f = ModelFrame(n)
    for r in range(2 * n + 1):
        for idx in monomials(f, r):
            a = mono(f, r, idx)
            assert symplectic_star(symplectic_star(a)) == a


# Oracle: the symplectic star from its definition, b ^ *a = pairing(b, a) vol,
# where pairing(b, a) is the determinant of the omega-inverse entries.


def _poisson_entry(i, j):
    # Matrix inverse of omega(e_i, e_j); per 2x2 block [[0,1],[-1,0]] the
    # inverse is [[0,-1],[1,0]].
    if i // 2 != j // 2 or i == j:
        return Q(0)
    return Q(-1) if i < j else Q(1)


def _det(rows):
    total = Q(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = Q((-1) ** inversions)
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def _omega_pairing(b_idx, a_idx):
    return _det([[_poisson_entry(i, j) for j in a_idx] for i in b_idx])


def _symplectic_star_by_pairing(a):
    td = a.frame.transverse_dim
    acc = {}
    for b_idx in monomials(a.frame, a.degree):
        val = sum((c * _omega_pairing(b_idx, m_idx) for m_idx, c in a.terms), Q(0))
        if val:
            comp, sign = _complement_by_count(b_idx, td)
            acc[comp] = acc.get(comp, Q(0)) + sign * val
    return Multivector.make(a.frame, td - a.degree, acc)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_symplectic_star_matches_pairing_definition(n):
    f = ModelFrame(n)
    for r in range(2 * n + 1):
        for idx in monomials(f, r):
            a = mono(f, r, idx)
            assert symplectic_star(a) == _symplectic_star_by_pairing(a)
            # The omega-inverse pairing is the metric pairing twisted by J.
            for b_idx in monomials(f, r):
                assert _omega_pairing(b_idx, idx) == j_action(mono(f, r, b_idx)).coefficient(idx)


transverse_forms = st.integers(1, 3).flatmap(
    lambda n: st.integers(0, 2 * n).flatmap(lambda r: random_forms(ModelFrame(n), r))
)


@settings(deadline=None, max_examples=30)
@given(transverse_forms)
def test_symplectic_star_matches_pairing_definition_on_sums(a):
    assert symplectic_star(a) == _symplectic_star_by_pairing(a)


def test_hodge_star_transverse_cases():
    f = ModelFrame(1)
    assert hodge_star_transverse(scalar(f)) == transverse_volume(f)
    assert hodge_star_transverse(covector(f, 1)) == covector(f, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hodge_star_signs(n):
    f = ModelFrame(n)
    for r in range(2 * n + 1):
        for idx in monomials(f, r):
            a = mono(f, r, idx)
            twice = hodge_star_transverse(hodge_star_transverse(a))
            assert twice == a.scaled((-1) ** (r * (2 * n - r)))


def _star_by_complements(a, total):
    acc = {}
    for idx, c in a.terms:
        comp, sign = _complement_by_count(idx, total)
        acc[comp] = sign * c
    return Multivector.make(a.frame, total - a.degree, acc)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_stars_match_the_complement_of_each_term(data):
    n, s = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    f = ModelFrame(n, s)
    a, _ = data.draw(mixed_forms(f, data.draw(st.integers(0, 2 * n))))
    b, _ = data.draw(mixed_forms(f, data.draw(st.integers(0, f.total_dim)), transverse=False))
    assert hodge_star_transverse(a) == _star_by_complements(a, f.transverse_dim)
    assert full_hodge_star(a) == _star_by_complements(a, f.total_dim)
    assert full_hodge_star(b) == _star_by_complements(b, f.total_dim)


def test_j_action_cases():
    f = ModelFrame(1)
    assert j_action(covector(f, 1)) == covector(f, 2).scaled(-1)
    f2 = ModelFrame(2)
    assert j_action(omega(f2)) == omega(f2)
    for r in range(5):
        for idx in monomials(f2, r):
            a = mono(f2, r, idx)
            assert j_action(j_action(a)) == a.scaled((-1) ** r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_star_s_is_star_b(n):
    f = ModelFrame(n)
    for r in range(2 * n + 1):
        for idx in monomials(f, r):
            a = mono(f, r, idx)
            assert j_action(symplectic_star(a)) == hodge_star_transverse(a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_of_omega(n):
    f = ModelFrame(n)
    assert lambda_op(omega(f)) == scalar(f, n)


def test_lambda_low_degree_and_primitive_two_form():
    f = ModelFrame(2)
    assert lambda_op(scalar(f)).is_zero()
    assert lambda_op(covector(f, 1)).is_zero()
    assert lambda_op(mono(f, 2, (0, 2))).is_zero()  # e1^e3 is primitive


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lambda_adjoint_to_L(n):
    f = ModelFrame(n)
    for r in range(2 * n - 1):
        l_mat = oracle.operator_matrix(f, lefschetz_L, r, r + 2)
        lam_mat = oracle.operator_matrix(f, lambda_op, r + 2, r)
        assert l_mat == lam_mat.transpose()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_lambda_is_the_star_conjugate_of_L(n):
    f = ModelFrame(n)
    for r in range(2 * n + 1):
        for idx in monomials(f, r):
            a = mono(f, r, idx)
            assert lambda_op(a) == oracle.lambda_op(a)


@settings(deadline=None, max_examples=30)
@given(transverse_forms)
def test_lambda_is_the_star_conjugate_of_L_on_sums(a):
    assert lambda_op(a) == oracle.lambda_op(a)


def test_transverse_required():
    f = ModelFrame(1, 1)
    with pytest.raises(TransverseRequired):
        lefschetz_L(eta(f, 1))


def test_primitive_decompose_examples():
    f = ModelFrame(2)
    # A primitive 1-form decomposes as itself.
    a = covector(f, 1)
    assert primitive_decompose(a) == [(0, a)]
    # omega = L(1).
    assert primitive_decompose(omega(f)) == [(1, scalar(f))]
    # e1^e2 splits into a primitive part and omega/2.
    comps = dict(primitive_decompose(mono(f, 2, (0, 1))))
    assert comps[1] == scalar(f, Q(1, 2))
    assert lambda_op(comps[0]).is_zero()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_primitive_decompose_reconstructs(data):
    n = data.draw(st.integers(1, 3))
    f = ModelFrame(n)
    r = data.draw(st.integers(0, 2 * n))
    a = data.draw(random_forms(f, r))
    comps = primitive_decompose(a)
    total = Multivector.zero(f, r)
    for i, beta in comps:
        assert lambda_op(beta).is_zero() if beta.degree >= 2 else True
        img = beta
        for _ in range(i):
            img = lefschetz_L(img)
        total = total + img
    assert total == a


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_primitive_decompose_matches_solve_oracle(data):
    n = data.draw(st.integers(0, 3))
    f = ModelFrame(n)
    r = data.draw(st.integers(0, 2 * n))
    a = data.draw(random_forms(f, r))
    assert primitive_decompose(a) == oracle.primitive_decompose(a)


@pytest.mark.parametrize("n", [2, 3])
def test_sl2_commutator_on_primitives(n):
    # [L, Lambda] = (n - r) on primitive r-forms.
    f = ModelFrame(n)
    for r in range(n + 1):
        for beta in oracle.primitive_monomial_basis(f, r):
            bracket = lambda_op(lefschetz_L(beta))
            if r >= 2:
                bracket = bracket - lefschetz_L(lambda_op(beta))
            assert bracket == beta.scaled(n - r)


def test_full_hodge_star_top_form():
    f = ModelFrame(1, 1)
    top = wedge(eta(f, 1), transverse_volume(f))
    # eta_1 ^ e1 ^ e2 = + e1 ^ e2 ^ eta_1 (even transverse block).
    assert full_hodge_star(top) == scalar(f)
    assert full_hodge_star(eta(f, 1)) == transverse_volume(f)


def _flag_range(flag):
    low, high = FLAG_LIMITS["star-check"][flag]
    return range(low, high + 1)


# Every frame `specseq star-check` accepts.
@pytest.mark.parametrize("n", _flag_range("n"))
@pytest.mark.parametrize("s", _flag_range("s"))
def test_star_relation_exhaustive(n, s):
    assert star_relation_counterexamples(ModelFrame(n, s)) == []


def test_star_check_does_no_fraction_arithmetic(monkeypatch):
    # Every coefficient the star check builds is +-1, held as an int.
    calls = []
    for name in ("__mul__", "__rmul__", "__neg__", "__add__", "__radd__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, op=op, name=name: calls.append(name) or op(*args))
    assert star_relation_counterexamples(ModelFrame(2, 2)) == []
    assert calls == []


mixed_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-3, 3).map(Q),
)


def mixed_forms(frame, degree, transverse=True):
    """Forms whose coefficients mix ints, whole-number Fractions and other
    Fractions, as the results of operations may hold them, each paired with
    its all-Fraction copy."""
    idxs = monomials(frame, degree, transverse)
    return st.lists(mixed_coefficients, min_size=len(idxs), max_size=len(idxs)).map(
        lambda cs: (
            Multivector(frame, degree, tuple((i, c) for i, c in zip(idxs, cs) if c)),
            Multivector(frame, degree, tuple((i, Q(c)) for i, c in zip(idxs, cs) if c)),
        )
    )


def assert_same(x, y):
    assert x == y and hash(x) == hash(y)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_mixed_int_and_fraction_coefficients_give_the_same_results(data):
    n, s = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    f = ModelFrame(n, s)
    r, p = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, f.total_dim))
    a, qa = data.draw(mixed_forms(f, r))
    a2, qa2 = data.draw(mixed_forms(f, r))
    b, qb = data.draw(mixed_forms(f, p, transverse=False))
    c = data.draw(mixed_coefficients)
    assert_same(a, qa)
    assert_same(Multivector.make(f, r, dict(a.terms)), a)
    assert_same(wedge(a, b), wedge(qa, qb))
    assert_same(a + a2, qa + qa2)
    assert_same(a - a2, qa - qa2)
    assert_same(a.scaled(c), qa.scaled(Q(c)))
    assert_same(full_hodge_star(b), full_hodge_star(qb))
    for op in (lefschetz_L, hodge_star_transverse, symplectic_star, j_action):
        assert_same(op(a), op(qa))
    assert_same(lambda_op(a), oracle.lambda_op(qa))
    assert_same(tuple(primitive_decompose(a)), tuple(oracle.primitive_decompose(qa)))


def assert_pinned(x):
    """x is a frozen Multivector equal, by ==, hash and repr, to the one the
    dataclass constructor builds from its fields."""
    assert type(x) is Multivector
    built = Multivector(x.frame, x.degree, x.terms)
    assert x == built and hash(x) == hash(built) and repr(x) == repr(built)
    for name, value in (("frame", x.frame), ("degree", x.degree + 1), ("terms", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, value)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_every_operation_returns_a_frozen_form_equal_to_the_constructed_one(data):
    n, s = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    f = ModelFrame(n, s)
    r, p = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, f.total_dim))
    a, _ = data.draw(mixed_forms(f, r))
    a2, _ = data.draw(mixed_forms(f, r))
    b, _ = data.draw(mixed_forms(f, p, transverse=False))
    c = data.draw(st.one_of(st.sampled_from([1, -1, 0]), mixed_coefficients))
    results = [
        Multivector.make(f, r, dict(a.terms)),
        Multivector.zero(f, r),
        a.scaled(c),
        c * a,
        -a,
        a + a2,
        a - a2,
        wedge(a, b),
        full_hodge_star(b),
        scalar(f, c),
        omega(f),
        transverse_volume(f),
    ]
    ops = (lefschetz_L, lambda_op, hodge_star_transverse, symplectic_star, j_action)
    results += [op(a) for op in ops]
    results += [beta for _, beta in primitive_decompose(a)]
    results += [covector(f, i) for i in range(1, 2 * n + 1)] + [eta(f, j) for j in range(1, s + 1)]
    for x in results:
        assert_pinned(x)


def test_form_inner_product_orthonormal():
    f = ModelFrame(2)
    a = mono(f, 2, (0, 1), 3)
    b = mono(f, 2, (0, 1), Q(1, 3)) + mono(f, 2, (2, 3), 5)
    assert form_inner_product(a, b) == 1
    assert form_inner_product(a, mono(f, 2, (2, 3))) == 0


def test_index_subset_sign():
    for s in range(8):
        for k in range(s + 1):
            for subset in itertools.combinations(range(1, s + 1), k):
                complement = [j for j in range(1, s + 1) if j not in subset]
                assert index_subset_sign(subset) == _inversion_parity(list(subset) + complement)
