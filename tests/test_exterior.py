import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle as oracle
from specseq.exterior import (
    FrameMismatch,
    ModelFrame,
    Multivector,
    TransverseRequired,
    _complement_sign,
    covector,
    eta,
    form_inner_product,
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
    transverse_volume,
    wedge,
)

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
    [(2, (1, 0)), (2, (1, 1)), (1, (4,)), (2, (0, 4)), (2, (0,)), (1, (0, 1))],
)
def test_make_rejects_bad_index_tuples(degree, idx):
    # Unsorted, repeated, out of range (total dim 2n + s = 4) or of the wrong
    # length; operations on valid forms skip these checks, `make` does not.
    with pytest.raises(ValueError):
        Multivector.make(ModelFrame(1, 2), degree, {idx: Q(1)})


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
    assert wedge(a, b) == wedge(b, a).scaled((-1) ** (p * q))


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
            comp, sign = _complement_sign(b_idx, td)
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


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_star_relation_exhaustive(n, s):
    assert star_relation_counterexamples(ModelFrame(n, s)) == []


def test_form_inner_product_orthonormal():
    f = ModelFrame(2)
    a = mono(f, 2, (0, 1), 3)
    b = mono(f, 2, (0, 1), Q(1, 3)) + mono(f, 2, (2, 3), 5)
    assert form_inner_product(a, b) == 1
    assert form_inner_product(a, mono(f, 2, (2, 3))) == 0


def test_index_subset_sign():
    assert index_subset_sign((), 3) == 0
    assert index_subset_sign((1,), 3) == 0
    assert index_subset_sign((2,), 3) == 1  # (2,1,3) has one inversion
    assert index_subset_sign((1, 2, 3), 3) == 0
    assert index_subset_sign((3,), 3) == 0  # (3,1,2) has two inversions
