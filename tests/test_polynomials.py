import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom.bases import h_basis_family, h_complete, key_basis_family
from flaghom.kohnert import build_Da, diagram_weight, kohnert_closure
from flaghom.compositions import strip
from flaghom.polynomials import (Poly, divided_difference, express_in_basis,
                                 poly_to_json)

X1 = Poly.variable(1)
X2 = Poly.variable(2)


def test_addition():
    assert (X1 + (-X1)).is_zero()
    assert (X1 + X2).terms == {(1,): 1, (0, 1): 1}
    p = X1 * X2 + 3
    assert p + Poly.zero() == p


def test_from_terms_cancels_merges_and_starts_at_zero():
    assert Poly.from_terms([((1, 2), 3), ((1, 2), -3)]).is_zero()
    assert Poly.from_terms([((1, 0), 2), ((1,), 5)]).terms == {(1,): 7}
    assert Poly.from_terms([]) == Poly.zero()
    assert Poly.from_terms(iter(())).terms == {}


def test_constructor_rejects_bad_terms():
    # x1*x2^-1 was once stored and printed as x1*x2, and 1.5*x1 kept
    for terms in [{(1, -1): 1}, {(1.0,): 1}, {(True,): 1}, {(1,): 1.5}, {(1,): True}]:
        with pytest.raises(ValueError):
            Poly(terms)
    with pytest.raises(ValueError, match="negative part"):
        Poly.monomial((1, -1))
    with pytest.raises(ValueError, match="non-integer coefficient"):
        Poly.monomial((1,), 0.5)
    assert Poly({(1, 0): 2, (0,): 0}).terms == {(1,): 2}


def test_from_terms_matches_repeated_monomial_sum():
    closure = kohnert_closure(build_Da((1, 0, 2)))
    want = Poly.zero()
    for T in closure:
        want = want + Poly.monomial(diagram_weight(T))
    assert Poly.from_terms((diagram_weight(T), 1) for T in closure) == want


def test_multiplication():
    assert X1 * X2 == Poly.monomial((1, 1))
    assert (X1 + X2) ** 2 == Poly({(2,): 1, (1, 1): 2, (0, 2): 1})
    p = (X1 + X2) ** 3 - X2
    assert p * Poly.one() == p
    assert p * 1 == p
    assert (p * 0).is_zero()
    assert 3 * p == p * 3 == p + p + p
    assert (p + 1).terms == {**p.terms, (): 1}
    assert (p - 1).terms == {**p.terms, (): -1}


@pytest.mark.parametrize("other", [True, 1.5, "1", None])
def test_an_operand_is_a_poly_or_an_int(other):
    # * 1.5 once raised AttributeError, * True acted as * 1, + True raised
    # ValueError through the checked constructor and == True held; an int
    # on the left of - once raised TypeError
    one = Poly.one()
    for op in [operator.add, operator.sub, operator.mul]:
        with pytest.raises(ValueError, match="cannot combine"):
            op(one, other)
        with pytest.raises(ValueError, match="cannot combine"):
            op(other, one)
    assert (one == other) is False and one != other
    assert (one == 1) is True
    assert 1 - X1 == -(X1 - 1) == Poly({(): 1, (1,): -1})
    assert (3 - one) == 2 and (1 - one).is_zero()


def test_coefficient():
    p = X1 + X2
    assert p.coefficient((0, 1)) == 1
    assert p.coefficient((2, 0)) == 0
    assert Poly.zero().coefficient((5,)) == 0
    # trailing zeros in the exponent are immaterial
    assert p.coefficient((1, 0, 0)) == 1


def test_ring_axioms_on_samples():
    samples = [Poly.one(), X1, X2 - 1, (X1 + X2) ** 2, X1 * X2 - 3 * X1]
    for p in samples:
        for q in samples:
            assert p + q == q + p
            assert p * q == q * p
            for r in samples:
                assert (p + q) + r == p + (q + r)
                assert (p * q) * r == p * (q * r)
                assert p * (q + r) == p * q + p * r


def test_express_in_h_basis():
    h11 = h_complete(1, 2) * h_complete(1, 2)
    family = h_basis_family([2], 2)
    assert express_in_basis(h11, family) == {(0, 2): 1, (1, 1): 1, (2,): -1}


def test_an_int_is_a_constant_operand_and_nothing_else_is():
    # divided_difference(5, 1) and express_in_basis(3, []) once raised AttributeError
    assert divided_difference(5, 1) == 0
    assert express_in_basis(3, h_basis_family([0], 1)) == {(): 3}
    for p in ["x", True, None]:
        with pytest.raises(ValueError, match="cannot combine a Poly"):
            divided_difference(p, 1)
        with pytest.raises(ValueError, match="cannot combine a Poly"):
            express_in_basis(p, [])
    with pytest.raises(ValueError, match="not lie in the span"):
        express_in_basis(3, [])


def test_express_basis_element_is_unit_vector():
    family = h_basis_family([2, 3], 2)
    for index, poly in family:
        got = express_in_basis(poly, family)
        key = tuple(index)
        while key and key[-1] == 0:
            key = key[:-1]
        assert got == {key: 1}


def test_express_in_key_basis():
    family = key_basis_family([2], 2)
    assert express_in_basis(X1 * X2, family) == {(1, 1): 1}


def test_express_roundtrip_and_rejection():
    family = h_basis_family([0, 1, 2, 3], 2)
    by_index = dict(family)
    p = (X1 + X2) ** 3 - 2 * (X1 * X2) + 5
    coeffs = express_in_basis(p, family)
    recombined = Poly.zero()
    for index, c in coeffs.items():
        recombined = recombined + c * by_index[index + (0,) * (2 - len(index))]
    assert recombined == p
    with pytest.raises(ValueError):
        express_in_basis(Poly.variable(3), h_basis_family([1], 2))
    # a window of 1.5 once raised TypeError, and -1 an itertools message
    for family_of in (h_basis_family, key_basis_family):
        for n in (1.5, True, -1):
            with pytest.raises(ValueError, match="is not an integer >= 0"):
                family_of([1], n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([h_basis_family, key_basis_family]),
       st.integers(1, 3), st.integers(0, 3), st.data())
def test_express_gives_back_the_coefficients_of_a_combination(family_of, n, d, data):
    family = family_of([d], n)
    coefs = data.draw(st.lists(st.integers(-3, 3), min_size=len(family),
                               max_size=len(family)))
    p = Poly.zero()
    for (_, elem), c in zip(family, coefs):
        p = p + c * elem
    want = {strip(index): c for (index, _), c in zip(family, coefs) if c}
    assert express_in_basis(p, family) == want


def test_json_order():
    p = (X1 + X2) ** 2 + X1
    data = poly_to_json(p)
    assert data == [
        {"exp": [1, 0], "coef": 1},
        {"exp": [0, 2], "coef": 1},
        {"exp": [1, 1], "coef": 2},
        {"exp": [2, 0], "coef": 1},
    ]


def test_divided_difference():
    assert divided_difference(X1, 1) == Poly.one()
    assert divided_difference(X1 ** 2, 1) == X1 + X2
    # symmetric input is annihilated
    assert divided_difference(X1 * X2, 1).is_zero()
    assert divided_difference(X1 + X2, 1).is_zero()
    # each homogeneous part drops one degree: 4 -> 3 and 2 -> 1
    p = Poly.monomial((3, 1)) - Poly.monomial((0, 2))
    assert {sum(e) for e in divided_difference(p, 1).terms} == {3, 1}


@pytest.mark.parametrize("i", [0, -1, True, 1.0, "1", None])
def test_index_arguments_reject_a_non_positive_or_non_integer_index(i):
    # divided_difference(x1^2, 0) once returned 0, (x1^2 x2, -1) gave x1 x2,
    # and Poly.variable(0) and (-1) both gave x1
    with pytest.raises(ValueError, match="index .* is not an integer >= 1"):
        divided_difference(X1 ** 2 * X2, i)
    with pytest.raises(ValueError, match="index .* is not an integer >= 1"):
        Poly.variable(i)


def test_scalars_powers_and_repr():
    assert Poly.one() == 1 and X1 != 1 and Poly.zero() == 0
    assert bool(X1) and not Poly.zero()
    with pytest.raises(ValueError, match="power -1 is not an integer >= 0"):
        X1 ** -1
    # ** True once acted as ** 1
    for k in [True, 1.5]:
        with pytest.raises(ValueError, match="not an integer"):
            X1 ** k
    assert repr(-X1) == "-x1"
    assert repr(X2 - X1 ** 2 * X2) == "x2 - x1^2*x2"
    assert repr(X1 * X2 - 3 * X1 + 2) == "2 - 3*x1 + x1*x2"
