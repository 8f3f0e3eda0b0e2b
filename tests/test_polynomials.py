import pytest

from flaghom.bases import h_basis_family, h_complete, key_basis_family
from flaghom.kohnert import build_Da, diagram_weight, kohnert_closure
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


def test_json_order():
    p = (X1 + X2) ** 2 + X1
    data = poly_to_json(p, 2)
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
