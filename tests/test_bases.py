from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom.bases import (BasisExpansion, _bruhat_ideal, _key_counts,
                           _ssyt_of_weight, demazure_atom, expand_h_into_atoms,
                           expand_h_into_keys, h_complete, h_flagged,
                           h_flagged_matrix_oracle, h_sym, key_polynomial,
                           kostka, ktilde, ktilde_upper, schur_ssyt)
from flaghom.compositions import compositions_of, pad, partitions_of, rev, sort_comp
from flaghom.fillings import enumerate_fillings, key_diagram
from flaghom.kohnert import build_Da, kohnert_polynomial
from flaghom.polynomials import Poly
from flaghom.schubert import h_schubert_expansion
from flaghom.snakes import expand_key_into_h
from oracles import _demazure_by_operators, key_counts_by_shapes, ssyt_of_weight_by_shapes

X1 = Poly.variable(1)
X2 = Poly.variable(2)


def test_h_flagged_examples():
    assert h_flagged((0, 0, 0)) == Poly.one()
    assert h_flagged((0, 2)) == X1 ** 2 + X1 * X2 + X2 ** 2
    assert h_flagged((1, 1)) == X1 ** 2 + X1 * X2


def test_matrix_oracle_examples():
    assert h_flagged_matrix_oracle((1, 0)) == X1
    assert h_flagged_matrix_oracle((0, 1)) == X1 + X2
    assert h_flagged_matrix_oracle((0, 2)) == X1 ** 2 + X1 * X2 + X2 ** 2


def test_h_flagged_agrees_with_matrix_oracle():
    for n in (1, 2, 3):
        for d in range(5):
            for a in compositions_of(d, n):
                assert h_flagged(a, n) == h_flagged_matrix_oracle(a), a


def test_stable_limit():
    for n in (1, 2, 3):
        for d in range(5):
            for a in compositions_of(d, n):
                if sum(1 for p in a if p) > 2:
                    continue
                shifted = h_flagged((0,) * n + a, 2 * n)
                assert shifted.restrict_vars(n) == h_sym(sort_comp(a), n), a


def test_key_polynomial_examples():
    assert key_polynomial((0, 0)) == Poly.one()
    assert key_polynomial((0, 1), 2) == X1 + X2
    assert key_polynomial((2, 0), 2) == X1 ** 2


def test_key_of_reversed_partition_is_schur():
    for n in (2, 3):
        for d in range(5):
            for lam in partitions_of(d):
                if len(lam) > n:
                    continue
                assert key_polynomial(rev(lam, n), n) == schur_ssyt(lam, n), (lam, n)


def test_atom_examples():
    assert demazure_atom((0, 0)) == Poly.one()
    assert demazure_atom((1, 0), 2) == X1
    assert demazure_atom((0, 1), 2) == X2
    assert key_polynomial((0, 1), 2) == demazure_atom((0, 1), 2) + demazure_atom((1, 0), 2)


def test_zeros_past_the_window_are_dropped():
    # each once raised "composition (1, 0) longer than ambient 1"
    assert key_polynomial((1, 0), 1) == X1
    assert demazure_atom((1, 0), 1) == X1
    assert rev((1, 0), 1) == (1,)
    for fn in (key_polynomial, demazure_atom, rev):
        with pytest.raises(ValueError):
            fn((0, 1), 1)


def test_atoms_are_monomial_nonnegative():
    for n in (2, 3):
        for d in range(4):
            for a in compositions_of(d, n):
                assert all(c > 0 for c in demazure_atom(a, n).terms.values()), a


@pytest.mark.parametrize("a, b, want", [
    ((0, 2), (0, 2), 1),
    ((1, 1), (1, 1), 1),
    ((2, 0), (1, 1), 1),
    ((0, 2), (1, 1), 0),
    ((1,), (2,), 0),
])
def test_ktilde_examples(a, b, want):
    assert ktilde(a, b) == want


def test_ktilde_upper_partition_case_and_mismatch():
    assert ktilde_upper((2,), (3,)) == 0
    # the refusal names the weight as given, not its reversal (-1, 3)
    with pytest.raises(ValueError, match=r"negative part in \(3, -1\)"):
        ktilde_upper((1, 1), (3, -1))
    with pytest.raises(ValueError, match=r"negative part in \(-1, 2\)"):
        ktilde_upper((-1, 2), (1,))
    for d in range(5):
        for lam in partitions_of(d):
            if len(lam) > 3:
                continue
            for nb in (1, 2, 3):
                for b in compositions_of(d, nb):
                    assert ktilde_upper(lam, b) == kostka(lam, b), (lam, b)


def test_atom_expansion_recombines():
    for n in (1, 2):
        for d in range(4):
            for b in compositions_of(d, n):
                exp = expand_h_into_atoms(b, n)
                total = Poly.zero()
                for a, c in exp.terms.items():
                    assert c > 0
                    total = total + c * demazure_atom(pad(a, n), n)
                assert total == h_flagged(b, n), b


def test_kostka_examples():
    assert kostka((1,), (1,)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((3,), (1, 2)) == 1
    assert kostka((2, 1, 0), (0, 1, 2)) == 1
    assert kostka((1, 1), (2,)) == kostka((2,), (1,)) == 0


@pytest.mark.parametrize("lam, b, message", [((1, 2), (1, 2), "not a partition"),
                                             ((2, -1), (1,), "negative part"),
                                             ((2,), (True, 1), "non-integer part")])
def test_kostka_rejects_bad_input(lam, b, message):
    with pytest.raises(ValueError, match=message):
        kostka(lam, b)


# every weak composition of at most 6 into at most four parts, with its window
DESK = [(n, b) for n in range(5) for d in range(7) for b in compositions_of(d, n)]


def test_strip_walk_lists_the_ssyt_of_each_weight():
    for n, b in DESK:
        assert sorted(_ssyt_of_weight(b, n)) == sorted(ssyt_of_weight_by_shapes(b, n)), b


def test_kostka_counts_the_backtracked_ssyt():
    for n, b in DESK:
        for lam in partitions_of(sum(b)):
            if len(lam) <= n:
                want = len(enumerate_fillings(lam, n, "SSYT", weight=b))
                assert kostka(lam, b) == want, (lam, b)


def test_key_counts_match_the_per_partition_sweep():
    for n, b in DESK:
        assert _key_counts(b, n) == key_counts_by_shapes(b, n), b


def test_key_counts_count_the_rssaf_of_each_shape():
    # no rho code on this side: the backtracker lists the rSSAF of each
    # shape a and weight b, where _key_counts tallies frsk._rho_inverse
    for n, b in DESK:
        want = Counter({a: len(enumerate_fillings(a, n, "rSSAF", weight=b))
                        for a in compositions_of(sum(b), n)})
        assert _key_counts(b, n) == +want, b


def _capped(parts, total=9):
    """The parts, each cut down so that their sum stays at most total."""
    out = []
    for part in parts:
        out.append(min(part, total))
        total -= out[-1]
    return tuple(out)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 9), max_size=6).map(_capped))
def test_strip_walk_beyond_the_desk_range(b):
    n = len(b)
    listed = {}
    for lam in partitions_of(sum(b)):
        if len(lam) <= n:
            listed[lam] = enumerate_fillings(lam, n, "SSYT", weight=b)
            assert kostka(lam, b) == len(listed[lam]), lam
    assert sorted(_ssyt_of_weight(b, n)) == sorted(Q for rows in listed.values() for Q in rows)
    assert _key_counts(b, n) == key_counts_by_shapes(b, n)


def test_ktilde_refines_kostka():
    for d in range(5):
        for lam in partitions_of(d):
            if len(lam) > 3:
                continue
            for b in compositions_of(d, 3):
                want = kostka(lam, b)
                got = sum(
                    ktilde(a, b)
                    for a in compositions_of(d, 3)
                    if sort_comp(a) == pad(lam, 3)
                )
                assert got == want, (lam, b)


def test_expand_h_into_keys():
    assert expand_h_into_keys((0, 2)).terms == {(0, 2): 1}
    assert expand_h_into_keys((1, 1)).terms == {(1, 1): 1, (2,): 1}
    assert expand_h_into_keys((0, 0, 0)).terms == {(): 1}


# every weak composition of at most 8 into at most six parts
INDICES = [b for n in range(1, 7) for d in range(9) for b in compositions_of(d, n)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(INDICES))
def test_expansions_match_the_per_shape_counts(b):
    comps = list(compositions_of(sum(b), len(b)))
    keys = BasisExpansion("key", {a: ktilde(a, b) for a in comps})
    atoms = BasisExpansion("atom", {a: ktilde_upper(a, b) for a in comps})
    assert expand_h_into_keys(b, len(b)).terms == keys.terms
    assert expand_h_into_atoms(b, len(b)).terms == atoms.terms


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 4), max_size=6))
def test_bruhat_ideal_of_a_partition_and_of_its_reverse(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert _bruhat_ideal(lam) == {lam}
    assert _bruhat_ideal(lam[::-1]) == set(permutations(lam))


@pytest.mark.parametrize("expand, b", [(expand_h_into_keys, (0, 1)),
                                       (expand_h_into_atoms, (1, 1)),
                                       (expand_key_into_h, (1, 1)),
                                       (h_flagged, (0, 1)),
                                       (build_Da, (0, 1)),
                                       (key_polynomial, (0, 1)),
                                       (demazure_atom, (0, 1))])
def test_expansions_reject_a_window_shorter_than_the_index(expand, b):
    # each once returned a wrong expansion on one variable
    with pytest.raises(ValueError):
        expand(b, 1)
    # a window that is not an integer >= 0: h_flagged and expand_key_into_h
    # once answered n = 1.5, build_Da took True as 1, and the others raised
    # TypeError on 1.5
    for n in (1.5, True, -1):
        with pytest.raises(ValueError):
            expand((1,), n)


@pytest.mark.parametrize("fn", [key_polynomial, demazure_atom, h_flagged, build_Da,
                                h_schubert_expansion, h_flagged_matrix_oracle])
def test_negative_parts_are_rejected(fn):
    # each once gave a silent wrong answer or a RecursionError on (1, -1);
    # most raised TypeError on a float part, and a bool part passed as 1
    for a in [(1, -1), (1.5,), (True,)]:
        with pytest.raises(ValueError):
            fn(a)


@pytest.mark.parametrize("expand", [expand_h_into_keys, expand_h_into_atoms])
def test_expansions_reject_negative_parts(expand):
    # each once returned an empty expansion
    with pytest.raises(ValueError):
        expand((-1,))


def test_expansion_sums_indices_equal_up_to_trailing_zeros():
    # the later of two such indices once overwrote the earlier
    assert BasisExpansion("key", {(1,): 2, (1, 0): 3}).terms == {(1,): 5}
    assert BasisExpansion("key", {(1,): 2, (1, 0): -2}).terms == {}


def test_expansions_are_equal_for_one_basis_and_normalized_terms():
    E = BasisExpansion("key", {(1, 0): 2, (0, 1): 0})
    assert E == BasisExpansion("key", {(1,): 2})
    assert E == BasisExpansion(basis="key", terms={(1,): 1, (1, 0, 0): 1})
    assert E != BasisExpansion("atom", {(1,): 2})
    assert E != BasisExpansion("key", {(1,): 3})
    assert E != {(1,): 2}
    with pytest.raises(TypeError):
        hash(E)


def test_expansion_json_is_sorted():
    data = expand_h_into_keys((1, 1)).to_json()
    assert data == {
        "basis": "key",
        "terms": [{"index": [1, 1], "coef": 1}, {"index": [2, 0], "coef": 1}],
    }


def test_h_complete_edge_cases():
    assert h_complete(0, 0) == Poly.one()
    assert h_complete(2, 0) == Poly.zero()
    assert h_complete(1, 3) == Poly.variable(1) + Poly.variable(2) + Poly.variable(3)
    with pytest.raises(ValueError, match="degree -1 is not an integer >= 0"):
        h_complete(-1, 2)
    # k = 1.5 once failed with a TypeError, and k = True answered x1 + x2
    for k in [1.5, True]:
        with pytest.raises(ValueError, match="degree .* is not an integer >= 0"):
            h_complete(k, 2)
    # m = -1 once failed inside itertools, m = 1.5 with a TypeError
    for m in [-1, 1.5]:
        with pytest.raises(ValueError, match="variable count .* is not an integer >= 0"):
            h_complete(2, m)


SMALL_COMPOSITIONS = [a for n in range(1, 5) for d in range(7) for a in compositions_of(d, n)]


def test_key_polynomial_matches_operator_recursion():
    assert len(SMALL_COMPOSITIONS) == 329
    for a in SMALL_COMPOSITIONS:
        assert key_polynomial(a, len(a)) == _demazure_by_operators(a, False), a


def test_demazure_atom_matches_operator_recursion():
    for a in SMALL_COMPOSITIONS:
        assert demazure_atom(a, len(a)) == _demazure_by_operators(a, True), a


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple))
def test_key_polynomial_is_the_kohnert_polynomial_of_the_key_diagram(a):
    # A. Kohnert, "Weintrauben, Polynome, Tableaux" (1991): an oracle that
    # shares no code with the filling backtracker
    assert kohnert_polynomial(key_diagram(a)) == key_polynomial(a, len(a))
