import hashlib

import pytest

from flaghom import schubert
from flaghom.bases import h_flagged, schur_ssyt
from flaghom.compositions import compositions_of
from flaghom.permutations import grassmannian_perm
from flaghom.polynomials import Poly, express_in_basis
from flaghom.bases import h_basis_family
from flaghom.schubert import (evaluate_expansion, h_schubert_expansion,
                              horizontal_strip_targets, pieri_chain, pieri_multiply,
                              schubert_oracle)


def test_strip_targets_examples():
    assert horizontal_strip_targets((), 1, 1) == {(2, 1)}
    assert horizontal_strip_targets((2, 1), 2, 1) == {(2, 3, 1), (3, 1, 2)}
    assert horizontal_strip_targets((3, 1, 2), 1, 0) == {(3, 1, 2)}


def test_strip_targets_need_distinct_columns():
    # with k = 1 both steps use i = 1, so the j's alone must differ
    got = horizontal_strip_targets((), 1, 2)
    assert got == {(3, 1, 2)}  # j = 2 then j = 3; repeating j = 2 is illegal


@pytest.mark.parametrize("u, k, m", [
    ((1, 1, 2), 1, 1),   # once returned {(2, 1, 1)}
    ((2, 1), 0, 1),      # k = 0 and k = -1 once returned set()
    ((2, 1), -1, 1),
    ((2, 1), 1, 1.5),    # once raised RecursionError
    ((2, 1), 1, -1),
    ((2, 1), 1.0, 1),
    ((2, 1), True, 1),
    ((2, 1), 1, True),
    ((2.0, 1.0), 1, 1),
    ((True, 2), 1, 1),
])
def test_strip_targets_reject_bad_input(u, k, m):
    with pytest.raises(ValueError):
        horizontal_strip_targets(u, k, m)
    with pytest.raises(ValueError):
        pieri_multiply({u: 1}, m, k)


def test_a_cached_key_does_not_admit_an_equal_word_of_other_types():
    # 2.0 == 2 and True == 1, so these words equal cached keys
    assert horizontal_strip_targets((2, 1), 1, 1) == {(3, 1, 2)}
    assert horizontal_strip_targets((), 1, 1) == {(2, 1)}
    for u in [(2.0, 1.0), (2, 1, 3.0), (True,), ([2], 1)]:
        with pytest.raises(ValueError):
            horizontal_strip_targets(u, 1, 1)
    with pytest.raises(ValueError):
        pieri_chain({(2.0, 1.0): 1}, (1,))


def test_strip_cache_stays_bounded(monkeypatch):
    cases = [(u, k, m) for u in [(), (2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1)]
             for k in (1, 2, 3) for m in range(4)]
    monkeypatch.setattr(schubert, "_strip_cache", {})
    fresh = [horizontal_strip_targets(*case) for case in cases]
    monkeypatch.setattr(schubert, "_strip_cache", {})
    monkeypatch.setattr(schubert, "_STRIP_CACHE_LIMIT", 5)
    for _ in range(2):
        for case, want in zip(cases, fresh):
            assert horizontal_strip_targets(*case) == want, case
            assert len(schubert._strip_cache) <= 5


def test_mutating_a_result_does_not_change_a_later_call():
    got = pieri_multiply({(): 1}, 2, 1)
    got[(3, 1, 2)] = 7
    got[(2, 1)] = 1
    assert pieri_multiply({(): 1}, 2, 1) == {(3, 1, 2): 1}
    exp = h_schubert_expansion((1, 1))
    exp.clear()
    assert h_schubert_expansion((1, 1)) == {(2, 3, 1): 1, (3, 1, 2): 1}
    with pytest.raises(AttributeError):
        horizontal_strip_targets((), 1, 2).add((2, 1))


def test_products_match_the_unshared_chain_on_the_desk_range():
    comps = [a for n in range(1, 4) for d in range(5) for a in compositions_of(d, n)]
    pairs = [(a, b) for a in comps for b in comps if sum(a) + sum(b) <= 4]
    got = [(a, b, sorted(pieri_chain(h_schubert_expansion(a), b).items())) for a, b in pairs]
    for a, b, exp in got:  # h_a h_b = h_b h_a
        assert pieri_chain(h_schubert_expansion(b), a) == dict(exp), (a, b)
    # pinned: every product of the range as the unshared chain computes it
    assert len(pairs) == 757
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "80b8b4e7969c0c2a990bff0f7b37f567014e89148b75d663bcbbdf84321ce11e")


def test_pieri_multiply_examples():
    assert pieri_multiply({(): 1}, 1, 1) == {(2, 1): 1}
    two_steps = pieri_multiply(pieri_multiply({(): 1}, 1, 1), 1, 2)
    assert two_steps == {(2, 3, 1): 1, (3, 1, 2): 1}
    assert pieri_multiply({(2, 1): 3}, 0, 2) == {(2, 1): 3}


@pytest.mark.parametrize("coef", [1.5, True, 2.0, "1"])
def test_pieri_steps_refuse_a_coefficient_that_is_not_an_int(coef):
    # {(): 1.5} once gave {(2, 1): 1.5}
    with pytest.raises(ValueError, match="non-integer coefficient"):
        pieri_multiply({(): coef}, 1, 1)
    for comp in ((1,), (0,)):
        with pytest.raises(ValueError, match="non-integer coefficient"):
            pieri_chain({(2, 1): 1, (): coef}, comp)


def test_h_schubert_examples():
    assert h_schubert_expansion((0, 0)) == {(): 1}
    assert h_schubert_expansion((0, 2)) == {(1, 4, 2, 3): 1}
    assert h_schubert_expansion((1, 1)) == {(2, 3, 1): 1, (3, 1, 2): 1}


def test_oracle_examples():
    assert schubert_oracle((), 1) == Poly.one()
    assert schubert_oracle((2, 1), 2) == Poly.variable(1)
    assert schubert_oracle((1, 4, 2, 3), 3) == h_flagged((0, 2))
    with pytest.raises(ValueError):
        schubert_oracle((1, 4, 2, 3), 1)


def test_oracle_rejects_a_non_permutation():
    # once raised StopIteration
    with pytest.raises(ValueError):
        schubert_oracle((2, 2), 3)
    # a window of 1.5 once gave x1, and -1 gave 1 for the identity
    for w, n in [((2, 1), 1.5), ((2, 1), True), ((), -1)]:
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            schubert_oracle(w, n)


def test_h_expansion_rejects_non_integer_parts():
    # once raised RecursionError
    with pytest.raises(ValueError):
        h_schubert_expansion((1.5,))
    with pytest.raises(ValueError):
        pieri_chain(h_schubert_expansion((1,)), (0, 1.5))


def test_oracle_gives_schur_on_grassmannians():
    for lam, k in [((1,), 1), ((2,), 2), ((1, 1), 2), ((2, 1), 2), ((2, 2), 3)]:
        v = grassmannian_perm(lam, k)
        assert schubert_oracle(v, max(k, len(v))) == schur_ssyt(lam, k), (lam, k)


def test_h_expansion_recombines_small():
    for n in (1, 2, 3):
        for d in range(4):
            for b in compositions_of(d, n):
                exp = h_schubert_expansion(b)
                assert all(c >= 0 for c in exp.values())
                assert evaluate_expansion(exp, n + d + 1) == h_flagged(b, n), b


def test_product_expansion_is_nonnegative_and_exact():
    cases = [((1,), (1,)), ((0, 1), (0, 1)), ((1, 1), (1,)), ((0, 2), (1,))]
    for a, b in cases:
        exp = pieri_chain(h_schubert_expansion(a), b)
        assert all(c >= 0 for c in exp.values())
        want = h_flagged(a) * h_flagged(b)
        assert evaluate_expansion(exp, sum(a) + sum(b) + len(a) + len(b)) == want


def test_negative_structure_constant_identity():
    # in its own basis the square picks up a negative coefficient, while the
    # Schubert expansion of the same square stays nonnegative
    sq = h_flagged((0, 1)) * h_flagged((0, 1))
    got = express_in_basis(sq, h_basis_family([2], 2))
    assert got == {(0, 2): 1, (1, 1): 1, (2,): -1}
    exp = pieri_chain(h_schubert_expansion((0, 1)), (0, 1))
    assert all(c >= 0 for c in exp.values())


def test_oracle_answers_are_fresh(monkeypatch):
    # the oracle once handed out the Poly its cache held, so a caller that
    # edited its answer changed every later answer
    monkeypatch.setattr(schubert, "_oracle_cache", {})
    first = schubert_oracle((2, 1), 2)
    first.terms[(5,)] = 7
    assert schubert_oracle((2, 1), 2) == Poly.variable(1)
    assert schubert_oracle((2, 1), 2) is not schubert_oracle((2, 1), 2)


def test_oracle_cache_stays_bounded(monkeypatch):
    perms = [w for b in compositions_of(3, 3) for w in h_schubert_expansion(b)]
    monkeypatch.setattr(schubert, "_oracle_cache", {})
    fresh = [schubert_oracle(w, 6) for w in perms]
    monkeypatch.setattr(schubert, "_oracle_cache", {})
    monkeypatch.setattr(schubert, "_ORACLE_CACHE_LIMIT", 4)
    for w, want in zip(perms, fresh):
        assert schubert_oracle(w, 6) == want, w
        assert len(schubert._oracle_cache) <= 4
