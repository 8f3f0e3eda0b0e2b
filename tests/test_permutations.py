from itertools import permutations as all_perms

import pytest

from flaghom.permutations import (apply_transposition, check_perm,
                                  grassmannian_perm, k_bruhat_covers, length,
                                  pad_perm, strip_fixed)
from flaghom.schubert import horizontal_strip_targets


def test_strip_fixed_points():
    assert strip_fixed((1, 2, 3)) == ()
    assert strip_fixed((2, 1, 3, 4)) == (2, 1)
    assert pad_perm((2, 1), 4) == (2, 1, 3, 4)


def test_length_is_inversion_count():
    for w in all_perms(range(1, 5)):
        brute = sum(1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j])
        assert length(w) == brute


def _covers_brute(u, k, window):
    u = pad_perm(u, window)
    out = set()
    for j in range(k + 1, window + 1):
        for i in range(1, k + 1):
            w = apply_transposition(u, i, j)
            if length(w) == length(u) + 1:
                out.add(w)
    return out


def test_cover_examples():
    assert k_bruhat_covers((), 1) == {(2, 1)}
    assert k_bruhat_covers((2, 1), 2) == {(2, 3, 1), (3, 1, 2)}


def test_covers_match_brute_force():
    for base in all_perms(range(1, 6)):
        for k in range(1, 6):
            got = k_bruhat_covers(base, k)
            # a window two positions past the support cannot add covers
            assert got == _covers_brute(base, k, len(base) + 2)
            for w in got:
                assert length(w) == length(strip_fixed(base)) + 1


def _strip_targets_brute(u, k, m):
    """Ends of length-m chains of brute-force covers with distinct j, where
    j is the last position a cover moves."""
    window = max(len(u), k) + m + 1
    out = set()

    def extend(w, used, steps):
        if steps == m:
            out.add(w)
            return
        for w2 in _covers_brute(w, k, window):
            pairs = zip(pad_perm(w, window), pad_perm(w2, window))
            j = max(p for p, (x, y) in enumerate(pairs, 1) if x != y)
            if j not in used:
                extend(w2, used | {j}, steps + 1)

    extend(strip_fixed(u), frozenset(), 0)
    return out


def test_strip_targets_match_brute_force():
    # 2,400 cases: all of S_5, k = 1..5, m = 0..3
    for base in all_perms(range(1, 6)):
        for k in range(1, 6):
            for m in range(4):
                assert horizontal_strip_targets(base, k, m) == _strip_targets_brute(base, k, m)


@pytest.mark.parametrize("lam, k, want", [
    ((2,), 2, (1, 4, 2, 3)),
    ((), 1, ()),
    ((1,), 1, (2, 1)),
])
def test_grassmannian_examples(lam, k, want):
    assert grassmannian_perm(lam, k) == want


def test_grassmannian_shape_and_descent():
    for lam in [(1,), (2,), (2, 1), (3, 1), (2, 2)]:
        for k in (2, 3):
            v = grassmannian_perm(lam, k)
            w = pad_perm(v, max(len(v), k) + 1)
            descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
            assert descents in ([], [k])
            padded = lam + (0,) * (k - len(lam))
            for i in range(1, k + 1):
                assert padded[k - i] == w[i - 1] - i


def test_grassmannian_rejects_long_partitions():
    with pytest.raises(ValueError):
        grassmannian_perm((2, 1, 1), 2)


def test_grassmannian_rejects_negative_parts():
    # once returned (0,)
    with pytest.raises(ValueError):
        grassmannian_perm((-1,), 1)


def test_grassmannian_rejects_bad_k():
    # k = 1.5 once raised TypeError
    for k in [0, 1.5, True]:
        with pytest.raises(ValueError, match="k .* is not an integer >= 1"):
            grassmannian_perm((1,), k)


def test_apply_transposition_needs_ordered_positions():
    for i, j in [(2, 1), (1, 1), (0, 2)]:
        with pytest.raises(ValueError, match="need 1 <= i < j"):
            apply_transposition((), i, j)


def test_check_perm():
    assert check_perm((2, 1, 3)) == (2, 1)
    assert check_perm(()) == ()
    # (2.0, 1.0) was once returned as is, and (True, 2) as ()
    for w in [(2, 2), (0, 1), (1, 3), (1.5,), (2.0, 1.0), (True, 2), (2, 1, True), ("1",)]:
        with pytest.raises(ValueError):
            check_perm(w)


def test_covers_reject_a_non_permutation():
    # once returned {(2, 1, 1)} and {(3, 1.0, 2.0)}
    for w in [(1, 1, 2), (2.0, 1.0)]:
        with pytest.raises(ValueError):
            k_bruhat_covers(w, 1)
    # k = 1.5 once raised TypeError
    for k in [0, 1.5, True]:
        with pytest.raises(ValueError):
            k_bruhat_covers((2, 1), k)
