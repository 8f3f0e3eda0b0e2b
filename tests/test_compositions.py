from itertools import combinations

import pytest

from flaghom.compositions import (compositions_of, dominance_key,
                                  key_poset_leq, pad, partitions_of, rev,
                                  strip)
from oracles import dominance_leq, relabel


def test_strip_and_equality():
    assert strip((1, 0, 3, 0, 0)) == (1, 0, 3)
    assert strip((0, 0)) == ()
    assert strip(()) == ()


@pytest.mark.parametrize("a, b, want", [
    ((1, 1), (2, 0), True),
    ((2, 0), (1, 1), False),
    ((3, 1, 4), (3, 1, 4), True),
])
def test_dominance_examples(a, b, want):
    assert dominance_leq(a, b) is want


def _all_comps(deg, n):
    out = []
    for d in range(deg + 1):
        out.extend(compositions_of(d, n))
    return out


def test_orders_are_partial_orders():
    comps = _all_comps(4, 3)
    for leq in (dominance_leq, key_poset_leq):
        for a in comps:
            assert leq(a, a)
        for a, b in combinations(comps, 2):
            if leq(a, b) and leq(b, a):
                assert strip(a) == strip(b)
        for a in comps:
            for b in comps:
                if not leq(a, b):
                    continue
                for c in comps:
                    if leq(b, c):
                        assert leq(a, c), (a, b, c)


def test_dominance_key_extends_dominance():
    comps = _all_comps(4, 3)
    for a in comps:
        for b in comps:
            if sum(a) == sum(b) and dominance_leq(a, b):
                assert dominance_key(a, 3) <= dominance_key(b, 3)


@pytest.mark.parametrize("a, b, want", [
    ((0, 6, 0, 1, 2, 8, 4), (3, 7, 0, 2, 5, 8, 6), True),
    ((0, 6, 0, 1, 5, 8, 2), (3, 7, 0, 2, 5, 8, 6), False),
    ((0, 0), (5, 5), True),
])
def test_key_poset_examples(a, b, want):
    assert key_poset_leq(a, b) is want


def test_key_poset_implies_pointwise():
    comps = _all_comps(4, 3)
    for a in comps:
        for b in comps:
            if key_poset_leq(a, b):
                assert all(x <= y for x, y in zip(pad(a, 3), pad(b, 3)))


def test_key_poset_embeds_young_lattice():
    parts = [lam for d in range(5) for lam in partitions_of(d) if len(lam) <= 3]
    for lam in parts:
        for mu in parts:
            contained = all(x <= y for x, y in zip(pad(lam, 3), pad(mu, 3)))
            assert key_poset_leq(rev(lam, 3), rev(mu, 3)) is contained


@pytest.mark.parametrize("a, I, J, want", [
    ((2, 0, 5, 0), (1, 3), (2, 4), (0, 2, 0, 5)),
    ((0, 3), (2,), (1,), (3,)),
])
def test_relabel_examples(a, I, J, want):
    assert strip(relabel(a, I, J)) == strip(want)


def test_relabel_roundtrip_and_errors():
    for a in compositions_of(3, 2):
        moved = relabel(pad(a, 2), (1, 2), (2, 4))
        assert strip(relabel(moved, (2, 4), (1, 2))) == strip(a)
    with pytest.raises(ValueError):
        relabel((1, 2), (1,), (2,))
    with pytest.raises(ValueError):
        relabel((1, 2), (1, 2), (3,))


def test_relabel_is_bijective_on_supported_comps():
    I, J, k = (1, 3), (2, 3), 3
    supported = [a for a in compositions_of(k, 3) if a[1] == 0]
    images = {relabel(a, I, J) for a in supported}
    assert len(images) == len(supported)
    assert all(strip(relabel(b, J, I)) in {strip(a) for a in supported} for b in images)


def test_composition_and_partition_counts():
    assert len(list(compositions_of(4, 3))) == 15
    assert len(list(compositions_of(0, 0))) == 1
    assert [len(list(partitions_of(d))) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
