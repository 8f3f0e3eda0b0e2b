import re
from itertools import combinations

import pytest

from flaghom.bases import h_basis_family, h_complete
from flaghom.compositions import (BoundedCache, as_comp, compositions_of,
                                  dominance_key, key_poset_leq, pad,
                                  partitions_of, rev, strip)
from flaghom.fillings import enumerate_fillings, is_member, statistics, weight_of
from flaghom.frsk import (flagged_insert_trace, matrix_from_biword, rho_inverse,
                          rsk_insert_trace)
from flaghom.permutations import grassmannian_perm, k_bruhat_covers
from flaghom.polynomials import Poly, divided_difference
from flaghom.render import render_diagram, render_filling
from flaghom.schubert import (horizontal_strip_targets, pieri_multiply,
                              schubert_oracle)
from flaghom.verify import run_suite
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


X1 = Poly.variable(1)
# every integer argument of the library, its least value and a call taking it
INTEGER_ARGUMENTS = [
    ("as_comp n", 0, lambda x: as_comp((), x)),
    ("h_complete k", 0, lambda x: h_complete(x, 2)),
    ("h_complete m", 0, lambda x: h_complete(1, x)),
    ("h_basis_family n", 0, lambda x: h_basis_family([1], x)),
    ("k_bruhat_covers k", 1, lambda x: k_bruhat_covers((), x)),
    ("grassmannian_perm k", 1, lambda x: grassmannian_perm((), x)),
    ("Poly.variable i", 1, Poly.variable),
    ("Poly ** k", 0, lambda x: X1 ** x),
    ("divided_difference i", 1, lambda x: divided_difference(X1, x)),
    ("restrict_vars k", 0, X1.restrict_vars),
    ("homogeneous_part d", 0, X1.homogeneous_part),
    ("horizontal_strip_targets k", 1, lambda x: horizontal_strip_targets((), x, 1)),
    ("horizontal_strip_targets m", 0, lambda x: horizontal_strip_targets((), 1, x)),
    ("pieri_multiply k", 1, lambda x: pieri_multiply({}, 1, x)),
    ("pieri_multiply m", 0, lambda x: pieri_multiply({}, x, 1)),
    ("schubert_oracle n", 0, lambda x: schubert_oracle((), x)),
    ("weight_of n", 0, lambda x: weight_of((), x)),
    ("statistics n", 0, lambda x: statistics((), x)),
    ("is_member n", 0, lambda x: is_member((), "SSYT", x)),
    ("enumerate_fillings n", 0, lambda x: enumerate_fillings((), x, "SSKT")),
    ("matrix_from_biword n", 0, lambda x: matrix_from_biword([], x)),
    ("rho_inverse n", 0, lambda x: rho_inverse((), x)),
    ("flagged_insert_trace n", 0, lambda x: flagged_insert_trace((), 1, x)),
    ("flagged_insert_trace j", 0, lambda x: flagged_insert_trace(((),), x, 1)),
    ("rsk_insert_trace j", 1, lambda x: rsk_insert_trace((), x)),
    ("render_filling n", 0, lambda x: render_filling((), x)),
    ("render_diagram n", 0, lambda x: render_diagram((), x)),
    ("run_suite n", 1, lambda x: run_suite("basis", n=x, deg=1)),
    ("run_suite deg", 0, lambda x: run_suite("frsk", n=1, deg=x)),
]


@pytest.mark.parametrize("least, call", [(least, call) for _, least, call in INTEGER_ARGUMENTS],
                         ids=[name for name, _, _ in INTEGER_ARGUMENTS])
def test_every_integer_argument_takes_one_check(least, call):
    # each of these once took a bool as 0 or 1, answered for a float, or
    # passed a value below its least; some raised TypeError
    for x in (True, 1.0, least - 1):
        with pytest.raises(ValueError, match=re.escape(f"{x!r} is not an integer >= {least}")):
            call(x)


def test_a_bounded_cache_counts_its_lookups_and_clears():
    cache = BoundedCache(3)
    assert isinstance(cache, dict) and cache.lookup("a") is None
    assert cache.store("a", 1) == 1 and cache.lookup("a") == 1
    assert (cache.hits, cache.misses, cache.clears) == (1, 1, 0)
    cache.store("b", 0)
    cache.store("c", ())
    assert cache.lookup("b") == 0 and cache.lookup("c") == ()  # a falsy value is a hit
    assert (len(cache), cache.held, cache.hits, cache.misses, cache.clears) == (3, 3, 3, 1, 0)
    cache.store("d", 4)  # a fourth entry would pass the limit: the three go first
    assert dict(cache) == {"d": 4} and (cache.held, cache.clears) == (1, 1)
    assert cache.lookup("a") is None and cache.misses == 2


def test_a_bounded_cache_counts_terms_and_refuses_an_oversize_value():
    cache = BoundedCache(5, size=len)
    cache.store("ab", (1, 2))
    cache.store("cde", (3, 4, 5))
    cache.store("none", ())
    assert (len(cache), cache.held, cache.clears) == (3, 5, 0)
    big = tuple(range(6))
    assert cache.store("big", big) is big  # answered, not kept, and nothing cleared
    assert "big" not in cache and (len(cache), cache.held, cache.clears) == (3, 5, 0)
    cache.store("f", (6,))
    assert dict(cache) == {"f": (6,)} and (cache.held, cache.clears) == (1, 1)
    cache.store("g", (1, 2, 3, 4, 5))  # exactly the limit, after a clear
    assert dict(cache) == {"g": (1, 2, 3, 4, 5)} and (cache.held, cache.clears) == (5, 2)
