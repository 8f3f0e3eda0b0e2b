import json
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flaghom import reference as ref
from flaghom import snakes
from flaghom.bases import h_flagged, key_polynomial, kostka, ktilde
from flaghom.compositions import (compositions_of, dominance_key,
                                  key_poset_leq, pad, partitions_of, sort_comp,
                                  strip)
from flaghom.fillings import is_member, key_diagram, weight_of
from flaghom.polynomials import Poly
from flaghom.snakes import (SnakeTabloid, _snake_pieces, _snake_predicate,
                            _special_pieces, complement_shape,
                            connected_components,
                            enumerate_special_rim_hook_tabloids,
                            enumerate_special_snake_tabloids,
                            expand_key_into_h, gset_enumerate,
                            in_gset, inverse_ktilde, iota, is_rim_hook,
                            is_snake, is_special_snake, s_attacks,
                            snake_sign, special_snakes, tabloid_json_texts,
                            validate_special_snake_tabloid,
                            weakly_connected_components)
from oracles import (expand_key_into_h_by_tabloids, relabel,
                     snake_tabloids_by_rows)


def test_weakly_connected_components_figure():
    comps = weakly_connected_components(ref.CONNECTED_CELLS)
    assert sorted(map(sorted, comps)) == sorted(map(sorted, ref.CONNECTED_COMPONENTS))


def test_snake_examples():
    assert is_snake(ref.SNAKE_CELLS, ref.SHAPE_B)
    assert is_special_snake(ref.SNAKE_CELLS, ref.SHAPE_B)
    b = (3, 2)
    first_row = {(1, 1), (2, 1), (3, 1)}
    assert is_special_snake(first_row, b)
    # a mid-row cell leaves a ragged complement
    assert not is_snake({(2, 1)}, b)
    # disconnected pieces are not snakes
    assert not is_snake({(3, 1), (1, 2)}, b)


def test_snake_triple_condition():
    # complement and connectivity are fine here; only the triple rule fails
    b = (2, 2, 2)
    S = {(1, 1), (2, 1), (1, 2), (2, 2)}
    assert complement_shape(S, b) == (0, 0, 2)
    assert key_poset_leq((0, 0, 2), b)
    assert len(weakly_connected_components(S)) == 1
    assert not is_snake(S, b)
    assert is_snake({(1, 1), (2, 1)}, b)
    # ragged complement
    assert not is_snake({(1, 2)}, (2, 2))
    with pytest.raises(ValueError, match="outside the key diagram"):
        complement_shape({(3, 1)}, b)


def test_rim_hook_examples():
    assert is_rim_hook(ref.RIMHOOK_CELLS, ref.RIMHOOK_MU)
    # a 2x2 block is never a rim hook
    mu = (2, 2)
    block = {(1, 1), (2, 1), (1, 2), (2, 2)}
    assert not is_rim_hook(block, mu)


def test_snakes_of_reversed_partition_are_rim_hooks():
    for d in range(1, 6):
        for mu in partitions_of(d):
            shape = tuple(reversed(mu))
            cells = sorted(key_diagram(shape))
            for mask in range(1 << len(cells)):
                S = frozenset(cells[t] for t in range(len(cells)) if mask >> t & 1)
                assert is_snake(S, shape) == is_rim_hook(S, mu), (mu, sorted(S))


def _complement_by_cells(S, b):
    """The composition a with key_diagram(a) == key_diagram(b) - S, counted
    from the cells left in each row, or None if the rest is not a key
    diagram."""
    rest = key_diagram(b) - S
    a = tuple(sum(1 for _, r in rest if r == row) for row in range(1, len(b) + 1))
    return a if rest == key_diagram(a) else None


def _snake_by_definition(S, b):
    """The cell-set definition: one weakly connected component, no triple
    (c, s), (c+1, s), (c+1, r) with r < s, and a complement that is the key
    diagram of a composition below b in the key poset."""
    if not S:
        return True
    a = _complement_by_cells(S, b)
    return (a is not None and key_poset_leq(a, b)
            and len(weakly_connected_components(S)) == 1
            and not any((c + 1, s) in S and (c + 1, r) in S
                        for c, s in S for r in range(1, s)))


def test_snake_test_matches_cell_set_definition():
    checked = 0
    for n in range(1, 5):
        for d in range(7):
            for b in compositions_of(d, n):
                cells = sorted(key_diagram(b))
                for mask in range(1 << len(cells)):
                    S = frozenset(cells[t] for t in range(len(cells)) if mask >> t & 1)
                    assert is_snake(S, b) == _snake_by_definition(S, b), (b, sorted(S))
                    assert complement_shape(S, b) == _complement_by_cells(S, b), (b, sorted(S))
                    checked += 1
    assert checked == 11_648


def test_special_snake_enumeration_matches_subset_filter():
    for b in [(2, 1), (1, 2), (2, 0, 1), (3, 1), (1, 1, 1)]:
        cells = sorted(key_diagram(b))
        anchor = (1, next(i for i, p in enumerate(b, 1) if p))
        brute = set()
        for mask in range(1, 1 << len(cells)):
            S = frozenset(cells[t] for t in range(len(cells)) if mask >> t & 1)
            if anchor in S and is_snake(S, b):
                brute.add(S)
        fast = {S for S, _ in special_snakes(b)}
        assert fast == brute, b


def test_generated_pieces_match_the_filtered_product_exhaustive_small():
    # the generator's leaf tests only connectivity; the filter runs the whole
    # _snake_predicate, so the two sides share no test of the bounds
    shapes = [d for rows in range(7) for d in product(range(4), repeat=rows)]
    for d in shapes:
        assert _snake_pieces(d) == tuple(_special_pieces(d, _snake_predicate)), d
    assert len(shapes) == 5461


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 5), max_size=7).map(tuple))
def test_generated_pieces_match_the_filtered_product(d):
    assert _snake_pieces(d) == tuple(_special_pieces(d, _snake_predicate))


def test_piece_cache_stays_bounded(monkeypatch):
    shapes = [(2, 1, 3), (3, 0, 2, 2), (1, 2, 1, 2), (2, 2, 2)]
    fresh = [enumerate_special_snake_tabloids(b) for b in shapes]
    monkeypatch.setattr(snakes, "_piece_cache", {})
    monkeypatch.setattr(snakes, "_PIECE_CACHE_LIMIT", 4)
    for b, want in zip(shapes, fresh):
        assert enumerate_special_snake_tabloids(b) == want, b
        assert 0 < len(snakes._piece_cache) <= 4


def direct_json_values(tabloids):
    return [{"shape": list(t.shape), "snakes": [sorted(map(list, S)) for S in t.snakes],
             "weight": list(t.weight()), "sign": t.sign()} for t in tabloids]


def test_tabloid_json_values_match_a_direct_build():
    for b in [(), (0,), (2, 0, 3, 1), (3, 1, 2), (1, 0, 2, 0)]:
        tabloids = enumerate_special_snake_tabloids(b)
        assert list(tabloid_json_texts(tabloids)) == [
            json.dumps(value, sort_keys=True) for value in direct_json_values(tabloids)], b
    # shapes of one call may differ; each tabloid keeps its own
    mixed = enumerate_special_snake_tabloids((1, 1)) + enumerate_special_snake_tabloids((2,))
    assert list(tabloid_json_texts(mixed)) == [
        json.dumps(value, sort_keys=True) for value in direct_json_values(mixed)]


def test_tabloids_of_two_cells():
    tabs = enumerate_special_snake_tabloids((1, 1))
    got = sorted((t.weight(), t.sign()) for t in tabs)
    assert got == [((1, 1), 1), ((2, 0), -1)]


def test_pinned_tabloids():
    assert validate_special_snake_tabloid(ref.SHAPE_B, ref.TABLOID_A)
    assert validate_special_snake_tabloid(ref.SHAPE_B, ref.TABLOID_B)
    UA = SnakeTabloid(ref.SHAPE_B, ref.TABLOID_A)
    UB = SnakeTabloid(ref.SHAPE_B, ref.TABLOID_B)
    assert (UA.weight(), UA.sign()) == (ref.TABLOID_A_WEIGHT, ref.TABLOID_A_SIGN)
    assert (UB.weight(), UB.sign()) == (ref.TABLOID_B_WEIGHT, ref.TABLOID_B_SIGN)


def test_snake_tabloid_is_an_immutable_record():
    U = SnakeTabloid((1,), (frozenset({(1, 1)}),))
    assert U == SnakeTabloid(shape=(1,), snakes=(frozenset({(1, 1)}),))
    assert U != SnakeTabloid((1, 0), U.snakes)
    assert len({U, SnakeTabloid((1,), U.snakes)}) == 1
    assert repr(U) == "SnakeTabloid(shape=(1,), snakes=(frozenset({(1, 1)}),))"
    with pytest.raises(AttributeError):
        U.shape = (2,)
    with pytest.raises(AttributeError):
        U.extra = 0


def test_cancel_pair():
    UL = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
    UR = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
    assert validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
    assert validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
    assert UL.weight() == UR.weight() == (5, 4, 0)
    assert UL.sign() == -1 and UR.sign() == 1


def test_tabloid_validation_rejects_bad_sequences():
    # nonempty snake for an empty residual row
    assert not validate_special_snake_tabloid((0, 1), (frozenset({(1, 2)}), frozenset()))
    # one snake per row of the shape
    assert not validate_special_snake_tabloid((1, 1), (frozenset({(1, 1)}),))
    # first snake skips the anchor cell
    assert not validate_special_snake_tabloid(
        (1, 1), (frozenset({(1, 2)}), frozenset({(1, 1)})))


def by_cells(sequences):
    return sorted(sequences, key=lambda snakes: [sorted(S) for S in snakes])


def test_tabloids_match_a_listing_by_rows():
    shapes = [b for rows in range(1, 6) for b in product(range(8), repeat=rows) if sum(b) <= 7]
    count = 0
    for b in shapes:
        want = by_cells(snake_tabloids_by_rows(b))
        assert by_cells(U.snakes for U in enumerate_special_snake_tabloids(b)) == want, b
        count += len(want)
    assert (len(shapes), count) == (1286, 7302)


def test_tabloid_validation_matches_enumeration():
    # every enumerated tabloid validates, and toggling one cell of one snake
    # validates exactly when the result is enumerated too
    counts = [0, 0, 0]  # tabloids, toggles, toggles that validate
    for n in (1, 2, 3):
        for d in range(6):
            for b in compositions_of(d, n):
                tabloids = {U.snakes for U in enumerate_special_snake_tabloids(b)}
                counts[0] += len(tabloids)
                for snakes in tabloids:
                    assert validate_special_snake_tabloid(b, snakes), (b, snakes)
                    for k in range(n):
                        for cell in key_diagram(b):
                            toggled = snakes[:k] + (snakes[k] ^ {cell},) + snakes[k + 1:]
                            valid = validate_special_snake_tabloid(b, toggled)
                            assert valid == (toggled in tabloids), (b, toggled)
                            counts[1] += 1
                            counts[2] += valid
    assert counts == [161, 1744, 0]


@pytest.mark.parametrize("a, b, want", [
    ((0, 2), (0, 2), 1),
    ((1, 1), (1, 1), 1),
    ((2, 0), (1, 1), -1),
    ((2,), (1, 1), -1),
    ((1, 1), (2, 0), 0),
])
def test_inverse_ktilde_examples(a, b, want):
    assert inverse_ktilde(a, b) == want


def test_tally_matches_the_sum_over_tabloids_exhaustive_small():
    shapes = [b for rows in range(7) for b in product(range(4), repeat=rows)]
    for b in shapes:
        assert expand_key_into_h(b) == expand_key_into_h_by_tabloids(b), b
    assert len(shapes) == 5461


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 5), max_size=7).map(tuple))
def test_tally_matches_the_sum_over_tabloids(b):
    assert expand_key_into_h(b) == expand_key_into_h_by_tabloids(b)


def test_snake_expansion_identity_small():
    for n in (1, 2, 3):
        for d in range(4):
            for b in compositions_of(d, n):
                total = Poly.zero()
                for a in compositions_of(d, n):
                    c = inverse_ktilde(a, b)
                    if c:
                        total = total + c * h_flagged(a, n)
                assert total == key_polynomial(b, n), b


def test_matrices_are_mutually_inverse():
    n = 2
    for d in range(4):
        comps = list(compositions_of(d, n))
        for c in comps:
            for b in comps:
                prod = sum(ktilde(c, a) * inverse_ktilde(a, b) for a in comps)
                assert prod == (1 if c == b else 0), (c, b)


def _kostka_matrix_inverse(d):
    """Exact inverse of the Kostka matrix on partitions of d.  Sorted along
    the dominance extension the matrix is lower unitriangular, so forward
    substitution inverts it over the integers."""
    parts = sorted(partitions_of(d), key=lambda p: dominance_key(p, d))
    size = len(parts)
    K = [[kostka(parts[i], parts[j]) for j in range(size)] for i in range(size)]
    inv = []
    for i in range(size):
        row = [int(i == j) for j in range(size)]
        for t in range(i):
            if K[i][t]:
                row = [x - K[i][t] * y for x, y in zip(row, inv[t])]
        inv.append(row)
    for i in range(size):
        for j in range(size):
            assert sum(K[i][t] * inv[t][j] for t in range(size)) == int(i == j)
    return parts, {p: i for i, p in enumerate(parts)}, inv


def test_recovers_classical_inverse_kostka():
    """The sorted signed tabloid counts on a reversed partition shape equal
    the entries of the inverse of the classical Kostka matrix."""
    for d in range(1, 5):
        parts, idx, kinv = _kostka_matrix_inverse(d)
        for mu in parts:
            shape = tuple(reversed(mu))
            sums = {}
            for U in enumerate_special_snake_tabloids(shape):
                lam = sort_comp(U.weight())
                sums[strip(lam)] = sums.get(strip(lam), 0) + U.sign()
            for lam in parts:
                want = kinv[idx[lam]][idx[mu]]
                assert sums.get(strip(lam), 0) == want, (lam, mu)


def test_rim_hook_tabloids_match_snake_tabloids():
    for d in range(1, 6):
        for mu in partitions_of(d):
            shape = tuple(reversed(mu))
            snake_counts = {}
            for U in enumerate_special_snake_tabloids(shape):
                w = strip(U.weight())
                snake_counts[w] = snake_counts.get(w, 0) + U.sign()
            hook_counts = {}
            for U in enumerate_special_rim_hook_tabloids(mu):
                w = strip(U.weight())
                hook_counts[w] = hook_counts.get(w, 0) + U.sign()
            assert snake_counts == hook_counts, mu


def test_relabelled_shapes_have_matching_expansions():
    # expansions of shapes with an empty first row match their compaction
    cases = [((0, 2, 1), (2, 3), (1, 2)), ((0, 1, 0, 2), (2, 4), (1, 2)),
             ((0, 0, 3, 1), (3, 4), (1, 2))]
    for b, I, J in cases:
        bJ = relabel(b, I, J)
        for a in compositions_of(sum(b), len(b)):
            if any(a[i] and (i + 1) not in I for i in range(len(a))):
                continue
            aJ = relabel(a, I, J)
            assert inverse_ktilde(a, b) == inverse_ktilde(aJ, bJ), (a, b)


def test_gset_examples():
    assert gset_enumerate(frozenset({(1, 1), (2, 1)}), (2, 0)) == [((1, 1), ())]
    assert in_gset(ref.ALMOST_SNAKE, ref.ALMOST_SSKT, ref.SHAPE_B)
    assert not is_member(ref.ALMOST_SSKT, "SSKT", 7)
    # a negative entry off the snake once counted as an SSKT entry
    assert not in_gset(frozenset({(1, 1)}), ((1,), (-1,)), (1, 1))
    # rows of another shape, and a snake whose complement is not a key diagram
    assert not in_gset(frozenset({(1, 1)}), ((1,), (1, 1)), (1, 1))
    assert not in_gset(frozenset({(1, 1)}), ((1, 1),), (2,))
    with pytest.raises(ValueError, match="not a special snake"):
        gset_enumerate(frozenset({(2, 1)}), (2, 0))
    # the empty snake is special, and leaves the SSKT of the whole diagram
    assert is_special_snake(frozenset(), (2, 0))
    assert gset_enumerate(frozenset(), (2, 0)) == [((1, 1), ())]
    assert gset_enumerate(frozenset(), (0, 1)) == [((), (1,)), ((), (2,))]


def test_gset_generating_function():
    for b in [(2, 1), (3, 1), (2, 0, 1), (1, 1, 1)]:
        n = len(b)
        for S, shape_rest in special_snakes(b):
            gen = Poly.zero()
            for rows in gset_enumerate(S, b):
                gen = gen + Poly.monomial(weight_of(rows, n))
            want = Poly.variable(1) ** len(S) * key_polynomial(pad(shape_rest, n), n)
            assert gen == want, (b, sorted(S))


def test_s_attacks_examples():
    # an honest tableau with the first-row snake has no attack
    b = (2, 1)
    S = frozenset({(1, 1), (2, 1)})
    rows = ((1, 1), (2,))
    assert is_member(rows, "SSKT", 2)
    assert s_attacks(S, rows, b) == []
    # a vertical pair of ones attacks within the snake
    b2 = (1, 1)
    S2 = frozenset({(1, 1), (1, 2)})
    rows2 = ((1,), (1,))
    assert s_attacks(S2, rows2, b2) == [((1, 1), (1, 2))]
    # a snake cell not holding 1 starts no attack, even below a 1
    assert s_attacks({(1, 1)}, ((2,),), (1,)) == []
    assert s_attacks({(1, 1)}, ((1,), (1,)), (1, 1)) == [((1, 1), (1, 2))]
    assert s_attacks({(1, 1)}, ((2,), (1,)), (1, 1)) == []
    assert s_attacks({(1, 2)}, ((1, 1), (1,)), (2, 1)) == [((1, 2), (2, 1))]
    assert s_attacks({(1, 2)}, ((1, 1), (2,)), (2, 1)) == []
    # the pinned configuration selects the pinned first cell
    atts = s_attacks(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B)
    assert atts
    x = max((xx for xx, _ in atts), key=lambda cell: (cell[0], cell[1]))
    assert x == ref.INVOLUTION_X


def test_s_attacks_rejects_malformed_input():
    # each once raised IndexError or answered []
    for S, rows, b in [({(1, 1)}, ((1,),), (1, -1)),  # a shape as_comp rejects
                       ({(1, 1)}, ((1,),), (1, 1)),  # rows not of shape b
                       ({(3, 1)}, ((1,),), (1,))]:  # a cell outside D(b)
        with pytest.raises(ValueError):
            s_attacks(S, rows, b)


def test_iota_pinned_pair():
    S2, T2 = iota(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B)
    assert S2 == ref.INVOLUTION_LARGE and T2 == ref.INVOLUTION_T
    S3, _ = iota(ref.INVOLUTION_LARGE, ref.INVOLUTION_T, ref.SHAPE_B)
    assert S3 == ref.INVOLUTION_SMALL


def test_iota_involution_exhaustive_small():
    for b in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2)]:
        n = len(b)
        for S, _rest in special_snakes(b):
            for rows in gset_enumerate(S, b):
                if is_member(rows, "SSKT", n):
                    continue
                S2, rows2 = iota(S, rows, b)
                assert rows2 == rows
                assert (-1) ** (len({r for _, r in S2}) - 1) == -(
                    (-1) ** (len({r for _, r in S}) - 1))
                assert iota(S2, rows, b)[0] == S
                assert sorted(s_attacks(S, rows, b)) == sorted(s_attacks(S2, rows, b))


# shapes up to five rows with parts at most 3, the first part positive
IOTA_SHAPES = st.builds(lambda first, rest: (first, *rest),
                        st.integers(1, 3), st.lists(st.integers(0, 3), max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_iota_is_a_sign_reversing_involution(data):
    b = data.draw(IOTA_SHAPES)
    n = len(b)
    S, _ = data.draw(st.sampled_from(special_snakes(b)))
    outside = [rows for rows in gset_enumerate(S, b) if not is_member(rows, "SSKT", n)]
    assume(outside)
    rows = data.draw(st.sampled_from(outside))
    S2, rows2 = iota(S, rows, b)
    assert rows2 == rows
    assert snake_sign(S2) == -snake_sign(S)
    assert iota(S2, rows, b) == (S, rows)


def test_tabloids_reject_negative_parts():
    # each once returned [] for a shape with a negative part
    with pytest.raises(ValueError):
        enumerate_special_snake_tabloids((2, -1))
    with pytest.raises(ValueError):
        special_snakes((2, -1))
    # and validate_special_snake_tabloid once answered False for it
    with pytest.raises(ValueError):
        validate_special_snake_tabloid((1, -1), (frozenset(), frozenset()))
    # the rim hooks once took a shape that is not a partition
    for call in [lambda: enumerate_special_rim_hook_tabloids((1, 2)),
                 lambda: is_rim_hook({(1, 1)}, (1, 2))]:
        with pytest.raises(ValueError, match=r"shape \(1, 2\) is not a partition"):
            call()
    # inverse_ktilde once read the weight (True,) as (1,), key_poset_leq
    # once held (-1,) below (1,), gset_enumerate once listed one filling
    # of the shape (-1,), and the snake predicates once answered the empty
    # snake, and in_gset compared shapes, before looking at the shape
    for bad in [(-1,), (1.5,), (True,), (1, -1)]:
        for call in [lambda: inverse_ktilde(bad, (1,)), lambda: inverse_ktilde((1,), bad),
                     lambda: key_poset_leq(bad, (1,)), lambda: key_poset_leq((1,), bad),
                     lambda: gset_enumerate(frozenset(), bad),
                     lambda: is_snake(frozenset(), bad),
                     lambda: is_special_snake(frozenset(), bad),
                     lambda: is_rim_hook(frozenset(), bad),
                     lambda: in_gset(frozenset(), ((1,), ()), bad),
                     lambda: enumerate_special_rim_hook_tabloids(bad)]:
            with pytest.raises(ValueError):
                call()


def test_iota_rejects_bad_inputs():
    with pytest.raises(ValueError):
        iota(frozenset({(1, 2)}), ((), (1,)), (0, 1))  # first part zero
    b = (2, 1)
    S = frozenset({(1, 1), (2, 1)})
    with pytest.raises(ValueError):
        iota(S, ((1, 1), (2,)), b)  # already an SSKT
    with pytest.raises(ValueError):
        iota(S, ((2, 1), (2,)), b)  # not one on the snake


def test_connected_components_strict():
    comps = connected_components({(1, 1), (2, 1), (4, 1), (4, 2)})
    assert sorted(map(sorted, comps)) == [[(1, 1), (2, 1)], [(4, 1), (4, 2)]]
