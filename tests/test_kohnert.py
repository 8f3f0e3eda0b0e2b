from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom import kohnert
from flaghom import reference as ref
from flaghom.bases import h_flagged
from flaghom.compositions import compositions_of
from flaghom.kohnert import (build_Da, diagram, diagram_weight, is_southwest,
                             kohnert_closure, kohnert_moves, kohnert_polynomial,
                             phi, phi_inverse)
from flaghom.polynomials import Poly


def test_move_examples():
    assert kohnert_moves(frozenset({(1, 2)})) == {frozenset({(1, 1)})}
    assert kohnert_moves(frozenset({(1, 1)})) == set()
    assert kohnert_moves(ref.KOHNERT_START) == ref.KOHNERT_RESULTS


def test_move_skips_occupied_positions():
    # the topmost vacancy may sit below an occupied cell
    D = frozenset({(1, 3), (1, 2)})
    assert kohnert_moves(D) == {frozenset({(1, 3), (1, 1)}), frozenset({(1, 2), (1, 1)})}


def test_closure_examples():
    assert kohnert_closure(frozenset({(1, 2)})) == {
        frozenset({(1, 2)}), frozenset({(1, 1)})}
    assert kohnert_closure(frozenset()) == {frozenset()}
    assert len(kohnert_closure(build_Da((0, 2)))) == 3


def test_polynomial_examples():
    assert kohnert_polynomial(frozenset()) == Poly.one()
    x1, x2 = Poly.variable(1), Poly.variable(2)
    assert kohnert_polynomial(frozenset({(1, 2)})) == x1 + x2
    assert kohnert_polynomial(build_Da((1, 1))) == h_flagged((1, 1))


def test_build_Da_examples():
    assert build_Da(ref.SHAPE_A) == ref.DA_CELLS
    assert build_Da((0, 0, 0)) == frozenset()
    assert build_Da((0, 2)) == frozenset({(1, 2), (2, 2)})
    assert is_southwest(build_Da((2, 0, 3)))
    # every D_a passes vacuously; a cell up and to the left needs its corner
    assert not is_southwest({(2, 1), (1, 2)})
    assert is_southwest({(1, 1), (2, 1), (1, 2)})


def test_phi_examples():
    a = (2, 1)
    D = build_Da(a)
    assert phi(D, a) == ((2, 0), (0, 1))
    assert phi(frozenset({(1, 1)}), (0, 1)) == ((0, 0), (1, 0))
    # weights map to column sums
    for T in kohnert_closure(D):
        L = phi(T, a)
        cols = tuple(sum(row[j] for row in L) for j in range(len(a)))
        assert cols == diagram_weight(T, len(a))


def test_phi_inverse_covers_all_matrices():
    a = (0, 2)
    closure = kohnert_closure(build_Da(a))
    mats = [((0, 0), (i, 2 - i)) for i in range(3)]
    for L in mats:
        assert phi_inverse(L, a) in closure
    assert {phi(T, a) for T in closure} == set(mats)


def test_phi_roundtrip_small():
    for n in (1, 2, 3):
        for d in range(4):
            for a in compositions_of(d, n):
                for T in kohnert_closure(build_Da(a, n)):
                    assert phi_inverse(phi(T, a), a) == T


def test_phi_accepts_exactly_the_closure():
    # every diagram of |a| cells in the box [1, |a|] x [1, n] is mapped and
    # inverted when it lies in the closure of D(a), and rejected otherwise
    checked = accepted = 0
    for n in (1, 2, 3):
        for d in range(5):
            box = [(c, r) for c in range(1, d + 1) for r in range(1, n + 1)]
            for a in compositions_of(d, n):
                closure = kohnert_closure(build_Da(a, n))
                for cells in combinations(box, d):
                    T = frozenset(cells)
                    if T in closure:
                        assert phi_inverse(phi(T, a), a) == T
                        accepted += 1
                    else:
                        with pytest.raises(ValueError):
                            phi(T, a)
                    checked += 1
    assert (checked, accepted) == (8823, 250)  # 250 lower triangular matrices


def test_phi_rejects_outside_closure():
    # two cells in one column cannot appear in any closure element
    with pytest.raises(ValueError):
        phi(frozenset({(1, 1), (1, 2)}), (1, 1))
    # rows increasing within a window violate the drop structure
    with pytest.raises(ValueError):
        phi(frozenset({(1, 1), (2, 2)}), (0, 2))
    for cell in [(3, 1), (1, 3), (0, 1)]:  # the window of (1, 1) is [2] x [2]
        with pytest.raises(ValueError, match="lies outside"):
            phi(frozenset({cell}), (1, 1))
    with pytest.raises(ValueError):
        phi_inverse(((0, 1), (1, 0)), (1, 1))
    with pytest.raises(ValueError):
        phi_inverse(((1, 0), (-1, 1)), (1, 0))  # a negative entry
    # phi_inverse once took the part True as 1, and phi failed on 1.5 with a
    # TypeError
    for a in [(True,), (1.5,), (-1,)]:
        with pytest.raises(ValueError):
            phi_inverse(((1,),), a)
        with pytest.raises(ValueError):
            phi(frozenset({(1, 1)}), a)


def test_character_identity_small():
    for n in (1, 2, 3):
        for d in range(4):
            for a in compositions_of(d, n):
                assert kohnert_polynomial(build_Da(a, n)) == h_flagged(a, n), a


def test_entry_points_reject_cells_off_the_grid():
    # the closure once returned {D} and the polynomial raised IndexError
    with pytest.raises(ValueError):
        kohnert_closure({(0, 1)})
    with pytest.raises(ValueError):
        kohnert_polynomial({(1, -1)})
    # the closure once truncated (1.5, 2.9) to the cell (1, 2)
    with pytest.raises(ValueError):
        kohnert_closure({(1.5, 2.9)})
    with pytest.raises(ValueError):
        kohnert_closure({(True, True)})
    # the moves of {(0, 1)} were once the empty set, and a cell in row 0
    # raised IndexError in diagram_weight or was counted in the top row
    with pytest.raises(ValueError):
        kohnert_moves({(0, 1)})
    for D in [{(1, 0)}, {(1, 0), (1, 2)}]:
        with pytest.raises(ValueError, match="outside"):
            diagram_weight(D)


def test_diagram_rejects_a_cell_listed_twice():
    # the repeat was once dropped, leaving a one-cell diagram
    with pytest.raises(ValueError, match=r"cell \[1, 1\] is listed twice"):
        diagram([(1, 1), (2, 1), [1, 1]])
    with pytest.raises(ValueError, match="listed twice"):
        kohnert_polynomial([(1, 2), (1, 2)])
    assert diagram([[1, 1], (2, 1)]) == {(1, 1), (2, 1)}


def closure_by_oracle(D):
    seen, queue = {D}, [D]
    for T in queue:
        for U in kohnert_moves(T) - seen:
            seen.add(U)
            queue.append(U)
    return seen


def walked_polynomial(D):
    """kohnert_polynomial(D) from a walk, with the weight cache empty."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kohnert, "_weight_cache", {})
        mp.setattr(kohnert, "_weight_cache_terms", 0)
        return kohnert_polynomial(D)


def assert_walk_matches_the_oracle(D):
    """The closure and the walked polynomial of D against a search over
    kohnert_moves; the size of the closure."""
    closure = closure_by_oracle(D)
    assert kohnert_closure(D) == closure, D
    assert walked_polynomial(D) == Poly.from_terms((diagram_weight(T), 1) for T in closure), D
    return len(closure)


def test_walk_matches_the_oracle_on_every_Da():
    checked = sum(assert_walk_matches_the_oracle(build_Da(a, n)) for n in range(1, 5)
                  for d in range(7) for a in compositions_of(d, n))
    assert checked == 9023


def test_walk_matches_the_oracle_on_every_diagram_in_a_3_by_4_grid():
    # moves that jump over one or two occupied cells, and columns whose
    # moves block one another
    grid = [(c, r) for c in range(1, 4) for r in range(1, 5)]
    checked = sum(assert_walk_matches_the_oracle(frozenset(D)) for k in range(len(grid) + 1)
                  for D in combinations(grid, k))
    assert checked == 35461


def test_walk_matches_the_oracle_on_edge_cases():
    # no cell; an empty middle row; an empty middle column; a lone cell right
    # of empty columns; a full column, which has no move; a tall diagram, so
    # that the move tables and the row-sum buckets are sized by its rows
    column = frozenset((2, r) for r in range(1, 6))
    for D in [frozenset(), frozenset({(1, 1), (2, 3), (1, 3)}),
              frozenset({(1, 2), (3, 2), (3, 1)}), frozenset({(9, 4)}), column,
              frozenset({(1, 40), (2, 3)})]:
        assert_walk_matches_the_oracle(D)
    assert kohnert_closure(column) == {column}


def test_walk_gives_h_flagged_on_the_readme_shape():
    a = (1, 0, 3, 6, 1, 0, 2)
    poly = walked_polynomial(build_Da(a))
    assert poly == h_flagged(a)
    assert sum(poly.terms.values()) == 117600  # lower triangular matrices of row sum a


def test_walk_decodes_a_digit_of_B_minus_1():
    # all cells in one row make a digit equal to |D| = B - 1: four cells in
    # row 1, and the bottom of the closure of D(0, 3), three cells in row 1;
    # the empty diagram has weight 0 and gives 1
    assert walked_polynomial({(c, 1) for c in range(1, 5)}) == Poly.variable(1) ** 4
    row2 = {(c, 2) for c in range(1, 4)}
    assert walked_polynomial(row2) == h_flagged((0, 3))
    assert walked_polynomial(row2).coefficient((3,)) == 1
    assert walked_polynomial(set()) == Poly.one()


@pytest.fixture
def weight_cache(monkeypatch):
    """An empty weight cache for one test."""
    monkeypatch.setattr(kohnert, "_weight_cache", {})
    monkeypatch.setattr(kohnert, "_weight_cache_terms", 0)
    return kohnert._weight_cache


def test_a_cache_hit_equals_a_cold_answer(weight_cache):
    for a in [(1, 0, 3), (2, 2, 1), (0, 0)]:
        D = build_Da(a)
        cold = kohnert_polynomial(D)
        assert D in weight_cache
        assert kohnert_polynomial(D) == cold == h_flagged(a), a
    assert kohnert_polynomial(set()) == Poly.one() == kohnert_polynomial(frozenset())


def test_a_returned_poly_is_fresh(weight_cache):
    # a caller that edits its answer leaves the next answer as it was
    D = build_Da((1, 2))
    first = kohnert_polynomial(D)
    first.terms[(5,)] = 7
    del first.terms[(3,)]
    assert kohnert_polynomial(D) == h_flagged((1, 2))
    assert kohnert_polynomial(D) is not kohnert_polynomial(D)


def test_a_list_and_a_frozenset_share_one_entry(weight_cache):
    cells = [[1, 2], [2, 2], [3, 3]]
    first = kohnert_polynomial(cells)
    assert kohnert_polynomial(frozenset(map(tuple, cells))) == first
    assert list(weight_cache) == [diagram(cells)]


def test_weight_cache_stays_bounded(weight_cache, monkeypatch):
    # the limit counts terms over all entries; a diagram with more terms
    # than the limit is answered and not kept
    monkeypatch.setattr(kohnert, "_WEIGHT_CACHE_LIMIT", 12)
    shapes = [a for n in (2, 3) for d in range(4) for a in compositions_of(d, n)]
    for a in shapes + shapes[::-1] + [(1, 2, 3)]:
        D = build_Da(a)
        assert kohnert_polynomial(D) == walked_polynomial(D) == h_flagged(a), a
        held = sum(map(len, kohnert._weight_cache.values()))
        assert held == kohnert._weight_cache_terms <= 12
    assert len(kohnert_polynomial(build_Da((1, 2, 3))).terms) > 12
    assert build_Da((1, 2, 3)) not in kohnert._weight_cache


# columns with gaps, rows above any window of a staircase diagram
diagrams = st.frozensets(st.tuples(st.integers(1, 6), st.integers(1, 7)), max_size=7)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(diagrams)
def test_closure_and_polynomial_match_the_oracle(D):
    assert_walk_matches_the_oracle(D)
