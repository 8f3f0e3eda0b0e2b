from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom import reference as ref
from flaghom.compositions import compositions_of, partitions_of
from flaghom.fillings import (FLAVORS, FillingStats, attacking,
                              enumerate_fillings, is_member, key_diagram, leg,
                              statistics, weight_of)
from oracles import enumerate_fillings_naive, is_member_by_definition


def naive_range():
    """(shape, window) pairs small enough for the naive filter; windows past
    the shape add basement rows above it."""
    shapes = [a for k in (1, 2, 3, 4) for d in range(5 if k < 4 else 4)
              for a in compositions_of(d, k)]
    return [(shape, n) for shape in shapes
            for n in sorted({max(len(shape), 2), len(shape) + 1, len(shape) + 2})]


def entry_maps(shape, n):
    """Every filling of the shape with entries in [n]."""
    for values in product(range(1, n + 1), repeat=sum(shape)):
        entries = iter(values)
        yield tuple(tuple(next(entries) for _ in range(part)) for part in shape)


def test_key_diagram():
    assert key_diagram((0, 1)) == {(1, 2)}
    assert key_diagram((2, 0)) == {(1, 1), (2, 1)}
    assert len(key_diagram(ref.SHAPE_A)) == 13
    assert key_diagram((1, 0, 2)) == {(1, 1), (1, 3), (2, 3)}
    # (1, -1) once dropped its second row, and (1.5,) raised TypeError
    for a in [(1, -1), (1.5,), (True,)]:
        with pytest.raises(ValueError):
            key_diagram(a)


@pytest.mark.parametrize("u, v, want", [
    ((1, 2), (1, 5), True),
    ((1, 3), (2, 2), True),
    ((1, 2), (2, 3), False),
    ((1, 2), (3, 2), False),
])
def test_attacking(u, v, want):
    assert attacking(u, v) is want
    assert attacking(v, u) is want


def test_statistics_of_pinned_fillings():
    st = statistics(ref.SSKT_FIG, 7)
    assert (st.maj, st.coinv, st.attacking_violations) == (0, 0, 0)
    st = statistics(ref.RSSAF_FIG, 7)
    assert (st.comaj, st.inv, st.attacking_violations) == (0, 0, 0)
    # windows of True and -1 were once read as no window, 1.5 a TypeError
    for n in (1.5, True, -1):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            statistics(((1,),), n)
    # the entry 0 once counted as a descent below the basement, comaj = 1
    for rows in [((0,),), ((2,),), ((True,),), ((1.5,),)]:
        with pytest.raises(ValueError):
            statistics(rows, 1)


def test_statistics_ascent():
    # a single ascent against the left neighbor contributes its leg
    st = statistics(((1, 2),), 2)
    assert st.maj == 1
    assert st.comaj == 0


def test_leg():
    shape = (1, 0, 3, 6, 1, 0, 2)
    assert leg(shape, 1, 4) == 6
    assert leg(shape, 6, 4) == 1


def test_membership_examples():
    assert is_member(ref.SSKT_FIG, "SSKT", 7)
    assert is_member(ref.RSSAF_FIG, "rSSAF", 7)
    assert is_member(ref.P_FIG, "rSSYT")
    assert is_member(ref.Q_FIG, "SSYT")
    # changing one entry creates an equal attacking pair in column 2
    broken = tuple(
        (6, 3) if r == 7 else row for r, row in enumerate(ref.SSKT_FIG, 1)
    )
    assert statistics(broken, 7).attacking_violations > 0
    assert not is_member(broken, "SSKT", 7)
    with pytest.raises(ValueError):
        is_member(((1,), (2, 2)), "SSYT")
    # entries outside [n] once passed the statistics and the row conditions
    assert not is_member(((-1,),), "SSKT", 1)
    assert not is_member(((-3, 0),), "SSYT")
    assert not is_member(((1,), (2, 5)), "rSSAF", 2)
    assert not is_member(((1,), (3,)), "SSYT", 2)
    assert not is_member(((True,),), "SSKT", 1)
    # a window of 1.5 once admitted the entry 1
    for n in (1.5, True, -1):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            is_member(((1,),), "SSKT", n)
    with pytest.raises(ValueError):
        is_member(((1,),), "no-such-flavor")


def test_enumerate_examples():
    assert enumerate_fillings((0, 1), 2, "SSKT") == [((), (1,)), ((), (2,))]
    assert enumerate_fillings((2, 0), 2, "SSKT") == [((1, 1), ())]
    for flavor in ("SSKT", "rSSAF", "SSYT", "rSSYT"):
        assert enumerate_fillings((0, 0), 3, flavor) == [((), ())]
    assert enumerate_fillings((), 2, "SSYT") == [()]
    with pytest.raises(ValueError, match="unknown flavor"):
        enumerate_fillings((1, 1), 2, "SSAF")
    # n = True was once read as 1, and n = 1.5 or None raised TypeError
    for n in (1.5, True, -1, None):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            enumerate_fillings((1,), n, "SSYT")
    with pytest.raises(ValueError, match="not a partition"):
        enumerate_fillings((1, 2), 2, "SSYT")


def test_enumerate_matches_naive_filter():
    # windows past the shape add basement rows above it, which the statistics
    # of the naive filter see and the key tableau rules never read
    for shape, n in naive_range():
        for flavor in ("SSKT", "rSSAF"):
            fast = enumerate_fillings(shape, n, flavor)
            slow = enumerate_fillings_naive(shape, n, flavor)
            assert sorted(fast) == sorted(slow), (shape, n, flavor)
            assert fast == sorted(fast)
    # a five-cell shape, and partition shapes for the Young families
    assert sorted(enumerate_fillings((2, 3), 3, "rSSAF")) == sorted(
        enumerate_fillings_naive((2, 3), 3, "rSSAF"))
    for lam in [(2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for flavor in ("SSYT", "rSSYT"):
            assert sorted(enumerate_fillings(lam, 3, flavor)) == sorted(
                enumerate_fillings_naive(lam, 3, flavor)), (lam, flavor)


def test_is_member_agrees_with_the_statistics_on_every_entry_map():
    # the cell rules against the statistics, members and non-members alike
    pairs = 0
    for shape, n in naive_range():
        for rows in entry_maps(shape, n):
            for flavor in ("SSKT", "rSSAF"):
                want = is_member_by_definition(rows, flavor, n)
                assert is_member(rows, flavor, n) is want, (rows, flavor, n)
                pairs += 1
    assert pairs == 56566


def test_is_member_agrees_with_rows_and_columns_on_every_entry_map():
    for d in range(6):
        for lam in partitions_of(d):
            for n in (3, 4):
                for rows in entry_maps(lam, n):
                    for flavor in ("SSYT", "rSSYT"):
                        want = is_member_by_definition(rows, flavor, n)
                        assert is_member(rows, flavor, n) is want, (rows, flavor, n)
                        assert is_member(rows, flavor) is want, (rows, flavor)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.sampled_from(FLAVORS),
       st.integers(0, 2), st.data())
def test_is_member_agrees_with_the_definitions_next_to_a_member(parts, flavor, extra, data):
    # every change of one entry of a member: near misses, where a rule that
    # reads one cell too few or too many would show; the rSSAF type B triple
    # first fails with entries two above the row count
    shape = tuple(sorted(parts, reverse=True)) if flavor in ("SSYT", "rSSYT") else tuple(parts)
    n = len(shape) + extra
    member = data.draw(st.sampled_from(enumerate_fillings(shape, n, flavor)))
    assert is_member(member, flavor, n)
    for s, part in enumerate(shape, 1):
        for c in range(1, part + 1):
            for e in range(1, n + 1):
                rows = [list(r) for r in member]
                rows[s - 1][c - 1] = e
                assert is_member(rows, flavor, n) is is_member_by_definition(rows, flavor, n), rows


def test_enumerate_drops_zeros_past_the_window():
    # (1, 0) in the window 1 once raised "composition (1, 0) longer than ambient 1"
    assert enumerate_fillings((1, 0), 1, "SSKT") == [((1,), ())]
    assert enumerate_fillings((1, 0), 1, "rSSAF", weight=(1, 0)) == [((1,), ())]
    with pytest.raises(ValueError):
        enumerate_fillings((0, 1), 1, "SSKT")


def test_enumerate_weight_filter():
    got = enumerate_fillings((2, 1), 3, "rSSAF", weight=(1, 1, 1))
    slow = enumerate_fillings_naive((2, 1), 3, "rSSAF", weight=(1, 1, 1))
    assert sorted(got) == sorted(slow)
    assert all(weight_of(rows, 3) == (1, 1, 1) for rows in got)
    assert enumerate_fillings((2, 1), 3, "SSKT", weight=(1, 1)) == []


@pytest.mark.parametrize("rows", [((0,),), ((3,),)])
def test_weight_of_rejects_entries_outside_the_window(rows):
    # ((0,),) was once counted at index -1 as (0, 1); ((3,),) raised IndexError
    with pytest.raises(ValueError, match=f"entry {rows[0][0]} outside"):
        weight_of(rows, 2)
    # a window of True was once read as 1, and 1.5 raised TypeError
    for n in (1.5, True, -1):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            weight_of(((1,),), n)


@pytest.mark.parametrize("rows", [(("a",),), ((2.0,),), ((1,), ("a",)), ((1, 2.0),),
                                  ((True,),), ((1, True),)])
@pytest.mark.parametrize("n", [None, 3])
def test_weight_of_rejects_an_entry_that_is_not_an_int(rows, n):
    # each once raised TypeError, but True, which was counted as the entry 1
    with pytest.raises(ValueError, match="entry .* outside"):
        weight_of(rows, n)


def test_filling_stats_is_an_immutable_record():
    st = statistics(((1,),), 1)
    assert st == FillingStats(0, 0, 0, 0, 0) == FillingStats(**st._asdict())
    assert st != FillingStats(1, 0, 0, 0, 0)
    assert hash(st) == hash(FillingStats(0, 0, 0, 0, 0))
    assert repr(st) == "FillingStats(maj=0, comaj=0, coinv=0, inv=0, attacking_violations=0)"
    with pytest.raises(AttributeError):
        st.maj = 1


def test_row_monotonicity_characterizes_descent_stats():
    # maj = 0 iff rows weakly decrease, comaj = 0 iff they weakly increase,
    # in both cases against the basement on the left
    from itertools import product
    for values in product((1, 2, 3), repeat=3):
        rows = ((values[0], values[1]), (values[2],))
        st = statistics(rows, 3)
        decreasing = values[0] <= 1 and values[1] <= values[0] and values[2] <= 2
        increasing = values[0] >= 1 and values[1] >= values[0] and values[2] >= 2
        assert (st.maj == 0) is decreasing
        assert (st.comaj == 0) is increasing


def test_sskt_shorter_row_entries_strictly_below():
    # entries of a weakly shorter lower row are strictly smaller columnwise
    for n, shape in [(3, a) for d in range(5) for a in compositions_of(d, 3)]:
        for rows in enumerate_fillings(shape, n, "SSKT"):
            for r in range(1, len(shape) + 1):
                for s in range(r + 1, len(shape) + 1):
                    if shape[r - 1] <= shape[s - 1]:
                        for c in range(1, shape[r - 1] + 1):
                            assert rows[r - 1][c - 1] < rows[s - 1][c - 1]


def test_rssaf_first_column_is_row_index():
    for n, shape in [(3, a) for d in range(5) for a in compositions_of(d, 3)]:
        for rows in enumerate_fillings(shape, n, "rSSAF"):
            for r, row in enumerate(rows, 1):
                if row:
                    assert row[0] == r
