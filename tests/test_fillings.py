import pytest

from flaghom import reference as ref
from flaghom.compositions import compositions_of
from flaghom.fillings import (attacking, enumerate_fillings,
                              enumerate_fillings_naive, is_member,
                              key_diagram, leg, statistics, weight_of)


def test_key_diagram():
    assert key_diagram((0, 1)) == {(1, 2)}
    assert key_diagram((2, 0)) == {(1, 1), (2, 1)}
    assert len(key_diagram(ref.SHAPE_A)) == 13
    assert key_diagram((1, 0, 2)) == {(1, 1), (1, 3), (2, 3)}


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
    with pytest.raises(ValueError):
        is_member(((1,),), "no-such-flavor")


def test_enumerate_examples():
    assert enumerate_fillings((0, 1), 2, "SSKT") == [((), (1,)), ((), (2,))]
    assert enumerate_fillings((2, 0), 2, "SSKT") == [((1, 1), ())]
    for flavor in ("SSKT", "rSSAF", "SSYT", "rSSYT"):
        assert enumerate_fillings((0, 0), 3, flavor) == [((), ())]
    assert enumerate_fillings((), 2, "SSYT") == [()]


def test_enumerate_matches_naive_filter():
    shapes = [a for d in range(5) for n in (1, 2, 3) for a in compositions_of(d, n)]
    for shape in shapes:
        n = max(len(shape), 2)
        for flavor in ("SSKT", "rSSAF"):
            fast = enumerate_fillings(shape, n, flavor)
            slow = enumerate_fillings_naive(shape, n, flavor)
            assert sorted(fast) == sorted(slow), (shape, flavor)
            assert fast == sorted(fast)
    # a five-cell shape, and partition shapes for the Young families
    assert sorted(enumerate_fillings((2, 3), 3, "rSSAF")) == sorted(
        enumerate_fillings_naive((2, 3), 3, "rSSAF"))
    for lam in [(2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for flavor in ("SSYT", "rSSYT"):
            assert sorted(enumerate_fillings(lam, 3, flavor)) == sorted(
                enumerate_fillings_naive(lam, 3, flavor)), (lam, flavor)


def test_enumerate_weight_filter():
    got = enumerate_fillings((2, 1), 3, "rSSAF", weight=(1, 1, 1))
    slow = enumerate_fillings_naive((2, 1), 3, "rSSAF", weight=(1, 1, 1))
    assert sorted(got) == sorted(slow)
    assert all(weight_of(rows, 3) == (1, 1, 1) for rows in got)
    assert enumerate_fillings((2, 1), 3, "SSKT", weight=(1, 1)) == []


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
