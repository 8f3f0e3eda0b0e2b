import importlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flaghom import reference as ref
from flaghom.compositions import compositions_of, partitions_of
from flaghom.fillings import enumerate_fillings, is_member, shape_of, weight_of
from flaghom.frsk import (biword_from_matrix, flagged_insert_trace, frsk,
                          frsk_inverse, matrix_from_biword, pad_rows, rho,
                          rho_inverse, rsk, rsk_insert_trace, rsk_inverse, tau,
                          tau_dagger)
from oracles import lift_F

PAIRS = list(zip(ref.BIWORD_TOP, ref.BIWORD_BOTTOM))
M13 = matrix_from_biword(PAIRS, 7)


def lower_triangular_matrices(n, total):
    """All n x n lower triangular natural matrices with entry sum <= total."""
    slots = [(i, j) for i in range(n) for j in range(i + 1)]
    out = []

    def go(idx, left, acc):
        if idx == len(slots):
            M = [[0] * n for _ in range(n)]
            for (i, j), v in zip(slots, acc):
                M[i][j] = v
            out.append(tuple(tuple(r) for r in M))
            return
        for v in range(left + 1):
            go(idx + 1, left - v, acc + [v])

    go(0, total, [])
    return out


def fillings_with_entries(shape, values):
    """Every filling of the given row lengths with entries from values."""
    out = []
    for vals in product(values, repeat=sum(shape)):
        entries = iter(vals)
        out.append(tuple(tuple(next(entries) for _ in range(part)) for part in shape))
    return out


def test_biword_matrix_examples():
    assert biword_from_matrix(((0, 0), (0, 0))) == []
    assert biword_from_matrix(((0, 0), (1, 0))) == [(2, 1)]
    assert biword_from_matrix(M13) == PAIRS
    assert matrix_from_biword([], 2) == ((0, 0), (0, 0))


def test_rsk_insert_examples():
    assert rsk_insert_trace((), 3)[0] == ((3,),)
    assert rsk_insert_trace(((2,),), 2)[0] == ((2, 2),)
    out, chain = rsk_insert_trace(ref.P_BEFORE, 3)
    assert out == ref.P_FIG
    assert chain == ref.P_CHAIN


def test_rsk_examples():
    assert rsk(((0, 0), (0, 0))) == ((), ())
    P, Q = rsk(((1, 0), (0, 1)))
    assert P == ((2,), (1,)) and Q == ((1,), (2,))
    assert rsk(M13) == (ref.P_FIG, ref.Q_FIG)


def test_flagged_insert_examples():
    assert flagged_insert_trace(((), ()), 1, 2)[0] == ((), (1,))
    out, chain = flagged_insert_trace(ref.SSKT_BEFORE, 3, 7)
    assert out == ref.SSKT_FIG
    assert chain == ref.SSKT_CHAIN
    out, chain = flagged_insert_trace(((1,), (2,), ()), 3, 3)
    assert out == ((1,), (2,), (3,))
    assert len(chain) == 1
    with pytest.raises(ValueError, match="taller than ambient window"):
        flagged_insert_trace(((1,), (2,), ()), 1, 2)
    for j in (0, 3):
        with pytest.raises(ValueError, match=r"outside \[2\]"):
            flagged_insert_trace(((), ()), j, 2)
    # 0 is below its basement entry, so the bumped 1 has no place left
    with pytest.raises(ValueError, match="no admissible position"):
        flagged_insert_trace(((0,),), 1, 1)


def test_frsk_examples():
    assert frsk(((0, 0), (0, 0))) == (((), ()), ((), ()))
    assert frsk(((0, 0), (1, 0))) == (((), (1,)), ((), (2,)))
    assert frsk(M13) == (ref.SSKT_FIG, ref.RSSAF_FIG)
    with pytest.raises(ValueError):
        frsk(((0, 1), (0, 0)))


def test_column_set_maps_on_pinned_pair():
    assert tau(ref.SSKT_FIG) == ref.P_FIG
    assert rho(ref.RSSAF_FIG) == ref.Q_FIG
    assert tau_dagger(ref.P_FIG, ref.SHAPE_A) == ref.SSKT_FIG
    assert rho_inverse(ref.Q_FIG, 7) == ref.RSSAF_FIG
    assert tau(((1, 1), ())) == ((1, 1),)
    assert tau_dagger(((1, 1),), (2, 0)) == ((1, 1), ())
    assert tau(()) == ()
    assert rho(()) == ()


def test_rho_single_cell():
    assert rho_inverse(((3,),), 4) == ((), (), (3,), ())
    with pytest.raises(ValueError, match="smaller than the largest entry"):
        rho_inverse(((3,),), 2)
    # n = 1.5 once failed in range with a TypeError, and n = True answered
    for n in [1.5, True]:
        with pytest.raises(ValueError, match="is not an integer"):
            rho_inverse(((1,),), n)
    # two 1s in one column, and a column decreasing upward, which was once
    # rebuilt as ((1,), (2,)), whose rho is not Q
    for Q in [((1,), (1,)), ((2,), (1,))]:
        with pytest.raises(ValueError, match="Q is not an SSYT"):
            rho_inverse(Q)


def test_tau_dagger_detects_non_images():
    # column multisets that cannot keep rows weakly decreasing
    with pytest.raises(ValueError):
        tau_dagger(((1, 3),), (2,))
    # column width differs from the shape
    with pytest.raises(ValueError):
        tau_dagger(((1, 1),), (1, 1))
    # one entry for a column of two cells
    with pytest.raises(ValueError, match="column multiset size"):
        tau_dagger(((1,),), (1, 1))
    # a negative part, once read as a zero-length row
    with pytest.raises(ValueError, match="negative part"):
        tau_dagger(((1,),), (1, -1))


def test_exhaustive_small_matrices():
    for L in lower_triangular_matrices(3, 3):
        S, T = frsk(L)
        assert shape_of(S) == shape_of(T)
        assert is_member(S, "SSKT", 3) and is_member(T, "rSSAF", 3)
        assert weight_of(S, 3) == tuple(sum(row[j] for row in L) for j in range(3))
        assert weight_of(T, 3) == tuple(sum(row) for row in L)
        P, Q = rsk(L)
        assert (tau(S), rho(T)) == (P, Q)
        assert frsk_inverse(S, T) == L
        assert rsk_inverse(P, Q, 3) == L
        # the column-set left inverse recovers the flagged pair
        T2 = rho_inverse(Q, 3)
        assert (tau_dagger(P, shape_of(T2)), T2) == (S, T)


def test_frsk_is_injective_on_small_matrices():
    images = {}
    for L in lower_triangular_matrices(3, 3):
        key = frsk(L)
        assert key not in images
        images[key] = L


def test_classical_insertion_does_at_least_as_many_steps():
    for L in lower_triangular_matrices(3, 3):
        S = ()
        P = ()
        for i, j in biword_from_matrix(L):
            S, fchain = flagged_insert_trace(pad_rows(S, i), j, i)
            P, cchain = rsk_insert_trace(P, j)
            assert len(cchain) >= len(fchain)


def test_shift_diagram_commutes():
    # pushing the matrix into the lower triangle of twice the size shifts
    # the recording entries and both fillings up by n
    n = 2
    for L in lower_triangular_matrices(n, 3):
        S, T = frsk(L)
        S2, T2 = frsk(lift_F(L))
        up_S = ((),) * n + tuple(tuple(r) for r in S)
        up_T = ((),) * n + tuple(tuple(e + n for e in r) for r in T)
        assert S2 == up_S
        assert T2 == up_T
        # classical side: recording entries shift by n
        P, Q = rsk(L)
        P2, Q2 = rsk(lift_F(L))
        assert P2 == P
        assert Q2 == tuple(tuple(e + n for e in row) for row in Q)


def test_lift_F_examples():
    assert lift_F(((1,),)) == ((0, 0), (1, 0))
    assert lift_F(((0,),)) == ((0, 0), (0, 0))
    A = ((1, 2), (0, 1))
    F = lift_F(A)
    assert tuple(sum(row) for row in F) == (0, 0, 3, 1)
    assert all(F[i][j] == 0 for i in range(4) for j in range(i + 1, 4))


def test_inverse_rejects_bad_pairs():
    with pytest.raises(ValueError):
        frsk_inverse(((1,), ()), ((), (2,)))  # shapes differ
    with pytest.raises(ValueError):
        frsk_inverse(((2,), ()), ((1,), ()))  # not an SSKT (2 > basement 1)
    with pytest.raises(ValueError):
        rsk_inverse(((1, 1),), ((1,), (2,)))  # shapes differ
    # bottom letters outside [n] name no column of the matrix
    for bad in (0, -1):
        with pytest.raises(ValueError):
            rsk_inverse(((bad,),), ((1,),))
        with pytest.raises(ValueError):
            frsk_inverse(((bad,),), ((1,),))
        with pytest.raises(ValueError):
            matrix_from_biword([(1, bad)])
    with pytest.raises(ValueError):
        matrix_from_biword([(3, 1)], 2)
    # a bool letter was once read as 1, and a float letter or window raised
    # TypeError; rsk_inverse took the window True as 1
    for pairs in ([(True, 1)], [(1, 1.0)]):
        with pytest.raises(ValueError, match="letter is not an integer"):
            matrix_from_biword(pairs)
    for n in (1.5, True, -1):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            matrix_from_biword([(1, 1)], n)
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            rsk_inverse(((1,),), ((1,),), n)
    # P must be a reverse SSYT and Q an SSYT
    for P, Q in [(((1, 2),), ((1, 2),)), (((1,), (2,)), ((1,), (2,)))]:
        with pytest.raises(ValueError):
            rsk_inverse(P, Q)
    # every equal-shape pair of fillings with entries in [3] and at most four
    # cells is either rejected or inverted to a matrix that maps back to it
    inverted = 0
    for k in range(5):
        for shape in partitions_of(k):
            for P, Q in product(fillings_with_entries(shape, (1, 2, 3)), repeat=2):
                try:
                    M = rsk_inverse(P, Q)
                except ValueError:
                    continue
                assert rsk(M) == (P, Q), (P, Q)
                inverted += 1
    assert inverted == 715  # the (reverse SSYT, SSYT) pairs among them
    # every (reverse SSYT, SSYT) pair of one shape with at most five cells
    # and entries in [4] is inverted to a matrix that maps back to it
    inverted = 0
    for k in range(6):
        for shape in partitions_of(k):
            if len(shape) > 4:
                continue  # no column of five distinct entries in [4]
            for P in enumerate_fillings(shape, 4, "rSSYT"):
                for Q in enumerate_fillings(shape, 4, "SSYT"):
                    assert rsk(rsk_inverse(P, Q)) == (P, Q), (P, Q)
                    inverted += 1
    assert inverted == 20_349  # the 4 x 4 natural matrices of sum at most 5
    # every equal-shape pair of fillings of 3-part compositions with at most
    # three cells and entries in [3] is either rejected or inverted to a
    # lower triangular matrix that maps back to it
    inverted = refused = 0
    for k in range(4):
        for a in compositions_of(k, 3):
            for S, T in product(fillings_with_entries(a, (1, 2, 3)), repeat=2):
                try:
                    L = frsk_inverse(S, T)
                except ValueError:
                    refused += 1
                    continue
                assert frsk(L) == (S, T), (S, T)
                inverted += 1
    assert (inverted, refused) == (84, 7_720)


def test_every_small_pair_is_an_image(monkeypatch):
    # from the pair side: each equal-shape (SSKT, rSSAF) pair comes from
    # exactly the matrix that frsk_inverse returns, after one membership
    # check of S and one of T: the images are not checked again
    calls = []
    # the package exports the function frsk under the module's name
    monkeypatch.setattr(importlib.import_module("flaghom.frsk"), "is_member",
                        lambda *args: calls.append(args) or is_member(*args))
    count = 0
    for n in range(1, 5):
        for d in range(5):
            for a in compositions_of(d, n):
                rSSAF = enumerate_fillings(a, n, "rSSAF")
                for S in enumerate_fillings(a, n, "SSKT"):
                    for T in rSSAF:
                        assert frsk(frsk_inverse(S, T)) == (S, T), (S, T)
                        count += 1
    assert count == 1251
    assert len(calls) == 2 * count


def test_insertion_commutes_with_column_stack():
    # every SSKT of at most four rows and six cells, every entry of its window
    count = 0
    for n in range(1, 5):
        for d in range(7):
            for a in compositions_of(d, n):
                for S in enumerate_fillings(a, n, "SSKT"):
                    for j in range(1, n + 1):
                        out, chain = flagged_insert_trace(S, j, n)
                        assert is_member(out, "SSKT", n), (S, j)
                        weight = list(weight_of(S, n))
                        weight[j - 1] += 1
                        assert weight_of(out, n) == tuple(weight), (S, j)
                        # the chain ends at the one cell the shape gains
                        c, r = chain[-1]
                        shape = list(a)
                        shape[r - 1] += 1
                        assert shape_of(out) == tuple(shape) and c == shape[r - 1], (S, j)
                        assert tau(out) == rsk_insert_trace(tau(S), j)[0], (S, j)
                        count += 1
    assert count == 14_374


@st.composite
def small_lower_triangular(draw, max_n=6, max_sum=8):
    """An n x n lower triangular natural matrix, n <= max_n, entry sum <= max_sum."""
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_sum))
    M = [[0] * n for _ in range(n)]
    for i, j in cells:
        M[max(i, j)][min(i, j)] += 1
    return tuple(map(tuple, M))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_lower_triangular())
def test_frsk_inverse_undoes_frsk(L):
    assert frsk_inverse(*frsk(L)) == L


@pytest.mark.parametrize("call, A", [
    (rsk, ((1, 2), (3,))),       # ragged rows
    (rsk, ((1, -1), (0, 1))),    # negative entry
    (frsk, ((1, 0), (-1, 1))),   # negative entry
    (frsk, ((1, 0, 0), (1, 1, 0))),  # not square
    (lift_F, ((1, 2), (3,))),    # not square
    (lift_F, ((-1,),)),          # negative entry, once lifted as it was
    (frsk, ((True,),)),          # bool entry, once read as 1
    (rsk, ((1.5,),)),            # float entry, once a TypeError
])
def test_matrix_boundary_rejects(call, A):
    with pytest.raises(ValueError):
        call(A)
