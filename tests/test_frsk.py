from itertools import product

import pytest

from flaghom import reference as ref
from flaghom.compositions import compositions_of, partitions_of
from flaghom.fillings import enumerate_fillings, is_member, shape_of, weight_of
from flaghom.frsk import (biword_from_matrix, flagged_insert,
                          flagged_insert_trace, frsk, frsk_inverse, lift_F,
                          matrix_from_biword, pad_rows, rho, rho_inverse, rsk,
                          rsk_insert, rsk_insert_trace, rsk_inverse, tau,
                          tau_dagger)

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


def test_biword_matrix_examples():
    assert biword_from_matrix(((0, 0), (0, 0))) == []
    assert biword_from_matrix(((0, 0), (1, 0))) == [(2, 1)]
    assert biword_from_matrix(M13) == PAIRS
    assert matrix_from_biword([], 2) == ((0, 0), (0, 0))


def test_rsk_insert_examples():
    assert rsk_insert((), 3) == ((3,),)
    assert rsk_insert(((2,),), 2) == ((2, 2),)
    out, chain = rsk_insert_trace(ref.P_BEFORE, 3)
    assert out == ref.P_FIG
    assert chain == ref.P_CHAIN


def test_rsk_examples():
    assert rsk(((0, 0), (0, 0))) == ((), ())
    P, Q = rsk(((1, 0), (0, 1)))
    assert P == ((2,), (1,)) and Q == ((1,), (2,))
    assert rsk(M13) == (ref.P_FIG, ref.Q_FIG)


def test_flagged_insert_examples():
    assert flagged_insert(((), ()), 1, 2) == ((), (1,))
    out, chain = flagged_insert_trace(ref.SSKT_BEFORE, 3, 7)
    assert out == ref.SSKT_FIG
    assert chain == ref.SSKT_CHAIN
    out, chain = flagged_insert_trace(((1,), (2,), ()), 3, 3)
    assert out == ((1,), (2,), (3,))
    assert len(chain) == 1


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


def test_tau_dagger_detects_non_images():
    # column multisets that cannot keep rows weakly decreasing
    with pytest.raises(ValueError):
        tau_dagger(((1, 3),), (2,))
    # column width differs from the shape
    with pytest.raises(ValueError):
        tau_dagger(((1, 1),), (1, 1))


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
    # P must be a reverse SSYT and Q an SSYT
    for P, Q in [(((1, 2),), ((1, 2),)), (((1,), (2,)), ((1,), (2,)))]:
        with pytest.raises(ValueError):
            rsk_inverse(P, Q)
    # every equal-shape pair of fillings with entries in [3] and at most four
    # cells is either rejected or inverted to a matrix that maps back to it
    inverted = 0
    for k in range(5):
        for shape in partitions_of(k):
            fillings = []
            for vals in product((1, 2, 3), repeat=k):
                entries = iter(vals)
                fillings.append(tuple(tuple(next(entries) for _ in range(part))
                                      for part in shape))
            for P, Q in product(fillings, repeat=2):
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


def test_every_small_pair_is_an_image():
    # from the pair side: each equal-shape (SSKT, rSSAF) pair comes from
    # exactly the matrix that frsk_inverse returns
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


def test_insertion_commutes_with_column_stack():
    # states reachable while folding small matrices, all entries
    for L in lower_triangular_matrices(3, 4):
        S = ()
        for i, j in biword_from_matrix(L):
            S, _ = flagged_insert_trace(pad_rows(S, i), j, i)
        S = pad_rows(S, 3)
        for j in (1, 2, 3):
            assert tau(flagged_insert(S, j, 3)) == rsk_insert(tau(S), j), (L, j)


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
