"""Row insertion on reverse SSYT, the flagged insertion on SSKT, the two
RSK correspondences built from them, and the column-set maps relating the
classical and flagged pictures.

Matrices are tuples of row tuples with 1-based (i, j) semantics; a biword is
a list of (top, bottom) pairs kept in the canonical order: top entries
weakly increasing, bottom entries weakly decreasing within a constant top.
"""

from itertools import product

from .compositions import as_comp, as_int, as_matrix, is_lower_triangular
from .fillings import is_member, shape_of


def biword_from_matrix(A):
    """Multiset of pairs (i, j) with multiplicity A[i][j], canonically ordered.
    Rejects what as_matrix rejects."""
    pairs = []
    for i, row in enumerate(as_matrix(A), start=1):
        for j in range(len(row), 0, -1):
            pairs.extend([(i, j)] * row[j - 1])
    return pairs


def matrix_from_biword(pairs, n=None):
    """The n x n matrix counting each pair (i, j) at row i, column j; n
    defaults to the largest letter.  Letters are integers in [n], not bools."""
    if not all(type(i) is type(j) is int for i, j in pairs):
        raise ValueError("biword letter is not an integer")
    n = max((max(i, j) for i, j in pairs), default=0) if n is None else as_int(n)
    M = [[0] * n for _ in range(n)]
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"biword letter of {(i, j)} outside [{n}]")
        M[i - 1][j - 1] += 1
    return tuple(tuple(r) for r in M)


# ---------------------------------------------------------------------------
# classical insertion and RSK


def rsk_insert_trace(P, j):
    """Insert j into a reverse SSYT.  Returns the new tableau and the bumping
    chain [(column, row), ...]; the final chain entry is the appended cell.

    Row by row from the bottom, j lands in the leftmost position of the row
    not occupied by a weakly larger entry, displacing its occupant upward.
    Rejects a j that is not an int (not a bool) >= 1.
    """
    rows = [list(r) for r in P]
    as_int(j, 1, "entry")
    chain = []
    r = 1
    while True:
        if r > len(rows):
            rows.append([])
        row = rows[r - 1]
        pos = next((t for t, v in enumerate(row) if v < j), len(row))
        chain.append((pos + 1, r))
        if pos == len(row):
            row.append(j)
            break
        j, row[pos] = row[pos], j
        r += 1
    return tuple(tuple(r) for r in rows), chain


def _fold(A, insert):
    """Fold the biword of A through insert(P, i, j) -> (P, chain); the
    recording rows take the top letter i at each new cell.  Both insertions
    end their chain by appending to the row it names.  Returns (P, Q)."""
    P = ()
    Q = []
    for i, j in biword_from_matrix(A):
        P, chain = insert(P, i, j)
        r = chain[-1][1]
        while len(Q) < r:
            Q.append([])
        Q[r - 1].append(i)
    return P, tuple(tuple(r) for r in Q)


def rsk(A):
    """Fold the biword of A through row insertion.  Returns (P, Q)."""
    return _fold(A, lambda P, i, j: rsk_insert_trace(P, j))


def rsk_inverse(P, Q, n=None):
    """Recover the matrix from a (reverse SSYT, SSYT) pair of equal shape,
    which is always an RSK image.  Rejects other pairs and a bad window n."""
    if not is_member(P, "rSSYT") or not is_member(Q, "SSYT"):
        raise ValueError("need a reverse SSYT and an SSYT")
    if shape_of(P) != shape_of(Q):
        raise ValueError("tableau shapes differ")
    return _unfold(P, Q, n)


def _unfold(P, Q, n):
    """The matrix of the RSK pair (P, Q), unchecked.  The last cell row
    insertion added holds Q's largest entry at the end of the longest row
    ending in it: pop that cell, reverse its bumping chain down through P,
    and the pairs come off the biword in reverse canonical order."""
    P = [list(r) for r in P]
    Q = [list(r) for r in Q]
    pairs = []
    while any(Q):
        r = max((t for t, row in enumerate(Q, 1) if row),
                key=lambda t: (Q[t - 1][-1], len(Q[t - 1])))
        i, j = Q[r - 1].pop(), P[r - 1].pop()
        for row in reversed(P[:r - 1]):
            pos = max(t for t, v in enumerate(row) if v > j)
            row[pos], j = j, row[pos]
        pairs.append((i, j))
    pairs.reverse()
    return matrix_from_biword(pairs, n)


# ---------------------------------------------------------------------------
# flagged insertion and flagged RSK


def flagged_insert_trace(S, j, n):
    """Insert j into an SSKT with ambient window [n].

    Scan the columns right to left, from one past the longest row or, after
    a bump, from the bumped column, and in each column the rows n down to 1;
    take the first cell whose row reaches the column to its left with an
    entry >= j there (the basement entry r in column 1) and which is the
    vacant end of its row or holds an entry < j.  Append j there, or put j
    there and go on with the displaced entry.

    This is the rightmost column holding fewer entries >= j than the one to
    its left (the basement left of column 1): SSKT rows weakly decrease from
    their basement entry r, so the rows holding >= j in a column lie among
    those holding >= j to its left, and the count drops exactly where a row
    meets the condition above.

    Returns the new filling (window rows) and the chain [(column, row), ...].
    Rejects a j that is not an int (not a bool) in [n].
    """
    rows = [list(r) for r in S]
    if len(rows) > as_int(n):
        raise ValueError("filling taller than ambient window")
    if not 1 <= as_int(j, what="entry") <= n:
        raise ValueError(f"entry {j} outside [{n}]")
    rows += [[] for _ in range(n - len(rows))]
    chain = []
    hi = max(map(len, rows)) + 1
    while True:
        for c, r in product(range(hi, 0, -1), range(n, 0, -1)):
            row = rows[r - 1]
            if (len(row) >= c - 1 and (r if c == 1 else row[c - 2]) >= j
                    and (len(row) == c - 1 or row[c - 1] < j)):
                break
        else:
            raise ValueError("no admissible position; input is not an SSKT")
        chain.append((c, r))
        if len(row) == c - 1:
            row.append(j)
            return tuple(tuple(r) for r in rows), chain
        j, row[c - 1] = row[c - 1], j
        hi = c


def frsk(L):
    """The flagged correspondence on a lower triangular matrix: fold the
    biword through flagged insertion, recording top letters at new cells.

    Each pair (i, j) is inserted with the basement window [i] of its top
    letter; the window in force grows as the biword is consumed, which is
    what pins first-column entries to their row indices on the recording
    side.  Returns (S, T), an (SSKT, rSSAF) pair of equal shape.
    """
    if not is_lower_triangular(L):
        raise ValueError("matrix is not square and lower triangular")
    S, T = _fold(L, lambda S, i, j: flagged_insert_trace(S, j, i))
    return pad_rows(S, len(L)), pad_rows(T, len(L))


def frsk_inverse(S, T):
    """Invert the flagged correspondence through its column-set images.

    Flagged insertion moves column sets exactly as classical insertion does,
    so (tau(S), rho(T)) == rsk(L) for every lower triangular L, and tau and
    rho are one-to-one on fillings of one shape (tau_dagger and rho_inverse
    undo them).  Rejects pairs outside the image.  Every (SSKT, rSSAF) pair
    of one shape is the image of some L (S. Mason, Sem. Lothar. Combin. 57,
    2008, B57e), so once (S, T) is known to be one, its images are an RSK
    pair, not checked again, and their classical inverse is L."""
    n = max(len(S), len(T))
    S, T = pad_rows(S, n), pad_rows(T, n)
    if shape_of(S) != shape_of(T):
        raise ValueError("fillings have different shapes")
    if not is_member(S, "SSKT", n) or not is_member(T, "rSSAF", n):
        raise ValueError("pair is not an (SSKT, rSSAF) pair")
    return _unfold(tau(S), rho(T), n)


def pad_rows(rows, n):
    rows = tuple(tuple(r) for r in rows)
    return rows + ((),) * (n - len(rows))


# ---------------------------------------------------------------------------
# column-set maps between the flagged and classical pictures


def _column_multisets(rows):
    cols = {}
    for row in rows:
        for c, e in enumerate(row, start=1):
            cols.setdefault(c, []).append(e)
    return cols


def _stack_columns(cols, descending):
    stacks = [sorted(cols[c], reverse=descending) for c in range(1, max(cols, default=0) + 1)]
    return tuple(tuple(s[t] for s in stacks if len(s) > t)
                 for t in range(max(map(len, stacks), default=0)))


def tau(S):
    """The reverse SSYT with the same column sets as the SSKT S."""
    return _stack_columns(_column_multisets(S), descending=True)


def rho(T):
    """The SSYT with the same column sets as the rSSAF T."""
    return _stack_columns(_column_multisets(T), descending=False)


def tau_dagger(P, a):
    """Rebuild a filling of the key diagram of a from the column sets of the
    reverse SSYT P: columns right to left, rows bottom to top, always taking
    the smallest remaining entry that keeps rows weakly decreasing.

    The result is an SSKT exactly when P is in the image of tau restricted
    to shape a; raises if a column multiset cannot be placed at all.
    """
    a = as_comp(a)
    cols = _column_multisets(P)
    width = max(cols, default=0)
    if width != max(a, default=0):
        raise ValueError("width of P differs from the shape")
    rows = [[0] * a[r - 1] for r in range(1, len(a) + 1)]
    for c in range(width, 0, -1):
        hosts = [r for r in range(1, len(a) + 1) if a[r - 1] >= c]
        remaining = sorted(cols.get(c, []))
        if len(remaining) != len(hosts):
            raise ValueError("column multiset size differs from the shape")
        for r in hosts:
            floor = rows[r - 1][c] if a[r - 1] >= c + 1 else None
            pick = next((t for t, e in enumerate(remaining) if floor is None or e >= floor), None)
            if pick is None:
                raise ValueError("column multiset cannot keep rows decreasing")
            rows[r - 1][c - 1] = remaining.pop(pick)
    return tuple(tuple(r) for r in rows)


def rho_inverse(Q, n=None):
    """The rSSAF in the window n (default: the largest entry) with the column
    sets of the SSYT Q.  Rejects a Q that is not an SSYT and a window that is
    not an int >= its largest entry."""
    if not is_member(Q, "SSYT"):
        raise ValueError("Q is not an SSYT")
    top = max((max(r) for r in Q if r), default=0)
    n = top if n is None else as_int(n)
    if n < top:
        raise ValueError(f"ambient {n} smaller than the largest entry")
    return _rho_inverse(Q, n)


def _rho_inverse(Q, n):
    """rho_inverse(Q, n), unchecked: columns left to right, entries smallest
    first, each into the topmost position immediately right of a weakly lesser
    entry (basement allowed).  For an SSYT Q with entries in [n] such a
    position always exists."""
    cols = _column_multisets(Q)
    rows = [[] for _ in range(n)]
    for c in range(1, max(cols, default=0) + 1):
        for e in sorted(cols[c]):
            for r in range(n, 0, -1):
                row = rows[r - 1]
                if len(row) == c - 1 and (r if c == 1 else row[c - 2]) <= e:
                    row.append(e)
                    break
    return tuple(tuple(r) for r in rows)
