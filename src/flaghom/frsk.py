"""Row insertion on reverse SSYT, the flagged insertion on SSKT, the two
RSK correspondences built from them, and the column-set maps relating the
classical and flagged pictures.

Matrices are tuples of row tuples with 1-based (i, j) semantics; a biword is
a list of (top, bottom) pairs kept in the canonical order: top entries
weakly increasing, bottom entries weakly decreasing within a constant top.
"""

from .compositions import as_matrix
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
    if n is None:
        n = max((max(i, j) for i, j in pairs), default=0)
    M = [[0] * n for _ in range(n)]
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"biword letter of {(i, j)} outside [{n}]")
        M[i - 1][j - 1] += 1
    return tuple(tuple(r) for r in M)


def is_lower_triangular(A):
    """Square, with zeros strictly above the diagonal."""
    return all(len(row) == len(A) and not any(row[i + 1:]) for i, row in enumerate(A))


# ---------------------------------------------------------------------------
# classical insertion and RSK


def rsk_insert_trace(P, j):
    """Insert j into a reverse SSYT.  Returns the new tableau and the bumping
    chain [(column, row), ...]; the final chain entry is the appended cell.

    Row by row from the bottom, j lands in the leftmost position of the row
    not occupied by a weakly larger entry, displacing its occupant upward.
    """
    rows = [list(r) for r in P]
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


def rsk_insert(P, j):
    return rsk_insert_trace(P, j)[0]


def _fold(A, insert):
    """Fold the biword of A through insert(P, i, j) -> (P, chain); the
    recording rows take the top letter i at each new cell.  Returns (P, Q)."""
    P = ()
    Q = []
    for i, j in biword_from_matrix(A):
        P, chain = insert(P, i, j)
        c, r = chain[-1]
        while len(Q) < r:
            Q.append([])
        if len(Q[r - 1]) != c - 1:
            raise AssertionError("new cell not at the end of its row")
        Q[r - 1].append(i)
    return P, tuple(tuple(r) for r in Q)


def rsk(A):
    """Fold the biword of A through row insertion.  Returns (P, Q)."""
    return _fold(A, lambda P, i, j: rsk_insert_trace(P, j))


def _uninsert(rows, r):
    """Reverse the bumping chain that ended by appending the last cell of row
    r; returns the expelled bottom value."""
    v = rows[r - 1].pop()
    for t in range(r - 1, 0, -1):
        row = rows[t - 1]
        pos = max(idx for idx, val in enumerate(row) if val > v)
        row[pos], v = v, row[pos]
    return v


def rsk_inverse(P, Q, n=None):
    """Recover the matrix from a (reverse SSYT, SSYT) pair of equal shape.

    Every such pair is an RSK image, and the last cell row insertion added
    holds Q's largest entry at the end of the longest row ending in it: pop
    that cell, unbump P from its row, and the pairs come off the biword in
    reverse canonical order."""
    if not is_member(P, "rSSYT") or not is_member(Q, "SSYT"):
        raise ValueError("need a reverse SSYT and an SSYT")
    if shape_of(P) != shape_of(Q):
        raise ValueError("tableau shapes differ")
    P = [list(r) for r in P]
    Q = [list(r) for r in Q]
    pairs = []
    while any(Q):
        r = max((t for t, row in enumerate(Q, 1) if row),
                key=lambda t: (Q[t - 1][-1], len(Q[t - 1])))
        pairs.append((Q[r - 1].pop(), _uninsert(P, r)))
    pairs.reverse()
    return matrix_from_biword(pairs, n)


# ---------------------------------------------------------------------------
# flagged insertion and flagged RSK


def _count_geq(rows, c, j, n):
    """Entries weakly greater than j in column c; column 0 is the basement."""
    if c == 0:
        return n - j + 1
    return sum(1 for row in rows if len(row) >= c and row[c - 1] >= j)


def flagged_insert_trace(S, j, n):
    """Insert j into an SSKT with ambient window [n].

    Repeatedly: take the rightmost column (weakly left of the previous one)
    holding strictly fewer entries weakly >= j than the column to its left,
    then put j in the topmost position of that column that is free of weakly
    larger entries and sits immediately right of an entry >= j (basement
    included), displacing any smaller occupant.

    Returns the new filling (window rows) and the chain [(column, row), ...].
    """
    rows = [list(r) for r in S]
    if len(rows) > n:
        raise ValueError("filling taller than ambient window")
    while len(rows) < n:
        rows.append([])
    if not 1 <= j <= n:
        raise ValueError(f"entry {j} outside [{n}]")
    chain = []
    bound = None
    while True:
        hi = max((len(r) for r in rows), default=0) + 1
        if bound is not None:
            hi = min(hi, bound)
        col = next(
            (c for c in range(hi, 0, -1)
             if _count_geq(rows, c, j, n) < _count_geq(rows, c - 1, j, n)),
            None,
        )
        if col is None:
            raise ValueError("no admissible column; input is not an SSKT")
        target = None
        for r in range(n, 0, -1):
            row = rows[r - 1]
            left = r if col == 1 else (row[col - 2] if len(row) >= col - 1 else None)
            if left is None or left < j:
                continue
            if len(row) >= col:
                if row[col - 1] < j:
                    target = r
                    break
            elif len(row) == col - 1:
                target = r
                break
        if target is None:
            raise ValueError("no admissible position; input is not an SSKT")
        chain.append((col, target))
        row = rows[target - 1]
        if len(row) >= col:
            j, row[col - 1] = row[col - 1], j
            bound = col
        else:
            row.append(j)
            break
    return tuple(tuple(r) for r in rows), chain


def flagged_insert(S, j, n):
    return flagged_insert_trace(S, j, n)[0]


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
    undo them).  Once (S, T) is known to be an (SSKT, rSSAF) pair of one
    shape, L is the classical inverse of those images.  Rejects pairs
    outside the image."""
    n = max(len(S), len(T))
    S, T = pad_rows(S, n), pad_rows(T, n)
    if shape_of(S) != shape_of(T):
        raise ValueError("fillings have different shapes")
    if not is_member(S, "SSKT", n) or not is_member(T, "rSSAF", n):
        raise ValueError("pair is not an (SSKT, rSSAF) pair")
    M = rsk_inverse(tau(S), rho(T), n)
    if not is_lower_triangular(M):
        raise ValueError("recovered matrix is not lower triangular")
    return M


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
    a = tuple(a)
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
    """Rebuild the rSSAF with the column sets of the SSYT Q: columns left to
    right, entries smallest first, each into the topmost position immediately
    right of a weakly lesser entry (basement allowed)."""
    cols = _column_multisets(Q)
    width = max(cols, default=0)
    top = max((max(v) for v in cols.values()), default=0)
    n = top if n is None else n
    if n < top:
        raise ValueError(f"ambient {n} smaller than the largest entry")
    rows = [[] for _ in range(n)]
    for c in range(1, width + 1):
        for e in sorted(cols[c]):
            spot = None
            for r in range(n, 0, -1):
                if len(rows[r - 1]) != c - 1:
                    continue
                left = r if c == 1 else rows[r - 1][c - 2]
                if left <= e:
                    spot = r
                    break
            if spot is None:
                raise ValueError("no admissible position; not an SSYT column stack")
            rows[spot - 1].append(e)
    return tuple(tuple(r) for r in rows)


def lift_F(A):
    """Push a square natural matrix into the lower triangle twice the size:
    the biword pair (i, j) becomes (i + n, j)."""
    A = as_matrix(A)
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    F = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            F[n + i][j] = A[i][j]
    return tuple(tuple(r) for r in F)
