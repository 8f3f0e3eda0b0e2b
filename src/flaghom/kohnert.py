"""Kohnert moves on cell diagrams, closures and their weight generating
functions, and the one-cell-per-column staircase diagram whose closure is
counted by lower triangular matrices.

Closures are walked on packed diagrams.  With C the number of occupied
columns, row r holds its cells in bits [(r - 1)C, rC) of one integer; the
weight is one integer in base B = |D| + 1, digit r - 1 counting row r.  Each
move is one lookup, by the bit lengths of a row's rightmost cell and of the
highest vacancy below it, in tables built once per diagram: the bits it flips,
the weight it adds and the rows it drops.  A move lowers the row sum, so the
walk pops a list of row-sum buckets from the top, each complete, and keeps no
visited set of the whole closure.  ``kohnert_moves`` is the oracle.  A weight
decodes by powers of B computed once, up to its top nonzero digit; each
diagram's terms are kept in a bounded cache, and every call gets a fresh Poly."""

from collections import Counter

from .compositions import BoundedCache, as_comp, as_matrix, is_lower_triangular
from .fillings import weight_of
from .polynomials import _poly

_weight_cache = BoundedCache(32_768, size=len)  # (exponent, count) pairs by diagram


def diagram(cells):
    """The cells as a frozenset of distinct (column, row) pairs of positive integers."""
    D = set()
    for cell in map(tuple, cells):
        if len(cell) != 2 or not all(type(x) is int and x >= 1 for x in cell):
            raise ValueError(f"cell {list(cell)} is not a (column, row) pair of positive integers")
        if cell in D:
            raise ValueError(f"cell {list(cell)} is listed twice")
        D.add(cell)
    return frozenset(D)


def diagram_weight(D, n=None):
    """Cells per row, as a composition of length n (default: the highest
    row); rejects what weight_of rejects of the rows."""
    return weight_of([[r for _, r in D]], n)


def is_southwest(D):
    """Whether (d, r) and (c, s) in D with c < d, r < s force (c, r) in D."""
    return all(
        (c, r) in D
        for (d, r) in D
        for (c, s) in D
        if c < d and r < s
    )


def kohnert_moves(D):
    """All diagrams reached by one move: drop the rightmost cell of some row
    to the topmost vacant position strictly below it in its column.
    Rejects what diagram rejects."""
    D = diagram(D)
    out = set()
    rows = {}
    for c, r in D:
        rows[r] = max(rows.get(r, 0), c)
    for r, c in rows.items():
        dest = next((rr for rr in range(r - 1, 0, -1) if (c, rr) not in D), None)
        if dest is not None:
            out.add(D - {(c, r)} | {(c, dest)})
    return out


def _walk(D):
    """Yield the cell of each bit, B and each row-sum bucket {diagram: weight}
    of checked D; below[p] and move[p][q] read bits p - 1 and q - 1."""
    cols = sorted({c for c, _ in D})  # a move keeps its column
    C, R, B = len(cols), max((r for _, r in D), default=0), len(D) + 1
    cells = [(c, r) for r in range(1, R + 1) for c in cols]
    height = Counter(c for c, _ in D)  # a cell drops at most this many rows
    below, move = [0] * (R * C + 1), [None] * (R * C + 1)
    for i in range(C, R * C):  # bit i holds column cols[c] of row r + 1
        r, c = divmod(i, C)
        below[i + 1] = below[i + 1 - C] | 1 << i - C
        move[i + 1] = {i + 1 - k * C: (1 << i | 1 << i - k * C, B ** (r - k) - B ** r, k)
                       for k in range(1, min(r, height[cols[c]]) + 1)}
    rows = [(1 << C) - 1 << r * C for r in range(1, R)]  # rows 2..R
    buckets = [{} for _ in range(sum(r for _, r in D) + 1)]  # by row sum
    buckets[-1][sum(1 << cells.index(cell) for cell in D)] = sum(B ** (r - 1) for _, r in D)
    while buckets:
        bucket = buckets.pop()  # buckets[-k] now holds the row sum k lower
        yield cells, B, bucket
        for T, w in bucket.items():
            vacant = ~T
            for row in rows:
                p = (T & row).bit_length()  # the rightmost cell of the row
                if p:
                    q = (below[p] & vacant).bit_length()  # the highest vacancy below it
                    if q:
                        flip, gain, drop = move[p][q]
                        buckets[-drop][T ^ flip] = w + gain


def kohnert_closure(D):
    """Least set of diagrams containing D and closed under moves."""
    return {frozenset(cells[i] for i in range(T.bit_length()) if T >> i & 1)
            for cells, _, bucket in _walk(diagram(D)) for T in bucket}


def kohnert_polynomial(D):
    """Weight generating function of the closure; the empty diagram gives 1."""
    D = diagram(D)
    terms = _weight_cache.lookup(D)
    if terms is None:
        tally = Counter()
        for _, B, bucket in _walk(D):
            tally.update(bucket.values())
        powers = [B ** i for i in range(max((r for _, r in D), default=0))]  # row i + 1 counts B^i
        terms = _weight_cache.store(D, tuple(
            (tuple([w // p % B for p in powers if p <= w]), k) for w, k in tally.items()))
    return _poly(dict(terms))


def _window_parts(a):
    """Part i of a owns the next a_i columns: the part of column c, for
    c = 1, ..., |a|."""
    return [i for i, part in enumerate(a, start=1) for _ in range(part)]


def build_Da(a, n=None):
    """One cell per column: row r occupies the columns strictly after the
    (r-1)st prefix sum of a and weakly before the rth."""
    return frozenset(enumerate(_window_parts(as_comp(a, n)), start=1))


def phi(T, a):
    """The lower triangular matrix whose (i, j) entry counts cells of T in
    row j within the column window of part i.  Rejects diagrams outside the
    closure of the staircase diagram of a: T must be what phi_inverse builds
    back from that matrix."""
    a = as_comp(a)
    n = len(a)
    part_of = _window_parts(a)
    M = [[0] * n for _ in range(n)]
    for c, r in T:
        if not (1 <= c <= len(part_of) and 1 <= r <= n):
            raise ValueError(f"cell {(c, r)} lies outside [{len(part_of)}] x [{n}]")
        M[part_of[c - 1] - 1][r - 1] += 1
    M = tuple(tuple(row) for row in M)
    if phi_inverse(M, a) != frozenset(T):
        raise ValueError("diagram is not in the closure of the staircase diagram")
    return M


def phi_inverse(L, a):
    """The unique closure element mapping to L: within each window, cells
    fill rows i, i-1, ..., 1 from the left with multiplicities given by the
    ith matrix row read backwards.  The windows follow one another, so the
    rows of L, each read backwards, list the row of the cell in each column."""
    a, L = as_comp(a), as_matrix(L)
    n = len(a)
    if len(L) != n or not is_lower_triangular(L):
        raise ValueError(f"matrix is not {n} x {n} lower triangular")
    if tuple(sum(row) for row in L) != a:
        raise ValueError("row sums differ from the indexing composition")
    rows = [j for i in range(1, n + 1) for j in range(i, 0, -1)
            for _ in range(L[i - 1][j - 1])]
    return frozenset(enumerate(rows, start=1))
