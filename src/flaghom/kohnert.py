"""Kohnert moves on cell diagrams, closures and their weight generating
functions, and the one-cell-per-column staircase diagram whose closure is
counted by lower triangular matrices.

Closures search over tuples of per-column row bitmasks (bit r - 1 for row r)
and carry each diagram's weight along its moves; ``kohnert_moves`` is the oracle."""

from collections import Counter

from .compositions import as_comp, as_matrix
from .frsk import is_lower_triangular
from .polynomials import Poly


def diagram(cells):
    cells = frozenset((c, r) for c, r in cells)
    if not all(type(x) is int and x >= 1 for cell in cells for x in cell):
        raise ValueError("cells must have positive integer coordinates")
    return cells


def diagram_weight(D, n=None):
    """Cells per row, as a composition of length n."""
    n = max((r for _, r in D), default=0) if n is None else n
    counts = [0] * n
    for _, r in D:
        counts[r - 1] += 1
    return tuple(counts)


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
    to the topmost vacant position strictly below it in its column."""
    out = set()
    rows = {}
    for c, r in D:
        rows[r] = max(rows.get(r, 0), c)
    for r, c in rows.items():
        dest = next((rr for rr in range(r - 1, 0, -1) if (c, rr) not in D), None)
        if dest is not None:
            out.add(D - {(c, r)} | {(c, dest)})
    return out


def _mask_moves(cols):
    """Each move of a diagram as column masks: (the masks after it, the row
    index left, the row index entered), rows counted from 0."""
    seen = 0
    for c in range(len(cols) - 1, -1, -1):
        m = cols[c]
        fresh = m & ~seen  # the rightmost cells of their rows
        seen |= m
        while fresh:
            src = fresh.bit_length() - 1
            fresh ^= 1 << src
            below = ~m & ((1 << src) - 1)
            if below:
                dest = below.bit_length() - 1  # the highest vacant row below
                yield cols[:c] + (m ^ (1 << src | 1 << dest),) + cols[c + 1:], src, dest


def _closure(D):
    """Each element of the closure of D, as column masks, mapped to its weight."""
    D = diagram(D)
    start = tuple(sum(1 << (r - 1) for c, r in D if c == col)
                  for col in range(1, max((c for c, _ in D), default=0) + 1))
    weights = {start: diagram_weight(D)}
    queue = [start]
    for T in queue:
        for U, src, dest in _mask_moves(T):
            if U not in weights:
                w = list(weights[T])
                w[src] -= 1
                w[dest] += 1
                weights[U] = tuple(w)
                queue.append(U)
    return weights


def kohnert_closure(D):
    """Least set of diagrams containing D and closed under moves."""
    return {frozenset((c, r) for c, m in enumerate(T, start=1)
                      for r in range(1, m.bit_length() + 1) if m >> (r - 1) & 1)
            for T in _closure(D)}


def kohnert_polynomial(D):
    """Weight generating function of the closure; the empty diagram gives 1."""
    return Poly.from_terms(Counter(_closure(D).values()).items())


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
    a = tuple(a)
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
    a, L = tuple(a), as_matrix(L)
    n = len(a)
    if len(L) != n or not is_lower_triangular(L):
        raise ValueError(f"matrix is not {n} x {n} lower triangular")
    if tuple(sum(row) for row in L) != a:
        raise ValueError("row sums differ from the indexing composition")
    rows = [j for i in range(1, n + 1) for j in range(i, 0, -1)
            for _ in range(L[i - 1][j - 1])]
    return frozenset(enumerate(rows, start=1))
