"""Kohnert moves on cell diagrams, closures and their weight generating
functions, and the one-cell-per-column staircase diagram whose closure is
counted by lower triangular matrices."""

from .compositions import strip
from .polynomials import Poly


def diagram(cells):
    cells = frozenset((int(c), int(r)) for c, r in cells)
    if any(c < 1 or r < 1 for c, r in cells):
        raise ValueError("cells must have positive coordinates")
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


def kohnert_closure(D):
    """Least set of diagrams containing D and closed under moves (BFS)."""
    D = frozenset(D)
    seen = {D}
    frontier = [D]
    while frontier:
        nxt = []
        for T in frontier:
            for U in kohnert_moves(T):
                if U not in seen:
                    seen.add(U)
                    nxt.append(U)
        frontier = nxt
    return seen


def kohnert_polynomial(D):
    """Weight generating function of the closure; the empty diagram gives 1."""
    return Poly.from_terms((diagram_weight(T), 1) for T in kohnert_closure(D))


def _windows(a):
    """Half-open column windows (lo, hi] of the parts of a."""
    out = []
    total = 0
    for part in a:
        out.append((total, total + part))
        total += part
    return out


def build_Da(a, n=None):
    """One cell per column: row r occupies the columns strictly after the
    (r-1)st prefix sum of a and weakly before the rth."""
    a = tuple(a)
    if min(a, default=0) < 0:
        raise ValueError(f"negative part in {a}")
    if n is not None and n < len(strip(a)):
        raise ValueError(f"ambient {n} smaller than length of {a}")
    cells = set()
    for r, (lo, hi) in enumerate(_windows(a), start=1):
        for c in range(lo + 1, hi + 1):
            cells.add((c, r))
    return frozenset(cells)


def _window_rows(T, a):
    """Rows of the unique cells in each window column, per part; validates
    the one-cell-per-column and monotonicity structure of the closure."""
    a = tuple(a)
    cols = {}
    for c, r in T:
        if c in cols:
            raise ValueError("two cells share a column")
        cols[c] = r
    if len(cols) != sum(a):
        raise ValueError("cell count differs from the staircase diagram")
    out = []
    for i, (lo, hi) in enumerate(_windows(a), start=1):
        rows = []
        for c in range(lo + 1, hi + 1):
            if c not in cols:
                raise ValueError(f"column {c} is empty")
            r = cols[c]
            if r > i:
                raise ValueError(f"cell in column {c} sits above row {i}")
            rows.append(r)
        if any(rows[t] < rows[t + 1] for t in range(len(rows) - 1)):
            raise ValueError("rows increase within a window")
        out.append(rows)
    return out


def phi(T, a):
    """The lower triangular matrix whose (i, j) entry counts cells of T in
    row j within the column window of part i.  Rejects diagrams outside the
    closure of the staircase diagram of a."""
    a = tuple(a)
    n = len(a)
    window_rows = _window_rows(T, a)
    M = [[0] * n for _ in range(n)]
    for i, rows in enumerate(window_rows, start=1):
        for r in rows:
            M[i - 1][r - 1] += 1
    return tuple(tuple(row) for row in M)


def phi_inverse(L, a):
    """The unique closure element mapping to L: within each window, cells
    fill rows i, i-1, ..., 1 from the left with multiplicities given by the
    ith matrix row read backwards."""
    a = tuple(a)
    n = len(a)
    if len(L) != n or any(len(row) != n for row in L):
        raise ValueError(f"matrix must be {n} x {n}")
    if any(L[i][j] != 0 for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not lower triangular")
    if tuple(sum(row) for row in L) != a:
        raise ValueError("row sums differ from the indexing composition")
    cells = set()
    for i, (lo, hi) in enumerate(_windows(a), start=1):
        c = lo + 1
        for j in range(i, 0, -1):
            for _ in range(L[i - 1][j - 1]):
                cells.add((c, j))
                c += 1
    return frozenset(cells)
