"""Key diagrams and their fillings.

A filling is a tuple of row tuples, bottom row first: ``rows[r-1]`` holds the
entries of row r, left to right, so the shape is recovered from the row
lengths.  Statistics are computed on the augmented filling, which adds a
basement cell (0, i) with entry i in every row i of the ambient window [n];
the basement takes part in attacking checks, in left-neighbor comparisons,
and in triples.

Cells are written (column, row), both 1-based, matching the first-quadrant
picture with row 1 at the bottom.
"""

from dataclasses import dataclass
from itertools import product

from .compositions import as_comp, is_partition, pad, strip

FLAVORS = ("SSKT", "rSSAF", "SSYT", "rSSYT")


def key_diagram(a):
    """The left-justified cell set {(c, r) : c <= a_r}."""
    return frozenset((c, r) for r, part in enumerate(a, start=1) for c in range(1, part + 1))


def attacking(u, v):
    """Same column, or adjacent columns with the left cell strictly higher."""
    (c1, r1), (c2, r2) = u, v
    if c1 == c2:
        return r1 != r2
    if c2 < c1:
        (c1, r1), (c2, r2) = (c2, r2), (c1, r1)
    return c2 == c1 + 1 and r1 > r2


def shape_of(rows):
    return tuple(len(r) for r in rows)


def weight_of(rows, n=None):
    """Entry multiplicities as a composition of length n."""
    n = max((max(r) for r in rows if r), default=0) if n is None else n
    counts = [0] * n
    for row in rows:
        for e in row:
            counts[e - 1] += 1
    return tuple(counts)


def leg(shape, c, r):
    """Cells weakly right of (c, r) in its row, the cell itself included."""
    return shape[r - 1] - c + 1


@dataclass(frozen=True)
class FillingStats:
    maj: int
    comaj: int
    coinv: int
    inv: int
    attacking_violations: int


def _coinv_oriented(i, j, k):
    return (i < j < k) or (j < k < i) or (k < i < j)


def _inv_oriented(i, j, k):
    return (i > j > k) or (j > k > i) or (k > i > j)


def statistics(rows, n=None):
    """Descent, triple, and attacking statistics of the augmented filling.

    n is the ambient window (basement size); it defaults to the number of
    declared rows but must be passed explicitly whenever the window exceeds
    the shape, since rows above the shape still attack and form triples.
    """
    rows = tuple(tuple(r) for r in rows)
    shape = shape_of(rows)
    n = max(len(rows), n or 0)
    a = pad(shape, n)

    def entry(c, r):
        return r if c == 0 else rows[r - 1][c - 1]

    maj = comaj = 0
    for r in range(1, len(rows) + 1):
        for c in range(1, a[r - 1] + 1):
            e, left = entry(c, r), entry(c - 1, r)
            if e > left:
                maj += leg(shape, c, r)
            elif e < left:
                comaj += leg(shape, c, r)

    violations = 0
    for r in range(1, len(rows) + 1):
        # basement cell (0, i) attacks (1, r) whenever i > r
        if a[r - 1] >= 1 and r < entry(1, r) <= n:
            violations += 1
        for c in range(1, a[r - 1] + 1):
            # same column, any higher row
            for s in range(r + 1, len(rows) + 1):
                if a[s - 1] >= c and entry(c, s) == entry(c, r):
                    violations += 1
            # (c, r) is strictly higher than (c+1, s): attacking pair
            for s in range(1, r):
                if a[s - 1] >= c + 1 and entry(c + 1, s) == entry(c, r):
                    violations += 1

    coinv = inv = 0
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            if a[r - 1] > a[s - 1]:
                for c in range(0, a[s - 1] + 1):
                    k, i, j = entry(c, r), entry(c + 1, r), entry(c, s)
                    if i != j and j != k and i != k:
                        coinv += _coinv_oriented(i, j, k)
                        inv += _inv_oriented(i, j, k)
            else:
                for c in range(0, a[r - 1]):
                    j, k, i = entry(c + 1, r), entry(c, s), entry(c + 1, s)
                    if i != j and j != k and i != k:
                        coinv += _coinv_oriented(i, j, k)
                        inv += _inv_oriented(i, j, k)
    return FillingStats(maj, comaj, coinv, inv, violations)


def _check_young(rows, reverse):
    """Row/column conditions for SSYT (reverse=False) and reverse SSYT."""
    shape = shape_of(rows)
    if not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            if c > 0:
                ok = row[c - 1] >= e if reverse else row[c - 1] <= e
                if not ok:
                    return False
            if r > 0:
                below = rows[r - 1][c]
                ok = below > e if reverse else below < e
                if not ok:
                    return False
    return True


def is_member(rows, flavor, n=None):
    """Membership test for the four tableau families: entries in [n], where
    for SSKT and rSSAF n is at least the row count and for SSYT and rSSYT
    an unbounded n (None) only requires positive entries."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    rows = tuple(tuple(r) for r in rows)
    if flavor in ("SSKT", "rSSAF"):
        n = max(len(rows), n or 0)
    if not all(type(e) is int and 1 <= e <= (e if n is None else n) for r in rows for e in r):
        return False
    if flavor == "SSKT":
        st = statistics(rows, n)
        return st.attacking_violations == 0 and st.maj == 0 and st.coinv == 0
    if flavor == "rSSAF":
        st = statistics(rows, n)
        return st.attacking_violations == 0 and st.comaj == 0 and st.inv == 0
    return _check_young(rows, reverse=flavor == "rSSYT")


def enumerate_fillings(shape, n, flavor, weight=None):
    """All fillings of the given shape with entries in [n] of one flavor,
    optionally restricted to a fixed weight.

    Output is deterministic: lexicographic in the entry sequence read row 1
    upward, left to right.  Backtracks cell by cell with the attacking, row
    monotonicity, and triple conditions enforced on prefixes.
    """
    shape = as_comp(shape, n)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor in ("SSYT", "rSSYT") and not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    if weight is not None:
        weight = strip(as_comp(weight))
        weight = pad(weight, n) if len(weight) <= n else None
        if weight is None or sum(weight) != sum(shape):
            return []

    a = pad(shape, n)
    cells = [(c, r) for r in range(1, len(shape) + 1) for c in range(1, shape[r - 1] + 1)]
    partial = [[0] * shape[r - 1] for r in range(1, len(shape) + 1)]
    counts = [0] * (n + 1)
    results = []

    def entry(c, r):
        return r if c == 0 else partial[r - 1][c - 1]

    def feasible(c, s, e):
        if flavor == "SSYT":
            if c > 1 and not partial[s - 1][c - 2] <= e:
                return False
            return s == 1 or partial[s - 2][c - 1] < e
        if flavor == "rSSYT":
            if c > 1 and not partial[s - 1][c - 2] >= e:
                return False
            return s == 1 or partial[s - 2][c - 1] > e

        decreasing = flavor == "SSKT"
        left = entry(c - 1, s)
        if decreasing:
            if e > left:
                return False
        else:
            if e < left:
                return False
        if c == 1 and e > s:
            return False  # attacks the basement entry e in a higher row
        for r in range(1, s):
            if a[r - 1] >= c and partial[r - 1][c - 1] == e:
                return False
            if a[r - 1] >= c + 1 and partial[r - 1][c] == e:
                return False
        oriented = _coinv_oriented if decreasing else _inv_oriented
        for r in range(1, s):
            if a[r - 1] > a[s - 1] and a[r - 1] >= c + 1:
                k, i = partial[r - 1][c - 1], partial[r - 1][c]
                if i != e and k != e and i != k and oriented(i, e, k):
                    return False
            if a[r - 1] <= a[s - 1] and a[r - 1] >= c:
                j, k = partial[r - 1][c - 1], entry(c - 1, s)
                if j != e and k != e and j != k and oriented(e, j, k):
                    return False
        if c == 1:
            for s2 in range(s + 1, n + 1):
                if a[s - 1] > a[s2 - 1] and e != s and e != s2 and oriented(e, s2, s):
                    return False
        return True

    def backtrack(idx):
        if idx == len(cells):
            if weight is None or tuple(counts[1:]) == weight:
                results.append(tuple(tuple(r) for r in partial))
            return
        c, s = cells[idx]
        for e in range(1, n + 1):
            if weight is not None and counts[e] >= weight[e - 1]:
                continue
            if feasible(c, s, e):
                partial[s - 1][c - 1] = e
                counts[e] += 1
                backtrack(idx + 1)
                counts[e] -= 1
                partial[s - 1][c - 1] = 0

    backtrack(0)
    return results


def enumerate_fillings_naive(shape, n, flavor, weight=None):
    """Filter every one of the n^|shape| entry maps; test oracle."""
    shape = tuple(shape)
    cells = [(c, r) for r in range(1, len(shape) + 1) for c in range(1, shape[r - 1] + 1)]
    out = []
    for values in product(range(1, n + 1), repeat=len(cells)):
        rows = [[0] * shape[r - 1] for r in range(1, len(shape) + 1)]
        for (c, r), e in zip(cells, values):
            rows[r - 1][c - 1] = e
        rows = tuple(tuple(r) for r in rows)
        if weight is not None and weight_of(rows, n) != pad(strip(weight), n):
            continue
        if is_member(rows, flavor, n):
            out.append(rows)
    return out
