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

from collections import namedtuple
from itertools import combinations

from .compositions import as_comp, as_int, is_partition, pad, strip

FLAVORS = ("SSKT", "rSSAF", "SSYT", "rSSYT")


def key_diagram(a):
    """The left-justified cell set {(c, r) : c <= a_r}; rejects what as_comp
    rejects of a."""
    return frozenset((c, r) for r, part in enumerate(as_comp(a), start=1)
                     for c in range(1, part + 1))


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
    """Entry multiplicities as a composition of length n (default: the
    largest int entry); an entry that is not an int in [1, n] raises
    ValueError, and so does what as_int rejects of n."""
    n = max((e for r in rows for e in r if type(e) is int), default=0) if n is None else as_int(n)
    counts = [0] * n
    # an entry above n overruns counts, and one that is not an int fails the
    # comparison or the index; True, the one bool not below 1, is tested apart
    try:
        for row in rows:
            for e in row:
                if e < 1 or e is True:
                    raise IndexError
                counts[e - 1] += 1
    except (IndexError, TypeError):
        raise ValueError(f"entry {e!r} outside [1, {n}]") from None
    return tuple(counts)


def leg(shape, c, r):
    """Cells weakly right of (c, r) in its row, the cell itself included."""
    return shape[r - 1] - c + 1


FillingStats = namedtuple("FillingStats", "maj comaj coinv inv attacking_violations")


def _coinv_oriented(i, j, k):
    return (i < j < k) or (j < k < i) or (k < i < j)


def _inv_oriented(i, j, k):
    return (i > j > k) or (j > k > i) or (k > i > j)


def statistics(rows, n=None):
    """Descent, triple, and attacking statistics of the augmented filling.

    n is the ambient window (basement size); it defaults to the number of
    declared rows but must be passed explicitly whenever the window exceeds
    the shape, since rows above the shape still attack and form triples.
    Rejects a row that as_comp rejects, an entry outside [n] and what
    as_int rejects of n.
    """
    rows = tuple(map(as_comp, rows))
    shape = shape_of(rows)
    n = max(len(rows), 0 if n is None else as_int(n))
    weight_of(rows, n)
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

    # attacking pairs of augmented cells with equal entries; (0, i) holds i
    cells = {(0, i): i for i in range(1, n + 1)}
    cells.update(((c, r), e) for r, row in enumerate(rows, start=1)
                 for c, e in enumerate(row, start=1))
    violations = sum(cells[u] == cells[v] and attacking(u, v)
                     for u, v in combinations(cells, 2))

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


def _fits(grid, shape, flavor, c, s, e):
    """Whether entry e may sit at cell (c, s) of the flavor.  Reads only the
    cells of grid before it in reading order; grid is zero-padded, and a cell
    past its row's end reads 0, below every entry.  SSKT follow the key
    tableau rules of S. Assaf and D. Searles, rSSAF the attack cells and
    inversion triples of S. Mason."""
    if flavor == "SSYT":
        if c > 1 and not grid[s - 1][c - 2] <= e:
            return False
        return s == 1 or grid[s - 2][c - 1] < e
    if flavor == "rSSYT":
        if c > 1 and not grid[s - 1][c - 2] >= e:
            return False
        return s == 1 or grid[s - 2][c - 1] > e
    left = s if c == 1 else grid[s - 1][c - 2]  # the basement entry s heads row s
    if flavor == "SSKT":
        if e > left:
            return False
        # an entry k below e in its column differs from e, and k > e needs a
        # right neighbor > e: rows decrease, so e may not lie in [neighbor, k]
        for below in grid[:s - 1]:
            if below[c] <= e <= below[c - 1]:
                return False
        return True
    # rSSAF: once rows increase and entries differ, only the type A and B triples can occur
    if e < left or c == 1 and e != s:
        return False
    for length, below in zip(shape, grid[:s - 1]):
        k, right = below[c - 1], below[c]
        if k == e or right == e:
            return False
        if length > shape[s - 1]:
            if k < e < right:
                return False
        elif left < k < e:
            return False
    return True


def is_member(rows, flavor, n=None):
    """Membership in a tableau family, cell by cell by `_fits`.  Entries lie
    in [n]; for SSKT and rSSAF n is at least the row count, and for SSYT and
    rSSYT an unbounded n (None) only requires positive entries.  Rejects what
    as_int rejects of n."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if n is not None:
        as_int(n)
    rows = tuple(tuple(r) for r in rows)
    if flavor in ("SSKT", "rSSAF"):
        n = max(len(rows), n or 0)
    if not all(type(e) is int and 1 <= e <= (e if n is None else n) for r in rows for e in r):
        return False
    shape = shape_of(rows)
    if flavor in ("SSYT", "rSSYT") and not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    grid = [row + (0,) * (max(shape, default=0) + 1 - len(row)) for row in rows]
    return all(_fits(grid, shape, flavor, c, s, e)
               for s, row in enumerate(rows, start=1) for c, e in enumerate(row, start=1))


def enumerate_fillings(shape, n, flavor, weight=None):
    """All fillings of the given shape with entries in [n] of one flavor,
    optionally restricted to a fixed weight.

    Output is deterministic: lexicographic in the entry sequence read row 1
    upward, left to right.  Backtracks cell by cell, by `_fits`, under a
    budget of the entries of each value still to place.
    """
    shape = as_comp(shape, as_int(n))
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor in ("SSYT", "rSSYT") and not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    budget = [sum(shape)] * n
    if weight is not None:
        weight = strip(as_comp(weight))
        if len(weight) > n or sum(weight) != sum(shape):
            return []
        budget = list(pad(weight, n))

    cells = [(c, r) for r in range(1, len(shape) + 1) for c in range(1, shape[r - 1] + 1)]
    # `_fits` reads only placed cells, so no value is cleared on the way back
    partial = [[0] * (max(shape, default=0) + 1) for _ in shape]
    results = []

    def backtrack(idx):
        if idx == len(cells):
            results.append(tuple(tuple(row[:part]) for row, part in zip(partial, shape)))
            return
        c, s = cells[idx]
        for e in range(1, n + 1):
            if budget[e - 1] and _fits(partial, shape, flavor, c, s, e):
                partial[s - 1][c - 1] = e
                budget[e - 1] -= 1
                backtrack(idx + 1)
                budget[e - 1] += 1

    backtrack(0)
    return results
