"""Weak compositions, partitions, and the partial orders on them.

A weak composition is a tuple of nonnegative integers; trailing zeros are
insignificant for equality, so values used as dictionary keys should be
passed through :func:`strip` first.  Operations that depend on the ambient
length (reversal, diagram building) take the declared length from the tuple
itself or from an explicit ``n``.
"""

from itertools import accumulate, combinations


def as_comp(a, n=None):
    """a as a tuple, checked to be a weak composition: integer parts (not
    bools), none negative, and none nonzero past the window n if given."""
    a = tuple(a)
    if not all(type(x) is int for x in a):
        raise ValueError(f"non-integer part in {a}")
    if min(a, default=0) < 0:
        raise ValueError(f"negative part in {a}")
    if n is not None and as_int(n) < len(strip(a)):
        raise ValueError(f"ambient {n} smaller than length of {a}")
    return a


def as_int(x, least=0, what="window"):
    """x, checked to be an integer >= least, not a bool: the one check of a
    window, a degree, a count or an index; what names x in the error."""
    if type(x) is not int or x < least:
        raise ValueError(f"{what} {x!r} is not an integer >= {least}")
    return x


def as_matrix(A):
    """A as a tuple of rows, checked to be a natural matrix: each row a weak
    composition, all rows of one length."""
    A = tuple(map(as_comp, A))
    if len(set(map(len, A))) > 1:
        raise ValueError("matrix rows have different lengths")
    return A


def is_lower_triangular(A):
    """Square, with zeros strictly above the diagonal."""
    return all(len(row) == len(A) and not any(row[i + 1:]) for i, row in enumerate(A))


def strip(a):
    """Drop trailing zeros: the canonical representative of a composition."""
    a = tuple(a)
    end = len(a)
    while end and a[end - 1] == 0:
        end -= 1
    return a[:end]


def pad(a, n):
    """Extend with zeros to length n (a may not be longer than n)."""
    a = tuple(a)
    if len(a) > n:
        raise ValueError(f"composition {a} longer than ambient {n}")
    return a + (0,) * (n - len(a))


def is_partition(a):
    a = tuple(a)
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1))


def sort_comp(a):
    return tuple(sorted(a, reverse=True))


def rev(a, n=None):
    """Reversal of a, stripped and padded to n parts (default: as declared)."""
    if n is not None:
        a = pad(strip(a), n)
    return tuple(reversed(tuple(a)))


def dominance_key(a, n):
    """Sort key realizing a fixed linear extension of dominance order.

    Pointwise-smaller prefix sums give a lexicographically smaller key, so
    sorting by this key lists dominated compositions first; ties are broken
    lexicographically by the composition itself.
    """
    a = pad(strip(a), n)
    return (sum(a), tuple(accumulate(a)), a)


def key_poset_leq(a, b):
    """Key-poset comparison: a_i <= b_i for all i, and every strict descent
    a_i > a_j (i < j) forces the strict descent b_i > b_j.  Rejects what
    as_comp rejects."""
    a, b = as_comp(a), as_comp(b)
    n = max(len(a), len(b))
    a, b = pad(a, n), pad(b, n)
    if any(a[i] > b[i] for i in range(n)):
        return False
    for i, j in combinations(range(n), 2):
        if a[i] > a[j] and not b[i] > b[j]:
            return False
    return True


def compositions_of(k, nparts):
    """All weak compositions of k into exactly nparts parts, lexicographically.

    Stars and bars: the nparts - 1 bars sit at increasing positions among
    k + nparts - 1 slots, and part t counts the stars between bars t - 1 and t.
    """
    if nparts == 0 or k < 0:
        if k == nparts == 0:
            yield ()
        return
    end = k + nparts - 1
    for bars in combinations(range(end), nparts - 1):
        edges = (-1,) + bars + (end,)
        yield tuple(edges[t + 1] - edges[t] - 1 for t in range(nparts))


def partitions_of(k, max_part=None):
    """All partitions of k with parts bounded by max_part, largest part first."""
    if max_part is None:
        max_part = k
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions_of(k - first, first):
            yield (first,) + rest
