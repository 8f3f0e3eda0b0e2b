"""Permutations in one-line notation (1-based tuples).

A permutation is stored as the shortest one-line word with no trailing fixed
points; the identity is the empty tuple.  Length means Coxeter length,
computed by inversion counting.
"""

from .compositions import as_comp, as_int


def strip_fixed(w):
    """Canonical form: drop trailing fixed points."""
    w = tuple(w)
    end = len(w)
    while end and w[end - 1] == end:
        end -= 1
    return w[:end]


def check_perm(w):
    """w in canonical form, once it is checked to be a permutation of
    1..len(w)."""
    w = tuple(w)
    if not set(map(type, w)) <= {int} or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return strip_fixed(w)


def pad_perm(w, m):
    """Extend w by fixed points to a word of length at least m."""
    w = tuple(w)
    if len(w) >= m:
        return w
    return w + tuple(range(len(w) + 1, m + 1))


def length(w):
    """Coxeter length: the number of inversions of the one-line word."""
    w = tuple(w)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def apply_transposition(w, i, j):
    """Swap the entries in positions i < j (1-based), widening by fixed
    points as needed; the result is re-canonicalized."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    word = list(pad_perm(w, j))
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return strip_fixed(word)


def covers(w, k):
    """Yield (j, w t_{i,j}), unstripped, for each k-Bruhat cover of the padded
    word w with i <= k < j <= len(w): w(i) < w(j) and no i < m < j has
    w(i) < w(m) < w(j) (Bergeron-Sottile).  The scan right of each i keeps
    the least value above w(i) seen so far."""
    for i in range(k):
        ceiling = len(w) + 1
        for j in range(i + 1, len(w)):
            if w[i] < w[j] < ceiling:
                ceiling = w[j]
                if j >= k:
                    yield j + 1, w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:]


def k_bruhat_covers(u, k):
    """All covers w = u t_{i,j} with i <= k < j and length(w) = length(u)+1.

    The window for j reaches one past the support of u: no cover can move a
    later fixed point.
    """
    k, u = as_int(k, 1, "k"), check_perm(u)
    return {strip_fixed(w) for _, w in covers(pad_perm(u, max(len(u), k) + 1), k)}


def grassmannian_perm(lam, k):
    """The unique permutation with at most one descent, at position k, whose
    first k values are i + lam_{k+1-i}; lam must have at most k parts."""
    k, lam = as_int(k, 1, "k"), as_comp(lam)
    if len([p for p in lam if p > 0]) > k:
        raise ValueError(f"partition {lam} has more than {k} nonzero parts")
    lam = lam + (0,) * (k - len(lam))
    head = tuple(i + lam[k - i] for i in range(1, k + 1))
    used = set(head)
    tail = [v for v in range(1, max(head, default=0) + 1) if v not in used]
    return strip_fixed(head + tuple(tail))
