"""Pieri chains in k-Bruhat order, the Schubert expansion of the flagged
homogeneous basis, and a divided-difference Schubert oracle used purely for
cross-checking."""

from .compositions import BoundedCache, as_comp, as_int
from .permutations import check_perm, covers, pad_perm, strip_fixed
from .polynomials import Poly, _poly, as_coefficients, divided_difference

_strip_cache = BoundedCache(4096)  # strip targets by (u, k, m)
_oracle_cache = BoundedCache(4096)  # oracle polynomials by permutation


def horizontal_strip_targets(u, k, m):
    """The frozenset of all w reached from u by a saturated k-Bruhat chain of
    length m whose transpositions t_{i,j} use pairwise distinct j; {u} if m = 0.

    A position j > k moves only as the j of a step, so the j's a chain has
    used are where w differs from u, and one set of words per step is the
    whole state.  Padding to max(len(u), k) + m covers every step."""
    key = (check_perm(u), as_int(k, 1, "k"), as_int(m, what="strip size"))
    targets = _strip_cache.lookup(key)
    if targets is None:
        u = pad_perm(key[0], max(len(key[0]), k) + m)
        frontier = {u}
        for _ in range(m):
            frontier = {w2 for w in frontier for j, w2 in covers(w, k) if w[j - 1] == u[j - 1]}
        targets = _strip_cache.store(key, frozenset(map(strip_fixed, frontier)))
    return targets


def pieri_multiply(expansion, m, k):
    """Push a Schubert expansion through one Pieri step: each source w moves
    to every horizontal m-strip target in k-Bruhat order, once per target.
    Rejects a coefficient that is not an int, as Poly(...) does, and what
    horizontal_strip_targets rejects of k and m, even for no source."""
    as_int(k, 1, "k"), as_int(m, what="strip size")
    out = {}
    for u, coef in as_coefficients(expansion).items():
        for w in horizontal_strip_targets(u, k, m):
            out[w] = out.get(w, 0) + coef
    return {w: c for w, c in out.items() if c}


def pieri_chain(expansion, comp):
    """Multiply a Schubert expansion by the flagged homogeneous element of
    comp: one Pieri step of comp_k in k-Bruhat order for each comp_k > 0.
    Rejects what pieri_multiply rejects of the expansion, even for no step."""
    as_coefficients(expansion)
    for k, part in enumerate(as_comp(comp), start=1):
        if part:
            expansion = pieri_multiply(expansion, part, k)
    return expansion


def h_schubert_expansion(b):
    """Schubert coefficients of the flagged homogeneous element of b: the
    number of chains of horizontal (b_k)-strips in k-Bruhat order."""
    return pieri_chain({(): 1}, b)


def _schubert_poly(w):
    """Divided-difference recursion from the staircase monomial of the
    longest element above w."""
    w = strip_fixed(w)
    poly = _oracle_cache.lookup(w)
    if poly is not None:
        return poly
    m = len(w)
    if m == 0:
        return Poly.one()
    if all(w[i] == m - i for i in range(m)):
        poly = Poly.monomial(tuple(range(m - 1, 0, -1)))
    else:
        i = next(i for i in range(1, m) if w[i - 1] < w[i])
        higher = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
        poly = divided_difference(_schubert_poly(higher), i)
    return _oracle_cache.store(w, poly)


def schubert_oracle(w, n):
    """The Schubert polynomial of w, which must fit in x_1..x_n, i.e. w can
    permute [m] only for m <= n + 1.  Rejects what as_int rejects of n."""
    w = check_perm(w)
    if len(w) > as_int(n) + 1:
        raise ValueError(f"{w} needs more than {n} variables")
    return _poly(dict(_schubert_poly(w).terms))


def evaluate_expansion(expansion, n):
    """Recombine a Schubert expansion through the oracle."""
    return Poly.from_terms((e, coef * c)
                           for w, coef in expansion.items()
                           for e, c in schubert_oracle(w, n).terms.items())
