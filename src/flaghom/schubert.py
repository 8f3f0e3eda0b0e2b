"""Pieri chains in k-Bruhat order, the Schubert expansion of the flagged
homogeneous basis, and a divided-difference Schubert oracle used purely for
cross-checking."""

from .compositions import as_comp
from .permutations import check_perm, covers, strip_fixed
from .polynomials import Poly, divided_difference


def horizontal_strip_targets(u, k, m):
    """All w reachable from u by a saturated k-Bruhat chain of length m whose
    transpositions t_{i,j} use pairwise distinct j.  m = 0 gives {u}."""
    if m < 0:
        raise ValueError(f"negative strip size {m}")
    u = strip_fixed(u)
    out = set()

    def extend(w, used, steps):
        if steps == m:
            out.add(w)
            return
        for j, w2 in covers(w, k, max(len(w), k) + 1):
            if j not in used:
                extend(w2, used | {j}, steps + 1)

    extend(u, frozenset(), 0)
    return out


def pieri_multiply(expansion, m, k):
    """Push a Schubert expansion through one Pieri step: each source w moves
    to every horizontal m-strip target in k-Bruhat order, once per target."""
    out = {}
    for u, coef in expansion.items():
        for w in horizontal_strip_targets(u, k, m):
            out[w] = out.get(w, 0) + coef
    return {w: c for w, c in out.items() if c}


def h_schubert_expansion(b):
    """Schubert coefficients of the flagged homogeneous element of b: the
    number of chains of horizontal (b_k)-strips in k-Bruhat order."""
    return schubert_product_expansion(b, ())


def schubert_product_expansion(a, b):
    """Schubert expansion of the product of two flagged homogeneous
    elements, via the one-row grassmannian factorization of each."""
    expansion = {(): 1}
    for comp in (as_comp(a), as_comp(b)):
        for k, part in enumerate(comp, start=1):
            expansion = pieri_multiply(expansion, part, k)
    return expansion


# Divided-difference results by permutation; cleared whenever it reaches
# the limit, so it stays bounded in a long-lived process.
_ORACLE_CACHE_LIMIT = 4096
_oracle_cache = {}


def _schubert_poly(w):
    """Divided-difference recursion from the staircase monomial of the
    longest element above w."""
    w = strip_fixed(w)
    if w in _oracle_cache:
        return _oracle_cache[w]
    m = len(w)
    if m == 0:
        return Poly.one()
    if all(w[i] == m - i for i in range(m)):
        poly = Poly.monomial(tuple(range(m - 1, 0, -1)))
    else:
        i = next(i for i in range(1, m) if w[i - 1] < w[i])
        higher = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
        poly = divided_difference(_schubert_poly(higher), i)
    if len(_oracle_cache) >= _ORACLE_CACHE_LIMIT:
        _oracle_cache.clear()
    _oracle_cache[w] = poly
    return poly


def schubert_oracle(w, n):
    """The Schubert polynomial of w, which must fit in x_1..x_n, i.e. w can
    permute [m] only for m <= n + 1."""
    w = check_perm(w)
    if len(w) > n + 1:
        raise ValueError(f"{w} needs more than {n} variables")
    return _schubert_poly(w)


def evaluate_expansion(expansion, n):
    """Recombine a Schubert expansion through the oracle."""
    return Poly.from_terms((e, coef * c)
                           for w, coef in expansion.items()
                           for e, c in schubert_oracle(w, n).terms.items())
