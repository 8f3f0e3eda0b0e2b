"""The flagged homogeneous basis, key polynomials, Demazure atoms, and the
Kostka-type coefficients connecting them."""

from collections import Counter
from itertools import combinations

from .compositions import (as_comp, as_int, as_partition, compositions_of,
                           dominance_key, pad, rev, strip)
from .fillings import enumerate_fillings, weight_of
from .frsk import _rho_inverse
from .polynomials import Poly, sorted_terms


def h_complete(k, m):
    """The complete homogeneous polynomial h_k(x_1, ..., x_m)."""
    k, m = as_int(k, what="degree"), as_int(m, what="variable count")
    if k == 0:
        return Poly.one()
    if m == 0:
        return Poly.zero()
    return Poly.from_terms((c, 1) for c in compositions_of(k, m))


def h_sym(lam, m):
    """h_lam(x_1, ..., x_m) for a partition lam."""
    out = Poly.one()
    for part in lam:
        out = out * h_complete(part, m)
    return out


def h_flagged(a, n=None):
    """The flagged product h_{a_1}(x_1) h_{a_2}(x_1,x_2) ... h_{a_i}(x_1..x_i)."""
    a = as_comp(a, n)
    out = Poly.one()
    for i, part in enumerate(a, start=1):
        out = out * h_complete(part, i)
    return out


def h_flagged_matrix_oracle(a):
    """Independent model: sum of x^{col(L)} over lower triangular natural
    matrices L with row sums a.  Must agree with h_flagged."""
    a = as_comp(a)
    n = len(a)

    def rows(i, cols):
        if i > n:
            yield tuple(cols), 1
            return
        for c in compositions_of(a[i - 1], i):
            yield from rows(i + 1, [cols[j] + (c[j] if j < i else 0) for j in range(n)])

    return Poly.from_terms(rows(1, [0] * n))


def schur_ssyt(lam, n):
    """Schur polynomial by direct SSYT weight sum; independent of key route."""
    return Poly.from_terms((weight_of(rows, n), 1)
                           for rows in enumerate_fillings(tuple(lam), n, "SSYT"))


def key_polynomial(a, n=None):
    """Weight generating function of the SSKT of shape a."""
    a = tuple(a)
    n = len(a) if n is None else n
    return Poly.from_terms((weight_of(rows, n), 1)
                           for rows in enumerate_fillings(a, n, "SSKT"))


def demazure_atom(a, n=None):
    """Weight generating function of the rSSAF of shape rev(a), with the
    alphabet reversed (variable i becomes x_{n+1-i})."""
    a = as_comp(a, n)
    n = len(a) if n is None else n
    return Poly.from_terms((rev(weight_of(rows, n), n), 1)
                           for rows in enumerate_fillings(rev(a, n), n, "rSSAF"))


def ktilde(a, b):
    """Number of rSSAF of shape a and weight b (0 on degree mismatch)."""
    n = max(len(strip(a)), len(strip(b)), 1)
    return len(enumerate_fillings(a, n, "rSSAF", weight=b))


def ktilde_upper(a, b):
    """Number of SSKT of shape rev(a) and weight rev(b) (0 on mismatch).
    Rejects what as_comp rejects of a or b, as the caller wrote them."""
    a, b = as_comp(a), as_comp(b)
    n = max(len(strip(a)), len(strip(b)), 1)
    return len(enumerate_fillings(rev(a, n), n, "SSKT", weight=rev(b, n)))


def _ssyt_of_weight(b, n, outer=None):
    """Every SSYT with entries in [n] and weight b, of shape inside the
    partition outer if given, as a chain of horizontal strips (Macdonald,
    Symmetric Functions and Hall Polynomials, ch. I §5): value v adds b_v
    cells to rows r <= v, and a row grows at most to the length the row
    below it had before v.  The rows fill top-down, so that length is still
    in place when a row takes its cells.  Unchecked."""
    limit = (sum(b),) * n if outer is None else pad(strip(outer), n)
    found = [((),) * n]
    for v, k in enumerate(pad(strip(b), n), start=1):
        if not k:
            continue
        grown = [(Q, k) for Q in found]
        for r in range(min(v, n) - 1, -1, -1):  # row r + 1 takes t cells, row 1 the rest
            grown = [(Q[:r] + (Q[r] + (v,) * t,) + Q[r + 1:] if t else Q, left - t)
                     for Q, left in grown
                     for room in [(min(limit[r], len(Q[r - 1])) if r else limit[0]) - len(Q[r])]
                     for t in range(0 if r else left, min(room, left) + 1)]
        found = [Q for Q, _ in grown]
    return [tuple(row for row in Q if row) for Q in found]


def kostka(lam, b):
    """Classical Kostka number: the strip chains of weight b inside lam.
    Rejects what as_partition rejects of lam and as_comp of b."""
    lam, b = as_partition(lam), as_comp(b)
    n = max(len(strip(lam)), len(strip(b)), 1)
    return len(_ssyt_of_weight(b, n, outer=lam)) if sum(lam) == sum(b) else 0


class BasisExpansion:
    """Integer coefficients of an element against a named target basis;
    indices equal up to trailing zeros are summed, as Poly exponents are.
    Equal for the same basis and terms, so not hashable."""

    def __init__(self, basis, terms):
        self.basis = basis
        self.terms = Poly.from_terms(terms.items()).terms

    def __eq__(self, other):
        return type(other) is type(self) and (self.basis, self.terms) == (other.basis, other.terms)

    def coefficient(self, index):
        return self.terms.get(strip(index), 0)

    def to_json(self):
        return {
            "basis": self.basis,
            "terms": [{"index": list(k), "coef": v} for k, v in sorted_terms(self.terms)],
        }


def _bruhat_ideal(a):
    """The rearrangements of a weakly below it in the Bruhat order: the
    closure of {a} under swapping parts c_i < c_j with i < j."""
    ideal, todo = {a}, [a]
    while todo:
        c = todo.pop()
        for i, j in combinations(range(len(c)), 2):
            if c[i] < c[j]:
                d = c[:i] + (c[j],) + c[i + 1:j] + (c[i],) + c[j + 1:]
                if d not in ideal:
                    ideal.add(d)
                    todo.append(d)
    return ideal


def _key_counts(b, n):
    """ktilde(a, b) for the compositions a of length n (default: the length
    of b), as one sweep: the column sets of an rSSAF of weight b stack to an
    SSYT of weight b, and rho_inverse undoes that stacking (S. Mason, "An
    explicit construction of type A Demazure atoms", J. Algebraic Combin.
    29, 2009).  So tally the shapes of rho_inverse(Q) over the SSYT Q of
    weight b, unchecked, since the strip walk lists only SSYT.  Rejects what
    as_comp rejects."""
    b = as_comp(b, n)
    n = max(len(strip(b)), 1) if n is None else n
    return Counter(tuple(map(len, _rho_inverse(Q, n))) for Q in _ssyt_of_weight(b, n))


def expand_h_into_keys(b, n=None):
    """Key-basis expansion of the flagged homogeneous element indexed by b:
    the key of a has coefficient ktilde(a, b)."""
    return BasisExpansion("key", _key_counts(b, n))


def _atom_counts(key_counts):
    """Atom coefficients from key coefficients: kappa_a is the sum of A_c
    over its Bruhat ideal c <= a (Lascoux and Schützenberger, "Keys and
    standard bases", 1990), so each key coefficient goes to every c <= a."""
    terms = Counter()
    for a, k in key_counts.items():
        for c in _bruhat_ideal(a):
            terms[c] += k
    return terms


def expand_h_into_atoms(b, n=None):
    """Atom-basis expansion of the flagged homogeneous element indexed by b:
    the atom of c has coefficient ktilde_upper(c, b)."""
    return BasisExpansion("atom", _atom_counts(_key_counts(b, n)))


def _family(degrees, n, element):
    """(a, element(a, n)) for the compositions a of the given total degrees
    into n parts, listed along the fixed linear extension of dominance order.
    Rejects what as_int rejects of n."""
    as_int(n)
    return [(a, element(a, n)) for d in sorted(set(degrees))
            for a in sorted(compositions_of(d, n), key=lambda a: dominance_key(a, n))]


def h_basis_family(degrees, n):
    """The flagged homogeneous elements of the given total degrees in n
    variables, in dominance-extension order.  Suitable as the triangular
    family for express_in_basis."""
    return _family(degrees, n, h_flagged)


def key_basis_family(degrees, n):
    """Key polynomials of the given degrees, dominance-extension order."""
    return _family(degrees, n, key_polynomial)
