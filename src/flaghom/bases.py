"""The flagged homogeneous basis, key polynomials, Demazure atoms, and the
Kostka-type coefficients connecting them."""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .compositions import (as_comp, compositions_of, dominance_key, pad,
                           partitions_of, rev, size, strip)
from .fillings import enumerate_fillings, weight_of
from .frsk import rho_inverse
from .polynomials import Poly, grlex_key


def h_complete(k, m):
    """The complete homogeneous polynomial h_k(x_1, ..., x_m)."""
    if k < 0:
        raise ValueError(f"negative degree {k}")
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
    a = tuple(a)
    n = len(a) if n is None else n
    return Poly.from_terms((rev(weight_of(rows, n), n), 1)
                           for rows in enumerate_fillings(rev(a, n), n, "rSSAF"))


def ktilde(a, b):
    """Number of rSSAF of shape a and weight b (0 on degree mismatch)."""
    a, b = strip(a), strip(b)
    if size(a) != size(b):
        return 0
    n = max(len(a), len(b), 1)
    return len(enumerate_fillings(pad(a, n), n, "rSSAF", weight=pad(b, n)))


def ktilde_upper(a, b):
    """Number of SSKT of shape rev(a) and weight rev(b) (0 on mismatch)."""
    a, b = strip(a), strip(b)
    if size(a) != size(b):
        return 0
    n = max(len(a), len(b), 1)
    return len(enumerate_fillings(rev(a, n), n, "SSKT", weight=rev(b, n)))


def kostka(lam, b):
    """Classical Kostka number: SSYT of shape lam and weight b."""
    lam, b = tuple(lam), strip(b)
    if size(lam) != size(b):
        return 0
    n = max(len(lam), len(b), 1)
    return len(enumerate_fillings(lam, n, "SSYT", weight=pad(b, n)))


@dataclass
class BasisExpansion:
    """Integer coefficients of an element against a named target basis."""

    basis: str
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {strip(k): v for k, v in self.terms.items() if v}

    def coefficient(self, index):
        return self.terms.get(strip(index), 0)

    def sorted_terms(self, n=None):
        n = max((len(k) for k in self.terms), default=0) if n is None else n
        return [(pad(k, max(n, len(k))), self.terms[k])
                for k in sorted(self.terms, key=lambda k: grlex_key(k, n))]

    def to_json(self, n=None):
        return {
            "basis": self.basis,
            "terms": [{"index": list(k), "coef": v} for k, v in self.sorted_terms(n)],
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
    weight b.  Rejects what as_comp rejects."""
    b = as_comp(b, n)
    n = max(len(strip(b)), 1) if n is None else n
    counts = Counter()
    for lam in partitions_of(size(b)):
        if len(lam) <= n:
            for Q in enumerate_fillings(lam, n, "SSYT", weight=b):
                counts[tuple(map(len, rho_inverse(Q, n)))] += 1
    return counts


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
    into n parts, listed along the fixed linear extension of dominance order."""
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
