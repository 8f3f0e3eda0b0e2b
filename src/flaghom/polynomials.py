"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a dict mapping exponent tuples (trailing zeros stripped) to
nonzero integers, e.g.::

    Poly({(2,): 1, (1, 1): 2, (0, 2): 1})   # x1^2 + 2*x1*x2 + x2^2

All arithmetic is exact; zero coefficients are never stored.  The canonical
term order used for serialization is graded lexicographic on the exponent
vectors.
"""

from .compositions import as_comp, as_int, pad, strip


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """Rejects an exponent that is not a weak composition and a
        coefficient that is not an int."""
        terms = as_coefficients(terms or {})
        self.terms = self.from_terms((as_comp(e), c) for e, c in terms.items()).terms

    @staticmethod
    def from_terms(pairs):
        """Sum an iterable of (exponent, coef) pairs in one dict; exponents
        equal up to trailing zeros merge and zero sums are dropped."""
        out = {}
        for exp, coef in pairs:
            exp = strip(exp)
            out[exp] = out.get(exp, 0) + coef
        return _poly(out)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def monomial(cls, exp, coef=1):
        return cls({tuple(exp): coef})

    @classmethod
    def variable(cls, i):
        """The variable x_i (1-based)."""
        return cls.monomial((0,) * (as_int(i, 1, "index") - 1) + (1,))

    def is_zero(self):
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(strip(exp), 0)

    def homogeneous_part(self, d):
        d = as_int(d, what="degree")
        return _poly({e: c for e, c in self.terms.items() if sum(e) == d})

    def restrict_vars(self, k):
        """Set every variable beyond x_k to zero."""
        k = as_int(k)
        return _poly({e: c for e, c in self.terms.items() if len(e) <= k})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            return self.terms == _operand(other).terms
        except ValueError:
            return False

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in _operand(other).terms.items():
            out[e] = out.get(e, 0) + c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_operand(other))

    def __rsub__(self, other):
        return _operand(other) + (-self)

    def __mul__(self, other):
        other = _operand(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mul_exps(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = as_int(k, what="power")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, coef in sorted_terms(self.terms):
            factors = [f"x{i+1}" + (f"^{p}" if p > 1 else "")
                       for i, p in enumerate(exp) if p]
            body = "*".join(factors)
            if not body:
                bits.append(str(coef))
            elif coef == 1:
                bits.append(body)
            elif coef == -1:
                bits.append("-" + body)
            else:
                bits.append(f"{coef}*{body}")
        text = " + ".join(bits).replace("+ -", "- ")
        return text


def _poly(terms):
    """The Poly holding a dict keyed by stripped exponents, less its zero
    coefficients; every Poly but a checked Poly(...) is built here."""
    p = Poly.__new__(Poly)
    p.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}
    return p


def as_coefficients(terms):
    """terms, a dict checked to hold only int (not bool) coefficients."""
    for coef in terms.values():
        if type(coef) is not int:
            raise ValueError(f"non-integer coefficient {coef!r}")
    return terms


def _operand(other):
    """The other operand of Poly arithmetic and ==: a Poly as it is, an int
    (not a bool) as a constant; anything else raises ValueError."""
    if isinstance(other, Poly):
        return other
    if type(other) is not int:
        raise ValueError(f"cannot combine a Poly with {other!r}")
    return _poly({(): other})


def mul_exps(e1, e2):
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    return tuple(e1[i] + (e2[i] if i < len(e2) else 0) for i in range(len(e1)))


def sorted_terms(terms):
    """The items of a dict keyed by stripped compositions, in graded lex
    order, each key padded with zeros to the longest."""
    n = max(map(len, terms), default=0)
    return [(pad(e, n), terms[e]) for e in sorted(terms, key=lambda e: (sum(e), e))]


def poly_to_json(p):
    """JSON form: list of {"exp", "coef"} in graded lex order."""
    return [{"exp": list(e), "coef": c} for e, c in sorted_terms(p.terms)]


def express_in_basis(p, basis):
    """Write p, a Poly or an int, as an integer combination of a triangular
    basis family.

    basis is an ordered sequence of (index composition, Poly) such that each
    element's support lies weakly above its own index in the listing order
    and the coefficient at its index is 1.  Returns {index: coefficient};
    raises ValueError if elimination leaves a nonzero remainder.
    """
    residue = _operand(p)
    out = {}
    for index, elem in basis:
        c = residue.coefficient(index)
        if c:
            out[strip(index)] = c
            residue = residue - c * elem
    if not residue.is_zero():
        raise ValueError("polynomial does not lie in the span of the basis")
    return out


def divided_difference(p, i):
    """The ith divided difference (f - s_i f) / (x_i - x_{i+1}), exactly;
    p is a Poly or an int, as an operand of Poly arithmetic."""
    p, i = _operand(p), as_int(i, 1, "index")

    def terms():
        for exp, coef in p.terms.items():
            e = list(exp) + [0] * (i + 1 - len(exp))
            a, b = e[i - 1], e[i]
            sign = 1 if a > b else -1
            lo, hi = min(a, b), max(a, b)
            for s in range(hi - lo):
                e[i - 1], e[i] = lo + s, hi - 1 - s
                yield tuple(e), sign * coef

    return Poly.from_terms(terms())
