"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a dict mapping exponent tuples (trailing zeros stripped) to
nonzero integers, e.g.::

    Poly({(2,): 1, (1, 1): 2, (0, 2): 1})   # x1^2 + 2*x1*x2 + x2^2

All arithmetic is exact; zero coefficients are never stored.  The canonical
term order used for serialization is graded lexicographic on the exponent
vectors.
"""

from .compositions import as_comp, pad, strip


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """Rejects an exponent that is not a weak composition and a
        coefficient that is not an int."""
        terms = terms or {}
        for coef in terms.values():
            if type(coef) is not int:
                raise ValueError(f"non-integer coefficient {coef!r}")
        self.terms = self.from_terms((as_comp(e), c) for e, c in terms.items()).terms

    @classmethod
    def from_terms(cls, pairs):
        """Sum an iterable of (exponent, coef) pairs in one dict; exponents
        equal up to trailing zeros merge and zero sums are dropped."""
        out = {}
        for exp, coef in pairs:
            exp = strip(exp)
            out[exp] = out.get(exp, 0) + coef
        p = cls.__new__(cls)
        p.terms = {e: c for e, c in out.items() if c}
        return p

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
        if type(i) is not int or i < 1:
            raise ValueError(f"need an integer index i >= 1, got {i!r}")
        return cls.monomial((0,) * (i - 1) + (1,))

    def is_zero(self):
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(strip(exp), 0)

    def homogeneous_part(self, d):
        return Poly({e: c for e, c in self.terms.items() if sum(e) == d})

    def restrict_vars(self, k):
        """Set every variable beyond x_k to zero."""
        return Poly({e: c for e, c in self.terms.items() if len(e) <= k})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.from_terms([((), other)])
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly({(): other})
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly({(): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Poly()
            p = Poly.__new__(Poly)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mul_exps(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
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
    """Write p as an integer combination of a triangular basis family.

    basis is an ordered sequence of (index composition, Poly) such that each
    element's support lies weakly above its own index in the listing order
    and the coefficient at its index is 1.  Returns {index: coefficient};
    raises ValueError if elimination leaves a nonzero remainder.
    """
    residue = p
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
    """The ith divided difference (f - s_i f) / (x_i - x_{i+1}), exactly."""
    if type(i) is not int or i < 1:
        raise ValueError(f"need an integer index i >= 1, got {i!r}")

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
