"""Independent oracles that only the tests read.

Each one computes by the definition what the library computes by a faster or
more structured route: the naive filling filter, the dominance order behind
`dominance_key`, relabelling of supports, the lift of a square matrix into
the lower triangle, the Demazure operator recursion for keys and atoms, the
key-to-h expansion as a sum over listed snake tabloids, the snake and rim
hook tabloids listed row by row from cell subsets, their signed weights, and
the SSYT of one weight listed shape by shape.  Most share no code with that
route.  The exceptions:

- `expand_key_into_h_by_tabloids` sums over `enumerate_special_snake_tabloids`,
  which runs the same `snakes._tabloid_sum` over the same `snakes._snake_pieces`
  as `expand_key_into_h`.  The two agree whenever their `steps` give a piece
  the same sign and weight, so a wrong piece or recursion shows in neither.
  `signed_weights` over `snake_tabloids_by_rows` is the independent check of
  the tally: no memo, no `_tabloid_sum`, no `_snake_pieces`, and each sign
  counted from the rows a piece meets, not by `snakes.snake_sign`.
- `key_counts_by_shapes` tallies `frsk.rho_inverse`, which runs the
  `frsk._rho_inverse` that `bases._key_counts` tallies.  The rSSAF counts
  of `enumerate_fillings`, which run no rho code, check `_key_counts` too.

`snake_tabloids_by_rows` tests its pieces by `is_special_snake_by_cells`,
on cells alone: `weakly_connected_components` and `key_poset_leq`, not
the `snakes._rows_connected` that `snakes._snake_pieces` reads.

The naive filter reads `fillings.statistics`, which the filling backtracker
`enumerate_fillings` and `is_member` do not.
"""

from collections import Counter
from functools import cache
from itertools import product
from math import prod

from flaghom.bases import BasisExpansion
from flaghom.compositions import (as_comp, as_matrix, key_poset_leq, pad,
                                  partitions_of, strip)
from flaghom.fillings import (enumerate_fillings, key_diagram, statistics,
                              weight_of)
from flaghom.frsk import rho_inverse
from flaghom.polynomials import Poly, divided_difference
from flaghom.snakes import (enumerate_special_snake_tabloids,
                            weakly_connected_components)


def is_member_by_definition(rows, flavor, n):
    """Membership of a filling with entries in [n], read off the definitions:
    `statistics` for SSKT and rSSAF, rows and columns for SSYT and rSSYT."""
    if flavor in ("SSKT", "rSSAF"):
        st = statistics(rows, n)
        descents = (st.maj, st.coinv) if flavor == "SSKT" else (st.comaj, st.inv)
        return st.attacking_violations == 0 and descents == (0, 0)
    sign = -1 if flavor == "rSSYT" else 1  # rSSYT: SSYT conditions on negated entries
    return (all(sign * x <= sign * y for row in rows for x, y in zip(row, row[1:]))
            and all(sign * x < sign * y
                    for lower, upper in zip(rows, rows[1:]) for x, y in zip(lower, upper)))


def enumerate_fillings_naive(shape, n, flavor, weight=None):
    """Filter every one of the n^|shape| entry maps; test oracle."""
    out = []
    for values in product(range(1, n + 1), repeat=sum(shape)):
        entries = iter(values)  # in reading order: row 1 upward, left to right
        rows = tuple(tuple(next(entries) for _ in range(part)) for part in shape)
        if weight is None or weight_of(rows, n) == pad(strip(weight), n):
            if is_member_by_definition(rows, flavor, n):
                out.append(rows)
    return out


def dominance_leq(a, b):
    """True iff every prefix sum of a is <= the matching prefix sum of b."""
    a, b = tuple(a), tuple(b)
    n = max(len(a), len(b))
    sa = sb = 0
    for i in range(n):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def relabel(a, I, J):
    """Move the parts of a sitting at indices I (1-based, sorted) to the
    indices J, preserving order; all other parts of the result are zero.

    Rejects inputs where a has a nonzero part outside I or |I| != |J|.
    """
    I, J = sorted(I), sorted(J)
    if len(I) != len(J):
        raise ValueError("index sets must have equal size")
    a = tuple(a)
    iset = set(I)
    for pos, part in enumerate(a, start=1):
        if part != 0 and pos not in iset:
            raise ValueError(f"nonzero part at index {pos} outside {I}")
    out = [0] * (max(J) if J else 0)
    for i, j in zip(I, J):
        out[j - 1] = a[i - 1] if i - 1 < len(a) else 0
    return tuple(out)


def lift_F(A):
    """Push a square natural matrix into the lower triangle twice the size:
    the biword pair (i, j) becomes (i + n, j)."""
    A = as_matrix(A)
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    F = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            F[n + i][j] = A[i][j]
    return tuple(tuple(r) for r in F)


@cache
def _demazure_by_operators(a, atom):
    """Filling-free oracle for the key polynomial (atom=False) or Demazure
    atom (atom=True) of a: x^a when a is weakly decreasing, else
    pi_i applied to the index with a_i < a_{i+1} exchanged, where
    pi_i f = d_i(x_i f); atoms use pi_i - 1 (Demazure 1974; Lascoux and
    Schützenberger, "Keys and standard bases", 1990)."""
    i = next((i for i in range(len(a) - 1) if a[i] < a[i + 1]), None)
    if i is None:
        return Poly.monomial(a)
    higher = _demazure_by_operators(a[:i] + (a[i + 1], a[i]) + a[i + 2:], atom)
    pi = divided_difference(Poly.variable(i + 1) * higher, i + 1)
    return pi - higher if atom else pi


def expand_key_into_h_by_tabloids(b, n=None):
    """Signed expansion of the key polynomial of b in the flagged
    homogeneous basis, read off the snake tabloids of shape b.  Rejects what
    as_comp(b, n) rejects."""
    b = as_comp(b, n)
    terms = {}
    for U in enumerate_special_snake_tabloids(b):
        w = strip(U.weight())
        terms[w] = terms.get(w, 0) + U.sign()
    return BasisExpansion("h-flagged", terms)


def complement_by_cells(S, b):
    """The composition a with key_diagram(a) == key_diagram(b) - S, counted
    from the cells left in each row, or None if the rest is not a key
    diagram."""
    rest = key_diagram(b) - S
    a = tuple(sum(1 for _, r in rest if r == row) for row in range(1, len(b) + 1))
    return a if rest == key_diagram(a) else None


def is_snake_by_cells(S, b):
    """The cell-set definition of a snake: empty, or one weakly connected
    component, no triple (c, s), (c+1, s), (c+1, r) with r < s, and a
    complement that is the key diagram of a composition below b in the key
    poset."""
    if not S:
        return True
    a = complement_by_cells(S, b)
    return (a is not None and key_poset_leq(a, b)
            and len(weakly_connected_components(S)) == 1
            and not any((c + 1, s) in S and (c + 1, r) in S
                        for c, s in S for r in range(1, s)))


def is_special_snake_by_cells(S, b):
    """A snake by its cell-set definition that is empty or holds the anchor
    cell (1, r), r the lowest nonempty row of b."""
    anchor = (1, next((r for r, part in enumerate(b, 1) if part), 0))
    return (not S or anchor in S) and is_snake_by_cells(S, b)


def snake_tabloids_by_rows(b, is_piece=is_special_snake_by_cells):
    """Piece sequences of the tabloids of shape b, by rows: row i takes the
    empty piece if residual row i is empty, else each nonempty subset S of
    the residual diagram d with is_piece(S, d), and the residual loses its
    cells; a sequence counts if nothing is left.  No memo; with the default
    piece test, the oracle of enumerate_special_snake_tabloids."""
    def go(d, i):
        if i == len(d):
            return [] if any(d) else [()]
        if d[i] == 0:
            return [(frozenset(),) + rest for rest in go(d, i + 1)]
        cells = sorted(key_diagram(d))
        out = []
        for mask in range(1, 2 ** len(cells)):
            S = frozenset(cell for k, cell in enumerate(cells) if mask >> k & 1)
            if is_piece(S, d):
                e = tuple(part - sum(r == row for _, r in S) for row, part in enumerate(d, 1))
                out += [(S,) + rest for rest in go(e, i + 1)]
        return out

    return go(tuple(b), 0)


def signed_weights(sequences):
    """The expansion of the key polynomial in the flagged homogeneous basis
    read off listed piece sequences, such as snake_tabloids_by_rows gives:
    each enters its weight, the sizes of its pieces, with the product over
    its nonempty pieces of (-1)^(h - 1), h the rows the piece meets."""
    terms = Counter()
    for snakes in sequences:
        sign = prod((-1) ** (len({r for _, r in S}) - 1) for S in snakes if S)
        terms[tuple(map(len, snakes))] += sign
    return BasisExpansion("h-flagged", terms)


def ssyt_of_weight_by_shapes(b, n):
    """The SSYT with entries in [n] and weight b, backtracked by
    enumerate_fillings one partition of |b| at a time; the oracle of the
    strip walk bases._ssyt_of_weight."""
    return [Q for lam in partitions_of(sum(b)) if len(lam) <= n
            for Q in enumerate_fillings(lam, n, "SSYT", weight=b)]


def key_counts_by_shapes(b, n):
    """bases._key_counts by the per-partition sweep: the shapes of
    rho_inverse(Q) tallied over ssyt_of_weight_by_shapes(b, n)."""
    return Counter(tuple(map(len, rho_inverse(Q, n))) for Q in ssyt_of_weight_by_shapes(b, n))
