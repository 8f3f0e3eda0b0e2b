"""Snakes of key diagrams, special snake tabloids, the signed inverse of the
flagged Kostka matrix, and the sign-reversing involution that proves the
expansion.  A piece D(d) - D(e) of a residual shape d is named by e, and one
memoized sum over residual shapes both lists the tabloids and tallies the
signed inverse; only the tally keeps its sums, in a bounded cache, across
calls.  The rim hook analogues on partition shapes live here too, as an
independent cross-check."""

import json
from collections import namedtuple
from itertools import product
from math import prod

from .bases import BasisExpansion
from .compositions import BoundedCache, as_comp, as_partition, key_poset_leq
from .fillings import enumerate_fillings, is_member, key_diagram, shape_of

# ---------------------------------------------------------------------------
# connectivity


def weakly_connected(u, v):
    """Share a column, or adjacent columns with the left cell weakly higher."""
    (c1, r1), (c2, r2) = u, v
    if c1 == c2:
        return True
    if c2 < c1:
        (c1, r1), (c2, r2) = (c2, r2), (c1, r1)
    return c2 == c1 + 1 and r1 >= r2


def connected(u, v):
    """Vertically or horizontally adjacent."""
    (c1, r1), (c2, r2) = u, v
    return abs(c1 - c2) + abs(r1 - r2) == 1


def components(cells, related):
    """Equivalence classes of the transitive closure of a symmetric relation."""
    todo, groups = set(cells), []
    while todo:
        group = [todo.pop()]
        for u in group:
            near = {v for v in todo if related(u, v)}
            todo -= near
            group += near
        groups.append(set(group))
    return groups


def weakly_connected_components(cells):
    return components(cells, weakly_connected)


# ---------------------------------------------------------------------------
# snakes


def complement_shape(S, b):
    """The composition e with D(b) - S = D(e), or None if there is none: e
    is b less S's cells row by row, and S must be the cells (c, r) with
    c > e_r.  Rejects what as_comp rejects of b and cells outside D(b)."""
    b = as_comp(b)
    return _complement(frozenset(S), b)


def _complement(S, b):
    """complement_shape of a cell frozenset S, b unchecked."""
    if not S <= key_diagram(b):
        raise ValueError("cells lie outside the key diagram")
    e = list(b)
    for _, r in S:
        e[r - 1] -= 1
    return tuple(e) if all(c > e[r - 1] for c, r in S) else None


def is_snake(S, b):
    """Weakly connected, complement a key-poset-lower key diagram, and free
    of the horizontal-pair-with-lower-right-cell triple.  The empty set is
    accepted: its complement is b.  Rejects what complement_shape rejects."""
    e = complement_shape(S, b)
    return e == tuple(b) or e is not None and _snake_predicate(e, b)


def _anchor_row(d):
    """The lowest nonempty row of d, counted from 1, or None if d is zero."""
    return next((r for r, part in enumerate(d, start=1) if part), None)


def _special_complement(S, b):
    """complement_shape(S, b) if the cell frozenset S is a special snake of b."""
    e = _complement(S, b)
    special = e is not None and (not S or (1, _anchor_row(b)) in S and _snake_predicate(e, b))
    return e if special else None


def is_special_snake(S, b):
    """A snake that is empty or contains the lowest cell in column 1."""
    return _special_complement(frozenset(S), as_comp(b)) is not None


def snake_sign(S):
    """(-1)^(h - 1), h the number of distinct rows met (1 for the empty snake)."""
    return (-1) ** (len({r for _, r in S}) - 1) if S else 1


def _special_pieces(d, predicate):
    """Special pieces D(d) - D(e) of the residual shape d, named by their
    complement compositions e with e_anchor = 0: the e that predicate(e, d)
    accepts."""
    anchor = _anchor_row(d)
    ranges = [range(p + 1) if r != anchor else (0,) for r, p in enumerate(d, 1)]
    return [] if anchor is None else [e for e in product(*ranges) if predicate(e, d)]


def _snake_predicate(e, d):
    """Snake test on the piece D(d) - D(e), read off its row segments
    (e_r, d_r]: e below d in the key poset, no two rows r < s holding a
    triple (c, s), (c+1, s), (c+1, r), which happens iff
    max(e_s + 2, e_r + 1) <= min(d_s, d_r), and _rows_connected.  The
    oracle of _snake_pieces."""
    if not key_poset_leq(e, d):
        return False
    rows = [r for r in range(len(d)) if e[r] < d[r]]
    return _rows_connected(e, d, rows) and not any(
        max(e[s] + 2, e[r] + 1) <= min(d[s], d[r])
        for k, r in enumerate(rows) for s in rows[k + 1:])


def _rows_connected(e, d, rows):
    """Whether the nonempty rows of D(d) - D(e), listed in rows, are weakly
    connected: rows r < s touch (a shared column, or a cell of row s left of
    a cell of row r) iff max(e_r, e_s) < min(d_r, d_s + 1)."""
    group, todo = {rows[0]}, [rows[0]]
    while todo:
        r = todo.pop()
        for s in rows:
            if s not in group and max(e[r], e[s]) < min(d[min(r, s)], d[max(r, s)] + 1):
                group.add(s)
                todo.append(s)
    return len(group) == len(rows)


_piece_cache = BoundedCache(4096)
_tally_cache = BoundedCache(32_768, size=len)  # expand_key_into_h's, in terms


def _snake_pieces(d):
    """_special_pieces(d, _snake_predicate) as a tuple, generated instead of
    filtered, and kept in a bounded cache.  e grows one row at a time, below
    top, so e <= d and the anchor row is 0.  Row s is bounded from below by
    every row r < s: no descent e_r > e_s unless d_r > d_s (with e <= d,
    key_poset_leq(e, d)), and no triple, max(e_s + 2, e_r + 1) <= min(d_s,
    d_r).  So the leaf tests only _rows_connected."""
    d = tuple(d)
    pieces = _piece_cache.lookup(d)
    if pieces is not None:
        return pieces
    anchor = _anchor_row(d)
    pieces = []
    if anchor is not None:
        e, top = [0] * len(d), [part + 1 for part in d]
        top[anchor - 1] = 1  # the anchor cell stays in the piece

        def grow(s):
            if s == len(d):
                if _rows_connected(e, d, [r for r in range(s) if e[r] < d[r]]):
                    pieces.append(tuple(e))
                return
            lo = 0
            for r in range(s):
                if d[r] <= d[s]:
                    lo = max(lo, e[r])
                if e[r] < min(d[r], d[s]):
                    lo = max(lo, min(d[r], d[s]) - 1)
            for v in range(lo, top[s]):
                e[s] = v
                grow(s + 1)

        grow(0)
    return _piece_cache.store(d, tuple(pieces))


def special_snakes(b):
    """All (snake, residual shape) pairs for the special snakes of D(b).
    Rejects what as_comp rejects."""
    b = as_comp(b)
    host = key_diagram(b)
    return [(host - key_diagram(e), e) for e in _snake_pieces(b)]


class SnakeTabloid(namedtuple("SnakeTabloid", "shape snakes")):
    """An ordered decomposition of a key diagram into special snakes; the
    ith snake is taken from the residual diagram and is empty exactly when
    residual row i is."""

    __slots__ = ()

    def weight(self):
        return tuple(len(S) for S in self.snakes)

    def sign(self):
        return prod(map(snake_sign, self.snakes))


def tabloid_json_texts(tabloids):
    """Each tabloid's json.dumps(value, sort_keys=True), the value holding
    its shape, snakes as sorted cell lists, weight and sign.  The texts are
    put together from each distinct snake's cell text, sign and size, and
    each distinct shape's text, all worked out once per call."""
    memo, shapes = {}, {}
    for t in tabloids:
        if t.shape not in shapes:
            shapes[t.shape] = json.dumps(list(t.shape))
        cells, sizes, sign = [], [], 1
        for S in t.snakes:
            if S not in memo:
                memo[S] = json.dumps(sorted(map(list, S))), snake_sign(S), str(len(S))
            text, s, size = memo[S]
            cells.append(text)
            sizes.append(size)
            sign *= s
        yield (f'{{"shape": {shapes[t.shape]}, "sign": {sign}, '
               f'"snakes": [{", ".join(cells)}], "weight": [{", ".join(sizes)}]}}')


def _tabloid_sum(shape, steps, blank, cache=None):
    """{sequence: coefficient} over the tabloids of the shape, memoized by
    residual shape d.  steps(d) lists (e, entry, factor) per piece
    D(d) - D(e), which empties d's anchor row: entry goes there in each
    sequence completing e, whose coefficient is multiplied by factor.  A given
    cache keeps each tally across calls, so steps must read d alone; the memo
    keeps every tally the call reads, whatever the cache clears."""
    memo = {(0,) * len(shape): {(blank,) * len(shape): 1}}

    def go(d):
        if d not in memo:
            tally = None if cache is None else cache.lookup(d)
            if tally is None:
                r, tally = _anchor_row(d), {}
                for e, entry, factor in steps(d):
                    for seq, c in go(e).items():
                        seq = seq[:r - 1] + (entry,) + seq[r:]
                        tally[seq] = tally.get(seq, 0) + factor * c
                if cache is not None:
                    cache.store(d, tally)
            memo[d] = tally
        return memo[d]

    return go(tuple(shape))


def _tabloids(shape, pieces):
    """Snake sequences of every tabloid of the shape, depth first: from each
    residual shape d, whose cells are built once, the pieces D(d) - D(e) for
    e in pieces(d)."""
    def steps(d):
        host = key_diagram(d)
        return [(e, host - key_diagram(e), 1) for e in pieces(d)]

    return _tabloid_sum(shape, steps, frozenset())


def enumerate_special_snake_tabloids(b):
    """All special snake tabloids of shape b, depth first in the order the
    snakes are generated."""
    b = as_comp(b)
    return [SnakeTabloid(b, snakes) for snakes in _tabloids(b, _snake_pieces)]


def validate_special_snake_tabloid(b, snakes):
    """Check an explicit snake sequence against the tabloid conditions; the
    ith snake empties residual row i.  Rejects what as_comp rejects of b."""
    b = d = as_comp(b)
    if len(snakes) != len(b):
        return False
    for i, S in enumerate(map(frozenset, snakes), start=1):
        # rows below i are empty: a snake empties row i, and is empty iff d_i is
        e = _complement(S, d) if S <= key_diagram(d) else None
        if e is None or e[i - 1] or S and not (d[i - 1] and _snake_predicate(e, d)):
            return False
        d = e
    return True


def inverse_ktilde(a, b):
    """Signed count of special snake tabloids of shape b and weight a.
    Rejects what as_comp rejects of either."""
    return expand_key_into_h(b).coefficient(as_comp(a))


def expand_key_into_h(b, n=None):
    """Signed expansion of the key polynomial of b in the flagged homogeneous
    basis: the snake tabloids of shape b counted with sign by weight by the sum
    that lists them, without listing them, as Egecioglu and Remmel count rim
    hook tabloids: a piece D(d) - D(e) enters its size sum(d) - sum(e), with
    sign (-1)^(h - 1), h the rows with e_r < d_r.  The terms are copied from
    the tally cache.  Rejects what as_comp(b, n) rejects."""
    def steps(d):
        return [(e, sum(d) - sum(e), (-1) ** (sum(x < y for x, y in zip(e, d)) - 1))
                for e in _snake_pieces(d)]

    return BasisExpansion("h-flagged", _tabloid_sum(as_comp(b, n), steps, 0, _tally_cache))


# ---------------------------------------------------------------------------
# rim hooks (independent oracle on partition shapes)


def is_rim_hook(S, mu):
    """Rim hook of the partition mu, as a subset of the left-justified
    diagram of rev(mu): connected, complement again of that form, and free
    of 2 x 2 blocks.  The empty set is accepted.  Rejects what as_partition
    rejects of mu and cells outside the diagram."""
    shape = as_partition(mu)[::-1]
    e = _complement(frozenset(S), shape)
    return e == shape or e is not None and _rim_hook_predicate(e, shape)


def _rim_hook_predicate(e, d):
    """Rim hook conditions on the piece D(d) - D(e), tested on its cells."""
    if any(e[i] > e[i + 1] for i in range(len(e) - 1)):
        return False
    S = key_diagram(d) - key_diagram(e)
    if len(components(S, connected)) != 1:
        return False
    return not any((c + 1, r) in S and (c, r + 1) in S and (c + 1, r + 1) in S
                   for c, r in S)


def enumerate_special_rim_hook_tabloids(mu):
    """Tabloids of shape rev(mu) whose pieces are special rim hooks; same
    recursion as the snake tabloids with the rim hook conditions instead.
    Rejects what as_partition rejects of mu."""
    shape = as_partition(mu)[::-1]
    return [SnakeTabloid(shape, snakes) for snakes in _tabloids(
        shape, lambda d: _special_pieces(d, _rim_hook_predicate))]


# ---------------------------------------------------------------------------
# fillings carrying a snake of ones, and the sign-reversing involution


def gset_enumerate(S, b):
    """Fillings of D(b) that are 1 on the special snake S and restrict to an
    SSKT in the window len(b) on the complement key diagram.  Rejects what
    as_comp rejects of b."""
    b, S = as_comp(b), frozenset(S)
    a = _special_complement(S, b)
    if a is None:
        raise ValueError("not a special snake of the diagram")
    return [tuple(inner[r] + (1,) * (b[r] - a[r]) for r in range(len(b)))
            for inner in enumerate_fillings(a, len(b), "SSKT")]


def s_attacks(S, rows, b):
    """Ordered attacking pairs (x, y) of equal entry 1 with x in the snake,
    y above x or in the column to its right, and, when the columns differ,
    no snake cell immediately left of y.  Rejects what as_comp rejects of
    b, rows not of shape b and a snake cell outside D(b)."""
    b, S = as_comp(b), frozenset(S)
    if shape_of(rows) != b:
        raise ValueError(f"filling of shape {shape_of(rows)}, not {b}")
    if not S <= key_diagram(b):
        raise ValueError("cells lie outside the key diagram")
    return _attacks(S, rows, b)


def _attacks(S, rows, b):
    """s_attacks of a snake S inside D(b) and rows of shape b, unchecked."""
    out = []
    for cx, rx in sorted(S):
        if rows[rx - 1][cx - 1] != 1:
            continue
        for ry in range(rx + 1, len(b) + 1):
            if b[ry - 1] >= cx and rows[ry - 1][cx - 1] == 1:
                out.append(((cx, rx), (cx, ry)))
        for ry in range(1, rx):
            if b[ry - 1] >= cx + 1 and rows[ry - 1][cx] == 1 and (cx, ry) not in S:
                out.append(((cx, rx), (cx + 1, ry)))
    return out


def in_gset(S, rows, b):
    """Whether (S, rows) lies in the domain of the involution: S a special
    snake of b, rows of shape b, 1 on S, and off S an SSKT in the window
    len(b) on D(e), e the complement_shape of S.  Rejects what
    complement_shape rejects."""
    b = as_comp(b)
    return _in_gset(frozenset(S), rows, b)


def _in_gset(S, rows, b):
    """in_gset of a cell frozenset S, b unchecked."""
    e = _special_complement(S, b)
    if e is None or shape_of(rows) != b or any(rows[r - 1][c - 1] != 1 for c, r in S):
        return False
    return is_member(tuple(row[:k] for row, k in zip(rows, e)), "SSKT", len(b))


def iota(S, rows, b):
    """The involution: flip the block B(y) of the distinguished attack in or
    out of the snake.  x is the rightmost then topmost first cell of an
    attack, y the rightmost then lowest partner of x, and B(y) is y together
    with everything right of it in its row.  The filling is untouched.

    Only defined on pairs where the filling is 1 on the snake, an SSKT off
    it, but not an SSKT outright, and the first part of b is positive.
    """
    b, S = as_comp(b), frozenset(S)
    if not b or b[0] == 0:
        raise ValueError("first part of the shape must be positive")
    if not _in_gset(S, rows, b):
        raise ValueError("pair is outside the domain of the involution")
    attacks = _attacks(S, rows, b)
    if not attacks:
        raise ValueError("no attack found; the filling is an SSKT or outside the domain")
    x = max(xx for xx, _ in attacks)
    cy, ry = max((yy for xx, yy in attacks if xx == x), key=lambda cell: (cell[0], -cell[1]))
    block = frozenset((c, ry) for c in range(cy, b[ry - 1] + 1))
    return S ^ block, rows
