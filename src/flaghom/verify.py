"""Named verification suites behind the command line and the acceptance
tests.  Every suite runs exact checks over an exhaustively enumerated desk
scale range and reports each failing instance."""

import time
from dataclasses import dataclass, field

from . import reference as ref
from .bases import (demazure_atom, h_basis_family, h_flagged,
                    h_flagged_matrix_oracle, h_sym, key_polynomial, kostka,
                    ktilde, ktilde_upper, schur_ssyt)
from .compositions import (compositions_of, dominance_key, key_poset_leq, pad,
                           partitions_of, sort_comp, strip)
from .fillings import (enumerate_fillings, is_member, key_diagram, statistics,
                       weight_of)
from .frsk import (biword_from_matrix, frsk, frsk_inverse,
                   matrix_from_biword, rho, rho_inverse, rsk, tau, tau_dagger)
from .kohnert import (build_Da, diagram_weight, is_southwest, kohnert_closure,
                      kohnert_moves, phi, phi_inverse)
from .permutations import grassmannian_perm
from .polynomials import Poly, express_in_basis
from .schubert import (evaluate_expansion, h_schubert_expansion,
                       schubert_oracle, schubert_product_expansion)
from .snakes import (SnakeTabloid, complement_shape,
                     enumerate_special_rim_hook_tabloids,
                     enumerate_special_snake_tabloids, expand_key_into_h,
                     gset_enumerate, in_gset, iota, is_rim_hook, is_snake,
                     s_attacks, snake_sign, special_snakes,
                     validate_special_snake_tabloid)


@dataclass
class VerifyReport:
    suite: str
    instances: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    def check(self, ok, **detail):
        """Count one instance; a failing one keeps its detail, with each
        polynomial written out only then."""
        self.instances += 1
        if not ok:
            self.failures.append({key: repr(value) if isinstance(value, Poly) else value
                                  for key, value in detail.items()})

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "suite": self.suite,
            "instances": self.instances,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
        }

    def summary(self):
        word = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.suite}: {word} [{self.instances} instances, {self.seconds:.2f}s]"


def _timed(fn):
    def run(n=None, deg=None):
        report = VerifyReport(fn.__name__.removeprefix("suite_").replace("_", "-"))
        start = time.perf_counter()
        fn(report, n, deg)
        report.seconds = time.perf_counter() - start
        return report

    return run


def _all_comps(nmax, degmax, nmin=1):
    for n in range(nmin, nmax + 1):
        for d in range(degmax + 1):
            for a in compositions_of(d, n):
                yield n, a


@_timed
def suite_basis(report, n, deg):
    """Monomial transition matrix of the flagged homogeneous family is upper
    uni-triangular along the dominance extension and integrally invertible."""
    n = 3 if n is None else n
    deg = 4 if deg is None else deg
    for d in range(deg + 1):
        comps = sorted(compositions_of(d, n), key=lambda a: dominance_key(a, n))
        polys = [h_flagged(a, n) for a in comps]
        size = len(comps)
        M = [[polys[i].coefficient(comps[j]) for j in range(size)] for i in range(size)]
        for i in range(size):
            report.check(M[i][i] == 1, degree=d, index=comps[i], expected=1, got=M[i][i])
            for j in range(i):
                report.check(M[i][j] == 0, degree=d, row=comps[i], col=comps[j],
                             expected=0, got=M[i][j])
        # invert by back substitution and confirm an exact integer inverse
        inv = [[int(i == j) for j in range(size)] for i in range(size)]
        for i in range(size - 1, -1, -1):
            for j in range(i + 1, size):
                coef = M[i][j]
                if coef:
                    for t in range(size):
                        inv[i][t] -= coef * inv[j][t]
        for i in range(size):
            for j in range(size):
                prod = sum(M[i][t] * inv[t][j] for t in range(size))
                report.check(prod == int(i == j), degree=d, entry=(i, j),
                             expected=int(i == j), got=prod)


@_timed
def suite_stable_limit(report, n, deg):
    """Prepending enough zeros and killing the late variables recovers the
    symmetric complete homogeneous polynomial of the sorted parts."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    for k, a in _all_comps(nmax, degmax):
        if sum(1 for p in a if p) > 2:
            continue
        padded = (0,) * k + a
        got = h_flagged(padded, 2 * k).restrict_vars(k)
        want = h_sym(sort_comp(a), k)
        report.check(got == want, a=a, k=k, expected=want, got=got)


@_timed
def suite_kohnert(report, n, deg):
    """Closure weight sums match the flagged homogeneous element; the matrix
    encoding and its inverse round-trip on every closure element."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    for k, a in _all_comps(nmax, degmax):
        D = build_Da(a, k)
        report.check(is_southwest(D), a=a, expected="southwest", got="not southwest")
        closure = kohnert_closure(D)
        poly = Poly.from_terms((diagram_weight(T), 1) for T in closure)
        for T in closure:
            L = phi(T, a)
            report.check(tuple(sum(row) for row in L) == a, a=a, kind="row sums",
                         expected=a, got=tuple(sum(row) for row in L))
            back = phi_inverse(L, a)
            report.check(back == T, a=a, matrix=L, expected=sorted(T), got=sorted(back))
        want = h_flagged(a, k)
        report.check(poly == want, a=a, expected=want, got=poly)


@_timed
def suite_key_atom(report, n, deg):
    """Both nonnegative expansions recombine to the flagged homogeneous
    element: key polynomials against the skyline counts, atoms against the
    reversed counts."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    for k, b in _all_comps(nmax, degmax):
        want = h_flagged(b, k)
        counts = [(a, ktilde(a, b), ktilde_upper(a, b)) for a in compositions_of(sum(b), k)]
        for a, c1, c2 in counts:
            report.check(c1 >= 0 and c2 >= 0, a=a, b=b, got=(c1, c2))
        via_keys = Poly.from_terms((e, c1 * c) for a, c1, _ in counts if c1
                                   for e, c in key_polynomial(a, k).terms.items())
        via_atoms = Poly.from_terms((e, c2 * c) for a, _, c2 in counts if c2
                                    for e, c in demazure_atom(a, k).terms.items())
        report.check(via_keys == want, b=b, basis="key", expected=want, got=via_keys)
        report.check(via_atoms == want, b=b, basis="atom", expected=want, got=via_atoms)


@_timed
def suite_kostka(report, n, deg):
    """The skyline counts refine the classical Kostka numbers, and the
    partition-indexed reversed counts equal them."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    for d in range(degmax + 1):
        for lam in partitions_of(d):
            if len(lam) > nmax:
                continue
            for nb in range(1, nmax + 1):
                for b in compositions_of(d, nb):
                    want = kostka(lam, b)
                    width = max(nb, len(lam))
                    got = sum(
                        ktilde(a, b)
                        for a in compositions_of(d, width)
                        if sort_comp(a) == pad(lam, width)
                    )
                    report.check(got == want, lam=lam, b=b, kind="refinement",
                                 expected=want, got=got)
                    got2 = ktilde_upper(lam, b)
                    report.check(got2 == want, lam=lam, b=b, kind="partition-index",
                                 expected=want, got=got2)


@_timed
def suite_cauchy(report, n, deg):
    """Truncated two-alphabet identity: lower triangular matrices on one
    side, skyline pairs of a common shape on the other, degree by degree."""
    n = 3 if n is None else n
    deg = 4 if deg is None else deg
    # x^(row sums) y^(column sums) over lower triangular matrices
    lhs = Poly.from_terms(
        (rows + pad(cols, n), coef)
        for d in range(deg + 1)
        for rows in compositions_of(d, n)
        for cols, coef in h_flagged_matrix_oracle(rows).terms.items())
    products = []
    for d in range(deg + 1):
        for a in compositions_of(d, n):
            gen = Poly.from_terms((weight_of(rows, n), 1)
                                  for rows in enumerate_fillings(a, n, "rSSAF"))
            key_y = Poly.from_terms(((0,) * n + pad(e, n), coef)
                                    for e, coef in key_polynomial(a, n).terms.items())
            products.append(gen * key_y)
    rhs = Poly.from_terms(term for p in products for term in p.terms.items())
    for d in range(deg + 1):
        left = lhs.homogeneous_part(2 * d)
        right = rhs.homogeneous_part(2 * d)
        report.check(left == right, degree=d, expected=left, got=right)


@_timed
def suite_frsk(report, n, deg):
    """Exhaustive checks of the flagged correspondence against the classical
    one on small lower triangular matrices, plus the pinned example."""
    n = 3 if n is None else n
    deg = 4 if deg is None else deg
    matrices = []

    # all lower triangular n x n matrices with entry sum <= deg
    slots = [(i, j) for i in range(n) for j in range(i + 1)]

    def gen(idx, left, acc):
        if idx == len(slots):
            M = [[0] * n for _ in range(n)]
            for (i, j), v in zip(slots, acc):
                M[i][j] = v
            matrices.append(tuple(tuple(r) for r in M))
            return
        for v in range(left + 1):
            gen(idx + 1, left - v, acc + [v])

    gen(0, deg, [])
    for L in matrices:
        S, T = frsk(L)
        report.check(is_member(S, "SSKT", n) and is_member(T, "rSSAF", n),
                     L=L, got="image not a valid pair")
        report.check(weight_of(S, n) == tuple(sum(row[j] for row in L) for j in range(n)),
                     L=L, kind="column weights", got=weight_of(S, n))
        report.check(weight_of(T, n) == tuple(sum(row) for row in L),
                     L=L, kind="row weights", got=weight_of(T, n))
        P, Q = rsk(L)
        images = (tau(S), rho(T))
        report.check(images == (P, Q), L=L, kind="column-set embedding",
                     expected=(P, Q), got=images)
        inverse = frsk_inverse(S, T)
        report.check(inverse == L, L=L, kind="round trip", got=inverse)
        # left inverse through the classical pair
        shp = tuple(len(r) for r in rho_inverse(Q, n))
        back = (tau_dagger(P, shp), rho_inverse(Q, n))
        report.check(back == (S, T), L=L, kind="left inverse", got=back)
    # pinned thirteen-letter example
    M = matrix_from_biword(list(zip(ref.BIWORD_TOP, ref.BIWORD_BOTTOM)), 7)
    S, T = frsk(M)
    report.check((S, T) == (ref.SSKT_FIG, ref.RSSAF_FIG), kind="pinned flagged pair",
                 expected=(ref.SSKT_FIG, ref.RSSAF_FIG), got=(S, T))
    P, Q = rsk(M)
    report.check((P, Q) == (ref.P_FIG, ref.Q_FIG), kind="pinned classical pair",
                 expected=(ref.P_FIG, ref.Q_FIG), got=(P, Q))


@_timed
def suite_snakes(report, n, deg):
    """Signed tabloid expansion inverts the skyline counts, elementwise and
    as matrices."""
    nmax = 3 if n is None else n
    degmax = 5 if deg is None else deg
    inverse = {}
    for k, b in _all_comps(nmax, degmax):
        inverse[b] = expand_key_into_h(b)
        want = key_polynomial(b, k)
        got = Poly.from_terms((e, coef * c) for a, coef in inverse[b].terms.items()
                              for e, c in h_flagged(pad(a, k), k).terms.items())
        report.check(got == want, b=b, expected=want, got=got)
    for d in range(min(degmax, 4) + 1):
        comps = list(compositions_of(d, nmax))
        K = [[ktilde(c, a) for a in comps] for c in comps]
        Kinv = [[inverse[b].coefficient(a) for b in comps] for a in comps]
        for i in range(len(comps)):
            for j in range(len(comps)):
                prod = sum(K[i][t] * Kinv[t][j] for t in range(len(comps)))
                report.check(prod == int(i == j), degree=d,
                             c=comps[i], b=comps[j], expected=int(i == j), got=prod)


@_timed
def suite_cancelfree(report, n, deg):
    """On reversed partition shapes every weight class holds at most one
    tabloid, and the rim hook recursion produces identical signed counts."""
    degmax = 6 if deg is None else deg
    for d in range(1, degmax + 1):
        for mu in partitions_of(d):
            shape = tuple(reversed(mu))
            snake_tabs = enumerate_special_snake_tabloids(shape)
            weights = {}
            for U in snake_tabs:
                weights.setdefault(strip(U.weight()), []).append(U.sign())
            for w, signs in weights.items():
                report.check(len(signs) == 1, mu=mu, weight=w,
                             expected="one tabloid", got=len(signs))
            hook_tabs = enumerate_special_rim_hook_tabloids(mu)
            hw = {}
            for U in hook_tabs:
                hw[strip(U.weight())] = hw.get(strip(U.weight()), 0) + U.sign()
            sw = {w: sum(s) for w, s in weights.items()}
            report.check(hw == sw, mu=mu, kind="rim hook cross-check",
                         expected=sw, got=hw)
    left = SnakeTabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_LEFT)
    right = SnakeTabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_RIGHT)
    report.check(
        validate_special_snake_tabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_LEFT)
        and validate_special_snake_tabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_RIGHT),
        kind="pinned pair valid", got="invalid tabloid")
    report.check(
        sort_comp(left.weight()) == sort_comp(right.weight())
        and strip(left.weight()) != strip(right.weight()),
        kind="sorted equal, distinct weights",
        got=(left.weight(), right.weight()))


@_timed
def suite_involution(report, n, deg):
    """The block flip is a sign-reversing, filling-preserving involution and
    the signed sum over snake-decorated fillings is the key polynomial."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    for k, b in _all_comps(nmax, degmax):
        if not b or b[0] == 0 or sum(b) == 0:
            continue
        terms = []
        for S, _shape in special_snakes(b):
            for rows in gset_enumerate(S, b, k):
                terms.append((weight_of(rows, k), snake_sign(S)))
                if is_member(rows, "SSKT", k):
                    continue
                S2, rows2 = iota(S, rows, b, k)
                report.check(rows2 == rows, b=b, kind="filling preserved", got=rows2)
                report.check(snake_sign(S2) == -snake_sign(S), b=b,
                             kind="sign reversed", got=snake_sign(S2))
                report.check(in_gset(S2, rows, b, k) and not is_member(rows, "SSKT", k),
                             b=b, kind="stays in domain", got=(S2, rows))
                S3, _ = iota(S2, rows, b, k)
                report.check(S3 == S, b=b, kind="involution", expected=S, got=S3)
                report.check(
                    sorted(s_attacks(S, rows, b)) == sorted(s_attacks(S2, rows, b)),
                    b=b, kind="attack set invariant", got=None)
        signed = Poly.from_terms(terms)
        want = key_polynomial(b, k)
        report.check(signed == want, b=b, kind="signed sum", expected=want, got=signed)


@_timed
def suite_schubert(report, n, deg):
    """Chain counts recombine to the flagged homogeneous element through the
    divided-difference oracle, and products stay nonnegative."""
    nmax = 3 if n is None else n
    degmax = 4 if deg is None else deg
    h = {b: h_flagged(b, k) for k, b in _all_comps(nmax, degmax)}
    for k, b in _all_comps(nmax, degmax):
        exp = h_schubert_expansion(b)
        report.check(all(c >= 0 for c in exp.values()), b=b, kind="nonnegative",
                     got={w: c for w, c in exp.items() if c < 0})
        got = evaluate_expansion(exp, k + degmax + 1)
        want = h[b]
        report.check(got == want, b=b, kind="recombination", expected=want, got=got)
    # one-row elements are single Schubert polynomials
    for m in range(1, degmax + 1):
        for k in range(1, nmax + 1):
            want = h_flagged((0,) * (k - 1) + (m,), k)
            v = grassmannian_perm((m,), k)
            got = schubert_oracle(v, max(k, len(v)))
            report.check(got == want, m=m, k=k, kind="one-row grassmannian",
                         expected=want, got=got)
    # pairwise products
    seen = set()
    for k1, a in _all_comps(nmax, degmax):
        for k2, b in _all_comps(nmax, degmax):
            if sum(a) + sum(b) > degmax or (a, b) in seen:
                continue
            seen.add((a, b))
            exp = schubert_product_expansion(a, b)
            report.check(all(c >= 0 for c in exp.values()), a=a, b=b,
                         kind="product nonnegative", got=None)
            got = evaluate_expansion(exp, k1 + k2 + degmax + 1)
            want = h[a] * h[b]
            report.check(got == want, a=a, b=b, kind="product recombination",
                         expected=want, got=got)


@_timed
def suite_regressions(report, n, deg):
    """Replay of every pinned reference value."""
    from .bases import h_complete

    checks = []

    def add(name, ok, expected=None, got=None):
        checks.append((name, ok, expected, got))

    # transition identities
    h11 = h_complete(1, 2) * h_complete(1, 2)
    got = express_in_basis(h11, h_basis_family([2], 2))
    add("square of degree-one symmetric element", got == {(0, 2): 1, (1, 1): 1, (2,): -1},
        {(0, 2): 1, (1, 1): 1, (2,): -1}, got)
    sq = h_flagged((0, 1)) * h_flagged((0, 1))
    got = express_in_basis(sq, h_basis_family([2], 2))
    add("square of the (0,1) element", got == {(0, 2): 1, (1, 1): 1, (2,): -1},
        {(0, 2): 1, (1, 1): 1, (2,): -1}, got)

    # key poset comparisons
    add("poset comparison holds", key_poset_leq(*ref.POSET_LEQ), True, False)
    add("poset comparison fails", not key_poset_leq(*ref.POSET_NOT_LEQ), True, False)

    # key diagram of the display shape
    add("key diagram cell count", len(key_diagram(ref.SHAPE_A)) == 13, 13,
        len(key_diagram(ref.SHAPE_A)))

    # the pinned fillings and their statistics
    st = statistics(ref.SSKT_FIG, 7)
    add("pinned SSKT statistics", (st.maj, st.coinv, st.attacking_violations) == (0, 0, 0),
        (0, 0, 0), (st.maj, st.coinv, st.attacking_violations))
    st = statistics(ref.RSSAF_FIG, 7)
    add("pinned rSSAF statistics", (st.comaj, st.inv, st.attacking_violations) == (0, 0, 0),
        (0, 0, 0), (st.comaj, st.inv, st.attacking_violations))
    add("pinned SSKT membership", is_member(ref.SSKT_FIG, "SSKT", 7), True, False)
    add("pinned rSSAF membership", is_member(ref.RSSAF_FIG, "rSSAF", 7), True, False)
    add("pinned reverse tableau membership", is_member(ref.P_FIG, "rSSYT"), True, False)

    # one-column key polynomial equals the degree-one Schur polynomial
    add("single-cell key polynomial", key_polynomial((0, 1), 2) == schur_ssyt((1,), 2),
        schur_ssyt((1,), 2), key_polynomial((0, 1), 2))
    for lam, k in [((2,), 2), ((1, 1), 2), ((2, 1), 3)]:
        got = key_polynomial(tuple(reversed(pad(lam, k))), k)
        want = schur_ssyt(lam, k)
        add(f"reversed partition key = Schur {lam} n={k}", got == want, want, got)

    # biword and matrix encoding round trip
    pairs = list(zip(ref.BIWORD_TOP, ref.BIWORD_BOTTOM))
    M = matrix_from_biword(pairs, 7)
    add("matrix-biword round trip", biword_from_matrix(M) == pairs, pairs,
        biword_from_matrix(M))

    # the four pinned tableaux
    S, T = frsk(M)
    add("flagged image of the pinned biword", (S, T) == (ref.SSKT_FIG, ref.RSSAF_FIG),
        (ref.SSKT_FIG, ref.RSSAF_FIG), (S, T))
    P, Q = rsk(M)
    add("classical image of the pinned biword", (P, Q) == (ref.P_FIG, ref.Q_FIG),
        (ref.P_FIG, ref.Q_FIG), (P, Q))

    # insertion traces
    from .frsk import flagged_insert_trace, rsk_insert_trace
    out, chain = rsk_insert_trace(ref.P_BEFORE, 3)
    add("classical insertion trace", (out, chain) == (ref.P_FIG, ref.P_CHAIN),
        (ref.P_FIG, ref.P_CHAIN), (out, chain))
    out, chain = flagged_insert_trace(ref.SSKT_BEFORE, 3, 7)
    add("flagged insertion trace", (out, chain) == (ref.SSKT_FIG, ref.SSKT_CHAIN),
        (ref.SSKT_FIG, ref.SSKT_CHAIN), (out, chain))
    out, chain = flagged_insert_trace(((1,), (2,), ()), 3, 3)
    add("one-iteration insertion", (out, len(chain)) == (((1,), (2,), (3,)), 1),
        (((1,), (2,), (3,)), 1), (out, len(chain)))

    # column-set maps on the pinned pair
    add("column stack of the pinned SSKT", tau(ref.SSKT_FIG) == ref.P_FIG,
        ref.P_FIG, tau(ref.SSKT_FIG))
    add("column stack of the pinned rSSAF", rho(ref.RSSAF_FIG) == ref.Q_FIG,
        ref.Q_FIG, rho(ref.RSSAF_FIG))
    add("column unstack to the pinned SSKT",
        tau_dagger(ref.P_FIG, ref.SHAPE_A) == ref.SSKT_FIG,
        ref.SSKT_FIG, tau_dagger(ref.P_FIG, ref.SHAPE_A))
    add("column unstack to the pinned rSSAF",
        rho_inverse(ref.Q_FIG, 7) == ref.RSSAF_FIG,
        ref.RSSAF_FIG, rho_inverse(ref.Q_FIG, 7))

    # staircase diagram and moves
    add("staircase diagram cells", build_Da(ref.SHAPE_A) == ref.DA_CELLS,
        sorted(ref.DA_CELLS), sorted(build_Da(ref.SHAPE_A)))
    moves = kohnert_moves(ref.KOHNERT_START)
    add("three moves", moves == ref.KOHNERT_RESULTS,
        sorted(map(sorted, ref.KOHNERT_RESULTS)), sorted(map(sorted, moves)))

    # snakes, rim hooks, tabloids
    add("pinned snake", is_snake(ref.SNAKE_CELLS, ref.SHAPE_B), True, False)
    add("pinned rim hook", is_rim_hook(ref.RIMHOOK_CELLS, ref.RIMHOOK_MU), True, False)
    for d in range(1, 7):
        for mu in partitions_of(d):
            host = key_diagram(tuple(reversed(mu)))
            cells = sorted(host)
            agree = True
            for mask in range(1 << len(cells)):
                S = frozenset(cells[t] for t in range(len(cells)) if mask >> t & 1)
                if is_snake(S, tuple(reversed(mu))) != is_rim_hook(S, mu):
                    agree = False
                    break
            add(f"snake = rim hook on {mu}", agree, True, False)
    UA = SnakeTabloid(ref.SHAPE_B, ref.TABLOID_A)
    UB = SnakeTabloid(ref.SHAPE_B, ref.TABLOID_B)
    add("first pinned tabloid",
        validate_special_snake_tabloid(ref.SHAPE_B, ref.TABLOID_A)
        and UA.weight() == ref.TABLOID_A_WEIGHT and UA.sign() == ref.TABLOID_A_SIGN,
        (ref.TABLOID_A_WEIGHT, ref.TABLOID_A_SIGN), (UA.weight(), UA.sign()))
    add("second pinned tabloid",
        validate_special_snake_tabloid(ref.SHAPE_B, ref.TABLOID_B)
        and UB.weight() == ref.TABLOID_B_WEIGHT and UB.sign() == ref.TABLOID_B_SIGN,
        (ref.TABLOID_B_WEIGHT, ref.TABLOID_B_SIGN), (UB.weight(), UB.sign()))
    UL = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
    UR = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
    add("cancelling pair",
        validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
        and validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
        and UL.weight() == UR.weight() == (5, 4, 0) and UL.sign() == -UR.sign(),
        "same weight, opposite signs", (UL.weight(), UL.sign(), UR.weight(), UR.sign()))

    # snake-decorated fillings and the involution
    add("pinned decorated filling",
        in_gset(ref.ALMOST_SNAKE, ref.ALMOST_SSKT, ref.SHAPE_B, 7), True, False)
    atts = s_attacks(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B)
    x = max((xx for xx, _ in atts), key=lambda cell: (cell[0], cell[1]))
    add("pinned attack and its first cell", bool(atts) and x == ref.INVOLUTION_X,
        ref.INVOLUTION_X, x)
    S2, _ = iota(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B, 7)
    S3, _ = iota(ref.INVOLUTION_LARGE, ref.INVOLUTION_T, ref.SHAPE_B, 7)
    add("pinned involution pair", S2 == ref.INVOLUTION_LARGE and S3 == ref.INVOLUTION_SMALL,
        (sorted(ref.INVOLUTION_LARGE), sorted(ref.INVOLUTION_SMALL)),
        (sorted(S2), sorted(S3)))

    # weakly connected components illustration
    from .snakes import weakly_connected_components
    comps = weakly_connected_components(ref.CONNECTED_CELLS)
    add("component decomposition",
        sorted(map(sorted, comps)) == sorted(map(sorted, ref.CONNECTED_COMPONENTS)),
        sorted(map(sorted, ref.CONNECTED_COMPONENTS)), sorted(map(sorted, comps)))

    # classical Kostka bridges on the partition index and by sorting
    for lam, b in [((2,), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, 1, 1))]:
        add(f"partition-indexed count {lam} {b}", ktilde_upper(lam, b) == kostka(lam, b),
            kostka(lam, b), ktilde_upper(lam, b))
        width = max(len(lam), len(b))
        refined = sum(
            ktilde(a, b)
            for a in compositions_of(sum(b), width)
            if sort_comp(a) == pad(lam, width)
        )
        add(f"sorted refinement {lam} {b}", refined == kostka(lam, b),
            kostka(lam, b), refined)

    # snake-decorated fillings sum to a shifted key polynomial
    for b, S in [((2, 1), frozenset({(1, 1), (2, 1)})),
                 ((2, 1), frozenset({(1, 1), (2, 1), (1, 2)}))]:
        gen = Poly.from_terms((weight_of(rows, len(b)), 1)
                              for rows in gset_enumerate(S, b, len(b)))
        rest = pad(complement_shape(S, b), len(b))
        want = Poly.variable(1) ** len(S) * key_polynomial(rest, len(b))
        add(f"decorated generating function {b} {sorted(S)}", gen == want, want, gen)

    for name, ok, expected, got in checks:
        report.check(ok, name=name, expected=expected, got=got)


SUITES = {
    "basis": suite_basis,
    "stable-limit": suite_stable_limit,
    "kohnert": suite_kohnert,
    "key-atom": suite_key_atom,
    "kostka": suite_kostka,
    "cauchy": suite_cauchy,
    "frsk": suite_frsk,
    "snakes": suite_snakes,
    "cancelfree": suite_cancelfree,
    "involution": suite_involution,
    "schubert": suite_schubert,
    "regressions": suite_regressions,
}


def run_suite(name, n=None, deg=None):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](n=n, deg=deg)
