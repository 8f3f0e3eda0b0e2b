"""Named verification suites behind the command line and the acceptance
tests.  Every suite runs exact checks over an exhaustively enumerated desk
scale range and reports each failing instance."""

import time
from functools import cache
from itertools import permutations

from . import reference as ref
from .bases import (_atom_counts, _key_counts, demazure_atom, h_basis_family,
                    h_complete, h_flagged, h_flagged_matrix_oracle, h_sym,
                    key_polynomial, kostka, ktilde, ktilde_upper, schur_ssyt)
from .compositions import (as_int, compositions_of, dominance_key, key_poset_leq,
                           pad, partitions_of, sort_comp, strip)
from .fillings import (enumerate_fillings, is_member, key_diagram, statistics,
                       weight_of)
from .frsk import (biword_from_matrix, flagged_insert_trace, frsk,
                   frsk_inverse, matrix_from_biword, rho, rho_inverse, rsk,
                   rsk_insert_trace, tau, tau_dagger)
from .kohnert import (build_Da, diagram_weight, is_southwest, kohnert_closure,
                      kohnert_moves, phi, phi_inverse)
from .permutations import grassmannian_perm
from .polynomials import Poly, express_in_basis
from .schubert import (evaluate_expansion, h_schubert_expansion, pieri_chain,
                       schubert_oracle)
from .snakes import (SnakeTabloid, complement_shape,
                     enumerate_special_rim_hook_tabloids,
                     enumerate_special_snake_tabloids, expand_key_into_h,
                     gset_enumerate, in_gset, iota, is_rim_hook, is_snake,
                     s_attacks, snake_sign, special_snakes,
                     validate_special_snake_tabloid,
                     weakly_connected_components)


class VerifyReport:
    def __init__(self, suite):
        self.suite, self.instances, self.failures, self.seconds = suite, 0, [], 0.0

    def check(self, ok, **detail):
        """Count one instance; a failing one keeps its detail, with each
        polynomial written out only then."""
        self.instances += 1
        if not ok:
            self.failures.append({key: repr(value) if isinstance(value, Poly) else value
                                  for key, value in detail.items()})

    def equal(self, expected, got, **detail):
        """Check that got equals expected; a failure keeps the detail, then
        both values."""
        self.check(got == expected, **detail, expected=expected, got=got)

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


def _timed(n_default=None, deg_default=None):
    """Make a suite a timed run that takes n >= 1 and deg >= 0, each
    defaulting to the suite's own range; a suite without a range for one
    refuses it."""
    def wrap(fn):
        def run(n=None, deg=None):
            report = VerifyReport(fn.__name__.removeprefix("suite_").replace("_", "-"))
            for option, value, least in (("n", n, 1), ("deg", deg, 0)):
                if value is None:
                    continue
                if option not in run.options:
                    raise ValueError(f"suite {report.suite} does not read --{option}")
                as_int(value, least, f"--{option}")
            start = time.perf_counter()
            fn(report, n_default if n is None else n, deg_default if deg is None else deg)
            report.seconds = time.perf_counter() - start
            return report

        run.options = {name for name, default in (("n", n_default), ("deg", deg_default))
                       if default is not None}
        return run

    return wrap


def _all_comps(nmax, degmax):
    for n in range(1, nmax + 1):
        for d in range(degmax + 1):
            for a in compositions_of(d, n):
                yield n, a


def _check_inverse(report, A, B, where):
    """Check that the square matrices A and B multiply to the identity;
    where(i, j) is the detail of entry (i, j)."""
    size = len(A)
    for i in range(size):
        for j in range(size):
            report.equal(int(i == j), sum(A[i][t] * B[t][j] for t in range(size)),
                         **where(i, j))


def _sorted_refinement(lam, b):
    """The skyline counts ktilde(a, b) summed over the distinct
    rearrangements a of the partition lam."""
    return sum(ktilde(a, b) for a in set(permutations(pad(lam, max(len(lam), len(b))))))


@_timed(3, 4)
def suite_basis(report, n, deg):
    """Monomial transition matrix of the flagged homogeneous family is upper
    uni-triangular along the dominance extension and integrally invertible."""
    for d in range(deg + 1):
        comps = sorted(compositions_of(d, n), key=lambda a: dominance_key(a, n))
        polys = [h_flagged(a, n) for a in comps]
        size = len(comps)
        M = [[polys[i].coefficient(comps[j]) for j in range(size)] for i in range(size)]
        for i in range(size):
            report.equal(1, M[i][i], degree=d, index=comps[i])
            for j in range(i):
                report.equal(0, M[i][j], degree=d, row=comps[i], col=comps[j])
        # invert by back substitution and confirm an exact integer inverse
        inv = [[int(i == j) for j in range(size)] for i in range(size)]
        for i in range(size - 1, -1, -1):
            for j in range(i + 1, size):
                coef = M[i][j]
                if coef:
                    for t in range(size):
                        inv[i][t] -= coef * inv[j][t]
        _check_inverse(report, M, inv, lambda i, j: {"degree": d, "entry": (i, j)})


@_timed(3, 4)
def suite_stable_limit(report, n, deg):
    """Prepending enough zeros and killing the late variables recovers the
    symmetric complete homogeneous polynomial of the sorted parts."""
    for k, a in _all_comps(n, deg):
        if sum(1 for p in a if p) > 2:
            continue
        got = h_flagged((0,) * k + a, 2 * k).restrict_vars(k)
        report.equal(h_sym(sort_comp(a), k), got, a=a, k=k)


@_timed(3, 4)
def suite_kohnert(report, n, deg):
    """Closure weight sums match the flagged homogeneous element; the matrix
    encoding and its inverse round-trip on every closure element."""
    for k, a in _all_comps(n, deg):
        D = build_Da(a, k)
        report.check(is_southwest(D), a=a, expected="southwest", got="not southwest")
        closure = kohnert_closure(D)
        poly = Poly.from_terms((diagram_weight(T), 1) for T in closure)
        for T in closure:
            L = phi(T, a)
            report.equal(a, tuple(sum(row) for row in L), a=a, kind="row sums")
            back = phi_inverse(L, a)
            report.check(back == T, a=a, matrix=L, expected=sorted(T), got=sorted(back))
        report.equal(h_flagged(a, k), poly, a=a)


@_timed(3, 4)
def suite_key_atom(report, n, deg):
    """Both nonnegative expansions recombine to the flagged homogeneous
    element: key polynomials against the skyline counts, atoms against the
    reversed counts.  The one-sweep expansions match those per-shape counts."""
    key_of, atom_of = cache(key_polynomial), cache(demazure_atom)  # shared across b
    for k, b in _all_comps(n, deg):
        want = h_flagged(b, k)
        keys = _key_counts(b, k)
        atoms = _atom_counts(keys)
        counts = [(a, ktilde(a, b), ktilde_upper(a, b)) for a in compositions_of(sum(b), k)]
        for a, c1, c2 in counts:
            report.equal((c1, c2), (keys[a], atoms[a]), a=a, b=b)
        via_keys = Poly.from_terms((e, c1 * c) for a, c1, _ in counts if c1
                                   for e, c in key_of(a, k).terms.items())
        via_atoms = Poly.from_terms((e, c2 * c) for a, _, c2 in counts if c2
                                    for e, c in atom_of(a, k).terms.items())
        report.equal(want, via_keys, b=b, basis="key")
        report.equal(want, via_atoms, b=b, basis="atom")


@_timed(3, 4)
def suite_kostka(report, n, deg):
    """The skyline counts refine the classical Kostka numbers, and the
    partition-indexed reversed counts equal them."""
    for d in range(deg + 1):
        for lam in partitions_of(d):
            if len(lam) > n:
                continue
            for nb in range(1, n + 1):
                for b in compositions_of(d, nb):
                    want = kostka(lam, b)
                    report.equal(want, _sorted_refinement(lam, b), lam=lam, b=b,
                                 kind="refinement")
                    report.equal(want, ktilde_upper(lam, b), lam=lam, b=b,
                                 kind="partition-index")


@_timed(3, 4)
def suite_cauchy(report, n, deg):
    """Truncated two-alphabet identity: lower triangular matrices on one
    side, skyline pairs of a common shape on the other, degree by degree."""
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
        report.equal(lhs.homogeneous_part(2 * d), rhs.homogeneous_part(2 * d), degree=d)


@_timed(3, 4)
def suite_frsk(report, n, deg):
    """Exhaustive checks of the flagged correspondence against the classical
    one on small lower triangular matrices, plus the pinned example."""
    # every lower triangular n x n matrix of entry sum <= deg, its entries
    # read row by row
    for d in range(deg + 1):
        for entries in compositions_of(d, n * (n + 1) // 2):
            it = iter(entries)
            L = tuple(tuple(next(it) if j <= i else 0 for j in range(n)) for i in range(n))
            S, T = frsk(L)
            report.check(is_member(S, "SSKT", n) and is_member(T, "rSSAF", n),
                         L=L, got="image not a valid pair")
            report.equal(tuple(sum(row[j] for row in L) for j in range(n)), weight_of(S, n),
                         L=L, kind="column weights")
            report.equal(tuple(sum(row) for row in L), weight_of(T, n),
                         L=L, kind="row weights")
            P, Q = rsk(L)
            report.equal((P, Q), (tau(S), rho(T)), L=L, kind="column-set embedding")
            inverse = frsk_inverse(S, T)
            report.check(inverse == L, L=L, kind="round trip", got=inverse)
            # left inverse through the classical pair
            T2 = rho_inverse(Q, n)
            report.equal((S, T), (tau_dagger(P, tuple(map(len, T2))), T2),
                         L=L, kind="left inverse")
    # pinned thirteen-letter example
    M = matrix_from_biword(list(zip(ref.BIWORD_TOP, ref.BIWORD_BOTTOM)), 7)
    report.equal((ref.SSKT_FIG, ref.RSSAF_FIG), frsk(M), kind="pinned flagged pair")
    report.equal((ref.P_FIG, ref.Q_FIG), rsk(M), kind="pinned classical pair")


@_timed(3, 5)
def suite_snakes(report, n, deg):
    """Signed tabloid expansion inverts the skyline counts, elementwise and
    as matrices."""
    inverse = {}
    for k, b in _all_comps(n, deg):
        inverse[b] = expand_key_into_h(b)
        report.equal(key_polynomial(b, k),
                     Poly.from_terms((e, coef * c) for a, coef in inverse[b].terms.items()
                                     for e, c in h_flagged(pad(a, k), k).terms.items()),
                     b=b)
    for d in range(min(deg, 4) + 1):
        comps = list(compositions_of(d, n))
        K = [[ktilde(c, a) for a in comps] for c in comps]
        Kinv = [[inverse[b].coefficient(a) for b in comps] for a in comps]
        _check_inverse(report, K, Kinv,
                       lambda i, j: {"degree": d, "c": comps[i], "b": comps[j]})


@_timed(deg_default=6)
def suite_cancelfree(report, n, deg):
    """On reversed partition shapes every weight class holds at most one
    tabloid, and the rim hook recursion produces identical signed counts."""
    for d in range(1, deg + 1):
        for mu in partitions_of(d):
            weights = {}
            for U in enumerate_special_snake_tabloids(tuple(reversed(mu))):
                weights.setdefault(strip(U.weight()), []).append(U.sign())
            for w, signs in weights.items():
                report.check(len(signs) == 1, mu=mu, weight=w,
                             expected="one tabloid", got=len(signs))
            hw = {}
            for U in enumerate_special_rim_hook_tabloids(mu):
                w = strip(U.weight())
                hw[w] = hw.get(w, 0) + U.sign()
            report.equal({w: sum(s) for w, s in weights.items()}, hw,
                         mu=mu, kind="rim hook cross-check")
    report.check(
        validate_special_snake_tabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_LEFT)
        and validate_special_snake_tabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_RIGHT),
        kind="pinned pair valid", got="invalid tabloid")
    left = SnakeTabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_LEFT).weight()
    right = SnakeTabloid(ref.NONCANCEL_SHAPE, ref.NONCANCEL_RIGHT).weight()
    report.check(sort_comp(left) == sort_comp(right) and strip(left) != strip(right),
                 kind="sorted equal, distinct weights", got=(left, right))


@_timed(3, 4)
def suite_involution(report, n, deg):
    """The block flip is a sign-reversing, filling-preserving involution and
    the signed sum over snake-decorated fillings is the key polynomial."""
    for k, b in _all_comps(n, deg):
        if not b or b[0] == 0 or sum(b) == 0:
            continue
        terms = []
        for S, _shape in special_snakes(b):
            for rows in gset_enumerate(S, b):
                terms.append((weight_of(rows, k), snake_sign(S)))
                if is_member(rows, "SSKT", k):
                    continue
                S2, rows2 = iota(S, rows, b)
                report.equal(rows, rows2, b=b, kind="filling preserved")
                report.equal(-snake_sign(S), snake_sign(S2), b=b, kind="sign reversed")
                report.check(in_gset(S2, rows, b), b=b, kind="stays in domain",
                             got=(S2, rows))
                S3, _ = iota(S2, rows, b)
                report.equal(S, S3, b=b, kind="involution")
                report.equal(sorted(s_attacks(S, rows, b)), sorted(s_attacks(S2, rows, b)),
                             b=b, kind="attack set invariant")
        signed = Poly.from_terms(terms)
        report.equal(key_polynomial(b, k), signed, b=b, kind="signed sum")


@_timed(3, 4)
def suite_schubert(report, n, deg):
    """Chain counts recombine to the flagged homogeneous element through the
    divided-difference oracle, and products stay nonnegative."""
    comps = list(_all_comps(n, deg))
    h = {b: h_flagged(b, k) for k, b in comps}
    exps = {}
    for k, b in comps:
        exp = exps[b] = h_schubert_expansion(b)
        report.check(all(c >= 0 for c in exp.values()), b=b, kind="nonnegative",
                     got={w: c for w, c in exp.items() if c < 0})
        report.equal(h[b], evaluate_expansion(exp, k + deg + 1), b=b, kind="recombination")
    # one-row elements are single Schubert polynomials
    for m in range(1, deg + 1):
        for k in range(1, n + 1):
            want = h_flagged((0,) * (k - 1) + (m,), k)
            v = grassmannian_perm((m,), k)
            report.equal(want, schubert_oracle(v, max(k, len(v))), m=m, k=k,
                         kind="one-row grassmannian")
    # pairwise products
    for k1, a in comps:
        for k2, b in comps:
            if sum(a) + sum(b) > deg:
                continue
            exp = pieri_chain(exps[a], b)
            report.check(all(c >= 0 for c in exp.values()), a=a, b=b,
                         kind="product nonnegative", got=None)
            report.equal(h[a] * h[b], evaluate_expansion(exp, k1 + k2 + deg + 1),
                         a=a, b=b, kind="product recombination")


@_timed()
def suite_regressions(report, n, deg):
    """Replay of every pinned reference value."""
    # transition identities
    square = {(0, 2): 1, (1, 1): 1, (2,): -1}
    family = h_basis_family([2], 2)
    report.equal(square, express_in_basis(h_complete(1, 2) * h_complete(1, 2), family),
                 name="square of degree-one symmetric element")
    report.equal(square, express_in_basis(h_flagged((0, 1)) * h_flagged((0, 1)), family),
                 name="square of the (0,1) element")

    # key poset comparisons
    report.equal(True, key_poset_leq(*ref.POSET_LEQ), name="poset comparison holds")
    report.equal(False, key_poset_leq(*ref.POSET_NOT_LEQ), name="poset comparison fails")

    # key diagram of the display shape
    report.equal(13, len(key_diagram(ref.SHAPE_A)), name="key diagram cell count")

    # the pinned fillings and their statistics
    st = statistics(ref.SSKT_FIG, 7)
    report.equal((0, 0, 0), (st.maj, st.coinv, st.attacking_violations),
                 name="pinned SSKT statistics")
    st = statistics(ref.RSSAF_FIG, 7)
    report.equal((0, 0, 0), (st.comaj, st.inv, st.attacking_violations),
                 name="pinned rSSAF statistics")
    report.equal(True, is_member(ref.SSKT_FIG, "SSKT", 7), name="pinned SSKT membership")
    report.equal(True, is_member(ref.RSSAF_FIG, "rSSAF", 7), name="pinned rSSAF membership")
    report.equal(True, is_member(ref.P_FIG, "rSSYT"), name="pinned reverse tableau membership")

    # one-column key polynomial equals the degree-one Schur polynomial
    report.equal(schur_ssyt((1,), 2), key_polynomial((0, 1), 2),
                 name="single-cell key polynomial")
    for lam, k in [((2,), 2), ((1, 1), 2), ((2, 1), 3)]:
        report.equal(schur_ssyt(lam, k), key_polynomial(tuple(reversed(pad(lam, k))), k),
                     name=f"reversed partition key = Schur {lam} n={k}")

    # biword and matrix encoding round trip
    pairs = list(zip(ref.BIWORD_TOP, ref.BIWORD_BOTTOM))
    M = matrix_from_biword(pairs, 7)
    report.equal(pairs, biword_from_matrix(M), name="matrix-biword round trip")

    # the four pinned tableaux
    report.equal((ref.SSKT_FIG, ref.RSSAF_FIG), frsk(M),
                 name="flagged image of the pinned biword")
    report.equal((ref.P_FIG, ref.Q_FIG), rsk(M), name="classical image of the pinned biword")

    # insertion traces
    report.equal((ref.P_FIG, ref.P_CHAIN), rsk_insert_trace(ref.P_BEFORE, 3),
                 name="classical insertion trace")
    report.equal((ref.SSKT_FIG, ref.SSKT_CHAIN), flagged_insert_trace(ref.SSKT_BEFORE, 3, 7),
                 name="flagged insertion trace")
    out, chain = flagged_insert_trace(((1,), (2,), ()), 3, 3)
    report.equal((((1,), (2,), (3,)), 1), (out, len(chain)), name="one-iteration insertion")

    # column-set maps on the pinned pair
    report.equal(ref.P_FIG, tau(ref.SSKT_FIG), name="column stack of the pinned SSKT")
    report.equal(ref.Q_FIG, rho(ref.RSSAF_FIG), name="column stack of the pinned rSSAF")
    report.equal(ref.SSKT_FIG, tau_dagger(ref.P_FIG, ref.SHAPE_A),
                 name="column unstack to the pinned SSKT")
    report.equal(ref.RSSAF_FIG, rho_inverse(ref.Q_FIG, 7),
                 name="column unstack to the pinned rSSAF")

    # staircase diagram and moves
    report.equal(sorted(ref.DA_CELLS), sorted(build_Da(ref.SHAPE_A)),
                 name="staircase diagram cells")
    report.equal(sorted(map(sorted, ref.KOHNERT_RESULTS)),
                 sorted(map(sorted, kohnert_moves(ref.KOHNERT_START))), name="three moves")

    # snakes, rim hooks, tabloids
    report.equal(True, is_snake(ref.SNAKE_CELLS, ref.SHAPE_B), name="pinned snake")
    report.equal(True, is_rim_hook(ref.RIMHOOK_CELLS, ref.RIMHOOK_MU), name="pinned rim hook")
    for d in range(1, 7):
        for mu in partitions_of(d):
            cells = sorted(key_diagram(tuple(reversed(mu))))
            subsets = (frozenset(cells[t] for t in range(len(cells)) if mask >> t & 1)
                       for mask in range(1 << len(cells)))
            report.equal(True, all(is_snake(S, tuple(reversed(mu))) == is_rim_hook(S, mu)
                                   for S in subsets),
                         name=f"snake = rim hook on {mu}")
    for name, rows, weight, sign in [
            ("first pinned tabloid", ref.TABLOID_A, ref.TABLOID_A_WEIGHT, ref.TABLOID_A_SIGN),
            ("second pinned tabloid", ref.TABLOID_B, ref.TABLOID_B_WEIGHT, ref.TABLOID_B_SIGN)]:
        U = SnakeTabloid(ref.SHAPE_B, rows)
        report.equal((True, weight, sign),
                     (validate_special_snake_tabloid(ref.SHAPE_B, rows), U.weight(), U.sign()),
                     name=name)
    UL = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
    UR = SnakeTabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
    got = (UL.weight(), UL.sign(), UR.weight(), UR.sign())
    report.check(validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_LEFT)
                 and validate_special_snake_tabloid(ref.CANCEL_SHAPE, ref.CANCEL_RIGHT)
                 and got[0] == got[2] == (5, 4, 0) and got[1] == -got[3],
                 name="cancelling pair", expected="same weight, opposite signs", got=got)

    # snake-decorated fillings and the involution
    report.equal(True, in_gset(ref.ALMOST_SNAKE, ref.ALMOST_SSKT, ref.SHAPE_B),
                 name="pinned decorated filling")
    atts = s_attacks(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B)
    report.equal(ref.INVOLUTION_X, max((x for x, _ in atts), default=None),
                 name="pinned attack and its first cell")
    S2, _ = iota(ref.INVOLUTION_SMALL, ref.INVOLUTION_T, ref.SHAPE_B)
    S3, _ = iota(ref.INVOLUTION_LARGE, ref.INVOLUTION_T, ref.SHAPE_B)
    report.equal((sorted(ref.INVOLUTION_LARGE), sorted(ref.INVOLUTION_SMALL)),
                 (sorted(S2), sorted(S3)), name="pinned involution pair")

    # weakly connected components illustration
    report.equal(sorted(map(sorted, ref.CONNECTED_COMPONENTS)),
                 sorted(map(sorted, weakly_connected_components(ref.CONNECTED_CELLS))),
                 name="component decomposition")

    # classical Kostka bridges on the partition index and by sorting
    for lam, b in [((2,), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, 1, 1))]:
        want = kostka(lam, b)
        report.equal(want, ktilde_upper(lam, b), name=f"partition-indexed count {lam} {b}")
        report.equal(want, _sorted_refinement(lam, b), name=f"sorted refinement {lam} {b}")

    # snake-decorated fillings sum to a shifted key polynomial
    for b, S in [((2, 1), frozenset({(1, 1), (2, 1)})),
                 ((2, 1), frozenset({(1, 1), (2, 1), (1, 2)}))]:
        gen = Poly.from_terms((weight_of(rows, len(b)), 1)
                              for rows in gset_enumerate(S, b))
        rest = complement_shape(S, b)
        report.equal(Poly.variable(1) ** len(S) * key_polynomial(rest, len(b)), gen,
                     name=f"decorated generating function {b} {sorted(S)}")


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
    return SUITES[name](n=n, deg=deg)
