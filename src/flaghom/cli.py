"""Command line surface.

Subcommands: expand, rsk, kohnert, snakes, verify, render.  Input formats:
compositions are comma-separated integers, matrices semicolon-separated
rows, biwords two comma-separated lines joined by a semicolon.  Exit codes:
0 success, 1 verification failure or stdout closed early, 2 usage error.
"""

import argparse
import json
import os
import sys

from .bases import (BasisExpansion, expand_h_into_atoms, expand_h_into_keys,
                    h_basis_family, h_flagged, key_basis_family,
                    key_polynomial)
from .compositions import as_comp, as_matrix, strip
from .frsk import (biword_from_matrix, frsk, frsk_inverse, matrix_from_biword,
                   rsk, rsk_inverse)
from .kohnert import build_Da, diagram, kohnert_polynomial
from .polynomials import Poly, express_in_basis, poly_to_json, sorted_terms
from .render import render_diagram, render_filling, render_matrix, render_tabloid
from .schubert import h_schubert_expansion
from .snakes import (enumerate_special_snake_tabloids, expand_key_into_h,
                     tabloid_json_texts)
from .verify import SUITES, run_suite


def parse_comp(text, n=None):
    text, parts = text.strip(), []
    for k, part in enumerate(text.split(",") if text else (), start=1):
        try:
            parts.append(int(part))
        except ValueError:
            raise ValueError(f"part {k} of {text!r} is not an integer: {part!r}") from None
    return as_comp(parts, n)


def parse_matrix(text):
    if not text.strip():
        raise ValueError("matrix needs at least one row")
    return tuple(parse_comp(row) for row in text.strip().split(";"))


def parse_biword(text):
    lines = [ln for ln in text.replace("\n", ";").split(";") if ln.strip()]
    if len(lines) != 2:
        raise ValueError("biword needs exactly two comma-separated lines")
    top, bottom = parse_comp(lines[0]), parse_comp(lines[1])
    if len(top) != len(bottom):
        raise ValueError("biword lines have different lengths")
    return list(zip(top, bottom))


def rows_to_json(rows):
    return {"shape": [len(r) for r in rows], "rows": [list(r) for r in rows]}


def is_int_rows(rows):
    """Whether a JSON value is a list of integer lists."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(type(e) is int for e in r) for r in rows)


def rows_from_json(data):
    rows = data.get("rows") if isinstance(data, dict) else None
    if not is_int_rows(rows):
        raise ValueError('filling JSON needs a "rows" list of integer lists')
    shape = [len(r) for r in rows]
    if data.get("shape", shape) != shape:
        raise ValueError(f'filling JSON "shape" {data["shape"]} differs from its row lengths {shape}')
    if any(e < 1 for r in rows for e in r):
        raise ValueError("filling JSON entries must be positive")
    return tuple(tuple(r) for r in rows)


EXPANSIONS = {
    ("h", "key"): expand_h_into_keys,
    ("h", "atom"): expand_h_into_atoms,
    ("key", "h"): expand_key_into_h,
    ("h", "monomial"): lambda a, n: BasisExpansion("monomial", h_flagged(a, n).terms),
    ("key", "monomial"): lambda a, n: BasisExpansion("monomial", key_polynomial(a, n).terms),
    ("monomial", "h"): lambda a, n: BasisExpansion(
        "h-flagged", express_in_basis(Poly.monomial(a), h_basis_family([sum(a)], n))),
    ("monomial", "key"): lambda a, n: BasisExpansion(
        "key", express_in_basis(Poly.monomial(a), key_basis_family([sum(a)], n))),
}


def cmd_expand(args):
    index = parse_comp(args.index, args.n)
    n = args.n if args.n is not None else max(len(strip(index)), 1)
    pair = (args.source, args.target)
    if pair == ("h", "schubert"):
        # Schubert terms are indexed by permutations, not compositions
        terms = sorted(h_schubert_expansion(index).items())
        out = {"basis": "schubert", "terms": [{"perm": list(w), "coef": c} for w, c in terms]}
    elif pair in EXPANSIONS:
        exp = EXPANSIONS[pair](index, n)
        terms, out = sorted_terms(exp.terms), exp.to_json()
    else:
        raise ValueError(f"unsupported basis pair {args.source} -> {args.target}")
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for index, coef in terms:
            print(f"{coef:+d}  {list(index)}")


def cmd_rsk(args):
    if args.pair is not None and not args.inverse:
        raise ValueError("--pair is read only with --inverse")
    if args.n is not None and (args.matrix is not None or args.flagged and args.inverse):
        raise ValueError("--n is read only with --biword or an unflagged --inverse")
    if args.inverse:
        data = json.loads(args.pair if args.pair else sys.stdin.read())
        if not (isinstance(data, dict) and {"P", "S"} & data.keys()
                and {"Q", "T"} & data.keys()):
            raise ValueError('pair JSON needs an object holding "P" and "Q" (or "S" and "T")')
        first = rows_from_json(data["P" if "P" in data else "S"])
        second = rows_from_json(data["Q" if "Q" in data else "T"])
        M = frsk_inverse(first, second) if args.flagged else rsk_inverse(first, second, args.n)
        if args.json:
            print(json.dumps([list(r) for r in M]))
        else:
            print(render_matrix(M))
        return
    if args.biword is not None:
        M = matrix_from_biword(parse_biword(args.biword), args.n)
    else:
        M = parse_matrix(args.matrix)
    if args.flagged:
        S, T = frsk(M)
        names = ("S", "T")
    else:
        S, T = rsk(M)
        names = ("P", "Q")
    if args.json:
        pairs = biword_from_matrix(M)
        out = {
            names[0]: rows_to_json(S),
            names[1]: rows_to_json(T),
            "biword": {"top": [i for i, _ in pairs], "bottom": [j for _, j in pairs]},
            "matrix": [list(r) for r in M],
        }
        print(json.dumps(out, sort_keys=True))
    else:
        for name, rows in zip(names, (S, T)):
            print(f"{name}:")
            print(render_filling(rows))


def cmd_kohnert(args):
    if args.shape is not None:
        a = parse_comp(args.shape)
        n = args.n if args.n is not None else max(len(strip(a)), 1)
        D = build_Da(a, n)
    elif args.n is not None:
        raise ValueError("--n is read only with --shape")
    else:
        D = diagram(parse_comp(cell) for cell in args.diagram.split(";"))
    poly = kohnert_polynomial(D)
    if args.json:
        out = {
            "cells": sorted(map(list, D)),
            "closure_size": sum(poly.terms.values()),
            "polynomial": poly_to_json(poly),
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(render_diagram(D))
        print(f"closure size {sum(poly.terms.values())}")
        print(poly)


def cmd_snakes(args):
    b = parse_comp(args.shape)
    tabloids = enumerate_special_snake_tabloids(b)
    if args.json:
        # json.dumps(..., sort_keys=True) of the list, one tabloid at a time
        texts = tabloid_json_texts(tabloids)
        sys.stdout.write("[" + next(texts, ""))
        sys.stdout.writelines(", " + text for text in texts)
        sys.stdout.write("]\n")
    else:
        for t in tabloids:
            print(render_tabloid(t))
            print()
        print(f"{len(tabloids)} tabloids")


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    given = {"n": args.n, "deg": args.deg}
    failed = False
    reports = []
    for name in names:
        # all hands each suite the options it reads; a named suite refuses the rest
        options = SUITES[name].options if args.suite == "all" else given
        report = run_suite(name, **{k: v for k, v in given.items() if k in options})
        reports.append(report)
        if not args.json:
            print(report.summary())
            for failure in report.failures:
                print(f"  {failure}")
        failed = failed or not report.passed
    if args.json:
        print(json.dumps([r.to_json() for r in reports], sort_keys=True, default=str))
    return 1 if failed else 0


def cmd_render(args):
    data = json.loads(args.data if args.data else sys.stdin.read())
    if args.kind == "filling":
        print(render_filling(rows_from_json(data), args.n))
    elif args.kind == "diagram":
        cells = data.get("cells") if isinstance(data, dict) else None
        if not is_int_rows(cells):
            raise ValueError('diagram JSON needs a "cells" list of [column, row] pairs')
        print(render_diagram(diagram(cells), args.n))
    elif args.n is not None:
        raise ValueError("render matrix does not read --n")
    else:
        if not is_int_rows(data):
            raise ValueError("matrix JSON needs a list of integer rows")
        print(render_matrix(as_matrix(data)))


class Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them as one error line."""

    def error(self, message):
        raise ValueError(message)


OPTIONS = {
    "--json": {"action": "store_true", "help": "machine readable output"},
    "--n": {"type": int, "help": "ambient variable window"},
    "--deg": {"type": int, "help": "degree bound"},
}


def build_parser():
    parser = Parser(prog="flaghom")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options):
        """A subcommand taking exactly the OPTIONS its func reads."""
        p = sub.add_parser(name, help=help)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)
        return p

    p = command("expand", cmd_expand, "basis expansions", "--json", "--n")
    p.add_argument("source", choices=["h", "key", "monomial"])
    p.add_argument("target", choices=["key", "atom", "h", "schubert", "monomial"])
    p.add_argument("index", help="comma-separated composition")

    p = command("rsk", cmd_rsk, "insertion correspondences", "--json", "--n")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--matrix", help="semicolon-separated rows")
    given.add_argument("--biword", help="two comma-separated lines joined by ';'")
    given.add_argument("--inverse", action="store_true")
    p.add_argument("--flagged", action="store_true")
    p.add_argument("--pair", help="JSON pair for --inverse (default: stdin)")

    p = command("kohnert", cmd_kohnert, "diagram closures", "--json", "--n")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--shape", help="build the one-cell-per-column diagram")
    given.add_argument("--diagram", help="explicit cells c,r;c,r;...")

    p = command("snakes", cmd_snakes, "special snake tabloids", "--json")
    p.add_argument("--shape", required=True)

    p = command("verify", cmd_verify, "run a verification suite", "--json", "--n", "--deg")
    p.add_argument("suite", choices=[*SUITES, "all"])

    p = command("render", cmd_render, "render JSON values", "--n")
    p.add_argument("kind", choices=["filling", "diagram", "matrix"])
    p.add_argument("data", nargs="?", help="JSON (default: stdin)")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        sys.stdout.flush()
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if result is None else result


if __name__ == "__main__":
    sys.exit(main())
