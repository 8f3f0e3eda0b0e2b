"""Command line surface.

Subcommands: expand, rsk, kohnert, snakes, verify, render.  Input formats:
compositions are comma-separated integers, matrices semicolon-separated
rows, biwords two comma-separated lines joined by a semicolon.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import sys

from .bases import (BasisExpansion, expand_h_into_atoms, expand_h_into_keys,
                    h_basis_family, h_flagged, key_basis_family,
                    key_polynomial)
from .compositions import as_comp, as_matrix, size, strip
from .frsk import (biword_from_matrix, frsk, frsk_inverse, matrix_from_biword,
                   rsk, rsk_inverse)
from .kohnert import build_Da, diagram, kohnert_polynomial
from .polynomials import Poly, express_in_basis, poly_to_json
from .render import render_diagram, render_filling, render_matrix, render_tabloid
from .schubert import h_schubert_expansion
from .snakes import enumerate_special_snake_tabloids, expand_key_into_h
from .verify import SUITES, run_suite


def parse_comp(text, n=None):
    text = text.strip()
    return as_comp((int(x) for x in text.split(",")) if text else (), n)


def parse_matrix(text):
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
    return tuple(tuple(r) for r in rows)


def emit_expansion(exp, args):
    if args.json:
        print(json.dumps(exp.to_json(), sort_keys=True))
    else:
        for index, coef in exp.sorted_terms():
            print(f"{coef:+d}  {list(index)}")


def cmd_expand(args):
    index = parse_comp(args.index, args.n)
    n = args.n if args.n is not None else max(len(strip(index)), 1)
    pair = (args.source, args.target)
    if pair == ("h", "key"):
        exp = expand_h_into_keys(index, n)
    elif pair == ("h", "atom"):
        exp = expand_h_into_atoms(index, n)
    elif pair == ("key", "h"):
        exp = expand_key_into_h(index, n)
    elif pair == ("h", "schubert"):
        exp = h_schubert_expansion(index)
        if args.json:
            terms = [{"perm": list(w), "coef": c} for w, c in sorted(exp.items())]
            print(json.dumps({"basis": "schubert", "terms": terms}, sort_keys=True))
        else:
            for w, c in sorted(exp.items()):
                print(f"{c:+d}  {list(w)}")
        return
    elif pair == ("h", "monomial"):
        poly = h_flagged(index, n)
        exp = BasisExpansion("monomial", dict(poly.terms))
    elif pair == ("key", "monomial"):
        exp = BasisExpansion("monomial", dict(key_polynomial(index, n).terms))
    elif pair == ("monomial", "h"):
        family = h_basis_family([size(index)], n)
        exp = BasisExpansion("h-flagged", express_in_basis(Poly.monomial(index), family))
    elif pair == ("monomial", "key"):
        family = key_basis_family([size(index)], n)
        exp = BasisExpansion("key", express_in_basis(Poly.monomial(index), family))
    else:
        raise ValueError(f"unsupported basis pair {args.source} -> {args.target}")
    emit_expansion(exp, args)


def cmd_rsk(args):
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
    if args.matrix:
        M = parse_matrix(args.matrix)
    elif args.biword:
        M = matrix_from_biword(parse_biword(args.biword), args.n)
    else:
        raise ValueError("need --matrix or --biword")
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
    elif args.diagram:
        D = diagram(tuple(parse_comp(cell)) for cell in args.diagram.split(";"))
    else:
        raise ValueError("need --shape or --diagram")
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
        print(json.dumps([t.to_json() for t in tabloids], sort_keys=True))
    else:
        for t in tabloids:
            print(render_tabloid(t))
            print()
        print(f"{len(tabloids)} tabloids")


def cmd_verify(args):
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.deg is not None and args.deg < 0:
        raise ValueError(f"--deg must be nonnegative, got {args.deg}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choices: {', '.join(SUITES)}, all")
    failed = False
    reports = []
    for name in names:
        report = run_suite(name, n=args.n, deg=args.deg)
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
        if not is_int_rows(cells) or any(len(cell) != 2 for cell in cells):
            raise ValueError('diagram JSON needs a "cells" list of [column, row] pairs')
        print(render_diagram(diagram(cells), args.n))
    elif args.kind == "matrix":
        if not is_int_rows(data):
            raise ValueError("matrix JSON needs a list of integer rows")
        print(render_matrix(as_matrix(data)))
    else:
        raise ValueError(f"unknown render kind {args.kind!r}")


class Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them as one error line."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = Parser(prog="flaghom")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine readable output")
    common.add_argument("--n", type=int, default=None, help="ambient variable window")
    common.add_argument("--deg", type=int, default=None, help="degree bound")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="basis expansions")
    p.add_argument("source", choices=["h", "key", "monomial"])
    p.add_argument("target", choices=["key", "atom", "h", "schubert", "monomial"])
    p.add_argument("index", help="comma-separated composition")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("rsk", parents=[common], help="insertion correspondences")
    p.add_argument("--matrix", help="semicolon-separated rows")
    p.add_argument("--biword", help="two comma-separated lines joined by ';'")
    p.add_argument("--flagged", action="store_true")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--pair", help="JSON pair for --inverse (default: stdin)")
    p.set_defaults(func=cmd_rsk)

    p = sub.add_parser("kohnert", parents=[common], help="diagram closures")
    p.add_argument("--shape", help="build the one-cell-per-column diagram")
    p.add_argument("--diagram", help="explicit cells c,r;c,r;...")
    p.set_defaults(func=cmd_kohnert)

    p = sub.add_parser("snakes", parents=[common], help="special snake tabloids")
    p.add_argument("--shape", required=True)
    p.set_defaults(func=cmd_snakes)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", parents=[common], help="render JSON values")
    p.add_argument("kind", choices=["filling", "diagram", "matrix"])
    p.add_argument("data", nargs="?", help="JSON (default: stdin)")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if result is None else result


if __name__ == "__main__":
    sys.exit(main())
