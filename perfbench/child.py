"""Child process of the benchmark.

    python perfbench/child.py [--trace OUT] cli ARGS...   # flaghom's CLI
    python perfbench/child.py [--trace OUT] stream        # query stream

`stream` reads a JSON list of [kind, input] queries on stdin, runs them back
to back in this process and prints one JSON list of [seconds, digest] pairs;
only the library call is timed.  With --trace the layer functions are wrapped
first and the aggregated spans are written to OUT when the process ends.
The untraced CLI runs of the benchmark use ``python -m flaghom`` directly.
"""

import json
import sys
import time

from workloads import sha


def _json(value):
    return json.dumps(value, sort_keys=True)


def query_kinds():
    """kind -> (run(input), canonical text of the result)."""
    from flaghom import (build_Da, expand_h_into_atoms, expand_h_into_keys,
                         frsk, frsk_inverse, h_schubert_expansion,
                         key_polynomial, kohnert_polynomial)
    from flaghom.polynomials import poly_to_json
    from flaghom.snakes import expand_key_into_h

    def round_trip(M):
        S, T = frsk(M)
        if tuple(map(tuple, frsk_inverse(S, T))) != M:
            raise ValueError(f"frsk_inverse does not invert frsk on {M}")
        return S, T

    expansion = (lambda r: _json(r.to_json()))
    poly = (lambda p: _json(poly_to_json(p)))
    return {
        "expand_h_into_keys": (lambda a: expand_h_into_keys(a, len(a)), expansion),
        "expand_h_into_atoms": (lambda a: expand_h_into_atoms(a, len(a)), expansion),
        "expand_key_into_h": (lambda a: expand_key_into_h(a, len(a)), expansion),
        "h_schubert_expansion": (h_schubert_expansion,
                                 lambda r: _json(sorted([list(w), c] for w, c in r.items()))),
        "frsk_round_trip": (round_trip, _json),
        "key_polynomial": (lambda a: key_polynomial(a, len(a)), poly),
        "kohnert_polynomial": (lambda a: kohnert_polynomial(build_Da(a)), poly),
    }


def run_stream(queries):
    kinds = query_kinds()
    out = []
    for kind, raw in queries:
        run, canon = kinds[kind]
        arg = tuple(tuple(row) for row in raw) if kind == "frsk_round_trip" else tuple(raw)
        start = time.perf_counter()
        result = run(arg)
        out.append([time.perf_counter() - start, sha(canon(result).encode())])
    return out


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        import tracer

        active = tracer.install()
    code = 0
    if argv[0] == "stream":
        print(_json(run_stream(json.load(sys.stdin))))
    else:
        from flaghom.cli import main as cli_main

        try:
            code = cli_main(argv[1:])
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump(active.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
