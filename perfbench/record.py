"""Write expected.json: the outputs every benchmark run is checked against.

    python perfbench/record.py

Run it only at a commit whose outputs are known to be right.  It records the
exit code, stdout digest and outcome size of every README command (full and
smoke shapes), the per-suite instance counts of both verify ranges, and the
query pool: a fixed set of inputs per query kind, each with its repeat count
and the digest of its result.
"""

import json
import random

import workloads as w

POOL_SEED = 1
POOL_DISTINCT = 16  # distinct inputs per query kind
ZIPF_TOP = 10       # repeat count of the most popular input of a kind
COMPOSITION_KINDS = ("expand_h_into_keys", "expand_h_into_atoms", "expand_key_into_h",
                     "h_schubert_expansion", "key_polynomial", "kohnert_polynomial")


def composition(rng):
    """A weak composition with 3 to 6 parts and degree 1 to 9."""
    parts = [0] * rng.randint(3, 6)
    for _ in range(rng.randint(1, 9)):
        parts[rng.randrange(len(parts))] += 1
    return parts


def lower_triangular(rng):
    """A lower-triangular natural matrix, 2x2 to 5x5, entry sum 1 to 8."""
    n = rng.randint(2, 5)
    rows = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(1, 8)):
        i = rng.randrange(n)
        rows[i][rng.randint(0, i)] += 1
    return rows


def pool_inputs():
    """[(kind, input, count)]: per kind, POOL_DISTINCT distinct inputs whose
    repeat counts fall off as ZIPF_TOP / rank."""
    rng = random.Random(POOL_SEED)
    out = []
    for kind in COMPOSITION_KINDS + ("frsk_round_trip",):
        make = lower_triangular if kind == "frsk_round_trip" else composition
        seen = []
        while len(seen) < POOL_DISTINCT:
            x = make(rng)
            if x not in seen:
                seen.append(x)
        out += [(kind, x, max(1, round(ZIPF_TOP / rank)))
                for rank, x in enumerate(seen, start=1)]
    return out


def main():
    readme = {}
    for size in ("full", "smoke"):
        for _, args in w.readme_commands(size):
            child = w.spawn(w.cli_argv(args))
            readme[" ".join(args)] = {"exit": child.code,
                                      "sha256": w.sha(w.normalize(child.stdout)),
                                      "size": w.outcome_size(args, child.stdout)}
    verify = {}
    for args in w.VERIFY_ARGS.values():
        child = w.spawn(w.cli_argv(args))
        reports = json.loads(child.stdout)
        if child.code != 0 or any(r["failures"] for r in reports):
            raise SystemExit(f"flaghom {' '.join(args)} reports failures")
        verify[" ".join(args)] = {r["suite"]: r["instances"] for r in reports}
    inputs = pool_inputs()
    child = w.spawn(w.child_argv(["stream"]),
                    json.dumps([[kind, x] for kind, x, _ in inputs]).encode())
    if child.code != 0:
        raise SystemExit("query stream failed")
    pool = [{"kind": kind, "input": x, "count": count, "sha256": got}
            for (kind, x, count), (_, got) in zip(inputs, json.loads(child.stdout))]
    with open(w.EXPECTED_FILE, "w") as fh:
        json.dump({"readme": readme, "verify": verify, "pool": pool}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
