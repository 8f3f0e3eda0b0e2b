"""flaghom benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload readme-cli --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from its src/.
Workloads (see README.md in this directory):

  readme-cli      the README's ten CLI examples, each a fresh process
  query-stream    a seeded stream of library queries from one process
  verify-stretch  ``verify all --n 4 --deg 6`` in one process; run by name
                  only, it is not in BENCHMARK.json

With --trace 0 the run repeats whole passes of the workload for at most
--seconds (at least one pass), with timed imports of flaghom.cli between
them, and prints the end-to-end metrics: setup_s is the median of the
imports, every other time the lower quartile over the passes (see
`end_to_end`).  With --trace 1 it runs one untraced and one traced pass
and prints the per-layer metrics of the traced pass plus the tracing
overhead.  Every line but the last is for people; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
--smoke runs each workload at a tiny size, traced twice, and checks the
metric names against BENCHMARK.json and that the traced work counts repeat
exactly.
"""

import argparse
import json
import math
import random
import statistics
import sys
import time

import tracer
import workloads as w

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("kohnert_s", "s"), ("snakes_s", "s"), ("frsk_s", "s"),
              ("schubert_s", "s"), ("op_p50_s", "s"), ("op_p95_s", "s"))
PER_LAYER = tracer.metric_units() + [("trace.overhead_s", "s", "lower")]
SETUP_WARMUPS = 3   # untimed: bytecode caches, idle CPUs waking up
SETUP_SPAWNS = 24   # timed, spread over the run's passes


def check_checkout():
    if not (w.ROOT / "src" / "flaghom" / "__init__.py").is_file():
        sys.exit(f"error: no flaghom package under {w.ROOT / 'src'}")


def import_cli():
    """Seconds for a fresh interpreter to import flaghom.cli."""
    child = w.spawn([sys.executable, "-c", "import flaghom.cli"])
    if child.code != 0:
        sys.exit("error: flaghom.cli does not import")
    return child.seconds


def setup_due(setups, elapsed, seconds):
    """Time fresh imports until the run has made its share of SETUP_SPAWNS
    for the time elapsed: one at the start, all of them at the end, and the
    rest between passes, so that they sample the host across the run."""
    share = min(1.0, elapsed / seconds)
    while len(setups) < 1 + math.floor((SETUP_SPAWNS - 1) * share):
        setups.append(import_cli())


def nearest_rank(values, q):
    """The ceil(q * n)-th smallest value.  Always a sample, so a percentile
    never interpolates across the gap between small and large operations."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup, passes):
    """Each time is taken per pass and reduced over the run's passes to their
    lower quartile.  The host's slowdowns come in bursts, and the lower
    quartile keeps the passes they missed.  setup_s is the median of the
    run's timed imports, which spread less across runs than their lower
    quartile (README.md)."""
    per_pass = {
        "wall_s": [p.wall for p in passes],
        **{f"{family}_s": [p.family[family] for p in passes] for family in w.FAMILIES},
        "op_p50_s": [nearest_rank(p.ops, 0.50) for p in passes],
        "op_p95_s": [nearest_rank(p.ops, 0.95) for p in passes],
    }
    values = {name: nearest_rank(v, 0.25) for name, v in per_pass.items()}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = statistics.median(p.rss_mb for p in passes)
    beyond = min(sum(s > nearest_rank(p.ops, 0.95) for s in p.ops) for p in passes)
    notes = [f"passes {len(passes)}, {len(passes[0].ops)} operations in a pass, "
             f"at least {beyond} of them beyond its op_p95_s",
             f"setup_s over {len(setup)} timed imports"]
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result object, lines for people)."""
    expected = w.load_expected()
    one_pass = (w.TRACE_PASSES if trace else w.PASSES)[workload]
    notes = []
    if workload == "query-stream":
        stream = w.query_stream(random.Random(seed), size, expected["pool"])
        notes.append(f"query stream: {len(stream)} queries per pass, "
                     f"repeat share {w.repeat_share(stream):.3f}")
    if trace:
        import_cli()
        plain = one_pass(random.Random(seed), size, False, expected)
        traced = one_pass(random.Random(seed), size, True, expected)
        passes = [plain, traced]
        metrics = tracer.layer_metrics(traced.dumps)
        metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
        spans = w.OUT / f"spans-{workload}.json"
        with open(spans, "w") as fh:
            json.dump(traced.dumps, fh)
        notes.append(f"traced wall_s {traced.wall:.3f} s, untraced {plain.wall:.3f} s; "
                     f"spans in {spans.relative_to(w.ROOT)}")
    else:
        for _ in range(SETUP_WARMUPS):
            import_cli()
        rng = random.Random(seed)
        setups, passes = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
            setup_due(setups, time.perf_counter() - start, seconds)
            passes.append(one_pass(rng, size, False, expected))
        setup_due(setups, seconds, seconds)
        metrics, more = end_to_end(setups, passes)
        notes += more
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes += [note for p in passes for note in p.notes]
    notes.append(f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, notes


def smoke():
    """Every workload at a tiny size: metric names and units as declared in
    BENCHMARK.json, correct outputs, and traced counts that repeat exactly."""
    with open(w.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = [[(m["name"], m["unit"]) for m in spec[key]]
                for key in ("end_to_end", "per_layer")]
    problems = [f"unknown workload {m['name']}" for m in spec["workloads"]
                if m["name"] not in w.PASSES]
    for workload in w.PASSES:
        results = [run(workload, 1, 1, trace, "smoke")[0] for trace in (0, 1, 1)]
        for trace, result in zip((0, 1, 1), results):
            if [(n, m["unit"]) for n, m in result["metrics"].items()] != declared[trace]:
                problems.append(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} --trace {trace}: wrong outputs")
        counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in results[1:]]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between two runs")
        print(f"smoke {workload}: {'FAIL' if problems else 'ok'}")
    if problems:
        sys.exit("\n".join(problems))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(w.PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    check_checkout()
    if args.smoke:
        smoke()
        return
    if args.workload is None:
        parser.error("--workload is required")
    result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for note in notes:
        print(note)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
