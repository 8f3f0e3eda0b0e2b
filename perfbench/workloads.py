"""The three workloads: one pass of each, run in child processes, with every
output checked against the values in expected.json.

A pass returns a `Pass`: its wall time, the peak max-RSS of its children, the
per-family seconds behind the kohnert_s / snakes_s / frsk_s / schubert_s
metrics, the latency of each operation, the ops attempted and failed, and in
a traced pass the span dumps of its children.
"""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACE_FILE = OUT / "trace.json"
EXPECTED_FILE = HERE / "expected.json"
FAMILIES = ("kohnert", "snakes", "frsk", "schubert")

# The ten command-line examples of the README, each with the family whose
# *_s metric it feeds.  Smoke mode swaps the two large shapes for small ones.
# The Kohnert and snakes examples take most of a pass and run once in it.
# The eight small commands are cold starts; a pass repeats each of them
# SMALL_REPEATS times and keeps the fastest, which a burst of load on the
# shared host is least likely to have hit.
README = [
    (None, ["expand", "h", "key", "1,1", "--n", "2"]),
    (None, ["expand", "key", "h", "1,1", "--n", "2"]),
    ("schubert", ["expand", "h", "schubert", "0,2"]),
    ("frsk", ["rsk", "--biword", "1,3;1,2", "--flagged"]),
    ("frsk", ["rsk", "--matrix", "0,0;1,0", "--flagged", "--json"]),
    ("kohnert", ["kohnert", "--shape", "1,0,3,6,1,0,2"]),
    ("snakes", ["snakes", "--shape", "3,7,0,2,5,8,6", "--json"]),
    (None, ["verify", "all"]),
    (None, ["verify", "cauchy", "--n", "3", "--deg", "4"]),
    (None, ["render", "filling", '{"shape": [1, 1], "rows": [[1], [2]]}']),
]
SMOKE_SHAPES = {"1,0,3,6,1,0,2": "1,0,2,1", "3,7,0,2,5,8,6": "2,0,3,1"}
VERIFY_ARGS = {"full": ["verify", "all", "--n", "4", "--deg", "6", "--json"],
               "smoke": ["verify", "all", "--json"]}
LARGE = ("kohnert", "snakes")
SMALL_REPEATS = 3
SMOKE_QUERIES = 21
QUERY_FAMILIES = {"kohnert_polynomial": "kohnert", "expand_key_into_h": "snakes",
                  "frsk_round_trip": "frsk", "h_schubert_expansion": "schubert"}


def readme_commands(size):
    if size == "full":
        return README
    return [(family, [SMOKE_SHAPES.get(arg, arg) for arg in args])
            for family, args in README]


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def normalize(stdout):
    """Blank the timings that text-mode verify summaries print."""
    return re.sub(rb", \d+\.\d+s\]", b", s]", stdout)


def outcome_size(args, stdout):
    """Closure size of a kohnert command, tabloid count of a snakes --json
    command; None for other commands and for output that shows neither."""
    if args[0] == "kohnert":
        found = re.search(rb"^closure size (\d+)$", stdout, re.M)
        return int(found.group(1)) if found else None
    if args[0] == "snakes" and "--json" in args:
        try:
            return len(json.loads(stdout))
        except ValueError:
            return None
    return None


def load_expected():
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


@dataclass
class Child:
    stdout: bytes
    code: int
    seconds: float
    rss_mb: float


@dataclass
class Pass:
    wall: float = 0.0
    rss_mb: float = 0.0
    family: dict = field(default_factory=lambda: dict.fromkeys(FAMILIES, 0.0))
    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    dumps: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(argv, stdin=None):
    """Run one child to completion; peak RSS comes from its own rusage."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL if stdin is None
                                else subprocess.PIPE)
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(stdout, proc.returncode, seconds, usage.ru_maxrss / 1024)


def child_argv(mode_args, trace=False):
    trace_args = ["--trace", str(TRACE_FILE)] if trace else []
    return [sys.executable, str(HERE / "child.py"), *trace_args, *mode_args]


def cli_argv(args, trace=False):
    if trace:
        return child_argv(["cli", *args], trace=True)
    return [sys.executable, "-m", "flaghom", *args]


def spawn_in_pass(p, argv, trace, stdin=None):
    """spawn, keeping the span dump a traced child leaves in TRACE_FILE."""
    child = spawn(argv, stdin)
    if trace and TRACE_FILE.exists():
        with open(TRACE_FILE) as fh:
            p.dumps.append(json.load(fh))
        TRACE_FILE.unlink()
    return child


def readme_pass(rng, size, trace, expected, once=False):
    """The README commands in a seeded order: the Kohnert and snakes examples
    once, each small command SMALL_REPEATS times, or once if `once`.  A
    command's time is its fastest run in the pass; a family's time sums its
    commands' times, and the pass's operations are the times of the eight
    small commands."""
    p = Pass()
    todo = [(family, args) for family, args in readme_commands(size)
            for _ in range(1 if once or args[0] in LARGE else SMALL_REPEATS)]
    runs = []
    start = time.perf_counter()
    for family, args in rng.sample(todo, len(todo)):
        runs.append((args, spawn_in_pass(p, cli_argv(args, trace), trace)))
    p.wall = time.perf_counter() - start
    times = {}
    for args, child in runs:
        want = expected["readme"][" ".join(args)]
        ok = (child.code == want["exit"] and sha(normalize(child.stdout)) == want["sha256"]
              and outcome_size(args, child.stdout) == want["size"])
        p.attempted += 1
        p.failed += not ok
        if not ok:
            p.notes.append(f"wrong output: flaghom {' '.join(args)}")
        p.rss_mb = max(p.rss_mb, child.rss_mb)
        times.setdefault(" ".join(args), []).append(child.seconds)
    for family, args in readme_commands(size):
        fastest = min(times[" ".join(args)])
        if family:
            p.family[family] += fastest
        if args[0] not in LARGE:
            p.ops.append(fastest)
    if trace:
        p.notes += [f"count {name}={tracer.dump_count(dump, name)} on flaghom {' '.join(args)}"
                    for (args, _), dump in zip(runs, p.dumps)
                    for name, cmd in (("snakes.components.calls", "snakes"),
                                      ("kohnert.kohnert_moves.moves", "kohnert"))
                    if args[0] == cmd]
    return p


def verify_pass(rng, size, trace, expected):
    p = Pass()
    args = VERIFY_ARGS[size]
    child = spawn_in_pass(p, cli_argv(args, trace), trace)
    p.wall, p.rss_mb = child.seconds, child.rss_mb
    want = expected["verify"][" ".join(args)]
    try:
        reports = {r["suite"]: r for r in json.loads(child.stdout)}
    except ValueError:
        reports = {}
    for suite, instances in want.items():
        report = reports.get(suite)
        ok = (child.code == 0 and report is not None and not report["failures"]
              and report["instances"] == instances)
        p.attempted += 1
        p.failed += not ok
        if not ok:
            p.notes.append(f"suite {suite} failed or changed its instance count")
        if report is not None:
            p.ops.append(report["seconds"])
            if suite in FAMILIES:
                p.family[suite] += report["seconds"]
    if trace and p.dumps:
        name = "permutations.length.calls"
        p.notes.append(f"count {name}={tracer.dump_count(p.dumps[0], name)} "
                       f"on flaghom {' '.join(args)}")
    return p


def query_stream(rng, size, pool):
    """The seeded stream of one pass: the fixed multiset of pool draws (each
    input repeated `count` times) in a seed-dependent order."""
    stream = [i for i, item in enumerate(pool) for _ in range(item["count"])]
    rng.shuffle(stream)
    return stream if size == "full" else stream[:SMOKE_QUERIES]


def repeat_share(stream):
    return 1 - len(set(stream)) / len(stream)


def stream_pass(rng, size, trace, expected):
    p = Pass()
    pool = expected["pool"]
    stream = query_stream(rng, size, pool)
    queries = [[pool[i]["kind"], pool[i]["input"]] for i in stream]
    child = spawn_in_pass(p, child_argv(["stream"], trace), trace, json.dumps(queries).encode())
    p.wall, p.rss_mb = child.seconds, child.rss_mb
    try:
        results = json.loads(child.stdout) if child.code == 0 else []
    except ValueError:
        results = []
    p.attempted = len(stream)
    for i, (seconds, got) in zip(stream, results):
        item = pool[i]
        p.failed += got != item["sha256"]
        p.ops.append(seconds)
        family = QUERY_FAMILIES.get(item["kind"])
        if family:
            p.family[family] += seconds
    p.failed += len(stream) - len(results)
    if p.failed:
        p.notes.append(f"{p.failed} query results differ from the recorded digests")
    return p


# verify-stretch is not in BENCHMARK.json: a run fits one or two of its 23 s
# passes, too few samples for steady figures on a shared two-CPU host.
PASSES = {"readme-cli": readme_pass, "query-stream": stream_pass,
          "verify-stretch": verify_pass}
# A trace run runs each README command once, so its counts are one run's work
# of each command.
TRACE_PASSES = {**PASSES, "readme-cli": functools.partial(readme_pass, once=True)}
