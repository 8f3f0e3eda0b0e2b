"""Span aggregation around flaghom's layer functions, installed from outside
the library.

`install` replaces each function named in LAYERS by a timing wrapper in every
``flaghom`` module namespace that holds it, so calls across modules are
caught.  Spans are aggregated in memory by (function, calling function) and
written out once, when the traced process ends.  Self time is a span's
duration minus the time its child spans cover.  `layer_metrics` turns the
dumps of one or more traced processes into the per-layer metrics.
"""

import functools
import sys
import time

# module -> public functions wrapped in the traced run
LAYERS = {
    "fillings": ("enumerate_fillings", "is_member"),
    "polynomials": ("add", "mul", "divided_difference"),
    "kohnert": ("kohnert_closure", "kohnert_moves"),
    "snakes": ("enumerate_special_snake_tabloids", "components", "iota",
               "gset_enumerate"),
    "compositions": ("key_poset_leq",),
    "frsk": ("frsk", "frsk_inverse", "flagged_insert_trace", "tau",
             "tau_dagger"),
    "permutations": ("length", "apply_transposition"),
    "schubert": ("horizontal_strip_targets", "schubert_oracle"),
    "bases": ("key_polynomial", "demazure_atom", "ktilde", "ktilde_upper",
              "h_flagged"),
}

# Poly arithmetic is traced under these names; the reflected operator is the
# same function in the library, so both dunder slots get the one wrapper.
POLY_METHODS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__")}

# per-call outcome counts: span name -> (stat name, count(result, args))
OUTCOMES = {
    "fillings.enumerate_fillings": ("results", lambda r, a: len(r)),
    "polynomials.add": ("terms_copied", lambda r, a: len(a[0].terms)),
    "kohnert.kohnert_closure": ("diagrams", lambda r, a: len(r)),
    "kohnert.kohnert_moves": ("moves", lambda r, a: len(r)),
    "snakes.enumerate_special_snake_tabloids": ("tabloids", lambda r, a: len(r)),
    "schubert.horizontal_strip_targets": ("targets", lambda r, a: len(r)),
}

# stats reported per function; functions not listed report calls and self_s
REPORTED = {
    "frsk.flagged_insert_trace": ("calls",),
    "permutations.apply_transposition": ("calls",),
}

SUITES = ("basis", "stable-limit", "kohnert", "key-atom", "kostka", "cauchy",
          "frsk", "snakes", "cancelfree", "involution", "schubert",
          "regressions")

# ratio name -> (numerator, denominator)
RATIOS = {
    "kohnert.new_per_move": ("kohnert.kohnert_closure.diagrams",
                             "kohnert.kohnert_moves.moves"),
    "snakes.tabloids_per_component_call": (
        "snakes.enumerate_special_snake_tabloids.tabloids",
        "snakes.components.calls"),
    "frsk.tau_per_inverse": ("frsk.tau.calls", "frsk.frsk_inverse.calls"),
    "schubert.targets_per_length_call": (
        "schubert.horizontal_strip_targets.targets", "permutations.length.calls"),
}


class Tracer:
    """Aggregated spans: (name, parent name) -> [calls, total_s, self_s, outcome]."""

    def __init__(self):
        self.spans = {}
        self.suites = {}
        self._stack = []

    def wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        outcome = OUTCOMES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if outcome is not None:
                record[3] += outcome(result, args)
            return result

        return traced

    def wrap_run_suite(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            report = fn(*args, **kwargs)
            seconds, instances = self.suites.get(report.suite, (0.0, 0))
            self.suites[report.suite] = (seconds + report.seconds,
                                         instances + report.instances)
            return report

        return traced

    def dump(self):
        from flaghom import schubert

        return {
            "spans": [[name, parent, *record]
                      for (name, parent), record in sorted(
                          self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "suites": self.suites,
            "oracle_cache": len(schubert._oracle_cache),
        }


def _replace_everywhere(original, replacement, modules):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install():
    """Wrap every layer function in every flaghom namespace; return the tracer."""
    import flaghom.cli  # noqa: F401  (imports every layer module)
    from flaghom.polynomials import Poly

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "flaghom" or name.startswith("flaghom.")]
    for layer, names in LAYERS.items():
        home = sys.modules["flaghom." + layer]
        for fname in names:
            if layer == "polynomials" and fname in POLY_METHODS:
                slots = POLY_METHODS[fname]
                wrapped = tracer.wrap(f"{layer}.{fname}", getattr(Poly, slots[0]))
                for slot in slots:
                    setattr(Poly, slot, wrapped)
                continue
            original = getattr(home, fname)
            _replace_everywhere(original, tracer.wrap(f"{layer}.{fname}", original),
                                modules)
    verify = sys.modules["flaghom.verify"]
    _replace_everywhere(verify.run_suite, tracer.wrap_run_suite(verify.run_suite),
                        modules)
    return tracer


def metric_units():
    """Every per-layer metric name with its unit and direction, in print order."""
    out = []
    for layer, names in LAYERS.items():
        out.append((f"{layer}.self_s", "s", "lower"))
        for fname in names:
            key = f"{layer}.{fname}"
            for stat in REPORTED.get(key, ("calls", "self_s")):
                out.append((f"{key}.{stat}", "s" if stat == "self_s" else "count", "lower"))
            if key in OUTCOMES:
                out.append((f"{key}.{OUTCOMES[key][0]}", "count", "higher"))
        if layer == "schubert":
            out.append(("schubert.oracle_cache.entries", "count", "lower"))
    for name in RATIOS:
        out.append((name, "ratio", "lower" if name == "frsk.tau_per_inverse" else "higher"))
    for suite in SUITES:
        out.append((f"verify.{suite}.seconds", "s", "lower"))
        out.append((f"verify.{suite}.instances", "count", "higher"))
    return out


def dump_count(dump, name):
    """`<function>.calls` or `<function>.<outcome>` in one process's dump."""
    fn, stat = name.rsplit(".", 1)
    index = 2 if stat == "calls" else 5
    return sum(span[index] for span in dump["spans"] if span[0] == fn)


def layer_metrics(dumps):
    """Sum the dumps of several traced processes into the per-layer metrics."""
    totals = {}
    for dump in dumps:
        for name, _parent, calls, _total, self_s, outcome in dump["spans"]:
            layer = name.split(".")[0]
            for key, value in ((f"{name}.calls", calls), (f"{name}.self_s", self_s),
                               (f"{layer}.self_s", self_s)):
                totals[key] = totals.get(key, 0) + value
            if name in OUTCOMES:
                key = f"{name}.{OUTCOMES[name][0]}"
                totals[key] = totals.get(key, 0) + outcome
        totals["schubert.oracle_cache.entries"] = (
            totals.get("schubert.oracle_cache.entries", 0) + dump["oracle_cache"])
        for suite, (seconds, instances) in dump["suites"].items():
            totals[f"verify.{suite}.seconds"] = totals.get(f"verify.{suite}.seconds", 0) + seconds
            totals[f"verify.{suite}.instances"] = (
                totals.get(f"verify.{suite}.instances", 0) + instances)
    for name, (num, den) in RATIOS.items():
        totals[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return {name: (totals.get(name, 0), unit) for name, unit, _ in metric_units()}
