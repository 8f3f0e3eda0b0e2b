"""Acceptance gate: every criterion below runs at its full stated range with
exact (zero-tolerance) comparisons and prints one pass/fail line."""

from flaghom.polynomials import Poly
from flaghom.verify import VerifyReport, run_suite


# instances of each suite at the range its criterion runs; a suite that
# drops or repeats a check changes its count
INSTANCES = {"basis": 574, "stable-limit": 51, "kohnert": 610, "key-atom": 541,
             "kostka": 316, "cauchy": 5, "frsk": 1262, "snakes": 454,
             "cancelfree": 181, "involution": 434, "schubert": 1636,
             "regressions": 72}


def _run(criterion, name, n=None, deg=None, max_seconds=None):
    report = run_suite(name, n=n, deg=deg)
    status = "PASS" if report.passed else "FAIL"
    print(f"criterion {criterion:>2} [{name}]: {status} "
          f"({report.instances} instances, {report.seconds:.2f}s)")
    assert report.passed, (name, report.failures[:5])
    assert report.instances == INSTANCES[name], (name, report.instances)
    if max_seconds is not None:
        assert report.seconds < max_seconds, (name, report.seconds)
    return report


def test_criterion_01_basis_triangularity():
    _run(1, "basis", n=3, deg=4, max_seconds=10)


def test_criterion_02_stable_limit():
    _run(2, "stable-limit", n=3, deg=4)


def test_criterion_03_kohnert_character():
    _run(3, "kohnert", n=3, deg=4, max_seconds=30)


def test_criterion_04_key_and_atom_expansions():
    _run(4, "key-atom", n=3, deg=4)


def test_criterion_05_kostka_bridges():
    _run(5, "kostka", n=3, deg=4)


def test_criterion_06_truncated_cauchy():
    _run(6, "cauchy", n=3, deg=4)


def test_criterion_07_flagged_rsk():
    _run(7, "frsk", n=3, deg=4, max_seconds=60)


def test_criterion_08_snake_expansion():
    _run(8, "snakes", n=3, deg=5)


def test_criterion_09_cancellation_free():
    _run(9, "cancelfree", deg=6)


def test_criterion_10_involution():
    _run(10, "involution", n=3, deg=4)


def test_criterion_11_schubert_expansion():
    _run(11, "schubert", n=3, deg=4)


def test_criterion_12_pinned_value_regressions():
    _run(12, "regressions")


def test_a_new_report_is_empty():
    report = VerifyReport("demo")
    assert (report.suite, report.instances, report.failures, report.seconds) == (
        "demo", 0, [], 0.0)
    assert report.passed and VerifyReport("other").failures is not report.failures


def test_failure_detail_writes_polynomials_out():
    report = VerifyReport("demo")
    report.check(True, expected=Poly.variable(1), got=Poly.zero())
    report.check(False, b=(1, 0), expected=Poly.variable(1), got=Poly.zero())
    report.equal(Poly.variable(1), Poly.variable(1), b=(0, 1))
    report.equal(Poly.variable(1), Poly.zero(), b=(1, 0), kind="equal")
    assert report.instances == 4
    assert [list(f.items()) for f in report.failures] == [
        [("b", (1, 0)), ("expected", "x1"), ("got", "0")],
        [("b", (1, 0)), ("kind", "equal"), ("expected", "x1"), ("got", "0")]]
