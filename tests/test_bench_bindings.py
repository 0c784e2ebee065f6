"""The benchmark's traced run looks corelat functions up by name.

bench/workloads.py wraps the layers it traces with getattr and rebinds every
corelat global that refers to them; a renamed or deleted function makes
``bench/run.py --trace 1`` fail.  This test runs the same instrumentation on
one small verification and undoes it.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_instrumentation_binds_and_restores():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    from corelat import param

    original = param.verify_case
    rec = spans.Recorder()
    try:
        workloads.instrument(rec)
        report = param.verify_case("A2ext", 1)
    finally:
        rec.restore()
    assert report.passed
    assert param.verify_case is original
    calls = {name: calls for name, (calls, _) in rec.per_name().items()}
    assert calls["param.verify_case"] == 1
    assert calls["linalg.enumerate_quadratic_level"] >= 1
    assert calls["param.phi"] >= 3
    # A2ext's tiling check lists each base point's C6 orbit
    assert calls["diophantine.orbit"] >= 1


def test_bench_solver_span_is_reached():
    # the a3-conjecture cross-check takes the median of the solver spans, so
    # the representative search must run through diophantine.solve_diagonal,
    # for each group: A2 (C6), C2 (D8), C2L1 (C4), G21 (V4), HYP:C3_1 (H)
    # and the A3 conjecture (G_A3)
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    from corelat import param

    for run in (lambda: param.a3_conjecture_check(3),
                *(lambda case_id=case_id: param.verify_case(case_id, 2)
                  for case_id in ("A2", "C2", "C2L1", "G21", "HYP:C3_1"))):
        rec = spans.Recorder()
        try:
            workloads.instrument(rec)
            report = run()
        finally:
            rec.restore()
        assert report.passed
        calls = {name: calls for name, (calls, _) in rec.per_name().items()}
        assert calls.get("diophantine.solve_diagonal", 0) >= 1


def test_lattice_levels_are_below_the_search_cap():
    # no level the benchmark enumerates is refused by atomic.level_form
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    from corelat import atomic

    for type_id, weight, lo, hi, _ in workloads.LatticeLevels.ENTRIES:
        for n in range(lo, hi + 1):
            form = atomic.level_form(type_id, weight, n, "L" if weight else "M")
            assert 0 < form.outer_values(n) <= atomic.MAX_OUTER_VALUES
