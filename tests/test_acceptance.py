"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact
(integer/rational equality); the only numeric thresholds are the stated wall
clock budgets, measured with time.monotonic.
"""

import itertools
import random
import time

from corelat import atomic, cores, dynkin, param, weyl
from corelat.diophantine import is_action_free, solve_diagonal
from corelat.dynkin import lookup_type

from golden_data import D4FLAT_SMALL, D6_35, GAMMA_121
from oracles import (enumerate_atomic_upto, gaussian_lift, is_self_conjugate,
                     two_squares_solvable)
from test_cli import (
    golden_12n7,
    golden_8n1,
    golden_simple,
    run_cli,
    TABLE_40N10,
    TABLE_6N7,
)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS — {text}")


def test_criterion_1_exa_c2_end_to_end():
    start = time.monotonic()
    code, out = run_cli(["enumerate", "--type", "C2_1", "--weight", "L0", "--N", "40"])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 3
    case = param.get_case("C2")
    points = param.lattice_points(case, 40)
    images = sorted(case.phi_map(q) for q in points)
    assert images == [(-18, -1), (-10, 15), (6, -17)]
    solutions = solve_diagonal((1, 1), 325)
    assert len(solutions) == 24 == 8 * len(points)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"3 elements, phi images and |U(325)|=24 in {elapsed:.3f}s")


def test_criterion_2_representative_theorems_to_200():
    start = time.monotonic()
    for case_id in ("A2", "C2", "C2L1", "D3t", "D43"):
        for n in range(0, 201):
            report = param.verify_case(case_id, n)
            assert report.passed, (case_id, n, report.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"5 verifiers x N<=200 free + complete representatives in {elapsed:.1f}s")


def _model_counts_by_size(case_id, bound):
    """Partition-model cardinalities, counted on actual partitions."""
    counts = {n: 0 for n in range(bound + 1)}
    if case_id == "A2":          # 3-cores by size
        for n in range(bound + 1):
            counts[n] = len(cores.enumerate_partitions(n, "core", 3))
        return counts
    if case_id == "C2":          # self-conjugate 4-cores via symmetric charges
        seen = set()
        for a, b in itertools.product(range(-9, 10), repeat=2):
            lam = cores.core_from_charge(4, (a, b, -b, -a))
            if sum(lam) <= bound and lam not in seen:
                seen.add(lam)
                assert is_self_conjugate(lam) and cores.is_d_core(lam, 4)
                counts[sum(lam)] += 1
        return counts
    if case_id == "D3t":         # bar-core model via the explicit construction
        for n in range(bound + 1):
            bars = {cores.bar_core_from_lattice(2, v.coords)
                    for v in atomic.enumerate_atomic("D3_2", 0, n)}
            counts[n] = len(bars)
        return counts
    if case_id == "D43":         # flat model via the explicit construction
        for n in range(bound + 1):
            flats = {cores.d4flat_from_lattice(v.coords)
                     for v in atomic.enumerate_atomic("D4_3", 0, n)}
            counts[n] = len(flats)
        return counts
    raise ValueError(case_id)


def test_criterion_3_counting_corollaries_to_200():
    jobs = (("A2", 6), ("C2", 8), ("C2L1", 4), ("D3t", 8), ("D43", 4))
    for case_id, divisor in jobs:
        case = param.get_case(case_id)
        for n in range(0, 201):
            sols = solve_diagonal(case.form, case.equation_value(n))
            assert len(sols) % divisor == 0
            assert len(sols) // divisor == len(param.lattice_points(case, n)), \
                (case_id, n)
    # and the corollaries in their partition-model form
    for case_id, divisor in (("A2", 6), ("C2", 8), ("D3t", 8), ("D43", 4)):
        case = param.get_case(case_id)
        counts = _model_counts_by_size(case_id, 60)
        for n in range(0, 61):
            sols = solve_diagonal(case.form, case.equation_value(n))
            assert counts[n] == len(sols) // divisor, (case_id, n)
    _report(3, "counting corollaries exact for N<=200 (models cross-checked to 60)")


def test_criterion_4_golden_tables():
    code, out = run_cli(["table", "--figure", "8N+1", "--max-N", "14"])
    assert code == 0 and out == golden_8n1()
    code, out = run_cli(["table", "--figure", "40N+10", "--max-N", "6"])
    assert code == 0 and out == golden_simple(TABLE_40N10, ["N", "B", "phi", "solutions"])
    assert "(-5,-5);(-5,5)" in out          # the size-4 orbit of (5,5) at N=1
    code, out = run_cli(["table", "--figure", "6N+7", "--max-N", "5"])
    assert code == 0 and out == golden_simple(TABLE_6N7, ["N", "B", "phi", "solutions"])
    assert "3,,,\"(-5,0);(5,0)\"" in out    # empty B(3) with U(25)
    code, out = run_cli(["table", "--figure", "12N+7", "--max-N", "19"])
    assert code == 0 and out == golden_12n7()
    for empty_n in (4, 9, 15, 19):
        assert f"\n{empty_n},,,,\n" in out
    _report(4, "four golden tables byte-exact")


def test_criterion_5_sigma_invariance_and_divisibility():
    for name in ("A1_1", "A2_1", "A3_1", "A4_1", "C2_1", "C3_1", "C4_1"):
        t = lookup_type(name)
        modulus = t.n + 1 if t.id.family == "A" else 2
        buckets = enumerate_atomic_upto(t, 0, 100)
        layer = weyl.sigma_indices(t)
        for value, vectors in sorted(buckets.items()):
            if value < 0:
                continue
            assert (len(layer) * len(vectors)) % modulus == 0
            for v in vectors:
                for j in layer:
                    img = weyl.extended_image(t, weyl.ExtGrassElement(name, j, v.coords))
                    assert atomic.atomic_length0(t, img.coords) == value
    _report(5, "sigma invariance and divisibility for n<=4, N<=100")


def test_criterion_6_additivity_thousand_triples():
    rng = random.Random(424242)
    ids = dynkin.all_type_ids(4)
    for _ in range(1000):
        t = lookup_type(rng.choice(ids))
        basis = t.m_basis
        def rand_vec():
            m = [rng.randint(-5, 5) for _ in basis]
            return tuple(
                sum(m[i] * basis[i][d] for i in range(len(basis)))
                for d in range(t.ambient_dim)
            )
        x, y = rand_vec(), rand_vec()
        w = atomic.weight_Lambda(t, rng.randint(0, t.n))
        lhs = atomic.extended_atomic_length(t, w, tuple(a + b for a, b in zip(x, y)))
        rhs = (atomic.extended_atomic_length(t, w, x)
               + atomic.extended_atomic_length(t, w, y)
               + atomic.defect(t, w, x, y))
        assert lhs == rhs
    _report(6, "additivity exact on 1000 random triples over all rank<=4 types")


def test_criterion_7_charge_fixtures_and_round_trip():
    assert cores.charge_of_core(5, (8, 5, 5, 2, 2, 1)) == (0, -1, 2, 1, -2)
    assert cores.charge_of_core(3, (3, 1)) == (0, -1, 1)
    total = 0
    for d in range(2, 9):
        for n in range(0, 31):
            for lam in cores.enumerate_partitions(n, "core", d):
                assert cores.core_from_charge(d, cores.charge_of_core(d, lam)) == lam
                total += 1
    _report(7, f"charge fixtures and {total} exact round trips (size<=30, d<=8)")


def test_criterion_8_partition_model_bridges():
    for n in range(0, 61):
        assert len(atomic.enumerate_atomic("C2_1", 0, n)) == \
            len(cores.enumerate_partitions(n, "scc", 4))
    for n in range(0, 61):
        base = [v.coords for v in atomic.enumerate_atomic("D3_2", 0, n)]
        bars = {cores.bar_core_from_lattice(2, q) for q in base}
        assert len(bars) == len(base)
        assert all(sum(lam) == n for lam in bars)
    for n, expected in D4FLAT_SMALL.items():
        got = sorted(cores.d4flat_from_lattice(v.coords)
                     for v in atomic.enumerate_atomic("D4_3", 0, n))
        assert got == sorted(expected)
    got35 = sorted(cores.bar_core_from_lattice(2, v.coords)
                   for v in atomic.enumerate_atomic("D3_2", 0, 35))
    assert got35 == sorted(D6_35)
    _report(8, "partition-model bridges for N<=60, flat tables N<=10, D6(35)")


def test_criterion_9_a3_suite():
    start = time.monotonic()
    assert param.a3_strata(121).gamma == GAMMA_121
    for n in range(0, 51):
        strata = param.a3_strata(n)
        assert strata.partition_ok and strata.nonempty_iff_omega and strata.all_y_odd
        report = param.verify_case("A3", n)
        assert report.passed, (n, report.witness)
    for n in range(0, 101):
        report = param.a3_conjecture_check(n)
        assert report.passed, (n, report.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(9, f"strata/props N<=50 and conjecture N<=100 in {elapsed:.1f}s")


def test_criterion_10_two_squares_structure():
    # |U(k)| = |U(m)| through the Gaussian factor map, all solvable k <= 5000
    radius = 71   # 71^2 > 5000
    counts = {}
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            k = x * x + y * y
            if k <= 5000:
                counts[k] = counts.get(k, 0) + 1
    for k in range(1, 5001):
        if not two_squares_solvable(k):
            assert k not in counts
            continue
        lift = gaussian_lift(k)
        assert counts.get(k, 0) == counts.get(lift.m, 0), k
    # freeness characterisation for k <= 2000
    import math
    for k in range(2, 2001):
        sols = solve_diagonal((1, 1), k)
        if not sols:
            continue
        free, witness = is_action_free("D8", sols)
        r = math.isqrt(k)
        expected = not (r * r == k or (k % 2 == 0 and math.isqrt(k // 2) ** 2 == k // 2))
        assert free == expected, k
        if not free:
            assert witness is not None
    _report(10, "Gaussian lift |U(k)|=|U(m)| to 5000; freeness criterion to 2000")


def test_criterion_11_hyperoctahedral_orbits():
    families = {2: ("HYP:B2_1", "HYP:C2_1", "HYP:A3_2", "HYP:D3_2", "HYP:A4_2"),
                3: ("HYP:B3_1", "HYP:C3_1", "HYP:A5_2", "HYP:D4_2", "HYP:A6_2")}
    for n, case_ids in families.items():
        for case_id in case_ids:
            for target in range(0, 21):
                report = param.verify_case(case_id, target)
                assert report.passed, (case_id, target, report.witness)
                assert report.counts["expected_orbit_size"] == 2 ** n * [1, 1, 2, 6][n]
    _report(11, "hyperoctahedral orbit sizes 2^n n! for all five families, n in {2,3}, N<=20")
