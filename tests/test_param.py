import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from corelat import atomic, cli, cores, diophantine, dynkin, linalg, param, weyl
from corelat.param import (
    a3_conjecture_check,
    a3_strata,
    get_case,
    hyp_case,
    lattice_points,
    layer_image,
    map_p_a2,
    map_p_a3,
    u_rotate,
    verify_case,
)

import oracles
from golden_data import GAMMA_121
from oracles import case_length

RANK2_CASES = ("A2", "A2ext", "C2", "C2L1", "D3t", "A42", "G21", "D43", "A3")
HYP_CASES = ("HYP:B2_1", "HYP:B3_1", "HYP:C2_1", "HYP:C3_1", "HYP:A3_2",
             "HYP:A5_2", "HYP:D3_2", "HYP:D4_2", "HYP:A4_2", "HYP:A6_2")


@pytest.mark.parametrize("case_id", RANK2_CASES + HYP_CASES)
def test_phi_lands_on_quadric(case_id):
    # construction invariant: phi(q) solves the equation at N = length(q),
    # at q = 0 and on 20 seeded random lattice points
    case = get_case(case_id)
    rng = random.Random(hash(case_id) & 0xFFFF)
    zeros = [q for q in lattice_points(case, 0)]
    samples = list(zeros)
    upper = 30
    pool = [q for n in range(upper) for q in lattice_points(case, n)]
    samples += [pool[rng.randrange(len(pool))] for _ in range(20)]
    for q in samples:
        value = case_length(case, q)
        image = case.phi_map(q)
        assert sum(d * x * x for d, x in zip(case.form, image)) == \
            case.a * value + case.b


def test_phi_examples():
    assert get_case("C2").phi_map((1, -3)) == (-10, 15)
    assert get_case("D43").phi_map((0, 1)) == (8, 3)
    assert map_p_a3((0, 0, 0, 0)) == (-1, 1, -3)
    assert layer_image(get_case("A3"), 0, (0, 0, 0, 0)) == (-1, 1, -3)
    assert get_case("HYP:C3_1").phi_map((0, 0, 0)) == (-5, -3, -1)
    assert get_case("A2").phi_map((0, 0, 0)) == (-1, -1)
    assert map_p_a2((0, 0, 0)) == (-1, -1)


def test_exa_c2_end_to_end():
    case = get_case("C2")
    points = lattice_points(case, 40)
    assert points == [(-2, -2), (-1, 3), (1, -3)]
    assert sorted(u_rotate(q) for q in points) == [(-4, 0), (-2, 4), (2, -4)]
    assert sorted(case.phi_map(q) for q in points) == [(-18, -1), (-10, 15), (6, -17)]
    report = verify_case("C2", 40)
    assert report.passed
    assert report.counts == {"solutions": 24, "orbits": 3, "phi_images": 3}


def test_verify_representatives_sweeps():
    for case_id in ("A2", "C2", "C2L1", "D3t", "D43"):
        for n in range(0, 12):
            report = verify_case(case_id, n)
            assert report.passed, (case_id, n, report.witness)


def test_d3t_35():
    report = verify_case("D3t", 35)
    assert report.passed and report.counts["orbits"] == 3
    case = get_case("D3t")
    reps = sorted(case.phi_map(q) for q in lattice_points(case, 35))
    assert reps == [(-20, 5), (-8, -19), (16, -13)]


def test_c2l1_2():
    case = get_case("C2L1")
    points = lattice_points(case, 2)
    images = sorted(case.phi_map(q) for q in points)
    assert images == [(-4, 1), (4, 1)]
    # both representatives come from the odd-parity coset
    for q in points:
        assert sum(u_rotate(q)) % 2 == 1
    assert verify_case("C2L1", 2).passed


def test_orbit_size_cases():
    report = verify_case("A42", 1)
    assert report.passed
    assert report.counts["orbits"] == 2 and report.counts["covered_orbits"] == 1
    # the uncovered orbit is the undersized one of (5,5)
    assert sorted(diophantine.orbit("D8", (5, 5))) == [(-5, -5), (-5, 5), (5, -5), (5, 5)]
    report = verify_case("G21", 3)
    assert report.passed
    assert report.counts["phi_images"] == 0
    assert diophantine.solve_diagonal((1, 3), 25) == [(-5, 0), (5, 0)]


@pytest.mark.parametrize("case_id", HYP_CASES)
def test_hyperoctahedral_orbit_sizes(case_id):
    for n in range(0, 8):
        report = verify_case(case_id, n)
        assert report.passed, (case_id, n, report.witness)


def test_hyp_polynomials_match_registry():
    # where the type exists in the registry, the family polynomial is the length
    for type_id in ("B3_1", "C2_1", "C3_1", "A5_2", "D3_2", "D4_2", "A4_2", "A6_2"):
        case = hyp_case(type_id)
        for n in range(0, 10):
            ours = lattice_points(case, n)
            registry = [v.coords for v in atomic.enumerate_atomic(type_id, 0, n)]
            assert ours == registry, (type_id, n)


def test_pig_a2():
    for n in (0, 1, 6):
        report = verify_case("A2ext", n)
        assert report.passed, (n, report.witness)
    assert verify_case("A2ext", 0).counts["solutions"] == 6
    assert verify_case("A2ext", 6).counts["solutions"] == 12
    # N=1 pairs arise from (2,2), (2,-2), (-4,0)
    q = (1, 0, -1)
    assert layer_image(get_case("A2ext"), 0, q) == (2, 2)
    assert layer_image(get_case("A2ext"), 1, q) == (2, -2)
    assert layer_image(get_case("A2ext"), 2, q) == (-4, 0)


def test_a2ext_layer_points_on_same_ellipse():
    for n in range(6):
        for v in atomic.enumerate_atomic("A2_1", 0, n):
            images = [layer_image(get_case("A2ext"), j, v.coords) for j in range(3)]
            assert len(set(images)) == 3
            for x, y in images:
                assert x * x + 3 * y * y == 12 * n + 4


def test_a3_strata_n0():
    strata = a3_strata(0)
    assert strata.gamma == [-3, -1, 1, 3]
    assert strata.partition_ok and strata.nonempty_iff_omega and strata.all_y_odd
    total = sum(len(pts) for pts in strata.strata.values())
    assert total == len(diophantine.solve_diagonal((1, 2, 3), 30))


def test_gamma_121():
    assert a3_strata(121).gamma == GAMMA_121


def test_stratify_matches_the_full_omega_scan():
    # a3_strata, its flags read off the representatives, stratifies all of
    # U as the oracle does, whose omega test scans all of [-radius, radius]
    # where _strata_flags scans m >= 0 in the accepted residue classes; with
    # no points, each non-empty omega breaks the emptiness rule
    for n in range(301):
        level = param.LevelData(get_case("A3"), n)
        assert a3_strata(n) == oracles.stratify(level, level.solutions), n
        none = oracles.stratify(level, ())
        assert param._strata_flags(level.k, {}) == (
            none.gamma, none.nonempty_iff_omega, none.partition_ok, none.all_y_odd), n


def test_a3_props_and_conjecture_small():
    for n in range(0, 8):
        assert verify_case("A3", n).passed
        assert a3_conjecture_check(n).passed
    # N=0: one layer point in each of the four strata
    strata = a3_strata(0)
    images = [layer_image(get_case("A3"), j, (0, 0, 0, 0)) for j in range(4)]
    assert sorted(img[1] for img in images) == strata.gamma


def test_u_rotation_is_involutive_isometry():
    # the stored matrix [[1,1],[1,-1]] squares to 2*id; the sqrt(2) factor
    # hidden in the stored coordinates makes the true map an involutive isometry
    for q in itertools.product(range(-4, 5), repeat=2):
        rotated = u_rotate(q)
        assert u_rotate(rotated) == (2 * q[0], 2 * q[1])
        assert sum(x * x for x in rotated) == 2 * sum(x * x for x in q)


def test_h_statistic():
    for b1, b2 in itertools.product(range(-6, 7), repeat=2):
        value = oracles.h_statistic((b1, b2))
        assert value == 4 * b1 * b1 + 4 * b2 * b2 - 3 * b1 + 3 * b2
        p, m = b1 + b2, b1 - b2
        assert 8 * (value + 1) + 1 == (4 * p) ** 2 + (4 * m - 3) ** 2


def test_counting_corollaries_small():
    # |fibre| equals |solutions| / |G| for the complete cases
    for case_id, divisor in (("A2", 6), ("C2", 8), ("C2L1", 4), ("D3t", 8), ("D43", 4)):
        case = get_case(case_id)
        for n in range(0, 25):
            sols = diophantine.solve_diagonal(case.form, case.equation_value(n))
            assert len(sols) == divisor * len(lattice_points(case, n))


def test_get_case_errors():
    with pytest.raises(ValueError):
        get_case("nope")
    with pytest.raises(ValueError):
        get_case("HYP:G2_1")


def test_phi_non_integral_image():
    from corelat.diophantine import NonIntegralImage
    with pytest.raises(NonIntegralImage):
        get_case("G21").phi_map((0, F(1, 2)))
    with pytest.raises(NonIntegralImage):
        get_case("D3t").phi_map((F(1, 4), 0))


def test_a3_stratum_accessor():
    strata = a3_strata(0)
    st3 = oracles.stratum(strata, 3)
    assert st3.N == 0 and st3.y == 3
    assert st3.points and all(p[1] == 3 for p in st3.points)
    assert oracles.stratum(strata, 99).points == []


def _checks_agree(check, oracle, case, n):
    """The check on representatives and the original on all of U report alike."""
    new = check(param.LevelData(case, n)).to_dict()
    assert new == oracle(param.LevelData(case, n)).to_dict(), (case.case_id, n)
    return new


def test_orbit_size_check_matches_full_set_oracle():
    for case_id in ("A42", "G21"):
        for n in range(31):
            _checks_agree(param.check_orbit_size, oracles.check_orbit_size,
                          get_case(case_id), n)
    for case_id in HYP_CASES:
        for n in range(6):
            _checks_agree(param.check_orbit_size, oracles.check_orbit_size,
                          get_case(case_id), n)


@pytest.mark.parametrize("case_id,n", [("A42", 1), ("G21", 7), ("HYP:C3_1", 1),
                                       ("HYP:B3_1", 2)])
def test_orbit_size_check_fail_branches_match_oracle(case_id, n):
    case = get_case(case_id)
    assert lattice_points(case, n)
    shifted = dataclasses.replace(case, phi_map=lambda q: tuple(
        x + 1 for x in case.phi_map(q)))
    report = _checks_agree(param.check_orbit_size, oracles.check_orbit_size, shifted, n)
    assert report["witness"]["reason"] == "phi image off the quadric"
    k = case.equation_value(n)
    small = next(p for p in oracles.representatives(case.group, case.form, k)
                 if len(diophantine.orbit(case.group, p))
                 < diophantine.group_order(case.group, len(case.form)))
    undersized = dataclasses.replace(case, phi_map=lambda q: small)
    report = _checks_agree(param.check_orbit_size, oracles.check_orbit_size, undersized, n)
    assert report["witness"]["reason"] == "orbit not of full size"


def test_a3_conjecture_check_matches_full_set_oracle():
    case = get_case("A3")
    for n in range(61):
        assert _checks_agree(param.check_a3_conjecture, oracles.check_a3_conjecture,
                             case, n)["status"] == "PASS"
    # every layer image sent to one solution leaves the other orbits uncovered
    for n in (0, 3, 10):
        top = max(diophantine.solve_diagonal(case.form, case.equation_value(n)))
        one_orbit = dataclasses.replace(case, phi_map=lambda v: top)
        report = _checks_agree(param.check_a3_conjecture, oracles.check_a3_conjecture,
                               one_orbit, n)
        assert report["witness"]["reason"] == "uncovered solutions"


def test_a3_conjecture_covered_matches_the_oracle_on_pass_and_fail(monkeypatch):
    # a PASS reads covered off the solution count and sums no orbit size over
    # the hits; a FAIL that hits some orbits but not all sums their sizes,
    # which is the size of the union of their orbits the oracle counts
    case, calls = get_case("A3"), []
    orbit_size = case.action.orbit_size

    def counted(point):
        calls.append(point)
        return orbit_size(point)

    monkeypatch.setattr(case.action, "orbit_size", counted)
    for n in range(31):
        calls.clear()
        level = param.LevelData(case, n)
        report = param.check_a3_conjecture(level)
        assert report.passed and report.counts["covered"] == level.solution_count
        assert sorted(calls) == level.reps, n
        assert report.to_dict() == oracles.check_a3_conjecture(param.LevelData(case, n)).to_dict()
    for n in (2, 5, 12):
        reps = param.LevelData(case, n).reps
        top = reps[-1]
        kept = set(reps[::2])
        # the images whose orbit is every other representative's stay, the
        # rest collapse onto the orbit of the largest representative
        partial = dataclasses.replace(case, phi_map=lambda v: (
            img if diophantine.canonical("G_A3", img := case.phi_map(v)) in kept else top))
        report = _checks_agree(param.check_a3_conjecture, oracles.check_a3_conjecture, partial, n)
        assert report["witness"]["reason"] == "uncovered solutions"
        assert 0 < report["counts"]["covered"] < report["counts"]["solutions"], n


def test_a3_conjecture_layer_image_off_the_quadric_is_a_fail():
    case = get_case("A3")
    shifted = dataclasses.replace(case, phi_map=lambda v: tuple(
        x + 2 for x in case.phi_map(v)))
    report = param.check_a3_conjecture(param.LevelData(shifted, 1))
    assert report.status == "FAIL"
    assert report.witness["reason"] == "layer image off the quadric"
    x, y, z = report.witness["image"]
    assert x * x + 2 * y * y + 3 * z * z != case.equation_value(1)


@pytest.mark.parametrize("case_id", ["HYP:B1_1", "HYP:A1_2"])
def test_orbit_size_window_admits_two_images_in_one_orbit(case_id):
    # at rank 1 the lattice points +-q have images +-x in one H-orbit: the
    # orbit-size claim requires each image's orbit free, not one image per
    # orbit, which these levels would fail
    report = verify_case(case_id, 0)
    assert report.passed, report.witness
    assert report.counts["phi_images"] == 2 and report.counts["orbits"] == 1


def test_hyp_rank_six_level_one():
    # the figures of the full solve and orbit partition, which took minutes
    counts = verify_case("HYP:C6_1", 1).counts
    assert counts["solutions"] == 1896384 and counts["orbits"] == 115


def test_verify_case_dispatch():
    assert verify_case("C2", 7).passed
    assert verify_case("A42", 2).passed
    assert verify_case("HYP:D3_2", 0).counts["expected_orbit_size"] == 8
    # each HYP: type builds its case, and so its maps, once per process
    assert get_case("HYP:C3_1") is get_case("HYP:C3_1")


@pytest.mark.parametrize("check", [*(f"verify_case:{c}" for c in (*param.CASES, "HYP:C3_1")),
                                   "a3_conjecture_check", "a3_strata"])
def test_a_negative_level_is_refused(check):
    # LevelData refuses N < 0 for every claim and for the strata, naming N
    name, _, case_id = check.partition(":")
    args = (case_id, -1) if case_id else (-1,)
    with pytest.raises(ValueError, match="level N must be non-negative, got -1"):
        getattr(param, name)(*args)


def test_orbit_size_cases_sweep_to_200():
    # every phi image lies on its quadric and has a full orbit, N <= 200
    for case_id in ("A42", "G21"):
        for n in range(0, 201):
            report = verify_case(case_id, n)
            assert report.passed, (case_id, n, report.witness)


def test_a3_extended_counts():
    # exactly one 4-core of size 1, hence four layer points at level 1
    report = a3_conjecture_check(1)
    assert report.passed
    assert report.counts["base_elements"] == 1
    assert report.counts["extended_elements"] == 4
    assert len(cores.enumerate_partitions(1, "core", 4)) == 1


def _hyp_ids(rank):
    """One HYP: case id per family at the given hyperoctahedral rank."""
    return (f"HYP:B{rank}_1", f"HYP:C{rank}_1", f"HYP:A{2 * rank - 1}_2",
            f"HYP:A{2 * rank}_2", f"HYP:D{rank + 1}_2")


@pytest.mark.parametrize("case_id", [*param.CASES,
                                     *(i for rank in range(1, 5) for i in _hyp_ids(rank))])
def test_band_fed_levels_match_per_level_levels(case_id):
    # N <= 300 in bands of param.BAND: each band presets the coefficients
    # and the reps, H's included
    case = get_case(case_id)
    band = list(param.band_levels(case, 0, 301))
    assert [level.n for level in band] == list(range(301))
    assert all("coefficients" in vars(level) and "reps" in vars(level) for level in band)
    for level in band:
        alone = param.LevelData(case, level.n)
        assert level.reps == alone.reps
        assert level.coefficients == alone.coefficients
        assert level.images == alone.images
        assert param.decide(level, case.claim) == param.decide(alone, case.claim)


def test_sweeps_decide_as_each_level_does():
    # the band sweeps give the per-level reports, across a band boundary
    top = param.BAND + 3
    assert list(param.verify_sweep("A2ext", top)) == [verify_case("A2ext", n) for n in range(top + 1)]
    assert list(param.a3_conjecture_sweep(top)) == list(map(a3_conjecture_check, range(top + 1)))


def test_affine_phi_matches_original_functions():
    # the integer affine maps against the hand-written Fraction functions
    for case_id, case in param.CASES.items():
        old_phi = oracles.PHI[case_id]
        for n in range(21):
            for q in lattice_points(case, n):
                assert case.phi_map(q) == old_phi(q), (case_id, q)
                if case_id in ("C2", "C2L1"):
                    assert u_rotate(q) == oracles.u_rotate(q)
                if case.claim not in ("extended", "stratified"):
                    continue
                for j in weyl.sigma_indices(case.type_id):
                    element = weyl.ExtGrassElement(case.type_id, j, q)
                    old = oracles.extended_image(case.type_id, element)
                    assert weyl.extended_image(case.type_id, element) == old
                    assert layer_image(case, j, q) == old_phi(old.coords), (case_id, j, q)
    for rank in range(1, 6):
        for case_id in _hyp_ids(rank):
            case = get_case(case_id)
            old_phi = oracles.hyp_phi(*param._hyp_family_of_type(case.type_id))
            for n in range(21):
                for q in lattice_points(case, n):
                    assert case.phi_map(q) == old_phi(q), (case_id, q)
    for case_id, q in (("G21", (0, F(1, 2))), ("D3t", (F(1, 4), 0))):
        with pytest.raises(diophantine.NonIntegralImage):
            get_case(case_id).phi_map(q)
        with pytest.raises(diophantine.NonIntegralImage):
            oracles.PHI[case_id](q)


def test_hyp_equation_matches_original_table():
    # a, b and phi completed from kappa and l_i equal the table they replaced
    for rank in range(1, 12):
        for case_id in _hyp_ids(rank):
            case = get_case(case_id)
            family, n = param._hyp_family_of_type(case.type_id)
            spec = oracles.HYP_TABLE[family]
            assert (case.a, case.b) == (spec["a"](n), spec["b"](n)), case_id
            coeff = spec["coeff"](n)
            assert case.phi_map.P == tuple(tuple(coeff * (r == c) for c in range(n))
                                           for r in range(n))
            assert case.phi_map.p == tuple(-spec["offset"](n, i) for i in range(1, n + 1))


# (a, b, p) of each case, recorded when they were typed by hand: the paper's
# 12N+4, 8N+5, 8N+1, 12N+5, 40N+10, 6N+7, 12N+7 and 48N+30
CASE_EQUATIONS = {
    "A2": (12, 4, (-1, -1)),
    "A2ext": (12, 4, (-1, -1)),
    "C2": (8, 5, (-2, -1)),
    "C2L1": (8, 1, (0, 1)),
    "D3t": (12, 5, (-2, -1)),
    "A42": (40, 10, (-3, -1)),
    "G21": (6, 7, (2, 1)),
    "D43": (12, 7, (2, 1)),
    "A3": (48, 30, (-1, 1, -3)),
}


def test_case_equations_match_the_hand_typed_table():
    assert {case_id: (case.a, case.b, case.phi_map.p) for case_id, case in param.CASES.items()} \
        == CASE_EQUATIONS


@pytest.mark.parametrize("type_id,D,P,error", [
    # (3x + 6y, 3x + y) on A2_1's M: the quadratic part of x^2 + 3y^2 is not
    # a multiple of the length's
    ("A2_1", (1, 3), ((3, 6), (3, 1)),
     "sum_i D_i y_i^2 is not an integer multiple of the length"),
    # 3 I on D3_2's M, whose length is least at q* = (1/3, 1/6)
    ("D3_2", (1, 1), ((3, 0), (0, 3)),
     "the offset -P q* = (-1, -1/2) is not an integer vector"),
])
def test_case_refuses_a_map_without_an_integer_equation(type_id, D, P, error):
    with pytest.raises(ValueError) as info:
        param._case("X", type_id, 0, "M", D, P, "D8", "complete")
    assert str(info.value) == f"case X: {error}"


def test_hyp_family_matches_registry():
    # kappa = h scale_sq / 2 and l_i = ht(e_i) on every registry type with a
    # hyperoctahedral family; A2_2 is realised in a 2-dimensional ambient
    # space, not in the family's 1-dimensional one
    checked = 0
    for type_id in dynkin.all_type_ids(8):
        try:
            family, n = param._hyp_family_of_type(type_id)
        except ValueError:
            continue
        if type_id == "A2_2":
            continue
        spec, t = param._HYP_FAMILIES[family], dynkin.lookup_type(type_id)
        assert t.ambient_dim == n, type_id
        assert spec["kappa"](n) == F(t.h * t.scale_sq, 2), type_id
        for i in range(1, n + 1):
            unit = [int(r == i - 1) for r in range(n)]
            assert spec["linear"](n, i) == atomic.height(t, unit), (type_id, i)
        checked += 1
    assert checked == 33


def _matmul(x, y):
    return [[sum(F(a) * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


@pytest.mark.parametrize("case_id", list(param.CASES)
                         + [c for rank in range(1, 9) for c in _hyp_ids(rank)])
def test_phi_lands_on_quadric_identically(case_id):
    # sum_i d_i y_i^2 = a (m^T A m + b_lin.m) + b for the image y of the
    # lattice point with basis coefficients m, as polynomials in m:
    # y = P_j m + p_j with P_j = P M_j B and p_j = P omega_j + p
    case = get_case(case_id)
    form, phi = case.length, case.phi_map
    basis = [list(v) for v in form.basis]
    dim = len(basis[0])
    P = [list(row) + [0] * (dim - len(row)) for row in phi.P]
    D = [[d * (r == c) for c in range(len(case.form))] for r, d in enumerate(case.form)]
    layers = (weyl.sigma_indices(case.type_id)
              if case.claim in ("extended", "stratified") else (0,))
    for j in layers:
        if j:
            M = weyl.matrix_Mj(case.type_id, j)
            omega = dynkin.fundamental_weights(dynkin.lookup_type(case.type_id))[j - 1]
        else:
            M, omega = [[int(r == c) for c in range(dim)] for r in range(dim)], [0] * dim
        Pj = _matmul(_matmul(P, M), _transpose(basis))
        pj = [row[0] + c for row, c in zip(_matmul(P, [[x] for x in omega]), phi.p)]
        pj_col = [[x] for x in pj]
        assert _matmul(_matmul(_transpose(Pj), D), Pj) == \
            [[case.a * x for x in row] for row in form.a], (case_id, j)
        assert [2 * row[0] for row in _matmul(_matmul(_transpose(Pj), D), pj_col)] == \
            [case.a * x for x in form.b], (case_id, j)
        assert _matmul(_matmul([pj], D), pj_col) == [[case.b]], (case_id, j)
        assert param.LayerMap(case, j).keeps_quadric, (case_id, j)


def _layers(case):
    """The layers weyl defines for the case's type, or the base layer alone
    for a hyperoctahedral rank the registry does not hold."""
    try:
        return weyl.sigma_indices(case.type_id)
    except dynkin.UnknownType:
        return (0,)


@pytest.mark.parametrize("case_id", list(param.CASES)
                         + [f"HYP:{f}{rank}_1" for rank in range(1, 9) for f in "BC"]
                         + ["HYP:A5_2", "HYP:A4_2", "HYP:D5_2"])
def test_layer_maps_match_per_point_path(case_id):
    # the fused integer maps give the images and layers of the per-point
    # path, which applies phi through coordinates and weyl.extended_image
    # once per layer image; every case's map is integral and applied as its
    # compiled numerators, and its integers satisfy the quadric identity
    # sum_i d_i y_i^2 = a (m^T A m + B.m) + b in m wherever the layer action
    # keeps the length (at Lambda_0; C2L1 is at Lambda_1)
    case, calls = get_case(case_id), []
    per_point = dataclasses.replace(case, phi_map=lambda q: calls.append(q) or case.phi_map(q))
    layered = len(_layers(case)) > 1
    for n in range(41):
        fused, reference = param.LevelData(case, n), param.LevelData(per_point, n)
        calls.clear()
        assert fused.images == reference.images, (case_id, n)
        assert len(calls) == len(reference.coefficients), (case_id, n)
        if layered:
            calls.clear()
            assert fused.layers == reference.layers, (case_id, n)
            assert len(calls) == len(case.layer_maps) * len(reference.coefficients), (case_id, n)
    per_point_maps = per_point.layer_maps if layered else (per_point.image_map,)
    assert all(f.numerators is None and not f.keeps_quadric for f in per_point_maps), case_id
    form, D = case.length, case.form
    for j in _layers(case):
        fused = param.LayerMap(case, j)
        assert fused.apply is fused.numerators, (case_id, j)
        if j and case.weight:
            continue
        P, p = fused.P, fused.p
        cols = list(zip(*P))
        assert [[linalg.dot(D, [x * y for x, y in zip(u, v)]) for v in cols] for u in cols] == \
            [[case.a * x for x in row] for row in form.a], (case_id, j)
        assert [2 * linalg.dot(D, [x * y for x, y in zip(u, p)]) for u in cols] == \
            [case.a * x for x in form.b], (case_id, j)
        assert linalg.dot(D, [x * x for x in p]) == case.b, (case_id, j)


def _layers_add_no_orbit(case, top):
    """Assert that at each level N <= top the images of every layer j >= 1
    fall in the G-orbits of the base layer's; the number of non-empty levels."""
    canonical, nonempty = case.action.canonical, 0
    for n in range(top + 1):
        ms = param.LevelData(case, n).coefficients
        base = {canonical(case.image_map(m)) for m in ms}
        for layer in case.layer_maps[1:]:
            assert {canonical(layer(m)) for m in ms} <= base, (case.case_id, n)
        nonempty += bool(ms)
    return nonempty


def test_d3t_layer_two_adds_no_orbit():
    # a computed finding, not a claim of the paper: sigma_2 of D3_2 gives an
    # integral layer map on the D3t quadric, and at N <= 7 its images fall in
    # the D8 orbits of the base layer's, so Omega adds no orbit there; the
    # differential test of test_layer_transforms_lie_in_the_group
    case = get_case("D3t")
    assert weyl.sigma_indices(case.type_id) == (0, 2)
    layer2 = case.layer_maps[1]
    assert layer2.apply is layer2.numerators and layer2.keeps_quadric
    assert _layers_add_no_orbit(case, 7) == 7


@pytest.mark.parametrize("case_id", ["HYP:C3_1", "HYP:B3_1"])
def test_hyp_layers_add_no_orbit(case_id):
    case = get_case(case_id)
    assert len(case.layer_maps) == 2 and _layers_add_no_orbit(case, 7) >= 6


I2, I3 = ((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
A2_LAYERS = ((I2, 1), (((-1, 3), (-1, -1)), 2), (((-1, -3), (1, -1)), 2))
B3_LAYERS = ((I3, 1), (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), 1))
LAYER_TRANSFORMS = {
    "A2": A2_LAYERS, "A2ext": A2_LAYERS,
    "C2": ((I2, 1), (((-1, 0), (0, 1)), 1)),
    "C2L1": None,       # its layer 2 does not keep the quadric
    "D3t": ((I2, 1), (((0, -1), (-1, 0)), 1)),
    "A42": ((I2, 1),), "G21": ((I2, 1),), "D43": ((I2, 1),),
    "A3": ((I3, 1), (((-1, -4, 9), (4, -2, 0), (-1, -4, -3)), 6),
           (((-2, -2, -3), (-1, -1, 3), (-1, 2, 0)), 3), (((-1, 8, -3), (-2, -2, -6), (3, 0, -3)), 6)),
    "HYP:C3_1": ((I3, 1), (((0, 0, -1), (0, -1, 0), (-1, 0, 0)), 1)),
    "HYP:B3_1": B3_LAYERS, "HYP:A5_2": B3_LAYERS,
}
HYP_REGISTRY_IDS = [f"HYP:{t}" for t in dynkin.all_type_ids(6) if t[0] in "BC" and t.endswith("_1")
                    or t[0] in "AD" and t.endswith("_2")]


def test_layer_transforms_table():
    # layer j is one fixed map T_j / d of layer 0, in lowest terms; only C2L1,
    # at weight 1, has a layer off the quadric
    assert {c: get_case(c).layer_transforms for c in LAYER_TRANSFORMS} == LAYER_TRANSFORMS
    assert len(HYP_REGISTRY_IDS) == 24


@pytest.mark.parametrize("case_id", [*param.CASES, *HYP_REGISTRY_IDS])
def test_layer_transforms_carry_the_offsets(case_id):
    # T_j p_0 = d p_j, which every layer map keeping the quadric implies, so
    # layer_transforms need not test it
    case = get_case(case_id)
    if case.layer_transforms is None:
        assert case_id == "C2L1"
        return
    p0 = case.layer_maps[0].p
    for f, (T, d) in zip(case.layer_maps, case.layer_transforms):
        assert [linalg.dot(row, p0) for row in T] == [d * x for x in f.p], (case_id, f.j)


@pytest.mark.parametrize("case_id", [*param.CASES, *HYP_REGISTRY_IDS])
def test_layer_transforms_carry_layer_zero_to_each_layer(case_id):
    # T_j phi(q) = d layer_j(q) on the per-point path, through coordinates
    # and weyl.extended_image, at every N <= 20
    case = get_case(case_id)
    transforms = case.layer_transforms
    if transforms is None:
        assert case_id == "C2L1"
        return
    layers = weyl.sigma_indices(case.type_id)
    assert len(transforms) == len(layers)
    for n in range(21):
        for q in lattice_points(case, n):
            image = case.phi_map(q)
            for j, (T, d) in zip(layers, transforms):
                assert [linalg.dot(row, image) for row in T] == \
                    [d * x for x in layer_image(case, j, q)], (case_id, n, q, j)


def _group_element(case, T, d):
    """The element g of the case's group (oracles.group_elements) that acts
    as T / d on the basis 2 e_i, inside every parity domain, or None."""
    rank = len(T)
    basis = [tuple(2 * (r == i) for r in range(rank)) for i in range(rank)]
    images = [[2 * row[i] for row in T] for i in range(rank)]
    return next((g for g in oracles.group_elements(case.group, rank)
                 if all([d * x for x in oracles.act(case.group, g, b)] == img
                        for b, img in zip(basis, images))), None)


@pytest.mark.parametrize("case_id", ["A2", "C2", "D3t", "A3", *HYP_REGISTRY_IDS])
def test_layer_transforms_lie_in_the_group(case_id):
    # each T_j of D3t, C2, A2 and the hyperoctahedral cases is an element of
    # the case's group, so layer j adds no G-orbit at any N; A3's T_j for
    # j >= 1 are not in G_A3
    case = get_case(case_id)
    found = [_group_element(case, T, d) for T, d in case.layer_transforms]
    if case_id == "A3":
        assert found[0] is not None and found[1:] == [None] * 3
    else:
        assert None not in found, case_id


def test_layers_tile_c6_only_on_a2():
    # the certificate holds where +-T_j are C6's six rotations: A2 and A2ext
    tiled = [c for c in [*param.CASES, *HYP_REGISTRY_IDS] if get_case(c).layers_tile_c6]
    assert tiled == ["A2", "A2ext"]
    a2ext = get_case("A2ext")
    for change in (dict(phi_map=lambda q: a2ext.phi_map(q)), dict(b=16),
                   # the undecidable variant of FAIL_SWEEPS: its offset leaves the quadric
                   dict(phi_map=param.AffineMap(((3, 6), (3, 0)), (0, -1)))):
        assert not dataclasses.replace(a2ext, **change).layers_tile_c6, change


def test_import_builds_no_layer_transform():
    # the transforms and the certificate are memos, built on a case's first read
    src = os.path.dirname(os.path.dirname(param.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); from corelat import param; "
            "sys.exit(any({'layer_maps', 'layer_transforms', 'layers_tile_c6'} & set(c.__dict__)"
            " for c in param.CASES.values()))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_extended_claim_matches_the_tiling_check():
    # the extended row, which reads no layer of A2ext, reports as the tiling
    # oracle does on all of U
    case = get_case("A2ext")
    for n in range(301):
        assert verify_case("A2ext", n).to_dict() == \
            oracles.check_extended(param.LevelData(case, n)).to_dict(), n


@pytest.mark.parametrize("case_id", [*param.CASES, "HYP:C3_1"])
def test_per_point_phi_reports_as_the_compiled_maps(case_id):
    # the shape the bench's traced run gives every case, phi wrapped as a
    # per-point function: its layers are applied point by point, and A2ext,
    # without the C6 certificate, runs its tiling step
    case = get_case(case_id)
    wrapped = dataclasses.replace(case, phi_map=lambda q, phi=case.phi_map: phi(q))
    assert not wrapped.layers_tile_c6
    claims = (case.claim, "A3conj") if case_id == "A3" else (case.claim,)
    for n in range(13):
        for claim in claims:
            assert param.decide(param.LevelData(wrapped, n), claim).to_dict() == \
                param.decide(param.LevelData(case, n), claim).to_dict(), (claim, n)


class _WithoutLayers(param.LevelData):
    """A level whose layer images cannot be read."""

    @property
    def layers(self):
        raise AssertionError("a claim check read the layers")


def test_extended_pass_calls_no_tiling_check():
    # a PASS level of A2ext, whose layers tile C6, is decided on phi's images
    # alone; the b = 16 variant has no such certificate, and its FAIL reads
    # the layers to tile each orbit
    for n in range(41):
        assert param.decide_extended(_WithoutLayers(get_case("A2ext"), n)).passed, n
    variant = dataclasses.replace(get_case("A2ext"), b=16)
    with pytest.raises(AssertionError, match="read the layers"):
        param.decide_extended(_WithoutLayers(variant, 1))
    assert not param.decide_extended(param.LevelData(variant, 1)).passed


@pytest.mark.parametrize("n", [5, 10, 20])
def test_an_image_in_no_listed_orbit_is_a_fail(n):
    # a solver that missed an orbit: the last representative is dropped, and
    # its image lies in no orbit the level lists
    for case_id, check in (("A2", param.check_complete), ("A2ext", param.decide_extended),
                           ("A3", param.check_a3_conjecture)):
        level = param.LevelData(get_case(case_id), n)
        dropped = level.reps[-1]
        level.reps = level.reps[:-1]
        report = check(level)
        assert not report.passed, (case_id, n)
        if case_id != "A2ext":      # the extended row's "pairs do not partition U"
            assert report.witness["reason"] == "image in no listed orbit"
            assert get_case(case_id).action.canonical(report.witness["image"]) == dropped


def test_a_layer_map_that_leaves_the_integers_is_refused_when_built():
    # the identity phi on C2L1, whose basis holds (1/2, 1/2), is no integer
    # map: building its LayerMap raises, and every level, N = 4 with no
    # lattice point included, is a FAIL returned as data
    case = get_case("C2L1")
    identity = param.AffineMap(((1, 0), (0, 1)), (0, 0))
    variant = dataclasses.replace(case, phi_map=identity)
    error = "case C2L1: layer 0 of phi is not an integer map (its entries are not all divisible by 2)"
    with pytest.raises(diophantine.NonIntegralImage, match=re.escape(error)):
        param.LayerMap(variant, 0)
    for n in range(5):
        report = param.decide(param.LevelData(variant, n), "complete")
        assert report.to_dict() == {"case": "C2L1", "N": n, "status": "FAIL", "counts": {},
                                    "witness": {"reason": "level not decided",
                                                "error": "NonIntegralImage: " + error}}, n
    # applied point by point, the same phi fails on its first half-integer image
    per_point = dataclasses.replace(case, phi_map=lambda q: identity(q))
    report = param.decide(param.LevelData(per_point, 3), "complete")
    assert report.witness == {"reason": "level not decided",
                              "error": "NonIntegralImage: non-integral image component 1/2"}


def test_case_refuses_a_map_that_leaves_the_integers():
    # (-4x - 4y - 4z, -4x - 3y - 4z) on A2_1's L, whose basis has entries in
    # (1/3) Z, has an integer offset but sends a lattice point off Z^2
    with pytest.raises(ValueError) as info:
        param._case("X", "A2_1", 0, "L", (1, 3), ((-4, -4, -4), (-4, -3, -4)), "C6", "complete")
    assert str(info.value) == "case X: phi is not an integer map on the lattice"


def test_keeps_quadric_is_false_off_the_identity():
    # the b = 16 variants of the complete and extended fail-branch tests
    assert not dataclasses.replace(get_case("A2"), b=16).image_map.keeps_quadric
    variant = dataclasses.replace(get_case("A2ext"), b=16)
    assert not any(f.keeps_quadric for f in variant.layer_maps) and not variant.layers_keep_quadric
    # C2L1's layer 2 is at Lambda_1 and off the identity; its claim reads
    # layer 0 alone
    assert not param.LayerMap(get_case("C2L1"), 2).keeps_quadric


def _shifted(case):
    """The case with every offset of its affine phi one larger: an AffineMap
    whose images all miss the quadric by 2 D_i y_i + D_i."""
    return dataclasses.replace(case, phi_map=param.AffineMap(
        case.phi_map.P, [c + 1 for c in case.phi_map.p]))


@pytest.mark.parametrize("check,case_id,n,reason", [
    (param.check_complete, "D43", 35, "phi image off the quadric"),
    (param.check_complete, "A2", 30, "phi image off the quadric"),
    (param.check_orbit_size, "A42", 1, "phi image off the quadric"),
    (param.check_orbit_size, "G21", 7, "phi image off the quadric"),
    (param.check_orbit_size, "HYP:C3_1", 1, "phi image off the quadric"),
    (param.check_orbit_size, "HYP:B3_1", 2, "phi image off the quadric"),
    (param.check_stratified, "A3", 3, "layer image off the quadric"),
    (param.check_a3_conjecture, "A3", 1, "layer image off the quadric"),
])
def test_keeps_quadric_fails_on_variants_off_the_quadric(check, case_id, n, reason):
    # a changed b and shifted affine offsets break the identity of layer 0,
    # which every claim reads, so the check scans the images and names the
    # first off the quadric, as the per-point path of the same map does
    case = get_case(case_id)
    assert not dataclasses.replace(case, b=case.b + 16).image_map.keeps_quadric
    shifted = _shifted(case)
    assert not shifted.image_map.keeps_quadric
    per_point = dataclasses.replace(shifted, phi_map=lambda q: shifted.phi_map(q))
    report = check(param.LevelData(shifted, n)).to_dict()
    assert report == check(param.LevelData(per_point, n)).to_dict()
    assert report["witness"]["reason"] == reason


def test_checks_test_no_image_while_the_identity_holds(monkeypatch):
    tested = []

    def refuse(level, point):
        raise AssertionError("a check tested an image against the quadric")

    def count(level, point):
        tested.append(point)
        return on_quadric(level, point)

    on_quadric = param.LevelData.on_quadric
    monkeypatch.setattr(param.LevelData, "on_quadric", refuse)
    for n in range(8):
        for case_id in cli.VERIFY_CASES + ("HYP:C3_1", "HYP:B4_1"):
            assert verify_case(case_id, n).passed, (case_id, n)
        assert a3_conjecture_check(n).passed
    # a per-point phi, such as the wrapper the bench's traced run installs,
    # is scanned image by image
    monkeypatch.setattr(param.LevelData, "on_quadric", count)
    for case_id in ("A2", "G21", "A3"):
        case = get_case(case_id)
        per_point = dataclasses.replace(case, phi_map=lambda q, phi=case.phi_map: phi(q))
        tested.clear()
        assert param.CHECKS[case.claim](param.LevelData(per_point, 5)).passed
        assert tested, case_id


def test_complete_check_takes_each_orbit_size_once(monkeypatch):
    # the checks call the orbit_size of the row each case binds
    calls = []
    for row in {get_case(case_id).action for case_id in COMPLETE_CASES}:
        def counted(point, orbit_size=row.orbit_size):
            calls.append(point)
            return orbit_size(point)

        monkeypatch.setattr(row, "orbit_size", counted)
    for case_id in COMPLETE_CASES:
        for n in range(20):
            calls.clear()
            level = param.LevelData(get_case(case_id), n)
            assert param.check_complete(level).passed
            assert sorted(calls) == level.reps, (case_id, n)


COMPLETE_CASES = [c for c, case in param.CASES.items() if case.claim == "complete"]


def test_every_orbit_size_call_takes_a_canonical_point(monkeypatch):
    # each row's orbit_size reads the canonical point it is given; every
    # claim, the tiling path of a per-point phi too, gives it no other point
    sized = []
    for row in diophantine.GROUPS.values():
        def checked(point, row=row, orbit_size=row.orbit_size):
            assert point == row.canonical(point), point
            sized.append(point)
            return orbit_size(point)

        monkeypatch.setattr(row, "orbit_size", checked)
    a2ext = get_case("A2ext")
    per_point = dataclasses.replace(a2ext, phi_map=lambda q: a2ext.phi_map(q))
    assert not per_point.layers_tile_c6
    runs = [(get_case(c), get_case(c).claim, 12 if c == "A3" else 20)
            for c in (*param.CASES, "HYP:C3_1", "HYP:B4_1", "HYP:D3_2")]
    runs += [(get_case("A3"), "A3conj", 12), (per_point, "extended", 20)]
    groups = set()
    for case, claim, top in runs:
        for n in range(top + 1):
            sized.clear()
            assert param.decide(param.LevelData(case, n), claim).passed, (case.case_id, claim, n)
            if sized:
                groups.add(case.group)
    assert groups == set(diophantine.GROUPS)


@pytest.mark.parametrize("case_id", ["A2", "C2", "D43"])
def test_complete_pass_builds_no_counter(monkeypatch, case_id):
    # a PASS level compares the sorted canonical images with the
    # representatives; only a FAIL counts the hits
    def refuse(*args):
        raise AssertionError("a PASS level built a Counter")

    monkeypatch.setattr(param, "Counter", refuse)
    for n in range(30):
        assert param.verify_case(case_id, n).passed, n


def test_each_form_and_group_builds_its_solver_once(monkeypatch):
    # a row builds the solve of a (form, group) pair once, not once per level
    monkeypatch.setattr(diophantine, "_SOLVERS", {})
    built = []
    for name, row in diophantine.GROUPS.items():
        def counted(form, name=name, solver=row.solver):
            built.append((form, name))
            return solver(form)

        monkeypatch.setattr(row, "solver", counted)
    case_ids = [*param.CASES, "HYP:C3_1"]
    for n in range(11):
        for case_id in case_ids:
            param.verify_case(case_id, n)
        param.a3_conjecture_check(n)
    pairs = {(get_case(case_id).form, get_case(case_id).group) for case_id in case_ids}
    assert len(pairs) == 6 and sorted(built) == sorted(pairs)


def test_each_case_compiles_its_all_layers_function_once(monkeypatch):
    # a case compiles the function of all its layers on the first level that
    # reads them, and every later level of the process reuses it
    built = []
    compile_stacked = linalg.compile_stacked

    def counted(maps):
        built.append(maps)
        return compile_stacked(maps)

    monkeypatch.setattr(linalg, "compile_stacked", counted)
    cases = [get_case(case_id) for case_id in (*param.CASES, "HYP:C3_1", "HYP:B4_1")]
    for case in cases:
        monkeypatch.delitem(case.__dict__, "layers_map", raising=False)
    for n in range(11):
        for case in cases:
            param.LevelData(case, n).layers
            param.CHECKS[case.claim](param.LevelData(case, n))
        param.a3_conjecture_check(n)
    assert built == [case.layer_maps for case in cases]


def test_images_make_no_layer_map_call(monkeypatch):
    # every registered case's LayerMap is applied as its compiled numerators,
    # and the layers as one compiled call per point
    def refuse(self, m):
        raise AssertionError("a level called a LayerMap")

    monkeypatch.setattr(param.LayerMap, "__call__", refuse)
    for n in range(11):
        for case_id in (*param.CASES, "HYP:C3_1", "HYP:B4_1"):
            assert verify_case(case_id, n).passed, (case_id, n)
        assert a3_conjecture_check(n).passed


@pytest.mark.parametrize("case_id", [*param.CASES, "HYP:C3_1", "HYP:B3_1", "HYP:A4_2",
                                     "HYP:D3_2"])
def test_solutions_from_orbits_match_the_group_free_solve(case_id):
    # U read from the orbits of reps against solve_diagonal without a group
    case = get_case(case_id)
    for n in range(61):
        level = param.LevelData(case, n)
        assert level.solutions == oracles.solutions(level), n


@pytest.mark.parametrize("case_id,top", [(c, 12 if c == "A3" else 20) for c in (
    *param.CASES, "HYP:C3_1", "HYP:B4_1", "HYP:D3_2")])
def test_bound_row_matches_the_group_element_oracle(case_id, top):
    # the row a case binds, called unchecked on every representative and
    # layer image, against the orbit its group's elements make; each orbit
    # is built once and shared by its points
    case = get_case(case_id)
    row, orbits, seen = case.action, {}, 0
    elements = oracles.group_elements(case.group, len(case.form))
    for n in range(top + 1):
        level = param.LevelData(case, n)
        assert level.solution_count == len(diophantine.solve_diagonal(case.form, level.k)), n
        for p in level.reps + [img for layer in level.layers for img in layer]:
            if p not in orbits:
                orb = frozenset(oracles.act(case.group, g, p) for g in elements)
                orbits.update(dict.fromkeys(orb, orb))
            assert (row.orbit_size(row.canonical(p)) == len(orbits[p])
                    and row.canonical(p) == max(orbits[p])), (n, p)
            seen += 1
    assert seen > top


@pytest.mark.parametrize("D,P,group,error", [
    ((1, 3), ((3, 6), (3, 0), (0, 1)), "C6", "phi has 3 rows for a form of 2 terms"),
    ((1, 3), ((3, 6), (3, 0)), "D8", "the group D8 does not preserve the form (1, 3)"),
    ((1, 3), ((3, 6), (3, 0)), "G_A3", "the group G_A3 does not preserve the form (1, 3)"),
    ((1, 3), ((3, 6), (3, 0)), "Z7", "the group Z7 does not preserve the form (1, 3)"),
])
def test_case_refuses_a_group_that_does_not_fit(D, P, group, error):
    # A2's phi and length, with a form or a group its checks could not read
    with pytest.raises(ValueError) as info:
        param._case("X", "A2_1", 0, "M", D, P, group, "complete")
    assert str(info.value) == f"case X: {error}"
_CLAIM_ORACLES = {"complete": (param.check_complete, oracles.check_complete),
                  "extended": (param.decide_extended, oracles.check_extended),
                  "stratified": (param.check_stratified, oracles.check_stratified)}


def test_representative_checks_match_full_set_oracles():
    for case_id, top in [(c, 60) for c in COMPLETE_CASES] + [("A2ext", 60), ("A3", 60)]:
        case = get_case(case_id)
        check, oracle = _CLAIM_ORACLES[case.claim]
        for n in range(top + 1):
            assert _checks_agree(check, oracle, case, n)["status"] == "PASS"


def _layer_table(case, n, target):
    """A phi map that sends the layer-j vector of the i-th base point at level
    n to the layer-j' image of the i'-th, for (i', j') = target(i, j)."""
    points, table = lattice_points(case, n), {}
    for i, q in enumerate(points):
        for j in weyl.sigma_indices(case.type_id):
            vec = q if j == 0 else weyl.extended_image(
                case.type_id, weyl.ExtGrassElement(case.type_id, j, q)).coords
            source, layer = target(i, j)
            table[tuple(vec)] = layer_image(case, layer, points[source])
    return lambda v: table[tuple(v)]


def _first_b(case, n, reason, oracle):
    """The least b' >= 0 for which the oracle FAILs with `reason` at level n."""
    for b in range(200):
        report = oracle(param.LevelData(dataclasses.replace(case, b=b), n))
        if report.witness and report.witness["reason"] == reason:
            return b
    raise AssertionError(f"no b reaches {reason!r}")


def _complete_variants():
    c2, d43 = get_case("C2"), get_case("D43")
    points = lattice_points(c2, 40)
    first = c2.phi_map(points[0])
    spread = {q: oracles.act("D8", (i, 0), first) for i, q in enumerate(points)}
    return [
        ("phi not injective", "C2", 40, dict(phi_map=lambda q: first)),
        ("phi image off the quadric", "D43", 35,
         dict(phi_map=lambda q: tuple(x + 1 for x in d43.phi_map(q)))),
        ("phi image off the quadric", "A2", 30, dict(b=16)),
        # U(25) holds the axis orbit of (5, 0); N = 2 has no lattice point
        ("action not free", "C2", 2, dict(b=9)),
        ("action not free", "C2L1", 4, dict(b=-32)),
        ("action not free", "D43", 4, "b"),
        # two undersized orbits, {(+-7, 0)} and {(0, +-7)}: the witness is the
        # one with the least minimum, not the first canonical point
        ("action not free", "D43", 4, dict(form=(1, 1), b=1)),
        ("orbit without unique representative", "C2", 40,
         dict(phi_map=lambda q: spread[tuple(q)])),
        # levels without lattice points leave every orbit of the new U unhit
        ("orbit without unique representative", "A2", 3, dict(b=16)),
        ("orbit without unique representative", "C2", 2, dict(b=1)),
        ("orbit without unique representative", "D43", 4, dict(form=(1, 6))),
    ]


@pytest.mark.parametrize("reason,case_id,n,change", _complete_variants())
def test_complete_check_fail_branches_match_oracle(reason, case_id, n, change):
    case = get_case(case_id)
    if change == "b":
        change = dict(b=_first_b(case, n, reason, oracles.check_complete))
    changed = dataclasses.replace(case, **change)
    report = _checks_agree(param.check_complete, oracles.check_complete, changed, n)
    assert report["witness"]["reason"] == reason


@pytest.mark.parametrize("reason,n,change", [
    ("C6 orbit undersized", 1, dict(phi_map=lambda v: (0, 0))),
    ("layer pairs do not tile the orbit", 1, dict(phi_map=lambda v: (2, 2))),
    ("pairs do not partition U", 1, dict(b=16)),
    ("pairs do not partition U", 3, dict(b=16)),
    ("pairs do not partition U", 1, dict(form=(4, 12))),
])
def test_extended_check_fail_branches_match_oracle(reason, n, change):
    changed = dataclasses.replace(get_case("A2ext"), **change)
    report = _checks_agree(param.decide_extended, oracles.check_extended, changed, n)
    assert report["witness"]["reason"] == reason


def _stratified_variants():
    a3 = get_case("A3")
    top = max(diophantine.solve_diagonal(a3.form, a3.equation_value(4)))
    return [
        ("even middle coordinate", 2, "b"),
        ("emptiness rule violated", 2, "b"),
        ("strata do not partition U", 0, "b"),
        ("layer image off the quadric", 3,
         dict(phi_map=lambda v: tuple(x + 2 for x in map_p_a3(v)))),
        ("layers share a stratum", 4, dict(phi_map=lambda v: top)),
        # every base point takes the images of the last one
        ("extended rotation orbits intersect", 3,
         dict(phi_map=_layer_table(a3, 3, lambda i, j: (-1, j)))),
        # point 3 takes the images of point 1, so the first keys (0, 0) and
        # (0, 1) are in different classes and the witness is (0, 1), (0, 3)
        ("extended rotation orbits intersect", 8,
         dict(phi_map=_layer_table(a3, 8, lambda i, j: (1 if i == 3 else i, j)))),
        # point 2 takes the images of point 1 one layer on: the least class
        # is {(0, 1), (3, 2)}, though (1, 1) and (0, 2) repeat first in the
        # order the layers are built
        ("extended rotation orbits intersect", 5,
         dict(phi_map=_layer_table(a3, 5, lambda i, j: (1, (j + 1) % 4) if i == 2 else (i, j)))),
        # point 0's layers share a stratum, and the next image, point 1's
        # first, is off the quadric: the pass meets the shared stratum first
        ("layers share a stratum", 8,
         dict(phi_map=_off_quadric(a3, 8, 1, lambda i, j: (i, 0) if i == 0 else (i, j)))),
        # point 0's first image is off the quadric and point 1's layers share
        # a stratum: the pass meets the image first
        ("layer image off the quadric", 8,
         dict(phi_map=_off_quadric(a3, 8, 0, lambda i, j: (1, 0) if i == 1 else (i, j)))),
    ]


def _off_quadric(case, n, point, target):
    """_layer_table(case, n, target), with the layer-0 image of the given
    base point moved off the quadric."""
    table, q = _layer_table(case, n, target), lattice_points(case, n)[point]
    return lambda v: tuple(x + 2 for x in table(v)) if tuple(v) == q else table(v)


@pytest.mark.parametrize("reason,n,change", _stratified_variants())
def test_stratified_check_fail_branches_match_oracle(reason, n, change):
    # the oracle's "G does not stabilise the stratum" is out of reach, and
    # check_stratified has no such branch: a form G_A3 does not preserve
    # makes solve_diagonal raise NotClosed before any stratum is read
    case = get_case("A3")
    if change == "b":
        change = dict(b=_first_b(case, n, reason, oracles.check_stratified))
    changed = dataclasses.replace(case, **change)
    report = _checks_agree(param.check_stratified, oracles.check_stratified, changed, n)
    assert report["witness"]["reason"] == reason


def test_an_image_off_the_quadric_wins_at_the_point_that_shares_a_stratum():
    # point 0's layers share a stratum and its first image is off the
    # quadric: the pass tests a point's images before comparing its strata
    case = get_case("A3")
    changed = dataclasses.replace(case, phi_map=_off_quadric(
        case, 8, 0, lambda i, j: (i, 0) if i == 0 else (i, j)))
    report = _checks_agree(param.check_stratified, oracles.check_stratified, changed, 8)
    assert report["witness"]["reason"] == "layer image off the quadric"


def test_every_claim_is_a_row_of_the_one_kernel():
    # no claim is decided outside the kernel: stratified is a row too
    assert all(isinstance(check, param.Claim) for check in param.CHECKS.values())
    assert param.check_stratified is param.CHECKS["stratified"]


def test_stratified_row_matches_the_oracle_on_shifted_offsets():
    # every layer image of the shifted map misses the quadric, so each level
    # with a lattice point FAILs on its first image, as the oracle does
    shifted, reasons = _shifted(get_case("A3")), set()
    for n in range(21):
        report = _checks_agree(param.check_stratified, oracles.check_stratified, shifted, n)
        reasons.add(report["witness"]["reason"] if report["witness"] else "PASS")
    assert "layer image off the quadric" in reasons


def test_a_stratum_the_sector_search_misses_breaks_the_emptiness_rule(monkeypatch):
    # the G_A3 walker drops one stratum's representatives at one level of
    # the second band: the cross-check of the screen, not a changed b, must
    # catch it there, on the band path and on its own, and nowhere else
    case, target, top = get_case("A3"), 40, 2 * param.BAND + 5
    k = case.equation_value(target)
    # the solve builds the walker's _SOLVERS entry, if no test has yet
    dropped = diophantine.solve_diagonal(case.form, k, case.group)[-1][1]
    walk = diophantine._SOLVERS[case.form, case.group]

    def missing_one_stratum(ks):
        return {key: [r for r in reps if key != k or r[1] != dropped]
                for key, reps in walk(ks).items()}

    monkeypatch.setitem(diophantine._SOLVERS, (case.form, case.group), missing_one_stratum)
    swept = list(param.verify_sweep("A3", top))
    assert [r.N for r in swept] == list(range(top + 1))
    for n, report in enumerate(swept):
        alone = verify_case("A3", n)
        assert report.to_dict() == alone.to_dict(), n
        if n == target:
            assert report.witness == {"reason": "emptiness rule violated"}
        else:
            assert report.passed, n


def test_x2_3z2_rule_matches_a_brute_force_table():
    top = 10 ** 4
    values = {x * x + 3 * z * z for x in range(101) for z in range(58)}
    assert [n for n in range(top + 1) if oracles.x2_3z2_represents(n)] == \
        sorted(v for v in values if v <= top)


def test_omega_scan_matches_the_x2_3z2_rule():
    # at k = 48N+30, 0 mod 3, Omega_y is non-empty exactly when k - 2y^2 is
    # m^2 + 3s^2 for some integers m and s
    checked = 0
    for n in range(501):
        k = 48 * n + 30
        bound = math.isqrt(k // 2) + 1
        for y in range(-bound | 1, bound + 1, 2):
            if 2 * y * y < k:
                assert param._omega_scan(k, y) == oracles.x2_3z2_represents(k - 2 * y * y), (n, y)
                checked += 1
    assert checked > 30000


def _count_scans(monkeypatch):
    """The (k, y) of each _omega_scan call, in a list that grows as they come."""
    scans, scan = [], param._omega_scan
    monkeypatch.setattr(param, "_omega_scan", lambda k, y: scans.append((k, y)) or scan(k, y))
    return scans


def test_stratified_fail_branches_reach_the_scan_fallback(monkeypatch):
    # at k = 2 (mod 3) a representative fails the witness test of its own
    # stratum, and the scan decides it: the report still equals the oracle's
    case, fell_back = get_case("A3"), set()
    scans = _count_scans(monkeypatch)
    for reason, n, change in _stratified_variants():
        if change == "b":
            change = dict(b=_first_b(case, n, reason, oracles.check_stratified))
        changed = dataclasses.replace(case, **change)
        del scans[:]
        report = _checks_agree(param.check_stratified, oracles.check_stratified, changed, n)
        assert report["witness"]["reason"] == reason
        met = {abs(r[1]) for r in param.LevelData(changed, n).reps}
        if any(y in met for _, y in scans):
            fell_back.add(reason)
    assert "emptiness rule violated" in fell_back


def test_stratified_check_scans_only_the_strata_it_has_no_point_for(monkeypatch):
    # at k = 48N+30 the Omega_y predicate is m^2 + 2y^2 + 3s^2 = k, the
    # stratum's own equation, so every representative is a witness for its y
    scans = _count_scans(monkeypatch)
    for n in range(101):
        level = param.LevelData(get_case("A3"), n)
        del scans[:]
        assert param.check_stratified(level).passed
        met = {abs(r[1]) for r in level.reps}
        assert not met.intersection(y for _, y in scans), n
        # and each candidate it scans is empty: no solution has that middle value
        sols = oracles.solutions(level)
        assert not any(abs(s[1]) == y for s in sols for _, y in scans), n


class _RepresentativesOnly(param.LevelData):
    """A level whose full solution set cannot be read."""

    @property
    def solutions(self):
        raise AssertionError("a claim check listed U in full")


def test_claim_checks_never_list_u(monkeypatch):
    def refuse(*args):
        raise AssertionError("a claim check partitioned U")

    # A2ext's PASS levels are decided by the extended row on phi's images, as
    # its layer pairs tile C6, so no check builds an orbit: only a FAIL
    # witness, the row's tiling step or the oracle oracles.check_extended would
    monkeypatch.setattr(diophantine, "orbit_partition", refuse)
    monkeypatch.setattr(diophantine, "orbit", refuse)
    for n in range(6):
        for case_id in cli.VERIFY_CASES + ("HYP:C3_1", "HYP:B4_1"):
            case = get_case(case_id)
            assert param.CHECKS[case.claim](_RepresentativesOnly(case, n)).passed
        assert param.check_a3_conjecture(_RepresentativesOnly(get_case("A3"), n)).passed


def test_claim_checks_build_no_coordinates(monkeypatch):
    # with affine phi maps the checks read basis coefficients through the
    # fused layer maps: no coordinates, extended images or per-point layers
    def refuse(*args):
        raise AssertionError("a claim check left the fused layer maps")

    monkeypatch.setattr(linalg.QuadraticForm, "coordinates", refuse)
    monkeypatch.setattr(weyl, "extended_image", refuse)
    monkeypatch.setattr(param, "layer_image", refuse)
    for n in range(6):
        for case_id in cli.VERIFY_CASES + ("HYP:C3_1", "HYP:B4_1"):
            assert param.verify_case(case_id, n).passed, (case_id, n)
        assert param.a3_conjecture_check(n).passed
