import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corelat import diophantine, param

from corelat.diophantine import (
    NonIntegralImage,
    NotClosed,
    canonical,
    group_order,
    is_action_free,
    orbit,
    orbit_partition,
    orbit_size,
    solve_diagonal,
    solve_diagonal_meet,
)
from oracles import (Unsolvable, act, factorize, gaussian_lift, group_elements,
                     residue_free_criterion, two_squares_solvable)


def test_solve_examples():
    assert solve_diagonal((1, 3), 4) == [(-2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1), (2, 0)]
    assert solve_diagonal((1, 3), 16) == [(-4, 0), (-2, -2), (-2, 2), (2, -2), (2, 2), (4, 0)]
    assert solve_diagonal((1, 1), 2) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert solve_diagonal((1, 1), 3) == []
    assert solve_diagonal((1, 2, 3), 0) == [(0, 0, 0)]


def test_solve_sortedness_and_membership():
    sols = solve_diagonal((1, 2, 3), 30)
    assert sols == sorted(sols)
    assert all(x * x + 2 * y * y + 3 * z * z == 30 for x, y, z in sols)
    assert len(set(sols)) == len(sols)


def test_solver_self_oracle():
    # ranks 0 to 6: the empty form, and U without a group from the sign
    # changes of chains up to five variables deep
    rng = random.Random(987)
    assert solve_diagonal((), 0) == solve_diagonal_meet((), 0) == [()]
    for ncoords in range(7):
        for _ in range(15):
            form = tuple(rng.randint(1, 5) for _ in range(ncoords))
            k = rng.randint(0, 400 if ncoords <= 4 else 150)
            assert solve_diagonal(form, k) == solve_diagonal_meet(form, k), (form, k)


def test_group_laws():
    # r^4 = s^2 = (rs)^2 = e
    def d8(word, p):
        for g in reversed(word):
            p = act("D8", (1, 0) if g == "r" else (0, 1), p)
        return p
    p = (3, 1)
    assert d8("rrrr", p) == p
    assert d8("ss", p) == p
    assert d8("rsrs", p) == p
    assert act("D8", (1, 0), (3, 1)) == (-1, 3)
    assert act("D8", (0, 1), (3, 1)) == (1, 3)
    # R^6 = e on both lattices with half-integer rotations
    assert act("C6", 6, (5, 1)) == (5, 1)
    assert act("C6", 3, (5, 1)) == (-5, -1)
    assert act("C6", 1, (-1, -1)) == (1, -1)
    assert act("G_A3", (6, 0), (5, 4, 1)) == (5, 4, 1)
    assert act("G_A3", (0, 1), (5, 4, 1)) == (5, 4, -1)
    assert act("G_A3", (3, 0), (5, 4, 1)) == (-5, 4, -1)
    # hyperoctahedral: order and exact signed-permutation action
    assert group_order("H", 3) == 48 == len(group_elements("H", 3))
    perm, signs = (2, 0, 1), (-1, 1, 1)
    assert act("H", (perm, signs), (10, 20, 30)) == (-30, 10, 20)


def test_non_integral_image():
    with pytest.raises(NonIntegralImage):
        act("C6", 1, (1, 0))
    with pytest.raises(NonIntegralImage):
        act("G_A3", (1, 0), (1, 0, 0))


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def _token_orbit(group, point):
    return {act(group, g, point) for g in group_elements(group, len(point))}


def test_orbit_formulas_match_the_group_elements():
    # coordinates in -6..6 put about half the points of C6 and G_A3 outside
    # their parity domain, where both sides must raise NonIntegralImage
    rng = random.Random(15)
    raised = set()
    for group, rank, count in [("D8", 2, 1500), ("C4", 2, 1500), ("V4", 2, 1500),
                               ("C6", 2, 1500), ("G_A3", 3, 1500), ("H", 1, 300),
                               ("H", 2, 300), ("H", 3, 300), ("H", 4, 100), ("H", 5, 20)]:
        for _ in range(count):
            p = tuple(rng.randint(-6, 6) for _ in range(rank))
            expected = _outcome(_token_orbit, group, p)
            assert _outcome(orbit, group, p) == expected, (group, p)
            if expected is NonIntegralImage:
                raised.add(group)
    assert raised == {"C6", "G_A3"}
    with pytest.raises(ValueError, match="unknown group"):
        orbit("Z2", (1, 2))


def test_signed_orbits_match_the_group_elements_on_a_box():
    # every point of [-2, 2]^n: the box is a union of orbits, so each orbit
    # of the group elements is built once, from the first of its points
    for group, ranks in (("D8", (2,)), ("H", range(1, 6))):
        for n in ranks:
            known = {}
            for p in itertools.product(range(-2, 3), repeat=n):
                if p not in known:
                    orb = frozenset(_token_orbit(group, p))
                    known.update(dict.fromkeys(orb, orb))
                assert orbit(group, p) == known[p], (group, p)


@pytest.mark.parametrize("point,arrangements", [
    ((1, 0, 0, 0, 0, 0), 6), ((0, 0, 0, 0, 0, 0), 1), ((2, -2, 2), 1),
    ((3, -1, 0, 1), 12), ((1, 2, 3, 4), 24), ((5,), 1), ((), 1),
])
def test_hyperoctahedral_orbit_signs_each_distinct_arrangement_once(monkeypatch, point,
                                                                     arrangements):
    # an orbit walking all n! permutations signs 720 of them for the first point
    calls = []
    signs = diophantine._signs
    monkeypatch.setattr(diophantine, "_signs", lambda p: calls.append(p) or signs(p))
    orb = orbit("H", point)
    assert len(calls) == len(set(calls)) == arrangements
    assert len(orb) == sum(1 for _ in itertools.chain.from_iterable(map(signs, calls)))
    assert len(orb) == orbit_size("H", point)


def test_hyperoctahedral_orbit_of_a_rank_10_axis_point():
    # 20 points, which an orbit over all permutations builds from 10! tuples
    assert orbit("H", (1,) + (0,) * 9) == {
        tuple(s * (i == j) for j in range(10)) for i in range(10) for s in (1, -1)}


def test_hyperoctahedral_orbit_size_matches_the_counter_formula():
    # every point of [-4, 4]^n, n <= 4, and rank-8 samples with repeats
    points = [p for n in range(1, 5) for p in itertools.product(range(-4, 5), repeat=n)]
    rng = random.Random(8)
    points += [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(2000)]
    for p in points:
        assert diophantine._h_orbit_size(p) == oracles.h_orbit_size(p), p


def test_d8_closed_forms_match_the_orbit():
    # the orbit size, 8 halved for each zero coordinate and for |a| = |b|,
    # and the canonical point, against the orbit written out, on every point
    # of [-9, 9]^2
    row = diophantine.GROUPS["D8"]
    for p in itertools.product(range(-9, 10), repeat=2):
        orb = orbit("D8", p)
        assert row.orbit_size(p) == orbit_size("D8", p) == len(orb), p
        assert row.canonical(p) == canonical("D8", p) == max(orb), p


def test_orbit_examples():
    u5 = solve_diagonal((1, 1), 5)
    orbits = orbit_partition("D8", u5)
    assert len(orbits) == 1 and len(orbits[0]) == 8
    u4 = solve_diagonal((1, 3), 4)
    orbits = orbit_partition("C6", u4)
    assert len(orbits) == 1 and len(orbits[0]) == 6
    u1 = solve_diagonal((1, 1), 1)
    orbits = orbit_partition("C4", u1)
    assert orbits == [[(-1, 0), (0, -1), (0, 1), (1, 0)]]


def test_orbit_sizes_divide_group_order():
    for k in range(1, 120):
        sols = solve_diagonal((1, 1), k)
        if not sols:
            continue
        for orb in orbit_partition("D8", sols):
            assert 8 % len(orb) == 0


def test_not_closed():
    with pytest.raises(NotClosed):
        orbit_partition("D8", [(1, 2)])


def test_freeness_examples():
    free, witness = is_action_free("D8", solve_diagonal((1, 1), 50))
    assert not free and witness == (5, 5)
    free, witness = is_action_free("D8", solve_diagonal((1, 1), 13))
    assert free and witness is None
    # the undersized orbit of U(50)
    assert sorted(orbit("D8", (5, 5))) == [(-5, -5), (-5, 5), (5, -5), (5, 5)]


def test_hyperoctahedral_rank_comes_from_the_points():
    assert is_action_free("H", []) == (True, None)
    assert len(orbit("H", (2, 1, 0))) == 24
    with pytest.raises(ValueError, match="rank"):
        group_order("H")


@pytest.mark.parametrize("call", [canonical, orbit_size, orbit])
@pytest.mark.parametrize("group,rank", [("D8", 2), ("C4", 2), ("V4", 2), ("C6", 2), ("G_A3", 3)])
@pytest.mark.parametrize("offset", [-1, 1])
def test_fixed_rank_groups_refuse_points_of_another_length(group, rank, call, offset):
    point = tuple(range(1, rank + offset + 1))
    with pytest.raises(ValueError) as refused:
        call(group, point)
    assert refused.type is ValueError


def test_freeness_characterisation():
    # free iff k is neither a square nor twice a square
    for k in range(1, 500):
        sols = solve_diagonal((1, 1), k)
        if not sols:
            continue
        free, _ = is_action_free("D8", sols)
        r = math.isqrt(k)
        square = r * r == k
        twice = (k % 2 == 0) and math.isqrt(k // 2) ** 2 == k // 2
        assert free == (not square and not twice)


def _freeness_sets():
    """Per group: whole solution sets, a random subset of the union of two
    levels (mostly not closed), and the set with a point dropped and a
    point repeated.  Odd levels of C6 and G_A3 lie outside their domain."""
    rng = random.Random(13)
    for group, form, ks, step in [("D8", (1, 1), range(60), 1), ("C4", (1, 1), range(60), 1),
                                  ("V4", (1, 3), range(60), 1), ("V4", (1, 1), range(60), 1),
                                  ("C6", (1, 3), range(80), 4), ("G_A3", (1, 2, 3), range(80), 2),
                                  ("H", (1, 1, 1), range(40), 1), ("H", (1,) * 4, range(16), 1)]:
        for k in ks:
            sols = solve_diagonal(form, k)
            yield group, sols
            both = sols + solve_diagonal(form, k + step)
            yield group, rng.sample(both, rng.randrange(len(both) + 1))
            if sols:
                i = rng.randrange(len(sols))
                yield group, sols[:i] + sols[i + 1:] + sols[:1]


def _result_or_error(call, group, points):
    try:
        return call(group, points)
    except (NotClosed, NonIntegralImage) as exc:
        return type(exc).__name__, str(exc)


def test_action_freeness_matches_orbit_partition_oracle(monkeypatch):
    sets = list(_freeness_sets())
    expected = [_result_or_error(oracles.is_action_free, group, points) for group, points in sets]

    def refuse(*args):
        raise AssertionError("is_action_free built an orbit")

    monkeypatch.setattr(diophantine, "orbit", refuse)
    monkeypatch.setattr(diophantine, "orbit_partition", refuse)
    assert [_result_or_error(is_action_free, group, points) for group, points in sets] == expected
    outcomes = {(group, result[0]) for (group, _), result in zip(sets, expected)}
    for group in ("D8", "C4", "V4", "C6", "G_A3", "H"):
        assert {(group, True), (group, "NotClosed")} <= outcomes, group
    assert {("D8", False), ("V4", False), ("G_A3", False), ("H", False),
            ("C6", "NonIntegralImage"), ("G_A3", "NonIntegralImage")} <= outcomes


def _assert_representatives(group, form, k):
    """solve_diagonal with the group against the full-set rule, and canonical
    and orbit_size of every solution against the orbit that holds it."""
    assert solve_diagonal(form, k, group) == oracles.representatives(group, form, k)
    for orb in orbit_partition(group, solve_diagonal(form, k)):
        top, size = max(orb), len(orb)
        for p in orb:
            assert canonical(group, p) == top and orbit_size(group, p) == size, (group, p)


def test_representatives_ga3():
    for n in range(121):
        _assert_representatives("G_A3", (1, 2, 3), 48 * n + 30)
    # every even k; at odd k both raise as soon as U has a point
    for k in range(200):
        if k % 2 == 0 or not solve_diagonal((1, 2, 3), k):
            _assert_representatives("G_A3", (1, 2, 3), k)
            continue
        with pytest.raises(NonIntegralImage):
            oracles.representatives("G_A3", (1, 2, 3), k)
        with pytest.raises(NonIntegralImage):
            solve_diagonal((1, 2, 3), k, "G_A3")


def test_representatives_rank2_groups():
    for k in range(300):
        _assert_representatives("D8", (1, 1), k)
        _assert_representatives("V4", (1, 3), k)
        _assert_representatives("V4", (1, 1), k)
    for k in range(100):
        _assert_representatives("C4", (1, 1), k)
        _assert_representatives("C6", (1, 3), 4 * k)


@pytest.mark.parametrize("group,form", [("C4", (2, 2)), ("C4", (3, 3)), ("C6", (2, 6)),
                                        ("C6", (3, 9)), ("V4", (2, 5)), ("V4", (3, 1))])
def test_sector_searches_match_the_representatives_oracle(monkeypatch, group, form):
    # every k, C6's off-domain levels (k/d odd) included, where both sides
    # raise; the in-domain levels make no canonical call
    calls = _counting(monkeypatch, "canonical")
    in_domain = raised = 0
    for k in range(600):
        expected = _outcome(oracles.representatives, group, form, k)
        before = calls["canonical"]
        assert _outcome(solve_diagonal, form, k, group) == expected, (form, k)
        if group != "C6" or k % (4 * form[0]) == 0:
            in_domain += 1
            assert calls["canonical"] == before, (form, k)
        raised += expected is NonIntegralImage
    assert in_domain >= 50 and (raised > 0) == (group == "C6")


@pytest.mark.parametrize("group,form,top", [
    ("H", (1,), 200), ("H", (3,), 200), ("H", (2, 2, 2), 200), ("H", (3, 3, 3, 3), 120),
    ("H", (2,) * 5, 50), ("D8", (5, 5), 600), ("C4", (5, 5), 600), ("C6", (5, 15), 600),
    ("V4", (4, 7), 600)])
def test_chain_search_matches_the_representatives_oracle(group, form, top):
    # coefficients past 3 and H past the cases' unit forms; C6 off its
    # domain (k/5 not 0 mod 4) raises on both sides
    found = 0
    for k in range(top):
        expected = _outcome(oracles.representatives, group, form, k)
        assert _outcome(solve_diagonal, form, k, group) == expected, k
        found += isinstance(expected, list) and len(expected) > 0
    assert found >= 5


@pytest.mark.parametrize("form,k,point", [((1, 3), 7, "(2,-1)"), ((1, 3), 13, "(1,-2)"),
                                          ((1, 3), 1, "(1,0)"), ((2, 6), 14, "(2,-1)")])
def test_c6_off_its_domain_names_the_same_point(form, k, point):
    with pytest.raises(NonIntegralImage) as raised:
        solve_diagonal(form, k, "C6")
    assert str(raised.value) == f"{point} is outside the parity domain"


def test_c6_at_levels_without_solutions_is_empty():
    assert solve_diagonal((1, 3), 2, "C6") == solve_diagonal((1, 3), 6, "C6") == []


@pytest.mark.parametrize("rank", range(1, 6))
def test_representatives_hyperoctahedral(rank):
    # the equation values of all five families: B, C, A odd and even, D twisted
    levels = 6 if rank <= 3 else 3 if rank == 4 else 1
    for type_id in (f"B{rank}_1", f"C{rank}_1", f"A{2 * rank - 1}_2", f"A{2 * rank}_2",
                    f"D{rank + 1}_2"):
        case = param.hyp_case(type_id)
        for n in range(levels):
            _assert_representatives("H", case.form, case.equation_value(n))


def _counting(monkeypatch, *names):
    """Wrap the named diophantine functions so that each call is counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _inner=getattr(diophantine, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(diophantine, name, counted)
    return calls


def test_action_freeness_makes_one_pass(monkeypatch):
    points = solve_diagonal((1, 3), 6916)
    orbits = len(orbit_partition("C6", points))
    assert (len(points), orbits) == (48, 8)
    calls = _counting(monkeypatch, "canonical", "orbit_size")
    assert is_action_free("C6", points) == (True, None)
    # one canonical point per point and one orbit size per orbit, which C6's
    # orbit_size reads off the canonical (sector) point without canonical
    assert calls == {"canonical": len(points), "orbit_size": orbits}


def test_closed_form_canonical_matches_max_of_rotations():
    # coordinates up to 3, 20 and 1000: about half of them are off the
    # parity domain, where both rules raise the same message
    rng = random.Random(18)
    raised = set()
    for scale in (3, 20, 1000):
        for group, rank in (("C6", 2), ("G_A3", 3)):
            for _ in range(3000):
                p = tuple(rng.randint(-scale, scale) for _ in range(rank))
                expected = _result_or_error(oracles.canonical60_by_rotations, group, p)
                assert _result_or_error(canonical, group, p) == expected, (group, p)
                if expected[0] == "NonIntegralImage":
                    raised.add(group)
                    assert _result_or_error(orbit_size, group, p) == expected
                    continue
                x, z = p[0], p[-1]
                assert (diophantine._rotations60(p, x, z)
                        == oracles.rotations60_stepwise(p, x, z))
                assert orbit_size(group, p) == len(orbit(group, p)), (group, p)
    assert raised == {"C6", "G_A3"}


def test_ga3_sector_search_matches_the_y_stepping_oracle():
    # every even k to 20000, and the A3 levels k = 48N + 30 to N = 1000
    for k in [*range(0, 20001, 2), *(48 * n + 30 for n in range(0, 1001, 3))]:
        assert diophantine._solve_ga3_sector(k) == oracles.solve_ga3_sector_by_y(k), k


def test_ga3_sieve_keeps_exactly_the_residues_that_can_leave_a_square():
    # x^2 mod 16 depends on x mod 8 and 2y^2 mod 16 on y mod 4, so the pairs
    # (x, y) mod 8 give every residue of x^2 + 2y^2 mod 16: row r of the
    # table must be the x mod 8 of the pairs that reach r, none dropped and
    # none kept in vain
    reach = {r: set() for r in range(16)}
    for x in range(8):
        for y in range(8):
            reach[(x * x + 2 * y * y) % 16].add(x)
    assert diophantine._GA3_SIEVE == tuple(tuple(sorted(reach[r])) for r in range(16))
    # and by brute force on integers: each x with (rest - x^2) / 2 a square
    # lies in the row of rest mod 16
    for rest in range(3000):
        for x in range(math.isqrt(rest) + 1):
            q, odd = divmod(rest - x * x, 2)
            if not odd and math.isqrt(q) ** 2 == q:
                assert x % 8 in diophantine._GA3_SIEVE[rest % 16], (rest, x)


def test_sector60_rotation_matches_the_r60_matrices():
    # the one-frame rotation into (-30, 30] degrees is the largest of the six
    # halved R60 rotations of (x, sqrt(3) z), and off the parity domain it
    # raises _rotations60's text, naming the point
    for x in range(-40, 41):
        for z in range(-40, 41):
            point = (x, 5, z)
            if (x - z) % 2:
                with pytest.raises(NonIntegralImage, match=rf"^\({x},5,{z}\) is outside the parity domain$"):
                    diophantine._to_sector60(point, x, z)
                continue
            rotations = [((a * x + b * z) // 2, (c * x + d * z) // 2)
                         for a, b, c, d in diophantine.R60]
            assert diophantine._to_sector60(point, x, z) == max(rotations), point


def test_ga3_at_odd_level_names_the_first_point_of_the_reversed_search():
    with pytest.raises(NonIntegralImage, match=r"^\(2,0,-3\) is outside the parity domain$"):
        solve_diagonal((1, 2, 3), 31, "G_A3")


def test_ga3_sector_points_skip_canonical(monkeypatch):
    calls = _counting(monkeypatch, "canonical")
    for n in range(101):
        param.LevelData(param.CASES["A3"], n).solution_count
    assert calls == {"canonical": 0}
    with pytest.raises(NonIntegralImage):
        orbit_size("G_A3", (3, 0, 0))
    with pytest.raises(ValueError) as refused:
        orbit_size("G_A3", (3, 0))
    assert refused.type is ValueError


@pytest.mark.parametrize("case_id", ["A2", "A2ext", "C2L1", "G21", "D43"])
def test_rank2_sector_points_skip_canonical(monkeypatch, case_id):
    case = param.CASES[case_id]
    calls = _counting(monkeypatch, "canonical")
    levels = [param.LevelData(case, n) for n in range(101)]
    assert sum(len(level.reps) for level in levels) > 50 and calls == {"canonical": 0}
    # orbit_size reads the size off a sector point: C4 and V4 off any point,
    # C6 off one in the parity domain
    assert sum(level.solution_count for level in levels) > 0 and calls == {"canonical": 0}


def test_c6_orbit_size_reads_only_sector_points(monkeypatch):
    sector, other = [(0, 0), (2, 0), (3, 1), (6, 2)], [(-2, 0), (1, 1), (0, 2), (-3, -1)]
    sizes = [len(orbit("C6", p)) for p in sector + other]
    calls = _counting(monkeypatch, "canonical")
    assert [orbit_size("C6", p) for p in sector] == sizes[:len(sector)] == [1, 6, 6, 6]
    assert calls == {"canonical": 0}
    assert [orbit_size("C6", p) for p in other] == sizes[len(sector):]
    assert calls == {"canonical": len(other)}
    # a sector point off the parity domain still raises canonical's error
    for point in ((1, 0), (5, 0)):
        with pytest.raises(NonIntegralImage) as by_size:
            orbit_size("C6", point)
        with pytest.raises(NonIntegralImage) as by_canonical:
            canonical("C6", point)
        assert str(by_size.value) == str(by_canonical.value)


def test_canonical_parity_domain_and_invariance():
    with pytest.raises(NonIntegralImage):
        canonical("G_A3", (1, 0, 0))
    assert canonical("G_A3", (-1, 5, 1)) == (2, 5, 0)
    # C6 shares the G_A3 rotations and their domain
    for point in ((1, 0), (2, -1)):
        with pytest.raises(NonIntegralImage):
            canonical("C6", point)
        with pytest.raises(NonIntegralImage):
            orbit_size("C6", point)
    with pytest.raises(ValueError):
        canonical("Z7", (1, 2))
    # a form the group does not preserve, or an unknown group, is refused
    with pytest.raises(NotClosed):
        solve_diagonal((1, 2), 5, "D8")
    with pytest.raises(NotClosed):
        solve_diagonal((1, 1, 2), 4, "H")
    with pytest.raises(ValueError):
        solve_diagonal((1, 1), 2, "Z7")


def test_two_squares_examples():
    assert two_squares_solvable(5)
    assert not two_squares_solvable(21)
    assert two_squares_solvable(9)
    assert two_squares_solvable(0)
    assert not two_squares_solvable(-3)


@given(st.integers(1, 4000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_two_squares_against_bruteforce(k):
    assert two_squares_solvable(k) == bool(solve_diagonal((1, 1), k))


def test_factorize():
    assert factorize(1) == {}
    assert factorize(18) == {2: 1, 3: 2}
    assert factorize(9973) == {9973: 1}


def test_gaussian_lift_examples():
    lift = gaussian_lift(2)
    assert (lift.alpha, lift.c, lift.m) == (1, 1, 1)
    assert len(solve_diagonal((1, 1), 1)) == len(solve_diagonal((1, 1), 2)) == 4
    lift = gaussian_lift(18)
    assert (lift.alpha, lift.c, lift.m) == (1, 3, 1)
    assert lift.apply((1, 0)) == (3, 3)
    lift = gaussian_lift(325)
    assert (lift.alpha, lift.c, lift.m) == (0, 1, 325)
    assert lift.apply((10, 15)) == (10, 15)
    with pytest.raises(Unsolvable):
        gaussian_lift(21)


def test_gaussian_lift_is_bijection_small():
    for k in range(1, 600):
        if not two_squares_solvable(k):
            continue
        lift = gaussian_lift(k)
        source = solve_diagonal((1, 1), lift.m)
        image = sorted(lift.apply(p) for p in source)
        assert image == solve_diagonal((1, 1), k)


def test_residue_free_criterion():
    assert residue_free_criterion(8, 5)
    assert residue_free_criterion(12, 5)
    assert not residue_free_criterion(8, 1)
    assert residue_free_criterion(12, 7)
    assert residue_free_criterion(6, 7) is False   # 7 = 1 mod 6 is a residue
