"""Differential tests: the exact integer kernels against the slow oracles."""

import dataclasses
import functools
import hashlib
import itertools
import math
import pickle
import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corelat import atomic, dynkin, linalg, param
from corelat.cores import enumerate_partitions
from corelat.diophantine import solve_diagonal, solve_diagonal_meet

import oracles
from golden_data import COMPILED_SEARCH_SHA256
from oracles import (RecursiveBall, enumerate_quadratic_ball_level,
                     enumerate_quadratic_ball_upto, gram, length_form_parts, size_form,
                     solve_diagonal_brute, tails_level)
from oracles import layer_image as oracle_layer_image, numerators as oracle_numerators


# ---------------------------------------------------------------------------
# Fraction-free elimination and fundamental weights

small_rationals = st.one_of(st.just(0), st.integers(-4, 4),
                            st.fractions(min_value=-4, max_value=4, max_denominator=6))


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_eliminate_matches_the_fraction_oracle(data):
    dim = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, dim + 1))
    columns = data.draw(st.lists(st.lists(small_rationals, min_size=dim, max_size=dim),
                                 min_size=k, max_size=k))
    try:
        want = oracles.eliminate(columns)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            linalg.eliminate(columns)
        assert str(refused.value) == str(exc) == "singular system"
        return
    got = linalg.eliminate(columns)
    assert [[Fraction(x, q) for x in V] for V, q in got] == want
    # each row is reduced: q is the lcm of its entries' denominators
    assert all(q > 0 and math.gcd(*V, q) == 1 for V, q in got)


SETUP_TYPES = dynkin.all_type_ids(8) + ["E6_1", "E7_1", "E8_1"]


def type_bases(type_ids):
    for type_id in type_ids:
        t = dynkin.lookup_type(type_id)
        for name, basis in (("roots", t.simple_roots), ("M", t.m_basis), ("L", t.l_basis)):
            if basis is not None:
                yield type_id, name, basis


@pytest.mark.parametrize("type_id,name,basis", list(type_bases(SETUP_TYPES)))
def test_span_solver_fields_match_the_fraction_oracle(type_id, name, basis):
    solver = linalg.SpanSolver(basis)
    assert (solver.D, solver.rows, solver.total, solver.equations) == oracles.span_solver_fields(basis)
    assert all(type(x) is int for row in solver.rows + solver.equations for x in row)


@pytest.mark.parametrize("type_id", SETUP_TYPES)
def test_fundamental_weights_match_the_fraction_oracle(type_id):
    t = dynkin.lookup_type(type_id)
    assert dynkin.fundamental_weights(t) == oracles.fundamental_weights(t)
    # the integer weights are the Fraction ones scaled by their own lcm
    assert t.integer_weights == tuple((tuple(V), q) for V, q in
                                      map(linalg.integer_vector, oracles.fundamental_weights(t)))


def test_fundamental_weights_closed_forms_at_rank_50():
    # A_50: omega_i = e_1 + ... + e_i - i/51 (e_1 + ... + e_51)
    weights = dynkin.fundamental_weights(dynkin.lookup_type("A50_1"))
    for i in range(1, 51):
        assert weights[i - 1] == tuple(int(d < i) - Fraction(i, 51) for d in range(51))
    # C_50: omega_i = (1/2, ..., 1/2, 0, ..., 0) with i halves
    weights = dynkin.fundamental_weights(dynkin.lookup_type("C50_1"))
    for i in range(1, 51):
        assert weights[i - 1] == tuple(Fraction(int(d < i), 2) for d in range(50))


@pytest.mark.parametrize("type_id", ["B50_1", "D50_1"])
def test_fundamental_weights_dual_basis_at_rank_50(type_id):
    # 2 (omega_i | alpha_j) / |alpha_j|^2 = delta_ij with omega_i = W_i / p_i
    # and alpha_j = R_j / Q reads 2 Q (W_i . R_j) = delta_ij p_i (R_j . R_j)
    t = dynkin.lookup_type(type_id)
    Q, R = linalg.scaled_basis(t.simple_roots)
    for i, (W, p) in enumerate(t.integer_weights):
        assert p > 0 and math.gcd(*W, p) == 1 and t.root_solver.in_span(W)
        for j, Rj in enumerate(R):
            assert 2 * Q * linalg.dot(W, Rj) == (i == j) * p * linalg.dot(Rj, Rj)


# ---------------------------------------------------------------------------
# Diagonal solver

forms = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)


@st.composite
def brute_sized_cases(draw):
    """A form and a k whose ellipsoid sum d_i x_i^2 <= k holds at most about
    20000 lattice points, the leaves the brute-force oracle visits."""
    form = draw(forms)
    n = len(form)
    ball_volume = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    cap = int((20000 * math.sqrt(math.prod(form)) / ball_volume) ** (2 / n))
    return form, draw(st.integers(0, min(2000, cap)))


@given(forms, st.integers(0, 2000))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solver_matches_meet(form, k):
    assert solve_diagonal(form, k) == solve_diagonal_meet(form, k)


@given(brute_sized_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_solver_matches_brute_force(case):
    form, k = case
    new = solve_diagonal(form, k)
    assert new == solve_diagonal_brute(form, k) == solve_diagonal_meet(form, k)


def test_solver_edge_cases():
    assert solve_diagonal((), 0) == solve_diagonal_brute((), 0) == [()]
    assert solve_diagonal((), 4) == solve_diagonal_brute((), 4) == []
    assert solve_diagonal((3,), -3) == []
    assert solve_diagonal((2,), 8) == [(-2,), (2,)]
    assert solve_diagonal((5,), 0) == [(0,)]
    with pytest.raises(ValueError):
        solve_diagonal((1, 0), 4)


# ---------------------------------------------------------------------------
# Quadratic-form enumerator

TARGETS = (0, 1, 2, 3, 5, 8, Fraction(1, 2), Fraction(7, 3), Fraction(11, 2))


def assert_enumerators_agree(a, b, targets=TARGETS):
    ball = linalg._IntegerBall(a, b)
    for target in targets:
        # lists, not sets: the order of a level is part of its contract
        assert (linalg.enumerate_quadratic_level(ball, target) == tails_level(ball, target)
                == enumerate_quadratic_ball_level(a, b, target))
        new = list(linalg.enumerate_quadratic_upto(ball, target))
        assert new == list(enumerate_quadratic_ball_upto(a, b, target))
        assert all(type(value) is Fraction for value, _ in new)


def length_forms(type_ids=dynkin.all_type_ids(4) + ["E8_1"]):
    for type_id in type_ids:
        for weight in (0, 1):
            for lattice in ("M", "L"):
                try:
                    atomic.length_form(type_id, weight, lattice)
                except atomic.UnsupportedLattice:
                    continue
                yield type_id, weight, lattice


@pytest.mark.parametrize("type_id,weight,lattice", list(length_forms()))
def test_enumerator_matches_oracle_on_length_forms(type_id, weight, lattice):
    form = atomic.length_form(type_id, weight, lattice)
    assert_enumerators_agree(form.a, form.b)


HYP_TYPES = ("B2_1", "B3_1", "C2_1", "C3_1", "A3_2", "A5_2", "A4_2", "A6_2",
             "D3_2", "D4_2", "A1_2", "A2_2")


@pytest.mark.parametrize("type_id", HYP_TYPES)
def test_enumerator_matches_oracle_on_hyp_forms(type_id):
    form = param.hyp_case(type_id).length
    assert_enumerators_agree(form.a, form.b, TARGETS + (13, Fraction(29, 2)))


def test_hyp_types_cover_half_integer_kappa():
    families = {param._hyp_family_of_type(t) for t in HYP_TYPES}
    assert {f for f, _ in families} == {"B", "C", "Aodd", "Aeven", "Dt"}
    for family, n in families:
        if family in ("Aodd", "Aeven"):
            assert param._HYP_FAMILIES[family]["kappa"](n).denominator == 2


@pytest.mark.parametrize("d", range(2, 7))
def test_enumerator_matches_oracle_on_core_size_forms(d):
    for form in (size_form(d), size_form(d, self_conjugate=True)):
        assert_enumerators_agree(form.a, form.b, TARGETS + (13, 21))


@pytest.mark.parametrize("type_id,rank", [("A1_1", 1), ("A2_1", 2), ("A19_1", 19), ("A20_1", 20),
                                          ("A21_1", 21), ("A22_1", 22), ("C21_1", 21),
                                          ("HYP:C21_1", 21)])
def test_enumerator_matches_oracle_around_the_nesting_limit(type_id, rank):
    # CPython refuses more than 20 statically nested blocks; the compiled
    # level search is one function per depth, so it builds and agrees on
    # both sides of that limit
    form = (param.hyp_case(type_id[4:]).length if type_id.startswith("HYP:")
            else atomic.length_form(type_id, 0, "M"))
    assert len(form.a) == rank
    assert_enumerators_agree(form.a, form.b, (0, 1, 2))


def test_a_level_below_the_minimum_is_empty():
    # x^2 and x^2 + y^2 have scale 1 and offset 0, so target -1 is the
    # budget -1, which no isqrt may be asked for
    for a, b in (([[1]], [0]), ([[1, 0], [0, 1]], [0, 0])):
        ball = linalg._IntegerBall(a, b)
        assert (ball.scale, ball.offset) == (1, 0)
        for target in (-3, -2, -1, Fraction(-1, 2)):
            assert linalg.enumerate_quadratic_level(ball, target) == tails_level(ball, target) == []


def assert_gram_matches(form, kappa):
    assert form.a == gram(form.basis, kappa)
    assert all(type(x) is Fraction for row in form.a for x in row)


@pytest.mark.parametrize("type_id,weight,lattice",
                         list(length_forms(dynkin.all_type_ids(4) + ["E6_1", "E7_1", "E8_1"])))
def test_gram_matches_fraction_products_on_length_forms(type_id, weight, lattice):
    t = dynkin.lookup_type(type_id)
    kappa = atomic.weight_Lambda(t, weight).level * t.h * t.scale_sq / 2
    assert_gram_matches(atomic.length_form(type_id, weight, lattice), kappa)


@pytest.mark.parametrize("type_id,weight,lattice",
                         list(length_forms(dynkin.all_type_ids(4) + ["E6_1", "E7_1", "E8_1"])))
def test_length_form_matches_the_fraction_callback(type_id, weight, lattice):
    form = atomic.length_form(type_id, weight, lattice)
    assert (form.a, form.b) == length_form_parts(type_id, weight, lattice)


@pytest.mark.parametrize("type_id", dynkin.all_type_ids(8) + [
    "A50_1", "B50_1", "C50_1", "D50_1", "A49_2", "A50_2", "D50_2"])
def test_weight_rows_match_the_index_rows_oracle(type_id):
    # each fundamental weight derives the rows that atomic once read off
    # t.integer_weights, and length_form is the form of those rows; the
    # rank-50 forms take seconds to build at every weight, so three weights
    # stand for the others there
    t = dynkin.lookup_type(type_id)
    forms_at = range(t.n + 1) if t.n <= 8 else (0, 1, t.n)
    for i in range(t.n + 1):
        W, K, M = rows = oracles.index_rows(t, i)
        assert atomic.weight_Lambda(t, i)._integer_rows == rows, i
        for lattice in ("M", "L") if i in forms_at else ():
            try:
                basis = atomic._basis(t, lattice)
            except atomic.UnsupportedLattice:
                continue
            form = atomic.length_form(type_id, i, lattice)
            want = linalg.QuadraticForm.on_basis(basis, Fraction(K, M), (W, M))
            assert (form.a, form.b) == (want.a, want.b), (i, lattice)


def test_gram_matches_fraction_products_on_hyp_and_core_size_forms():
    for type_id in HYP_TYPES:
        family, n = param._hyp_family_of_type(type_id)
        assert_gram_matches(param.hyp_case(type_id).length,
                            param._HYP_FAMILIES[family]["kappa"](n))
    for d in range(2, 13):
        for self_conjugate in (False, True):
            assert_gram_matches(size_form(d, self_conjugate), Fraction(d, 2))


def search_forms():
    """(name, form) for every length form of all_type_ids(4) and E6_1 to
    E8_1, the hyperoctahedral forms of HYP_TYPES and size_form(d), d <= 6."""
    for type_id, weight, lattice in length_forms(dynkin.all_type_ids(4)
                                                 + ["E6_1", "E7_1", "E8_1"]):
        yield f"{type_id}-L{weight}-{lattice}", atomic.length_form(type_id, weight, lattice)
    for type_id in HYP_TYPES:
        yield f"HYP:{type_id}", param.hyp_case(type_id).length
    for d in range(2, 7):
        yield f"cores-{d}", size_form(d)


def test_compiled_searches_are_byte_identical():
    digest = hashlib.sha256()
    for name, form in search_forms():
        ball = form.ball
        source = linalg.level_source(ball.S, ball.e, ball.Su, ball.c0, ball.scale, ball.offset)
        entries = " ".join(str(Fraction(x)) for x in (*itertools.chain(*form.a), *form.b))
        digest.update(f"{name}\n{source}{ball.D}\n{entries}\n".encode())
    assert digest.hexdigest() == COMPILED_SEARCH_SHA256


def test_compiled_form_serves_every_target():
    # one form, compiled once, asked for targets whose denominators do not
    # divide the form's; 13 comes twice so that scaling carried over from
    # an earlier target would show
    form = atomic.length_form("C2_1", 0, "M")
    assert all(Fraction(x).denominator == 1 for row in form.a for x in row + form.b)
    for target in (13, Fraction(1, 2), Fraction(7, 3), 13):
        assert form.level(target) == sorted(
            map(form.coordinates, enumerate_quadratic_ball_level(form.a, form.b, target)))
        assert list(linalg.enumerate_quadratic_upto(form.ball, target)) == list(
            enumerate_quadratic_ball_upto(form.a, form.b, target))
    assert form.level(13)


@pytest.mark.parametrize("name", dynkin.all_type_ids(3) + ["HYP:C3_1"])
def test_a_form_pickles_as_its_rows(name):
    # the compiled numerators and ball are rebuilt, not pickled
    form = param.get_case(name).length if name.startswith("HYP:") else atomic.length_form(name, 0, "M")
    form.level(6)
    copy = pickle.loads(pickle.dumps(form))
    assert "ball" not in vars(copy) and (copy.a, copy.b, copy.Q, copy.C) == (form.a, form.b, form.Q, form.C)
    assert [copy.level(n) for n in range(7)] == [form.level(n) for n in range(7)]


def test_repeated_levels_reuse_the_compiled_form(monkeypatch):
    # every _IntegerBall is built by a form's ball, at most once per form,
    # however many levels, bounds and sweeps ask it
    built, compiled, searches = [], [], []
    compile_ball, compile_level = linalg.QuadraticForm.ball.func, linalg.compile_level

    class CountingBall(linalg._IntegerBall):
        def __init__(self, a, b):
            built.append(self)
            super().__init__(a, b)

    @functools.cached_property
    def ball(form):
        compiled.append(form)
        return compile_ball(form)

    def counting_level(*constants):
        searches.append(constants)
        return compile_level(*constants)

    ball.__set_name__(linalg.QuadraticForm, "ball")
    monkeypatch.setattr(linalg, "_IntegerBall", CountingBall)
    monkeypatch.setattr(linalg, "compile_level", counting_level)
    monkeypatch.setattr(linalg.QuadraticForm, "ball", ball)
    # the builders' forms are compiled afresh, not by an earlier test: the
    # nine cases hold forms rebuilt here, and hyp_case builds its own
    atomic.length_form.cache_clear()
    param.hyp_case.cache_clear()
    for case_id, case in list(param.CASES.items()):
        monkeypatch.setitem(param.CASES, case_id, dataclasses.replace(
            case, length=atomic.length_form(case.type_id, case.weight, case.lattice)))

    def builds(run):
        # one level search compiled per ball, however many levels it serves
        built.clear()
        compiled.clear()
        searches.clear()
        run()
        assert len(built) == len(compiled) == len(set(map(id, compiled))) == len(searches)
        return len(built)

    def sweep():
        for case_id in (*param.CASES, "HYP:C3_1"):
            for n in range(11):
                assert param.verify_case(case_id, n).passed

    size = size_form(4)
    form = linalg.QuadraticForm(size.a, size.b, size.basis)
    assert builds(lambda: ([form.level(n) for n in range(12)],
                           list(linalg.enumerate_quadratic_upto(form.ball, 11)))) == 1
    assert builds(lambda: [enumerate_partitions(n, "core", 5) for n in range(21)]) == 1
    assert builds(sweep) > 1
    assert builds(sweep) == 0


def test_a_compiled_form_is_searched_without_hashing_a_fraction(monkeypatch):
    # a form keeps its compiled search, so no later search hashes the
    # Fractions of (a, b)
    form = atomic.length_form("E8_1", 0, "M")
    form.level(2)
    hashed, fraction_hash = [], Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert form.level(4) and form.level_coefficients(6)
    assert list(linalg.enumerate_quadratic_upto(form.ball, 2))
    assert linalg.enumerate_quadratic_level(form.ball, 4)
    assert hashed == []


def test_a_rank_zero_form_has_one_point_at_zero():
    # the empty lattice: () at value 0 and no point at any other value
    form = linalg.QuadraticForm((), (), ())
    assert form.level(0) == [()] and form.level(1) == []
    assert list(linalg.enumerate_quadratic_upto(form.ball, 0)) == [(0, ())]
    assert list(linalg.enumerate_quadratic_upto(form.ball, -1)) == []


def walk_forms():
    """Every length form of all_type_ids(4), E6_1 and E8_1 on M and L, the
    hyperoctahedral forms of HYP_TYPES and the core size forms, by name."""
    forms = {f"{type_id}-L{weight}-{lattice}": atomic.length_form(type_id, weight, lattice)
             for type_id, weight, lattice
             in length_forms(dynkin.all_type_ids(4) + ["E6_1", "E8_1"])}
    for type_id in HYP_TYPES:
        forms[f"HYP:{type_id}"] = param.hyp_case(type_id).length
    for d in range(2, 7):
        forms[f"cores-{d}"] = size_form(d)
        forms[f"cores-{d}-sc"] = size_form(d, self_conjugate=True)
    return forms


WALK_FORMS = walk_forms()


def walk(ball, T, limit=None):
    """(R_0, (m_1, ..., m_{k-1}), S c_0) at each step of ball.tails(m, T),
    the first limit of them; the recursive oracle yields R_0 alone, and its
    centre of m_0 is read off with centre(0, m)."""
    m = [0] * len(ball.c0)
    if isinstance(ball, RecursiveBall):
        steps = ((budget, ball.centre(0, m)) for budget in ball.tails(m, T))
    else:
        steps = ball.tails(m, T)
    return [(budget, tuple(m[1:]), c) for budget, c in itertools.islice(steps, limit)]


def assert_walks_agree(a, b, bounds, limit=None):
    ball, oracle = linalg._IntegerBall(a, b), RecursiveBall(a, b)
    for T in bounds:
        assert walk(ball, T, limit) == walk(oracle, T, limit)


@pytest.mark.parametrize("name", sorted(WALK_FORMS))
def test_one_frame_walk_matches_the_recursive_oracle(name):
    # every integer bound up to 60 (and a few below 0, where small balls
    # are empty), then a prefix of the walk under one large bound
    form = WALK_FORMS[name]
    assert_walks_agree(form.a, form.b, range(-5, 61))
    assert_walks_agree(form.a, form.b, (10 ** 12,), limit=3000)


def test_walk_forms_cover_every_depth_case_and_a_denominator():
    # rank 1 has no depth to walk, rank 2 only the innermost loop, rank 3
    # the first depth that hands its centres down
    ranks = {len(form.a) for form in WALK_FORMS.values()}
    assert {1, 2, 3, 8} <= ranks
    assert any(form.ball.D > 1 for form in WALK_FORMS.values())


@pytest.mark.parametrize("name", sorted(WALK_FORMS))
def test_outer_values_count_the_outermost_loop_exactly(name):
    # every integer level up to 60 (and a few below 0), then two large ones;
    # rank 1 loops over nothing, and a target off (1/D) Z is never searched
    form = WALK_FORMS[name]
    for T in (*range(-5, 61), 10 ** 6, 10 ** 12):
        target = Fraction(T, form.ball.D)
        expected = oracles.outer_values(form.a, form.b, target) if len(form.a) > 1 else 0
        assert form.outer_values(target) == expected
    assert form.outer_values(Fraction(1, 2 * form.ball.D)) == 0


def test_a_level_builds_one_fraction_per_distinct_value(monkeypatch):
    """QuadraticForm.level builds one Fraction per distinct coordinate value
    and one for the target; the points still equal the oracle's, each
    coordinate a Fraction."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for type_id, weight, lattice, n in (("E8_1", 0, "M", 32), ("F4_1", 0, "M", 124),
                                        ("C4_1", 1, "L", 92)):
        form = atomic.length_form(type_id, weight, lattice)
        expected = sorted(map(form.coordinates,
                              enumerate_quadratic_ball_level(form.a, form.b, n)))
        form.level(n)       # compiles the form's ball
        monkeypatch.setattr(linalg, "Fraction", counting)
        built.clear()
        level = form.level(n)
        monkeypatch.undo()
        values = {x for point in level for x in point}
        assert level == expected
        assert len(level) > len(values) > 1
        assert len(built) <= len(values) + 1
        assert all(type(x) is Fraction for point in level for x in point)


@st.composite
def rational_forms(draw):
    """A positive-definite (a, b) with denominators up to 6 and a target."""
    k = draw(st.integers(1, 4))
    g = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(k)]
    q = draw(st.integers(1, 6))
    a = tuple(tuple(Fraction(sum(g[r][i] * g[r][j] for r in range(k)) + (i == j), q)
                    for j in range(k)) for i in range(k))
    b = tuple(Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
              for _ in range(k))
    target = Fraction(draw(st.integers(-2, 40)), draw(st.integers(1, 6)))
    return a, b, target


@given(rational_forms())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_enumerator_matches_oracle_on_random_rational_forms(case):
    a, b, target = case
    assert_enumerators_agree(a, b, (target,))


@given(rational_forms())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_one_frame_walk_matches_the_recursive_oracle_on_random_rational_forms(case):
    a, b, target = case
    T = math.floor(target * linalg._IntegerBall(a, b).D)
    assert_walks_agree(a, b, (T, T + 7))


# ---------------------------------------------------------------------------
# Compiled integer maps

def random_coefficients(rng, k):
    """The zero vector and twenty random integer vectors of length k, with
    entries from 1 to 10^30 in size."""
    yield (0,) * k
    for size in (3, 50, 10 ** 30) * 6 + (1, 10 ** 6):
        yield tuple(rng.randint(-size, size) for _ in range(k))


def assert_numerators_match(form, seed=0):
    rng = random.Random(seed)
    for m in random_coefficients(rng, len(form.a)):
        assert form.numerators(m) == oracle_numerators(form, m)


def assert_layer_map_matches(f, seed=0):
    rng = random.Random(seed)
    for m in random_coefficients(rng, len(f.P[0])):
        assert f(m) == oracle_layer_image(f, m)


MAP_TYPES = dynkin.all_type_ids(4) + ["E6_1", "E7_1", "E8_1"]


@pytest.mark.parametrize("type_id,weight,lattice", list(length_forms(MAP_TYPES)))
def test_compiled_numerators_match_dot_products_on_length_forms(type_id, weight, lattice):
    assert_numerators_match(atomic.length_form(type_id, weight, lattice))


@pytest.mark.parametrize("d", range(2, 13))
def test_compiled_numerators_match_dot_products_on_core_size_forms(d):
    # the registry forms cores enumerates on, and the hand-built size forms
    forms = [atomic.length_form(f"A{d - 1}_1", 0, "M"), size_form(d), size_form(d, True)]
    if d % 2 == 0 and d > 2:
        forms.append(atomic.length_form(f"C{d // 2}_1", 0, "M"))
    elif d % 2:
        forms.append(atomic.length_form(f"A{d - 1}_2", d // 2, "M"))
    for form in forms:
        assert_numerators_match(form, d)


def hyp_types(ranks):
    """Every hyperoctahedral type id whose rank is in ranks."""
    for (family, twist), label in itertools.product((("B", 1), ("C", 1), ("A", 2), ("D", 2)),
                                                    range(1, 2 * max(ranks) + 1)):
        type_id = f"{family}{label}_{twist}"
        try:
            if param._hyp_family_of_type(type_id)[1] in ranks:
                yield type_id
        except ValueError:
            continue


def case_maps(case):
    """A case's layer maps where the registry holds its type, else its image
    map."""
    try:
        return case.layer_maps
    except dynkin.UnknownType:
        return (case.image_map,)


@pytest.mark.parametrize("case_id", list(param.CASES) + [f"HYP:{t}" for t in hyp_types(range(1, 7))])
def test_compiled_layer_maps_match_dot_products(case_id):
    maps = case_maps(param.get_case(case_id))
    assert all(isinstance(f, param.LayerMap) for f in maps)
    for seed, f in enumerate(maps):
        assert_layer_map_matches(f, seed)


@pytest.mark.parametrize("case_id", list(param.CASES) + [f"HYP:{t}" for t in hyp_types(range(1, 7))])
def test_all_layers_function_matches_the_layer_maps(case_id, monkeypatch):
    # one compiled call per lattice point gives the tuple of every LayerMap's
    # image, on each level N <= 20, and makes no LayerMap call; where the
    # registry lacks the type, it refuses as the layer maps do
    case = param.get_case(case_id)
    try:
        maps = case.layer_maps
    except dynkin.UnknownType:
        with pytest.raises(dynkin.UnknownType):
            case.layers_map
        return
    assert all(isinstance(f, param.LayerMap) and f.apply is f.numerators for f in maps)
    levels = [case.length.level_coefficients(n) for n in range(21)]
    expected = [[tuple(f(m) for f in maps) for m in ms] for ms in levels]

    def refuse(self, m):
        raise AssertionError("the all-layers function called a LayerMap")

    monkeypatch.setattr(param.LayerMap, "__call__", refuse)
    assert [list(map(case.layers_map, ms)) for ms in levels] == expected
    assert any(levels)


@pytest.mark.parametrize("case_id", list(param.CASES) + [
    f"HYP:{t}" for t in hyp_types({*range(1, 13), 20, 50})])
def test_every_case_builds_compiled_integer_layer_maps(case_id):
    # every layer of a registered case, and layer 0 of each hyperoctahedral
    # id, is an integer map m -> P m + p applied as its compiled numerators
    # (compile_affine takes only int entries)
    case = param.get_case(case_id)
    maps = case.layer_maps if case_id in param.CASES else (case.image_map,)
    assert all(f.apply is f.numerators for f in maps), case_id


def test_compiled_maps_at_the_rank_cap():
    # the largest rank label the registry takes, and a dense 100 x 100 map
    assert_numerators_match(atomic.length_form("A50_1", 0, "M"))
    assert_layer_map_matches(param.hyp_case("C50_1").image_map)
    rng = random.Random(1)
    P = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(100)] for _ in range(100)]
    p = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(100)]
    f = linalg.compile_affine(P, p)
    for m in random_coefficients(rng, 100):
        assert f(m) == tuple(linalg.dot(row, m) + c for row, c in zip(P, p))


@pytest.mark.parametrize("bad", [True, Fraction(2), 2.0, "2", "1), __import__('os'"])
@pytest.mark.parametrize("where", ["P", "p"])
def test_compile_affine_refuses_an_entry_that_is_not_an_int(bad, where):
    # a bool, a Fraction, a float and a string would each format as valid
    # source; every one is refused before any source is built
    P, p = [[1, 0], [0, 1]], [0, 0]
    (P[1] if where == "P" else p)[0] = bad
    with pytest.raises(ValueError, match="is not an int"):
        linalg.affine_source(P, p)
    with pytest.raises(ValueError, match="is not an int"):
        linalg.compile_affine(P, p)


@pytest.mark.parametrize("bad", [True, Fraction(2)])
@pytest.mark.parametrize("where", ["S", "e", "Su", "c0", "scale", "offset"])
def test_level_source_refuses_a_constant_that_is_not_an_int(bad, where, monkeypatch):
    # a bool and a Fraction would each format as valid source; either is
    # refused before any source is built, so nothing reaches exec
    constants = {"S": 2, "e": [1, 3], "Su": [[], [1]], "c0": [0, 1], "scale": 12, "offset": 3}
    value = constants[where]
    if isinstance(value, list):
        value[-1] = [bad] if where == "Su" else bad
    else:
        constants[where] = bad
    executed = []
    monkeypatch.setattr(linalg, "_define", lambda *args: executed.append(args))
    with pytest.raises(ValueError, match="is not an int"):
        linalg.level_source(**constants)
    with pytest.raises(ValueError, match="is not an int"):
        linalg.compile_level(**constants)
    assert executed == []


def test_compile_kernel_reads_what_it_can_and_hands_on_the_rest():
    # (q W.V + K V.V) / (M q^2) on the line x + y = 0 of type "X"; a point
    # off it, of another type or of unreadable coordinates is slow's
    kernel = linalg.compile_kernel("X", ((1, 1),), ((2, 0), 1, 1), lambda v: ("slow", v))
    assert kernel((1, -1)) == 4 and type(kernel((1, -1))) is Fraction
    assert kernel((Fraction(1, 2), -0.5)) == Fraction(3, 2)
    for point in ((1, 0), ("1", "-1"), (1, -1, 0), (1,), 7,
                  types.SimpleNamespace(type_id="Y", coords=(1, -1))):
        assert kernel(point) == ("slow", point)
    assert linalg.compile_kernel("X", (), ((3,), 2, 5), None)((Fraction(2, 3),)) == Fraction(26, 45)
    with pytest.raises(ValueError, match="span equations"):
        linalg.compile_kernel("X", ((1,),), ((2, 0), 1, 1), None)


def test_compile_affine_edge_shapes():
    assert linalg.compile_affine([], [])(()) == ()
    assert linalg.compile_affine([[0, 0]], [0])((5, 7)) == (0,)
    assert linalg.compile_affine([[1, -1]], [-3])((5, 7)) == (-5,)
    assert linalg.compile_affine([[2], [-1]], [1, 0])((4,)) == (9, -4)
    with pytest.raises(ValueError, match="2 rows but 1 offsets"):
        linalg.affine_source([[1], [2]], [0])


def test_compile_affine_in_blocks():
    # the rows split into consecutive blocks, one tuple each, empty blocks
    # included; blocks that do not split the rows are refused
    P, p = [[1, 2], [0, -1], [3, 0]], [0, 1, 5]
    assert linalg.compile_affine(P, p, [2, 0, 1])((1, 1)) == ((3, 0), (), (8,))
    assert linalg.compile_affine(P, p, [3])((2, -1)) == (linalg.compile_affine(P, p)((2, -1)),)
    assert linalg.compile_affine([], [], [0, 0])(()) == ((), ())
    for blocks in ([2], [2, 2], [4, -1]):
        with pytest.raises(ValueError, match=re.escape(f"blocks {tuple(blocks)} do not split 3 rows")):
            linalg.affine_source(P, p, blocks)
    maps = [param.LayerMap(param.get_case("A2ext"), j) for j in (0, 1)]
    stacked = linalg.compile_stacked(maps)
    for m in random_coefficients(random.Random(2), 2):
        assert stacked(m) == (maps[0](m), maps[1](m))
