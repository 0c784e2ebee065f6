"""Differential tests: compiled root-span and lattice solvers against the
Fraction kernels they replaced (tests/oracles.py), on every kind of point
the library reads, and the Fraction count of the point-evaluation path.
The statistic and membership kernels compile once per shape, read int,
Fraction, float and LatticeVector points without the generic path, refuse
an iterator they cannot read, and leave every record picklable; the
statistic kernels are shared by Lambda_i and its index."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corelat import atomic, dynkin, linalg, weyl
from corelat.atomic import DominantWeight, LatticeVector
from corelat.dynkin import NotInRootSpan, lookup_type

import oracles

TYPES = dynkin.all_type_ids(4) + ["E6_1", "E7_1", "E8_1"]
# types whose roots span less than the ambient space
OFF_SPAN_TYPES = [name for name in TYPES
                  if lookup_type(name).n < lookup_type(name).ambient_dim]

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def combination(basis, coeffs):
    return tuple(sum(c * b[d] for c, b in zip(coeffs, basis)) for d in range(len(basis[0])))


def off_span_direction(t):
    """The first unit vector outside the root span, found by the oracle's
    elimination (solve_in_span), which is quicker to run at rank 50 than the
    oracle's root-span solver is to build."""
    for d in range(t.ambient_dim):
        unit = tuple(Fraction(int(j == d)) for j in range(t.ambient_dim))
        if oracles.solve_in_span(t.simple_roots, unit) is None:
            return unit
    raise AssertionError(f"{t.name} has no unit vector outside its root span")


def test_off_span_types_are_the_expected_ones():
    assert OFF_SPAN_TYPES == ["A1_1", "A2_1", "A3_1", "A4_1", "G2_1", "A2_2", "D4_3",
                              "E6_1", "E7_1"]


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_statistics_agree_on_the_root_span(name, data):
    t = lookup_type(name)
    v = combination(t.simple_roots, data.draw(st.lists(rationals, min_size=t.n, max_size=t.n)))
    assert dynkin.simple_root_coefficients(t, v) == oracles.simple_root_coefficients(t, v)
    assert atomic.height(t, v) == oracles.height(t, v)
    assert atomic.atomic_length0(t, v) == oracles.atomic_length0(t, v)
    i = data.draw(st.integers(1, t.n))
    assert atomic.atomic_length_i(t, i, v) == oracles.atomic_length_i(t, i, v)
    lam = combination(dynkin.fundamental_weights(t),
                      data.draw(st.lists(rationals, min_size=t.n, max_size=t.n)))
    weight = DominantWeight(name, lam, data.draw(rationals))
    assert (atomic.extended_atomic_length(t, weight, v)
            == oracles.extended_atomic_length(t, weight, v))
    weight_i = atomic.weight_Lambda(t, i)
    assert (atomic.extended_atomic_length(t, weight_i, v)
            == oracles.extended_atomic_length(t, weight_i, v))


@pytest.mark.parametrize("name", OFF_SPAN_TYPES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_points_off_the_span_are_rejected(name, data):
    t = lookup_type(name)
    inside = combination(t.simple_roots, data.draw(st.lists(rationals, min_size=t.n, max_size=t.n)))
    shift = data.draw(rationals.filter(bool))
    v = tuple(x + shift * u for x, u in zip(inside, off_span_direction(t)))
    with pytest.raises(NotInRootSpan):
        oracles.simple_root_coefficients(t, v)
    for call in (lambda: dynkin.simple_root_coefficients(t, v),
                 lambda: atomic.height(t, v),
                 lambda: atomic.atomic_length0(t, v),
                 lambda: atomic.atomic_length_i(t, 1, v),
                 lambda: atomic.extended_atomic_length(t, atomic.weight_Lambda(t, 1), v)):
        with pytest.raises(NotInRootSpan):
            call()
    assert not atomic.in_lattice(t, v, "M") and not oracles.in_lattice(t, v, "M")


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_in_lattice_agrees_after_a_fractional_move(name, data):
    t = lookup_type(name)
    lattices = ["M"] + (["L"] if t.l_basis is not None else [])
    lattice = data.draw(st.sampled_from(lattices))
    basis = atomic._basis(t, lattice)
    point = combination(basis, data.draw(st.lists(st.integers(-4, 4),
                                                  min_size=len(basis), max_size=len(basis))))
    assert atomic.in_lattice(t, point, lattice)
    d = data.draw(st.integers(0, t.ambient_dim - 1))
    k = data.draw(st.integers(1, 6))
    moved = tuple(x + Fraction(1, k) * (j == d) for j, x in enumerate(point))
    for lattice in lattices:
        assert atomic.in_lattice(t, point, lattice) == oracles.in_lattice(t, point, lattice)
        assert atomic.in_lattice(t, moved, lattice) == oracles.in_lattice(t, moved, lattice)


def point_kinds(name, v):
    """The point v (Fractions) as Fraction, str, float (the nearest floats,
    another point where a coordinate is not a dyadic rational) and
    LatticeVector coordinates, and as int ones when v is integral."""
    kinds = [tuple(v), tuple(map(str, v)), tuple(map(float, v)), LatticeVector(name, v)]
    if all(x.denominator == 1 for x in v):
        kinds.append(tuple(map(int, v)))
    return kinds


@pytest.mark.parametrize("name", dynkin.all_type_ids(8) + ["E6_1", "E7_1", "E8_1",
                                                           "A50_1", "C50_1"])
def test_membership_kernel_agrees_with_the_span_solver_and_the_oracle(name):
    # members, members moved by a fraction along a basis vector or a
    # coordinate, and points off the root span, in every coordinate kind
    t = lookup_type(name)
    rng = random.Random(name)
    oracle = {}
    for lattice in ["M"] + (["L"] if t.l_basis is not None else []):
        basis = atomic._basis(t, lattice)
        solver = linalg.SpanSolver(basis)
        member = combination(basis, [rng.randint(-2, 2) for _ in basis])
        j, d, k = rng.randrange(len(basis)), rng.randrange(t.ambient_dim), rng.randint(2, 6)
        points = [member,
                  tuple(x + Fraction(1, k) * b for x, b in zip(member, basis[j])),
                  tuple(x + Fraction(1, k) * (i == d) for i, x in enumerate(member))]
        if t.n < t.ambient_dim:
            points.append(tuple(x + u for x, u in zip(member, off_span_direction(t))))
        for v in points:
            for point in point_kinds(name, v):
                exact = tuple(map(Fraction, point))
                if exact not in oracle:
                    oracle[exact] = oracles.in_lattice(t, exact, lattice)
                got = atomic.in_lattice(t, point, lattice)
                assert got == solver.in_lattice(*dynkin.integer_point(t, point)), (lattice, point)
                assert got == oracle[exact], (lattice, point)
        assert atomic.in_lattice(t, member, lattice)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_span_solver_matches_solve_in_span(data):
    dim = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, dim))
    basis = data.draw(st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                               min_size=k, max_size=k))
    # the oracle finds no solution, not even for 0, when the columns are dependent
    if oracles.solve_in_span(basis, [0] * dim) is None:
        with pytest.raises(ValueError):
            linalg.SpanSolver(basis)
        return
    solver = linalg.SpanSolver(basis)
    in_span = combination(basis, data.draw(st.lists(rationals, min_size=k, max_size=k)))
    anywhere = tuple(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
    for v in (in_span, anywhere):
        coeffs = oracles.solve_in_span(basis, v)
        V, q = linalg.integer_vector(v)
        assert solver.in_span(V) == (coeffs is not None)
        if coeffs is not None:
            assert [Fraction(linalg.dot(row, V), solver.D * q) for row in solver.rows] == coeffs
            assert Fraction(linalg.dot(solver.total, V), solver.D * q) == sum(coeffs)
            assert solver.in_lattice(V, q) == all(c.denominator == 1 for c in coeffs)


def input_kinds(t, v):
    """The root-span point v (Fractions) and multiples of it in every kind of
    point the library reads, as (kind, point) pairs."""
    q = math.lcm(*(x.denominator for x in v))
    ints = tuple(int(x * q) for x in v)
    return [
        ("int", ints),
        ("LatticeVector", LatticeVector(t.name, v)),
        ("int and Fraction", tuple(Fraction(x) if d % 2 else x for d, x in enumerate(ints))),
        ("int and Fraction", tuple(int(x) if x.denominator == 1 else x for x in v)),
        ("integral float", tuple(map(float, ints))),
        ("non-integral float", tuple(x / 4 for x in ints)),
        ("numeric string", tuple(map(str, v))),
        ("decimal string", tuple(repr(x / 4) for x in ints)),
    ]


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_input_kind_agrees_with_the_oracles(name, data):
    t = lookup_type(name)
    v = combination(t.simple_roots, data.draw(st.lists(rationals, min_size=t.n, max_size=t.n)))
    i = data.draw(st.integers(1, t.n))
    lam = combination(dynkin.fundamental_weights(t),
                      data.draw(st.lists(rationals, min_size=t.n, max_size=t.n)))
    weights = [atomic.weight_Lambda(t, i), DominantWeight(name, lam, data.draw(rationals))]
    lattices = ["M"] + (["L"] if t.l_basis is not None else [])
    for kind, point in input_kinds(t, v):
        pairs = [(dynkin.simple_root_coefficients(t, point),
                  oracles.simple_root_coefficients(t, point)),
                 (atomic.height(t, point), oracles.height(t, point)),
                 (atomic.atomic_length0(t, point), oracles.atomic_length0(t, point)),
                 (atomic.atomic_length_i(t, i, point), oracles.atomic_length_i(t, i, point))]
        pairs += [(atomic.extended_atomic_length(t, w, point),
                   oracles.extended_atomic_length(t, w, point)) for w in weights]
        for got, want in pairs:
            assert got == want, kind
            assert all(type(x) is Fraction for x in (got if type(got) is tuple else (got,)))
        for lattice in lattices:
            assert atomic.in_lattice(t, point, lattice) == oracles.in_lattice(t, point, lattice)


# NotInRootSpan messages recorded per input kind: every call,
# simple_root_coefficients included, names each coordinate by its exact
# Fraction, not as the point spells it.  (type, point, the message's text,
# the point's own text)
OFF_SPAN_MESSAGES = [
    ("A2_1", (1, 0, 0), "1,0,0", "1,0,0"),
    ("A2_1", LatticeVector("A2_1", (Fraction(1), Fraction(0), Fraction(0))), "1,0,0", "1,0,0"),
    ("A2_1", (Fraction(1, 2), 0, 0), "1/2,0,0", "1/2,0,0"),
    ("A2_1", (1.0, 0.0, -0.0), "1,0,0", "1.0,0.0,-0.0"),
    ("A2_1", (0.5, 0.25, 0.0), "1/2,1/4,0", "0.5,0.25,0.0"),
    ("A2_1", ("1/2", "0.25", "-3"), "1/2,1/4,-3", "1/2,0.25,-3"),
    ("G2_1", (0.5, 0, "1/3"), "1/2,0,1/3", "0.5,0,1/3"),
    ("G2_1", ("2", "-0.75", Fraction(1, 3)), "2,-3/4,1/3", "2,-0.75,1/3"),
    ("E6_1", (0.0,) * 7 + (1.5,), "0,0,0,0,0,0,0,3/2", "0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.5"),
]


@pytest.mark.parametrize("name, point, exact, raw", OFF_SPAN_MESSAGES)
def test_not_in_root_span_messages_are_unchanged(name, point, exact, raw):
    t = lookup_type(name)
    assert ",".join(map(str, point)) == raw
    for call in (lambda: dynkin.simple_root_coefficients(t, point),
                 lambda: atomic.height(t, point),
                 lambda: atomic.atomic_length0(t, point),
                 lambda: atomic.atomic_length_i(t, 1, point),
                 lambda: atomic.extended_atomic_length(t, atomic.weight_Lambda(t, 1), point)):
        with pytest.raises(NotInRootSpan) as refused:
            call()
        assert str(refused.value) == f"{exact} is not in the root span of {name}"
    assert not atomic.in_lattice(t, point)


def test_int_and_fraction_points_build_no_fraction_per_coordinate(monkeypatch):
    """The four point-eval calls build one Fraction, the statistic's value,
    on an int, Fraction or float point, and in_lattice builds none."""
    cases = []
    for name in TYPES:
        t = lookup_type(name)
        v = combination(t.m_basis, range(1, len(t.m_basis) + 1))
        q = math.lcm(*(Fraction(x).denominator for x in v))
        weight = atomic.weight_Lambda(t, 1)
        calls = (lambda p, t=t: atomic.atomic_length0(t, p),
                 lambda p, t=t: atomic.atomic_length_i(t, 1, p),
                 lambda p, t=t, w=weight: atomic.extended_atomic_length(t, w, p),
                 lambda p, t=t: atomic.in_lattice(t, p))
        points = (tuple(int(x * q) for x in v), tuple(map(Fraction, v)), LatticeVector(name, v),
                  tuple(float(x * q) for x in v))
        for call in calls:
            call(points[0])     # builds the type's solvers and weights
        cases.append((t, calls, points))
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for module in (atomic, dynkin, linalg):
        monkeypatch.setattr(module, "Fraction", counting)
    for t, calls, points in cases:
        for point in points:
            counts = []
            for call in calls:
                built.clear()
                call(point)
                counts.append(len(built))
            assert counts == [1, 1, 1, 0], (t.name, point)


def test_points_of_the_wrong_length_are_refused():
    t = lookup_type("A2_1")
    weight = atomic.weight_Lambda(t, 1)
    for point in ((1, -1, 0, 5), (1, -1), LatticeVector("A2_1", (1, -1, 0, 5))):
        for call in (lambda: atomic.atomic_length0(t, point),
                     lambda: atomic.atomic_length_i(t, 1, point),
                     lambda: atomic.extended_atomic_length(t, weight, point),
                     lambda: atomic.height(t, point),
                     lambda: atomic.in_lattice(t, point),
                     lambda: atomic.in_lattice(t, point, "L"),
                     lambda: atomic.norm_sq(t, point),
                     lambda: atomic.defect(t, weight, point, (1, -1, 0)),
                     lambda: dynkin.simple_root_coefficients(t, point),
                     lambda: weyl.extended_image(t, weyl.ExtGrassElement("A2_1", 1, point))):
            with pytest.raises(ValueError, match=r"^A2_1 takes 3 coordinates") as refused:
                call()
            assert refused.type is ValueError
    short_weight = DominantWeight("A2_1", (1,), Fraction(1))
    with pytest.raises(ValueError, match=r"^A2_1 takes 3 coordinates \(its ambient_dim\), got 1$"):
        atomic.extended_atomic_length(t, short_weight, (1, -1, 0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coordinate_is_a_value_error(bad):
    t = lookup_type("A2_1")
    weight = atomic.weight_Lambda(t, 1)
    for point in ((bad, 0, 0), (0, -1, bad), LatticeVector("A2_1", (1, bad, 0))):
        for call in (lambda: atomic.height(t, point),
                     lambda: atomic.atomic_length0(t, point),
                     lambda: atomic.atomic_length_i(t, 1, point),
                     lambda: atomic.extended_atomic_length(t, weight, point),
                     lambda: atomic.in_lattice(t, point),
                     lambda: atomic.in_lattice(t, point, "L")):
            with pytest.raises(ValueError, match=r"^cannot convert (Infinity|NaN) to integer ratio$") as refused:
                call()
            assert refused.type is ValueError


def test_a_weight_of_another_type_is_refused():
    t = lookup_type("A2_1")
    weight = DominantWeight("B3_1", (1, 0, 0), Fraction(1))
    with pytest.raises(ValueError, match="weight of type B3_1 given for A2_1") as refused:
        atomic.extended_atomic_length(t, weight, (1, -1, 0))
    assert refused.type is ValueError
    weight = atomic.weight_Lambda("A2_1", 1)
    assert (atomic.extended_atomic_length(t, weight, (1, -1, 0))
            == oracles.extended_atomic_length(t, weight, (1, -1, 0)))


def test_a_vector_of_another_type_is_refused():
    t = lookup_type("A2_1")
    weight = atomic.weight_Lambda(t, 1)
    for other in ("B3_1", "G2_1", "A2_2"):
        point = LatticeVector(other, (1, -1, 0))
        for call in (lambda: atomic.height(t, point),
                     lambda: atomic.atomic_length0(t, point),
                     lambda: atomic.atomic_length_i(t, 1, point),
                     lambda: atomic.extended_atomic_length(t, weight, point),
                     lambda: atomic.in_lattice(t, point),
                     lambda: atomic.in_lattice(t, point, "L"),
                     lambda: weyl.extended_image(t, weyl.ExtGrassElement(other, 1, (1, -1, 0))),
                     lambda: weyl.extended_image(t, weyl.ExtGrassElement("A2_1", 1, point))):
            with pytest.raises(ValueError, match=f"^vector of type {other} given for A2_1$") as refused:
                call()
            assert refused.type is ValueError
    # a vector of the type itself is read as its coordinates
    point = LatticeVector("A2_1", (1, -1, 0))
    assert atomic.height(t, point) == oracles.height(t, (1, -1, 0))
    assert atomic.atomic_length0(t, point) == oracles.atomic_length0(t, (1, -1, 0))
    assert atomic.atomic_length_i(t, 1, point) == oracles.atomic_length_i(t, 1, (1, -1, 0))
    assert atomic.in_lattice(t, point) == oracles.in_lattice(t, (1, -1, 0))
    assert (weyl.extended_image(t, weyl.ExtGrassElement("A2_1", 1, point))
            == oracles.extended_image(t, weyl.ExtGrassElement("A2_1", 1, (1, -1, 0))))


def custom_weight(t):
    """A dominant weight of t that no weight_Lambda equals."""
    return DominantWeight(t.name, combination(dynkin.fundamental_weights(t), range(1, t.n + 1)),
                          Fraction(3, 2))


def evaluate_everything(t):
    """Every statistic of t at weights 0..n and at custom_weight, and
    in_lattice, on one point of lattice M; the weights used."""
    v = combination(t.m_basis, range(1, len(t.m_basis) + 1))
    weights = [atomic.weight_Lambda(t, i) for i in range(t.n + 1)] + [custom_weight(t)]
    atomic.atomic_length0(t, v)
    for i in range(1, t.n + 1):
        atomic.atomic_length_i(t, i, v)
    for weight in weights:
        atomic.extended_atomic_length(t, weight, v)
    atomic.in_lattice(t, v)
    return weights


def test_records_pickle_after_every_statistic():
    # the kernels live in module caches only: a type and its weights pickle,
    # and unpickle equal, after every statistic has run on them
    for name in TYPES:
        t = lookup_type(name)
        for record in (t, *evaluate_everything(t)):
            assert pickle.loads(pickle.dumps(record)) == record, (name, record)


def test_each_kernel_shape_compiles_once(monkeypatch):
    # one compiled statistic factory and one membership factory per
    # (ambient_dim, span equations) shape, however many types, weights and
    # lattices share it; a second round compiles nothing
    for cache in (linalg._shape, atomic._kernel, atomic._weight_kernel, atomic._membership):
        cache.cache_clear()
    compiled = []
    define = linalg._define

    def counted(source, name):
        compiled.append(source)
        return define(source, name)

    monkeypatch.setattr(linalg, "_define", counted)
    types = [lookup_type(name) for name in TYPES]
    for t in types:
        evaluate_everything(t)
    shapes = {(t.ambient_dim, len(t.root_solver.equations)) for t in types}
    assert sorted(compiled) == sorted(source(n, e) for n, e in shapes
                                      for source in (linalg.kernel_source, linalg.membership_source))
    compiled.clear()
    for t in types:
        evaluate_everything(t)
    assert compiled == []


def test_a_fundamental_weight_and_its_index_share_one_kernel():
    # _kernel is the (type name, i) front of _weight_kernel, so
    # atomic_length_i and extended_atomic_length at Lambda_i run one kernel
    for name in TYPES:
        t = lookup_type(name)
        for i in range(t.n + 1):
            rows = atomic.weight_Lambda(t, i)._integer_rows
            assert atomic._kernel(name, i) is atomic._weight_kernel(name, rows), (name, i)


class Generic(Exception):
    """Raised by the generic reader a test patches in."""


def test_only_the_points_a_kernel_cannot_read_take_the_generic_path(monkeypatch):
    # int, Fraction, float and right-type LatticeVector points are the
    # kernel's alone; a numeric string, or a point off the span for a
    # statistic, reaches dynkin.root_span_integers, the generic reader, and
    # for in_lattice a numeric string reaches dynkin.integer_point, which a
    # point off the span does not
    cases = []
    for name in TYPES:
        t = lookup_type(name)
        v = combination(t.m_basis, range(1, len(t.m_basis) + 1))
        q = math.lcm(*(Fraction(x).denominator for x in v))
        weight = custom_weight(t)
        calls = (lambda p, t=t: atomic.atomic_length0(t, p),
                 lambda p, t=t: atomic.atomic_length_i(t, t.n, p),
                 lambda p, t=t, w=weight: atomic.extended_atomic_length(t, w, p))
        member = lambda p, t=t: atomic.in_lattice(t, p)
        fast = (tuple(int(x * q) for x in v), tuple(map(Fraction, v)), LatticeVector(name, v),
                tuple(float(x * q) for x in v))
        slow = [tuple(map(str, v))]
        if name in OFF_SPAN_TYPES:
            slow.append(tuple(x + u for x, u in zip(v, off_span_direction(t))))
        expected = [[call(point) for call in calls] for point in fast]
        cases.append((calls, member, fast, expected, slow))

    def generic(t, v):
        raise Generic(t.name, v)

    monkeypatch.setattr(dynkin, "root_span_integers", generic)
    monkeypatch.setattr(dynkin, "integer_point", generic)
    for calls, member, fast, expected, slow in cases:
        assert [[call(point) for call in calls] for point in fast] == expected
        assert [member(point) for point in fast + tuple(slow[1:])] == [True] * 4 + [False] * len(slow[1:])
        for point in slow:
            for call in calls:
                with pytest.raises(Generic):
                    call(point)
        with pytest.raises(Generic):
            member(slow[0])


def test_an_iterator_point_is_refused_on_the_slow_path():
    # the kernel unpacks an iterator before the slow path could read it, so
    # the slow path refuses one instead of reading it empty; an iterator the
    # kernel reads whole is still its own
    t = lookup_type("A2_1")
    weight = atomic.weight_Lambda(t, 1)
    calls = (lambda p: atomic.atomic_length0(t, p),
             lambda p: atomic.atomic_length_i(t, 1, p),
             lambda p: atomic.extended_atomic_length(t, weight, p),
             lambda p: atomic.in_lattice(t, p),
             lambda p: atomic.in_lattice(t, p, "L"))
    for call in calls:
        for coords in (("1", "-1", "0"), (1, -1), (1, -1, 0, 0)):
            with pytest.raises(ValueError, match="not an iterator"):
                call(x for x in coords)
        assert call(x for x in (1, -1, 0)) == call((1, -1, 0))
