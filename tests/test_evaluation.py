"""Differential tests: compiled root-span and lattice solvers against the
Fraction kernels they replaced (tests/oracles.py)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corelat import atomic, dynkin, linalg
from corelat.atomic import DominantWeight
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
    """The first unit vector outside the root span, found by the oracle."""
    for d in range(t.ambient_dim):
        unit = tuple(Fraction(int(j == d)) for j in range(t.ambient_dim))
        try:
            oracles.simple_root_coefficients(t, unit)
        except NotInRootSpan:
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
