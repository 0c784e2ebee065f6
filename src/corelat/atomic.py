"""Atomic length statistics on translation parts and their enumeration.

For a dominant weight Lambda = lambda + level * Lambda_0 + z * delta and a
translation by x, the statistic evaluates to

    h * (lambda | x) + (level * h / 2) * |x|^2 - level * ht(x),

which specialises to (h/2)|x|^2 - ht(x) at Lambda_0.  The delta coefficient
z never contributes.  Everything is exact.  A point v, a tuple of
coordinates or a LatticeVector, is read once as integers V / q by
dynkin.integer_point: int and Fraction coordinates as they are, any other
kind through Fraction, and a point whose length is not the type's
ambient_dim is refused.  Each statistic is then one Fraction built from
integer dot products with the type's compiled root solver
(dynkin.TypeData.root_solver), its height functional and its fundamental
weights, all scaled to integers once per type.  Lattice
membership uses a SpanSolver per (type, lattice) and tests integrality of
the coefficients by divisibility.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import dynkin, linalg
from .dynkin import NotInRootSpan, lookup_type


class BadIndex(ValueError):
    """Fundamental-weight index outside 1..n."""


class UnsupportedLattice(ValueError):
    """No basis of the requested lattice is registered for this type."""


@dataclass(frozen=True)
class LatticeVector:
    """A stored-coordinate vector attached to its affine type."""
    type_id: str
    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class DominantWeight:
    type_id: str
    finite_part: tuple      # stored coordinates of lambda
    level: Fraction

    @linalg.memo
    def _scaled(self):
        """The (lam, level) arguments of _statistic for this weight, scaled
        to integers on first use: the finite part as dynkin.integer_point
        reads it and the level as (numerator, denominator)."""
        (a,), b = linalg.integer_vector((self.level,))
        return dynkin.integer_point(lookup_type(self.type_id), self.finite_part), (a, b)


def _type(t):
    return t if isinstance(t, dynkin.TypeData) else lookup_type(t)


def weight_Lambda0(t):
    t = _type(t)
    zero = tuple(Fraction(0) for _ in range(t.ambient_dim))
    return DominantWeight(t.name, zero, Fraction(1))


def weight_Lambda(t, i):
    """The fundamental weight Lambda_i = omega_i + (a_i^v / a_0^v) Lambda_0."""
    t = _type(t)
    if i == 0:
        return weight_Lambda0(t)
    if not 1 <= i <= t.n:
        raise BadIndex(f"index {i} outside 1..{t.n} for {t.name}")
    omega = dynkin.fundamental_weights(t)[i - 1]
    return DominantWeight(t.name, omega, Fraction(t.comarks[i], t.comarks[0]))


def height(t, v):
    """Sum of the simple-root coefficients of v (rational on L)."""
    t = _type(t)
    V, q = dynkin.root_span_integers(t, v)
    return Fraction(linalg.dot(t.root_solver.total, V), t.root_solver.D * q)


def norm_sq(t, v):
    t = _type(t)
    V, q = dynkin.integer_point(t, v)
    return Fraction(t.scale_sq * linalg.dot(V, V), q * q)


def _statistic(t, v, lam=((), 1), level=(1, 1)):
    """h (lam | v) + level ((h/2)|v|^2 - ht(v)) for lam = L / p and
    level = a / b given as integers (L, p) and (a, b), as one Fraction of
    integer dot products on v = V / q."""
    V, q = dynkin.root_span_integers(t, v)
    solver, (L, p), (a, b) = t.root_solver, lam, level
    hs, den = t.h * t.scale_sq, 2 * solver.D * q * b
    # 2 D q^2 times the atomic length (h/2)|v|^2 - ht(v)
    length0 = hs * solver.D * linalg.dot(V, V) - 2 * q * linalg.dot(solver.total, V)
    return Fraction(den * hs * linalg.dot(L, V) + a * p * length0, den * q * p)


def atomic_length0(t, v):
    """(h/2)|v|^2 - ht(v); total on the rational root span."""
    return _statistic(_type(t), v)


def atomic_length_i(t, i, v):
    """Statistic at the i-th fundamental weight, on a translation part."""
    t = _type(t)
    if not 1 <= i <= t.n:
        raise BadIndex(f"index {i} outside 1..{t.n} for {t.name}")
    return _statistic(t, v, t.integer_weights[i - 1], (t.comarks[i], t.comarks[0]))


def extended_atomic_length(t, weight, x):
    """Statistic for an arbitrary dominant weight of type t on a translation
    by x; ValueError for a weight of another type."""
    t = _type(t)
    if weight.type_id != t.name:
        raise ValueError(f"weight of type {weight.type_id} given for {t.name}")
    return _statistic(t, x, *weight._scaled)


def defect(t, weight, x, y):
    """Additivity defect h * level * (x|y) for the identity finite part."""
    t = _type(t)
    (X, p), (Y, q) = dynkin.integer_point(t, x), dynkin.integer_point(t, y)
    return t.h * Fraction(weight.level) * Fraction(t.scale_sq * linalg.dot(X, Y), p * q)


def _basis(t, lattice):
    if lattice == "M":
        return t.m_basis
    if lattice == "L":
        if t.l_basis is None:
            raise UnsupportedLattice(f"no L-basis registered for {t.name}")
        return t.l_basis
    raise ValueError(f"unknown lattice {lattice!r}")


@lru_cache(maxsize=None)
def length_form(type_name, weight_index, lattice):
    """The statistic at Lambda_{weight_index} as a linalg.QuadraticForm over
    the integer coefficients of the lattice basis.

    With lam = L / p the weight's finite part (t.integer_weights, zero at
    index 0), a / b = a_i^v / a_0^v its level and total / D the height
    functional of the root solver, the statistic is (a h scale_sq / 2b) |x|^2
    plus the linear part h (lam | x) - (a / b) ht(x), one integer row over p D b.
    """
    t = lookup_type(type_name)
    basis = _basis(t, lattice)      # refused before the index is read
    if not 0 <= weight_index <= t.n:
        raise BadIndex(f"index {weight_index} outside 0..{t.n} for {t.name}")
    L, p = t.integer_weights[weight_index - 1] if weight_index else ((0,) * t.ambient_dim, 1)
    a, b = t.comarks[weight_index], t.comarks[0]
    solver, hs = t.root_solver, t.h * t.scale_sq
    row = [hs * solver.D * b * x - a * p * y for x, y in zip(L, solver.total)]
    return linalg.QuadraticForm.on_basis(basis, Fraction(a * hs, 2 * b), (row, p * solver.D * b))


# the most values a level search may loop its outermost coordinate over;
# A2_1 runs about 3 * 10^6 of them a second
MAX_OUTER_VALUES = 10 ** 8


def level_form(t, weight_index, target, lattice="M"):
    """The length_form whose level target holds the lattice points of that
    atomic length, once the level is checked: a negative target, or one whose
    search would loop its outermost coordinate over more than
    MAX_OUTER_VALUES values (QuadraticForm.outer_values), is a ValueError."""
    t = _type(t)
    if target < 0:
        raise ValueError("atomic length target must be non-negative")
    form = length_form(t.name, weight_index, lattice)
    if form.outer_values(target) > MAX_OUTER_VALUES:
        raise ValueError(f"the level search of {t.name} would loop one coordinate "
                         f"over more than {MAX_OUTER_VALUES} values")
    return form


def enumerate_atomic(t, weight_index, target, lattice="M"):
    """All lattice points with the given atomic length, sorted by coordinates.

    Completeness comes from the exact positive-definite enumeration of the
    quadratic model; every returned point re-evaluates to the target.  A
    level that level_form refuses is a ValueError.
    """
    t = _type(t)
    return [LatticeVector(t.name, coords)
            for coords in level_form(t, weight_index, target, lattice).level(target)]


@lru_cache(maxsize=None)
def _lattice_solver(type_name, lattice):
    return linalg.SpanSolver(_basis(lookup_type(type_name), lattice))


def in_lattice(t, v, lattice="M"):
    """Whether v is an integer combination of the lattice basis."""
    t = _type(t)
    solver = _lattice_solver(t.name, lattice)
    return solver.in_lattice(*dynkin.integer_point(t, v))
