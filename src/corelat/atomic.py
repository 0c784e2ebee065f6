"""Atomic length statistics on translation parts and their enumeration.

For a dominant weight Lambda = lambda + level * Lambda_0 + z * delta and a
translation by x, the statistic evaluates to

    h * (lambda | x) + (level * h / 2) * |x|^2 - level * ht(x),

which specialises to (h/2)|x|^2 - ht(x) at Lambda_0.  The delta coefficient
z never contributes.  Everything is exact.  At a weight the statistic on
v = V / q is (q W.V + K V.V) / (M q^2) for integers (W, K, M), the rows of
_rows, from the type's root solver (dynkin.TypeData.root_solver), its height
functional and the weight scaled to integers.  A DominantWeight derives its
rows once (_integer_rows); the kernels and length_form's quadratic form read
them there, at Lambda_i from weight_Lambda.  A point is a tuple of
coordinates or a LatticeVector, a sequence that may be read twice.  Each of
atomic_length0, atomic_length_i and extended_atomic_length is one call to a
compiled kernel (linalg.compile_kernel) that reads int, Fraction and float
coordinates by as_integer_ratio and returns one Fraction.  A kernel is a
closure over one compiled factory per shape, kept in a module cache keyed by
a weight's rows and fronted by one keyed by (type name, i), never on a
TypeData or a weight.  Any point the kernel does not read goes to its slow
path, the generic reader dynkin.root_span_integers: a numeric string is read
through Fraction, and an iterator, a point whose length is not the type's
ambient_dim, a vector of another type or a point off the root span is
refused.  in_lattice is one call to a compiled membership kernel
(linalg.compile_membership), one per (type, lattice) in a module cache,
whose slow path is SpanSolver.in_lattice on dynkin.integer_point.  height,
norm_sq and defect read a point through the generic reader.
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
    def _integer_rows(self):
        """The statistic's rows (W, K, M) at this weight (_rows), built on
        first use: the finite part as dynkin.integer_point reads it and the
        level as its numerator over its denominator."""
        t = lookup_type(self.type_id)
        (a,), b = linalg.integer_vector((self.level,))
        return _rows(t, dynkin.integer_point(t, self.finite_part), (a, b))


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


def _rows(t, lam, level):
    """Integers (W, K, M) such that h (lam | v) + level ((h/2)|v|^2 - ht(v))
    at v = V / q is (q W.V + K V.V) / (M q^2), for lam = L / p and
    level = a / b given as (L, p) and (a, b), and total / D the height
    functional of the root solver: W = 2 (h scale_sq D b L - a p total),
    K = a p h scale_sq D and M = 2 p D b."""
    (L, p), (a, b) = lam, level
    D, hs = t.root_solver.D, t.h * t.scale_sq
    W = tuple(2 * (hs * D * b * x - a * p * y) for x, y in zip(L, t.root_solver.total))
    return W, a * p * hs * D, 2 * p * D * b


# The kernels live in these caches only, never on a TypeData or a weight, so
# every record still pickles.  A caller may build any number of weights, so
# their cache keeps the last 1024.
@lru_cache(maxsize=1024)
def _weight_kernel(type_name, rows):
    """The compiled kernel (linalg.compile_kernel) of a weight's rows
    (W, K, M).  Its slow path refuses an iterator, which the kernel has
    read, then runs the generic reader dynkin.root_span_integers."""
    t = lookup_type(type_name)
    W, K, M = rows

    def slow(v):
        if iter(v) is v:
            raise ValueError("a point is a sequence of coordinates, not an iterator")
        V, q = dynkin.root_span_integers(t, v)
        return Fraction(q * linalg.dot(W, V) + K * linalg.dot(V, V), M * q * q)

    return linalg.compile_kernel(t.name, t.root_solver.equations, rows, slow)


@lru_cache(maxsize=None)
def _kernel(type_name, i):
    """The kernel of the statistic at Lambda_i, i in 0..n: _weight_kernel at
    the weight's rows, cached by (type name, i) so a call hashes no rows."""
    return _weight_kernel(type_name, weight_Lambda(type_name, i)._integer_rows)


def atomic_length0(t, v):
    """(h/2)|v|^2 - ht(v); total on the rational root span."""
    return _kernel(_type(t).name, 0)(v)


def atomic_length_i(t, i, v):
    """Statistic at the i-th fundamental weight, on a translation part."""
    t = _type(t)
    if not 1 <= i <= t.n:
        raise BadIndex(f"index {i} outside 1..{t.n} for {t.name}")
    return _kernel(t.name, i)(v)


def extended_atomic_length(t, weight, x):
    """Statistic for an arbitrary dominant weight of type t on a translation
    by x; ValueError for a weight of another type."""
    t = _type(t)
    if weight.type_id != t.name:
        raise ValueError(f"weight of type {weight.type_id} given for {t.name}")
    return _weight_kernel(t.name, weight._integer_rows)(x)


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
    the integer coefficients of the lattice basis: with the weight's rows
    (W, K, M), (K / M) |x|^2 plus the linear part W.x / M."""
    t = lookup_type(type_name)
    basis = _basis(t, lattice)      # refused before the index is read
    if not 0 <= weight_index <= t.n:
        raise BadIndex(f"index {weight_index} outside 0..{t.n} for {t.name}")
    W, K, M = weight_Lambda(t, weight_index)._integer_rows
    return linalg.QuadraticForm.on_basis(basis, Fraction(K, M), (W, M))


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
def _membership(type_name, lattice):
    """The compiled membership kernel (linalg.compile_membership) of the
    lattice's SpanSolver, t.root_solver on the simple roots.  Its slow path
    refuses an iterator, as _weight_kernel's does, then runs
    SpanSolver.in_lattice on the generic reader dynkin.integer_point."""
    t = lookup_type(type_name)
    basis = _basis(t, lattice)
    solver = t.root_solver if basis is t.simple_roots else linalg.SpanSolver(basis)

    def slow(v):
        if iter(v) is v:
            raise ValueError("a point is a sequence of coordinates, not an iterator")
        return solver.in_lattice(*dynkin.integer_point(t, v))

    return linalg.compile_membership(t.name, solver, slow)


def in_lattice(t, v, lattice="M"):
    """Whether v is an integer combination of the lattice basis."""
    return _membership(_type(t).name, lattice)(v)
