"""Slow reference implementations the fast kernels are tested against.

solve_diagonal_brute loops over every variable, the last one included.
enumerate_quadratic_ball_upto walks the whole completed-square ball in
Fraction arithmetic, and enumerate_quadratic_ball_level keeps the ball
points whose value equals the target.  Both are the original kernels of
diophantine and linalg, kept here unchanged as differential oracles.
RecursiveBall keeps the original recursive walk of a compiled
linalg._IntegerBall, one generator per coordinate, each centre summed
afresh from the later coordinates instead of handed down by its parent as
_IntegerBall.tails does.  tails_level is the original
linalg.enumerate_quadratic_level loop, which solves m_0 on each budget that
tails yields, before each ball compiled its level search
(linalg.level_source).  gram is the original Gram matrix of
QuadraticForm.on_basis, kappa times a sum of Fraction products per entry,
and length_form_parts the (a, b) of atomic.length_form from gram and the
original Fraction callback for the linear part, before on_basis took an
integer row.  index_rows is the original atomic._index_rows, the rows
(W, K, M) at Lambda_i read off t.integer_weights, from before every weight
derived its rows as a DominantWeight.

eliminate and fundamental_weights are the original Gauss-Jordan elimination
of linalg and fundamental weights of dynkin, in Fraction arithmetic (the
weights through t.inner and the transposed Cartan matrix), before both ran
fraction-free on integer rows; span_solver_fields is the original
linalg.SpanSolver set-up on that eliminate, and the atomic-length and
extended_image oracles below read this fundamental_weights.

simple_root_coefficients solves through the inverse Gram matrix and checks
the residual on every call, and in_lattice runs a Gauss-Jordan solve_in_span
per call: the original Fraction kernels of dynkin and atomic.  height and the
atomic-length statistics below are the original atomic formulas on top of
them, on points read by the original _coords, one Fraction per coordinate,
with norm_sq the original t.inner(v, v).

matrix_Mj holds the original hand-typed layer matrices of types A and C,
a cyclic coordinate shift and the negated antidiagonal, from before weyl
derived M_j for every untwisted type.  apply_matrix multiplies a layer
matrix into a point in Fraction arithmetic, and extended_image, the
original weyl.extended_image, computes omega_j + M_j q with both, so it
does not read the derivation it is tested against.  The phi maps below
are the original hand-written functions of param, with their
Fraction-to-int conversion _as_int and the coefficient and offset of the
hyperoctahedral table (HYP_TABLE) before it was derived from kappa and the
l_i.

numerators and layer_image are the original QuadraticForm.numerators and
LayerMap.__call__, one integer dot product per row, which the straight-line
functions of linalg.compile_affine replaced.

case_length is the atomic length of a case's lattice point from its
definition, the reference that phi's quadric identity is checked against.

check_complete, check_extended, check_stratified, check_orbit_size and
check_a3_conjecture are the original claim checks on the full solution set U
(solutions: the group-free solve, as LevelData.solutions was before it read
U off the orbits of reps) and its orbit partition (with freeness_witness
inlined in check_complete and the strata of U computed in check_stratified,
where LevelData once held them), and representatives is the rule they
imply for orbit representatives: the lexicographic maximum of each orbit
of U.
orbit_partition is the original diophantine.orbit_partition, which builds
the orbit of each point by formula (diophantine.orbit) and tests it against
the set, from before diophantine grouped the points by canonical point; the
claim checks, representatives and is_action_free, the original
diophantine.is_action_free, read it, so no partition they use goes through
canonical or orbit_size.  det, h_statistic, theta (the marked root, once in
dynkin), A3Stratum and stratum are helpers that only the tests call.
stratify is the original param._stratify, whose omega test scans every m
in [-radius, radius] and filters on m mod 3 per m; check_stratified reads
it.

lascoux_orbit is the original weyl.lascoux_orbit, which toggles every
addable or removable box of the letter's residue, and charge_symmetric, once
in cores, builds the self-conjugacy-symmetric charges independently of the
sublattice basis that cores lists them on.  size_form, once cores._size_form,
is the size of a d-core as a quadratic form on its charge, built by hand on
the basis e_j - e_{d-1} (or e_j - e_{d-1-j} for the self-conjugate
charges), before cores read the size off the registry's atomic lengths.
core_counts is the Garvan-Kim-Stanton generating function of the d-cores,
prod_k (1 - q^{dk})^d / (1 - q^k), as a list of coefficients.

doubled_distinct, bar_from_doubled, bar_core_from_lattice and
d4flat_from_lattice are the original row-and-part-list constructions of
cores, from before cores read every partition off a bead set: the doubled
diagram row by row, the bar partition through the round trip
charge -> core -> doubled check (with its InternalInconsistency), and the
D_4^(3) partition from its residue-class part lists.  is_self_conjugate,
once in cores, is a helper that only the tests call.

enumerate_atomic_upto, once in atomic, buckets every lattice point of
atomic length at most a bound by its value.  outer_values counts the
integers of the last coordinate that the real ball of a bound meets, from
the least value of the form over the other coordinates, the reference for
linalg's count of a level search's outermost values.  enumerate_command is the
original rendering of `corelat enumerate`, one LatticeVector per point and
one Fraction per distinct coordinate, formatted through an id-keyed table
and written by csv.writer or json, from before cli read a level's integer
rows.  root_outcome is the original dispatch of cli.main, the root parser
reading the whole argv, from before each command's words went to that
command's parser alone.  factorize, two_squares_solvable,
GaussianLift, gaussian_lift, residue_free_criterion and Unsolvable are the
sums-of-two-squares section that diophantine once held; only the tests
call them.  x2_3z2_represents is the emptiness rule of the A3 strata from
the prime factors of k - 2y^2, independent of param's scan of m.

group_elements, act and _act_d8 are the groups as diophantine once defined
them, by opaque element tokens: group_elements lists a group's tokens and
act applies one to a point.  They are the reference that orbit, canonical
and orbit_size are tested against, and the original claim checks above
apply them.

rotations60_stepwise, canonical60_by_rotations and solve_ga3_sector_by_y
are the original 60-degree rules of diophantine: the six rotations of
(x, sqrt(3) z) by repeating one half-integer step, the canonical point of
C6 and G_A3 as the largest of them, and the G_A3 sector search that steps
y and decides x.
"""

import contextlib
import csv
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from corelat import atomic, cli, diophantine, dynkin, linalg, param
from corelat.atomic import LatticeVector, _basis, _type
from corelat.cores import BadCharge, conjugate, core_from_charge, diagonal_length, is_strict
from corelat.diophantine import NonIntegralImage, NotClosed, _rotations60
from corelat.dynkin import NotInRootSpan
from corelat.linalg import _IntegerBall, _ldl
from corelat.param import Report, _fail


def _coords(v):
    if isinstance(v, LatticeVector):
        v = v.coords
    return tuple(Fraction(x) for x in v)


def norm_sq(t, v):
    v = _coords(v)
    return t.inner(v, v)


def solve_in_span(columns, target):
    """Solve sum_i c_i * columns[i] = target.

    The columns must be linearly independent.  Returns the coefficient
    vector as a list of Fractions, or None when target is outside the span.
    """
    nrows = len(target)
    ncols = len(columns)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(nrows)
    ]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, nrows) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(nrows):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    if len(pivots) < ncols:
        return None
    for i in range(row, nrows):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def solve_square(matrix, rhs):
    """Solve matrix @ x = rhs for an invertible square matrix."""
    n = len(matrix)
    columns = [[matrix[i][j] for i in range(n)] for j in range(n)]
    sol = solve_in_span(columns, rhs)
    if sol is None:
        raise ValueError("singular system")
    return sol


def eliminate(columns):
    """Rows of the invertible E with E A = [I; 0], where A has the given
    linearly independent columns, by one Gauss-Jordan elimination of [A | I]
    in Fraction arithmetic; each row of E is a list of Fractions."""
    k, dim = len(columns), len(columns[0])
    aug = [[Fraction(col[r]) for col in columns] + [Fraction(int(r == j)) for j in range(dim)]
           for r in range(dim)]
    for col in range(k):
        pivot = next((i for i in range(col, dim) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = row = [x / pv for x in aug[col]]
        for i in range(dim):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [x - f * y for x, y in zip(aug[i], row)]
    return [row[k:] for row in aug]


def span_solver_fields(basis):
    """(D, rows, total, equations) of a linalg.SpanSolver of the basis, as the
    original build read them off the Fraction rows of eliminate: D the lcm of
    the left-inverse denominators, and each equation scaled by the lcm of its
    own."""
    E = eliminate(basis)
    left, equations = E[:len(basis)], E[len(basis):]
    D = math.lcm(*(x.denominator for row in left for x in row))
    rows = tuple(tuple(int(x * D) for x in row) for row in left)
    return (D, rows, tuple(map(sum, zip(*rows))),
            tuple(tuple(int(x * d) for x in row) for row in equations
                  for d in [math.lcm(*(x.denominator for x in row))]))


@lru_cache(maxsize=None)
def fundamental_weights(t):
    """The finite fundamental weights omega_1..omega_n in stored coordinates:
    column i of the inverse of the transposed Cartan matrix, read as
    coefficients of the simple roots, in Fraction arithmetic through t.inner."""
    n = t.n
    # Row j of the system: sum_k x_k <alpha_k, alpha_j^vee> = delta_ij, so the
    # coefficients of omega_i are column i of the inverse of this matrix.
    cartan_t = [
        [2 * t.inner(t.simple_roots[k], t.simple_roots[j]) / t.inner(t.simple_roots[j], t.simple_roots[j])
         for k in range(n)]
        for j in range(n)
    ]
    inverse = eliminate([[row[k] for row in cartan_t] for k in range(n)])
    return tuple(
        tuple(sum(inverse[k][i] * t.simple_roots[k][d] for k in range(n))
              for d in range(t.ambient_dim))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def _root_span_solver(t):
    """Precomputed left inverse B with B . alpha_k = e_k (via the Gram matrix).

    Coefficients of v are B v; v lies in the root span iff alpha . (B v) = v.
    """
    n, dim = t.n, t.ambient_dim
    gram = [[t.inner(t.simple_roots[i], t.simple_roots[j]) for j in range(n)]
            for i in range(n)]
    inv_cols = [solve_square(gram, [Fraction(int(i == j)) for i in range(n)])
                for j in range(n)]
    gram_inv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
    b = [
        [sum(gram_inv[i][k] * t.scale_sq * t.simple_roots[k][d] for k in range(n))
         for d in range(dim)]
        for i in range(n)
    ]
    return tuple(tuple(row) for row in b)


def simple_root_coefficients(t, v):
    """Coefficients (c_1..c_n) with v = sum c_i alpha_i in stored coordinates."""
    v = tuple(Fraction(x) for x in v)
    b = _root_span_solver(t)
    coeffs = tuple(sum(row[d] * v[d] for d in range(t.ambient_dim)) for row in b)
    for d in range(t.ambient_dim):
        if sum(coeffs[k] * t.simple_roots[k][d] for k in range(t.n)) != v[d]:
            raise NotInRootSpan(f"{v} is not in the root span of {t.name}")
    return coeffs


def height(t, v):
    """Sum of the simple-root coefficients of v (rational on L)."""
    t = _type(t)
    return sum(simple_root_coefficients(t, _coords(v)))


def atomic_length0(t, v):
    """(h/2)|v|^2 - ht(v); total on the rational root span."""
    t = _type(t)
    v = _coords(v)
    return Fraction(t.h, 2) * norm_sq(t, v) - height(t, v)


def atomic_length_i(t, i, v):
    """Statistic at the i-th fundamental weight, on a translation part."""
    t = _type(t)
    v = _coords(v)
    omega = fundamental_weights(t)[i - 1]
    ratio = Fraction(t.comarks[i], t.comarks[0])
    return ratio * atomic_length0(t, v) + t.h * t.inner(omega, v)


def extended_atomic_length(t, weight, x):
    """Statistic for an arbitrary dominant weight on a translation by x."""
    t = _type(t)
    x = _coords(x)
    lam = _coords(weight.finite_part)
    level = Fraction(weight.level)
    return (t.h * t.inner(lam, x)
            + Fraction(1, 2) * norm_sq(t, x) * level * t.h
            - level * height(t, x))


def in_lattice(t, v, lattice="M"):
    """Whether v is an integer combination of the lattice basis."""
    t = _type(t)
    coeffs = solve_in_span(_basis(t, lattice), _coords(v))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def solve_diagonal_brute(form, k):
    """All integer tuples x with sum_i form[i] * x_i^2 = k, sorted."""
    form = tuple(int(d) for d in form)
    if any(d < 1 for d in form):
        raise ValueError("form coefficients must be positive")
    if k < 0:
        return []
    solutions = []

    def rec(i, remaining, acc):
        if i == len(form):
            if remaining == 0:
                solutions.append(tuple(acc))
            return
        d = form[i]
        bound = isqrt(remaining // d)
        for x in range(-bound, bound + 1):
            rec(i + 1, remaining - d * x * x, acc + [x])

    rec(0, k, [])
    return sorted(solutions)


def solve_ga3_sector_by_y(k):
    """Solutions of x^2 + 2y^2 + 3z^2 = k in the sector x >= 3z >= 0, sorted.

    x >= 3z needs x^2 >= 9z^2, so 12z^2 + 2y^2 <= k bounds z and then y.
    """
    solutions = []
    for z in range(isqrt(k // 12) + 1):
        rest = k - 3 * z * z
        bound = isqrt((rest - 9 * z * z) // 2)
        for y in range(-bound, bound + 1):
            q = rest - 2 * y * y
            x = isqrt(q)
            if x * x == q and x >= 3 * z:
                solutions.append((x, y, z))
    solutions.sort()
    return solutions


def _integer_interval(center, radius_sq):
    """A slightly padded integer range containing {m : (m+center)^2 <= radius_sq}.

    Float estimates only; callers re-check the exact inequality, so padding
    is safe and emptiness shows up as an empty range.
    """
    if radius_sq < 0:
        return 1, 0
    c = float(center)
    r = math.sqrt(float(radius_sq)) if radius_sq > 0 else 0.0
    return math.floor(-c - r) - 1, math.ceil(-c + r) + 1


def enumerate_quadratic_ball_upto(a, b, bound):
    """Yields (value, m) for every m in Z^k with m^T a m + b.m <= bound."""
    k = len(a)
    if k == 0:
        if 0 <= bound:
            yield Fraction(0), ()
        return
    bound = Fraction(bound)
    half_b = [Fraction(x) / 2 for x in b]
    shift = solve_square(a, half_b)  # quadratic is (m+shift)^T a (m+shift) - const
    const = sum(shift[i] * sum(a[i][j] * shift[j] for j in range(k)) for i in range(k))
    d, u = _ldl(a)
    budget0 = bound + const
    if budget0 < 0:
        return
    m = [0] * k

    def rec(i, budget):
        if i < 0:
            value = budget0 - budget - const
            yield value, tuple(m)
            return
        center = shift[i] + sum(u[i][j] * (m[j] + shift[j]) for j in range(i + 1, k))
        lo, hi = _integer_interval(center, budget / d[i])
        for mi in range(lo, hi + 1):
            y = mi + center
            remaining = budget - d[i] * y * y
            if remaining < 0:
                continue
            m[i] = mi
            yield from rec(i - 1, remaining)

    yield from rec(k - 1, budget0)


def enumerate_quadratic_ball_level(a, b, target):
    """Integer points with m^T a m + b.m exactly equal to target."""
    target = Fraction(target)
    return [m for value, m in enumerate_quadratic_ball_upto(a, b, target)
            if value == target]


def tails_level(ball, target):
    """Integer points with m^T a m + b.m exactly equal to target, from the
    budgets and centres of ball.tails, in its order."""
    k = len(ball.e)
    if k == 0:
        return [()] if target == 0 else []
    T = Fraction(target) * ball.D
    if T.denominator != 1:
        return []
    S, e0 = ball.S, ball.e[0]
    m = [0] * k
    points = []
    for budget, c in ball.tails(m, int(T)):
        q, rem = divmod(budget, e0)
        if rem:
            continue
        r = isqrt(q)
        if r * r != q:
            continue
        for y in (-r, r) if r else (0,):
            m0, rem = divmod(y - c, S)
            if not rem:
                m[0] = m0
                points.append(tuple(m))
    return points


def gram(basis, kappa):
    """kappa (v . w) for every pair of basis vectors, in Fractions."""
    return tuple(tuple(kappa * sum(Fraction(x) * y for x, y in zip(v, w)) for w in basis)
                 for v in basis)


def length_form_parts(type_id, weight_index, lattice):
    """(a, b) of atomic.length_form as the Fraction callback once built them:
    gram for a, and h (lam | v) - level ht(v) on each basis vector v for b."""
    t = dynkin.lookup_type(type_id)
    weight = atomic.weight_Lambda(t, weight_index)
    lam, level = weight.finite_part, weight.level
    basis = _basis(t, lattice)
    return (gram(basis, level * t.h * t.scale_sq / 2),
            tuple(t.h * t.inner(lam, v) - level * height(t, v) for v in basis))


def index_rows(t, i):
    """_rows at the fundamental weight Lambda_i, i in 0..n."""
    L, p = t.integer_weights[i - 1] if i else ((0,) * t.ambient_dim, 1)
    return atomic._rows(t, (L, p), (t.comarks[i], t.comarks[0]))


class RecursiveBall(_IntegerBall):
    """A compiled ball walked by the original recursive tails: one generator
    per coordinate, each centre summed afresh from U, the sparse (j, S u_ij)
    pairs of S u, which are read here off the ball's dense columns Su."""

    def __init__(self, a, b):
        super().__init__(a, b)
        k = len(self.c0)
        self.U = [[(j, self.Su[j][i]) for j in range(i + 1, k) if self.Su[j][i]]
                  for i in range(k)]

    def centre(self, i, m):
        """S * c_i as an integer, from the later coordinates of m."""
        return self.c0[i] + sum(u * m[j] for j, u in self.U[i])

    def tails(self, m, T):
        """Set m_{k-1}, ..., m_1 in place to every choice inside the ball of
        the integer bound T, in ascending order, and yield the budget R_0 left
        for m_0 each time."""
        S, e = self.S, self.e

        def walk(i, budget):
            c = self.centre(i, m)
            r = isqrt(budget // e[i])
            for mi in range(-((r + c) // S), (r - c) // S + 1):
                y = S * mi + c
                m[i] = mi
                if i == 1:
                    yield budget - e[i] * y * y
                else:
                    yield from walk(i - 1, budget - e[i] * y * y)

        R = self.scale * T + self.offset
        if R < 0:
            return
        if len(m) == 1:
            yield R
        else:
            yield from walk(len(m) - 1, R)


def apply_matrix(mat, v):
    return tuple(sum(Fraction(mat[r][c]) * Fraction(v[c]) for c in range(len(v)))
                 for r in range(len(mat)))


def matrix_Mj(t, j):
    """M_j of type A_n^(1) or C_n^(1): the j-th power of the cyclic shift
    (q_1..q_{n+1}) -> (q_{n+1}, q_1, .., q_n) in type A, the negated
    antidiagonal at j = n in type C, the identity at j = 0."""
    t = _type(t)
    dim = t.ambient_dim
    if j == 0:
        return tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
    if t.id.twist != 1:
        raise ValueError(f"no hand-typed layer matrix {j} for {t.name}")
    if t.id.family == "A" and 0 < j <= t.n:
        return tuple(tuple(int((r - c) % dim == j) for c in range(dim)) for r in range(dim))
    if t.id.family == "C" and j == t.n:
        return tuple(tuple(-int(r + c == dim - 1) for c in range(dim)) for r in range(dim))
    raise ValueError(f"no hand-typed layer matrix {j} for {t.name}")


def extended_image(t, element):
    """The weight-lattice vector omega_j + M_j(q) of an extended element."""
    t = _type(t)
    j, q = element.j, element.q
    mq = apply_matrix(matrix_Mj(t, j), q)
    if j == 0:
        coords = mq
    else:
        omega = fundamental_weights(t)[j - 1]
        coords = tuple(a + b for a, b in zip(omega, mq))
    return LatticeVector(t.name, coords)


def numerators(form, m):
    """C m for a linalg.QuadraticForm, one dot product per row: the original
    QuadraticForm.numerators."""
    return tuple([linalg.dot(row, m) for row in form.C])


def layer_image(layer, m):
    """The image of a param.LayerMap by one dot product per component: the
    original LayerMap.__call__."""
    return tuple([linalg.dot(row, m) + c for row, c in zip(layer.P, layer.p)])


def _as_int(x):
    x = Fraction(x)
    if x.denominator != 1:
        raise NonIntegralImage(f"non-integral image component {x}")
    return int(x)


def _ints(xs):
    return tuple(_as_int(x) for x in xs)


def u_rotate(q):
    """The involutive rank-2 change of coordinates (q1, q2) -> (q1+q2, q1-q2)."""
    q1, q2 = Fraction(q[0]), Fraction(q[1])
    return (q1 + q2, q1 - q2)


def map_p_a2(v):
    """(3x + 6y - 1, 3x - 1) on the first two coordinates."""
    return _ints((3 * v[0] + 6 * v[1] - 1, 3 * v[0] - 1))


def map_p_a3(v):
    """(12y + 4z - 1, 8z + 1, 8x + 4y + 4z - 3) on coordinates (x, y, z, t)."""
    return _ints((12 * v[1] + 4 * v[2] - 1,
                  8 * v[2] + 1,
                  8 * v[0] + 4 * v[1] + 4 * v[2] - 3))


def _phi_c2(q):
    b1p, b2p = u_rotate(q)
    return _ints((4 * b1p - 2, 4 * b2p - 1))


def _phi_c2l1(q):
    b1p, b2p = u_rotate(q)
    return _ints((4 * b1p, 4 * b2p + 1))


def _phi_d3t(q):
    return _ints((6 * q[0] - 2, 6 * q[1] - 1))


def _phi_a42(q):
    return _ints((10 * q[0] - 3, 10 * q[1] - 1))


def _phi_g21(q):
    return _ints((6 * q[0] + 3 * q[1] + 2, 3 * q[1] + 1))


def _phi_d43(q):
    return _ints((6 * q[1] + 2, 4 * q[0] + 2 * q[1] + 1))


PHI = {"A2": map_p_a2, "A2ext": map_p_a2, "C2": _phi_c2, "C2L1": _phi_c2l1,
       "D3t": _phi_d3t, "A42": _phi_a42, "G21": _phi_g21, "D43": _phi_d43,
       "A3": map_p_a3}


HYP_TABLE = {
    # key: (a(n), b(n), coefficient c(n), offset s_i(n, i));
    # phi(q)_i = c q_i - s_i
    "B": dict(a=lambda n: 4 * n,
              b=lambda n: n * (n + 1) * (2 * n + 1) // 6,
              coeff=lambda n: 2 * n,
              offset=lambda n, i: n - i + 1),
    "C": dict(a=lambda n: 8 * n,
              b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
              coeff=lambda n: 4 * n,
              offset=lambda n, i: 2 * (n - i) + 1),
    "Aodd": dict(a=lambda n: 16 * n - 8,
                 b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
                 coeff=lambda n: 4 * n - 2,
                 offset=lambda n, i: 2 * (n - i) + 1),
    "Dt": dict(a=lambda n: 4 * (n + 1),
               b=lambda n: n * (n + 1) * (2 * n + 1) // 6,
               coeff=lambda n: 2 * (n + 1),
               offset=lambda n, i: n - i + 1),
    "Aeven": dict(a=lambda n: 16 * n + 8,
                  b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
                  coeff=lambda n: 4 * n + 2,
                  offset=lambda n, i: 2 * (n - i) + 1),
}


def hyp_phi(family, n):
    """The hyperoctahedral phi of the table, as the original hyp_case built it."""
    spec = HYP_TABLE[family]
    coeff = spec["coeff"](n)
    offsets = [spec["offset"](n, i) for i in range(1, n + 1)]

    def phi(q):
        return _ints(tuple(coeff * q[i] - offsets[i] for i in range(n)))

    return phi


def case_length(case, q):
    """Atomic length of a lattice point from its definition (the family
    polynomial of a hyperoctahedral case), not from the enumerator's form."""
    if case.case_id.startswith("HYP:"):
        family, n = param._hyp_family_of_type(case.type_id)
        spec = param._HYP_FAMILIES[family]
        return (spec["kappa"](n) * sum(Fraction(x) ** 2 for x in q)
                - sum(spec["linear"](n, i + 1) * Fraction(x) for i, x in enumerate(q)))
    if case.weight == 0:
        return atomic.atomic_length0(case.type_id, q)
    return atomic.atomic_length_i(case.type_id, case.weight, q)


def _act_d8(element, point):
    k, e = element
    x, y = point
    if e:
        x, y = y, x
    for _ in range(k % 4):
        x, y = -y, x
    return (x, y)


def group_elements(group, rank=None):
    """The elements of a named group as opaque tokens usable with act(); H
    needs its rank, which no other group reads."""
    if group == "D8":
        return [(k, e) for k in range(4) for e in (0, 1)]
    if group == "C4":
        return list(range(4))
    if group == "V4":
        return [(sx, sy) for sx in (1, -1) for sy in (1, -1)]
    if group == "C6":
        return list(range(6))
    if group == "G_A3":
        return [(k, e) for k in range(6) for e in (0, 1)]
    if group == "H":
        if rank is None:
            raise ValueError("the hyperoctahedral group needs its rank")
        return [(p, s) for p in itertools.permutations(range(rank))
                for s in itertools.product((1, -1), repeat=rank)]
    raise ValueError(f"unknown group {group!r}")


def act(group, element, point):
    """Exact image of a point under one group element."""
    point = tuple(point)
    if group == "D8":
        return _act_d8(element, point)
    if group == "C4":
        return _act_d8((element, 0), point)
    if group == "V4":
        sx, sy = element
        return (sx * point[0], sy * point[1])
    if group == "C6":
        return _rotations60(point, *point)[element % 6]
    if group == "G_A3":
        (k, e), (x, y, z) = element, point
        x, z = _rotations60(point, x, -z if e else z)[k % 6]
        return (x, y, z)
    if group == "H":
        perm, signs = element
        return tuple(s * point[p] for s, p in zip(signs, perm))
    raise ValueError(f"unknown group {group!r}")


def h_orbit_size(point):
    """n!/prod(mult!) * 2^(non-zero entries), mult counting equal absolute
    values in a Counter: the original diophantine._h_orbit_size."""
    size = math.factorial(len(point)) * 2 ** sum(1 for x in point if x)
    for mult in Counter(map(abs, point)).values():
        size //= math.factorial(mult)
    return size


def rotations60_stepwise(point, x, z):
    """The rotations of (x, sqrt(3) z) through 0, 60, ..., 300 degrees, in that
    order; NonIntegralImage when x - z is odd, which is outside point's domain."""
    if (x - z) % 2:
        raise NonIntegralImage(f"({','.join(map(str, point))}) is outside the parity domain")
    rotations = [(x, z)]
    for _ in range(5):
        x, z = (x - 3 * z) // 2, (x + z) // 2
        rotations.append((x, z))
    return rotations


def canonical60_by_rotations(group, point):
    """The canonical point of C6 or G_A3 as the largest of the six rotations:
    of (x, sqrt(3) y) for C6, and for G_A3 of (x, sqrt(3) z) with |z|, y fixed."""
    point = tuple(point)
    if group == "G_A3":
        x, y, z = point
        x, z = max([(a, abs(b)) for a, b in rotations60_stepwise(point, x, z)])
        return (x, y, z)
    if group == "C6":
        return max(rotations60_stepwise(point, *point))
    raise ValueError(f"unknown group {group!r}")


def orbit_partition(group, solutions):
    """Partition a closed solution set into orbits, sorted by their minima."""
    points = [tuple(p) for p in solutions]
    pool = set(points)
    seen = set()
    orbits = []
    for p in sorted(points):
        if p in seen:
            continue
        orb = diophantine.orbit(group, p)
        if not orb <= pool:
            raise NotClosed(f"orbit of {p} leaves the solution set")
        orbits.append(sorted(orb))
        seen |= orb
    return orbits


def representatives(group, form, k):
    """The lexicographic maximum of each orbit of the full solution set, sorted."""
    return sorted(max(o) for o in orbit_partition(group, diophantine.solve_diagonal(form, k)))


def solutions(level):
    """U at the level from the group-free solve, as the original
    LevelData.solutions gave it, independent of the level's reps."""
    return diophantine.solve_diagonal(level.case.form, level.k)


def _orbits(level):
    """The orbit partition of U, as the original LevelData.orbits gave it."""
    return orbit_partition(level.case.group, solutions(level))


def is_action_free(group, solutions):
    """(True, None) when every orbit has full group size, else (False, the
    largest point of the first undersized orbit), which for the
    sign-symmetric actions used here is its all-non-negative member."""
    points = [tuple(p) for p in solutions]
    if not points:
        return True, None
    order = diophantine.group_order(group, len(points[0]))
    for orb in orbit_partition(group, points):
        if len(orb) < order:
            return False, orb[-1]
    return True, None


def check_complete(level):
    """Freeness plus exactly-one-image-per-orbit."""
    case_id, n, case = level.case.case_id, level.n, level.case
    sols, points, images = solutions(level), level.points, level.images
    counts = {"solutions": len(sols), "orbits": 0, "phi_images": len(images)}
    if len(set(images)) != len(images):
        dup = next(x for x in images if images.count(x) > 1)
        return _fail(case_id, n, counts, {"reason": "phi not injective", "point": dup})
    sol_set = set(sols)
    for q, img in zip(points, images):
        if img not in sol_set:
            return _fail(case_id, n, counts,
                         {"reason": "phi image off the quadric",
                          "q": [str(x) for x in q], "image": img})
    orbits = _orbits(level)
    counts["orbits"] = len(orbits)
    order = diophantine.group_order(case.group, len(case.form))
    witness = next((orb[-1] for orb in orbits if len(orb) < order), None)
    if witness is not None:
        return _fail(case_id, n, counts, {"reason": "action not free", "point": witness})
    image_set = set(images)
    for orb in orbits:
        hits = [p for p in orb if p in image_set]
        if len(hits) != 1:
            return _fail(case_id, n, counts,
                         {"reason": "orbit without unique representative",
                          "orbit_min": orb[0], "hits": hits})
    return Report(case_id, n, "PASS", counts)


def check_extended(level):
    """Decomposition of U(12N+4) into antipodal pairs of extended images."""
    case_id, n, case = level.case.case_id, level.n, level.case
    sols, base = solutions(level), level.points
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 3 * len(base)}
    all_pairs = []
    for q, layer in zip(base, level.layers):
        full_orbit = {act(case.group, k, layer[0]) for k in range(6)}
        if len(full_orbit) != 6:
            return _fail(case_id, n, counts,
                         {"reason": "C6 orbit undersized", "point": layer[0]})
        pairs = [frozenset({img, (-img[0], -img[1])}) for img in layer]
        union = set().union(*pairs)
        if union != full_orbit or sum(len(p) for p in pairs) != 6:
            return _fail(case_id, n, counts,
                         {"reason": "layer pairs do not tile the orbit",
                          "q": [str(x) for x in q]})
        all_pairs.extend(pairs)
    union = set().union(*all_pairs) if all_pairs else set()
    if union != set(sols) or sum(len(p) for p in all_pairs) != len(sols):
        return _fail(case_id, n, counts, {"reason": "pairs do not partition U"})
    return Report(case_id, n, "PASS", counts)


def check_stratified(level):
    """Stratification, G-stability, layer separation and orbit disjointness."""
    case_id, n, case = level.case.case_id, level.n, level.case
    sols, base = solutions(level), level.points
    strata = stratify(level, sols)
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 4 * len(base), "strata": len(strata.gamma)}
    if not strata.all_y_odd:
        return _fail(case_id, n, counts, {"reason": "even middle coordinate"})
    if not strata.nonempty_iff_omega:
        return _fail(case_id, n, counts, {"reason": "emptiness rule violated"})
    if not strata.partition_ok:
        return _fail(case_id, n, counts, {"reason": "strata do not partition U"})
    sol_set = set(sols)
    for s in sols:
        for g in group_elements(case.group):
            img = act(case.group, g, s)
            if img not in sol_set or img[1] != s[1]:
                return _fail(case_id, n, counts,
                             {"reason": "G does not stabilise the stratum",
                              "point": s})
    images = {}
    for q, layer in zip(base, level.layers):
        for j, img in enumerate(layer):
            if img not in sol_set:
                return _fail(case_id, n, counts,
                             {"reason": "layer image off the quadric", "image": img})
            images[(j, q)] = img
        if len({img[1] for img in layer}) != 4:
            return _fail(case_id, n, counts,
                         {"reason": "layers share a stratum",
                          "q": [str(x) for x in q]})
    orbits = {key: frozenset(act(case.group, (k, 0), img) for k in range(6))
              for key, img in images.items()}
    keys = sorted(orbits, key=lambda key: (key[0], key[1]))
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            if orbits[k1] & orbits[k2]:
                return _fail(case_id, n, counts,
                             {"reason": "extended rotation orbits intersect",
                              "first": list(map(str, k1[1])), "j1": k1[0],
                              "second": list(map(str, k2[1])), "j2": k2[0]})
    return Report(case_id, n, "PASS", counts)


def check_orbit_size(level):
    """Every phi-image has a full-size orbit; coverage is reported, not required."""
    case_id, n, case = level.case.case_id, level.n, level.case
    sols, images, orbits = solutions(level), level.images, _orbits(level)
    expected = diophantine.group_order(case.group, len(case.form))
    counts = {"solutions": len(sols), "orbits": len(orbits),
              "phi_images": len(images), "expected_orbit_size": expected}
    sol_set = set(sols)
    for img in images:
        if img not in sol_set:
            return _fail(case_id, n, counts,
                         {"reason": "phi image off the quadric", "image": img})
        orb = diophantine.orbit(case.group, img)
        if len(orb) != expected:
            return _fail(case_id, n, counts,
                         {"reason": "orbit not of full size", "image": img,
                          "size": len(orb)})
    image_set = set(images)
    counts["covered_orbits"] = sum(1 for orb in orbits if any(p in image_set for p in orb))
    return Report(case_id, n, "PASS", counts)


def check_a3_conjecture(level):
    """Do the G-orbits of the extended images cover all of U(48N+30)?"""
    n, case = level.n, level.case
    sols, base = solutions(level), level.points
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 4 * len(base)}
    covered = set().union(*(diophantine.orbit(case.group, img)
                            for layer in level.layers for img in layer))
    missing = sorted(set(sols) - covered)
    counts["covered"] = len(covered)
    if covered != set(sols):
        return _fail("A3conj", n, counts,
                     {"reason": "uncovered solutions", "first": missing[0]})
    return Report("A3conj", n, "PASS", counts)


def theta(t):
    """The marked root sum_{i>=1} a_i alpha_i in stored coordinates."""
    return tuple(
        sum(t.marks[i + 1] * t.simple_roots[i][d] for i in range(t.n))
        for d in range(t.ambient_dim)
    )


def affine_cartan_matrix(t):
    """A_ij = 2 (alpha_i|alpha_j) / |alpha_i|^2 over alpha_0..alpha_n, with
    alpha_0's finite part -theta_a / a_0, theta_a = sum_{i>=1} a_i alpha_i.
    In integers: u_i = a_0 R_i for i >= 1 and u_0 = -sum_i a_i R_i, with
    (Q, R, G) of integer_roots, so u_i = a_0 Q alpha_i for every i; a row is
    None where an entry is not an integer."""
    _, R, _ = t.integer_roots
    a0, marks = t.marks[0], t.marks[1:]
    u = [tuple(-sum(a * r[k] for a, r in zip(marks, R)) for k in range(len(R[0])))]
    u += [tuple(a0 * x for x in r) for r in R]
    H = [[sum(x * y for x, y in zip(v, w)) for w in u] for v in u]
    return [[2 * x // row[i] if 2 * x % row[i] == 0 else None for x in row]
            for i, row in enumerate(H)]


def grassmannian_levels(t, top):
    """[the sorted points of M with atomic length N at Lambda_0, N = 0..top],
    from the definition: the walk up the orbit W.Lambda_0.

    The state is c, the coefficients of Lambda_0 - w Lambda_0 on
    alpha_0..alpha_n, whose height sum(c) is the atomic length, with the
    pairings p_j = <alpha_j^v, w Lambda_0> = [j = 0] - sum_i c_i A_ji of the
    affine Cartan matrix A.  Where p_j > 0, s_j is an ascent: c_j grows by
    p_j and p loses p_j times column j of A.  Every orbit element is reached
    from c = 0, p = e_0, as Lambda_0 is dominant; the states of a height are
    kept once each.  t_x Lambda_0 has c = -x + (|x|^2 / 2) delta (Kac 6.5),
    so x = sum_{i>=1} (a_i c_0 / a_0 - c_i) alpha_i, in integers R_i = Q
    alpha_i (TypeData.integer_roots) over a_0 Q.
    """
    t = dynkin.lookup_type(t)
    A, (Q, R, _), marks = affine_cartan_matrix(t), t.integer_roots, t.marks
    size = len(marks)
    columns = [[(k, A[k][j]) for k in range(size) if A[k][j]] for j in range(size)]
    states = [{} for _ in range(top + 1)]
    states[0][(0,) * size] = (1,) + (0,) * (size - 1)
    for height, level in enumerate(states):
        for c, p in level.items():
            for j, pj in enumerate(p):
                if 0 < pj <= top - height:
                    up, pairs = list(c), list(p)
                    up[j] += pj
                    for k, a in columns[j]:
                        pairs[k] -= pj * a
                    states[height + pj].setdefault(tuple(up), tuple(pairs))
    den = marks[0] * Q
    return [sorted(tuple(Fraction(sum((a * c[0] - marks[0] * ci) * r[k]
                                      for a, ci, r in zip(marks[1:], c[1:], R)), den)
                         for k in range(len(R[0])))
                   for c in level) for level in states]


def det(matrix):
    """Determinant over Fraction (fraction-free enough at these sizes)."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return result


def h_statistic(q):
    """The companion statistic on M realised as a shift of the level-1 length.

    In rotated coordinates: H'(q') = L1'((q1', q2' - 1)) - 1.
    """
    q1p, q2p = param.u_rotate(q)
    shifted = (q1p, q2p - 1)
    # inverse rotation brings the shifted point back to stored coordinates
    back = (Fraction(shifted[0] + shifted[1], 2), Fraction(shifted[0] - shifted[1], 2))
    return atomic.atomic_length_i("C2_1", 1, back) - 1


@dataclass
class A3Stratum:
    N: int
    y: int
    points: list


def stratum(strata, y):
    """The points of U with middle coordinate y, as param.A3Strata.stratum gave them."""
    return A3Stratum(strata.N, y, strata.strata.get(y, []))


def stratify(level, sols):
    """param._stratify as it first scanned each omega test: every m in
    [-radius, radius], both residue classes mod 3 tested per m.  k is the
    level's right-hand side, 48N+30 for A3 itself."""
    n, k = level.n, level.k
    by_y = {}
    for s in sols:
        by_y.setdefault(s[1], []).append(s)
    all_y_odd = all(y % 2 == 1 for y in by_y)

    omega_nonempty = {}
    y_bound = k // 2
    candidates = [y for y in range(-math.isqrt(y_bound) - 1, math.isqrt(y_bound) + 2)
                  if y % 2 != 0 and y * y < y_bound]
    for y in candidates:
        which = y * y % 3            # 0 or 1, as y^2 is a square
        m_y = k // 3 - 2 * (y * y // 3)
        radius = math.isqrt(k - 2 * y * y)
        omega_nonempty[y] = any((m % 3 == 0) == (which == 0)
                                and _is_square(m_y - (m * m + 2 * which) // 3)
                                for m in range(-radius, radius + 1))
    gamma = [y for y in candidates if omega_nonempty[y]]
    return param.A3Strata(n, gamma, {y: sorted(v) for y, v in by_y.items()},
                          all(omega_nonempty[y] == (y in by_y) for y in candidates),
                          gamma == sorted(by_y), all_y_odd)


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def charge_symmetric(d, half):
    """The self-conjugacy-symmetric charge (c_0..c_{n-1}, -c_{n-1}..-c_0), d = 2n."""
    half = tuple(int(c) for c in half)
    if 2 * len(half) != d:
        raise BadCharge("need d/2 free entries")
    return half + tuple(-c for c in reversed(half))


@lru_cache(maxsize=None)
def size_form(d, self_conjugate=False):
    """size(core_from_charge(d, c)) as a linalg.QuadraticForm on the
    sum-zero charge lattice, or on its self-conjugate sublattice
    c_r = -c_{d-1-r} (basis e_j - e_{d-1-j}, j < d//2; the middle entry of
    an odd d is 0): (d/2) sum c_r^2 + sum r*c_r."""
    if self_conjugate:
        pairs = [(j, d - 1 - j) for j in range(d // 2)]
    else:
        pairs = [(j, d - 1) for j in range(d - 1)]
    basis = [[(r == j) - (r == k) for r in range(d)] for j, k in pairs]
    return linalg.QuadraticForm.on_basis(basis, Fraction(d, 2), (tuple(range(d)), 1))


def core_counts(d, top):
    """The number of d-cores of each size 0..top, read off
    prod_k (1 - q^{dk})^d / (1 - q^k) truncated above q^top."""
    series = [1] + [0] * top
    for k in range(1, top + 1):
        for n in range(k, top + 1):      # times 1 / (1 - q^k)
            series[n] += series[n - k]
        for _ in range(d):
            for n in range(top, d * k - 1, -1):     # times (1 - q^{dk})
                series[n] -= series[n - d * k]
    return series


def _addable_cells(parts, residue, d):
    rows = len(parts)
    cells = []
    for r in range(rows + 1):
        c = (parts[r] if r < rows else 0) + 1
        if r > 0 and parts[r - 1] < c:
            continue
        if (c - r - 1) % d == residue:
            cells.append(r)
    return cells


def _removable_cells(parts, residue, d):
    cells = []
    for r, part in enumerate(parts):
        if r + 1 < len(parts) and parts[r + 1] == part:
            continue
        if part == 0:
            continue
        if (part - r - 1) % d == residue:
            cells.append(r)
    return cells


def lascoux_orbit(n, word):
    """Apply the letters of the word right-to-left to the empty partition.

    Each letter i toggles every addable/removable box of residue i; on a core
    these are never mixed, so the result is again an (n+1)-core.  Words need
    not be reduced.
    """
    d = n + 1
    parts = []
    for letter in reversed(tuple(word)):
        if not 0 <= letter <= n:
            raise ValueError(f"letter {letter} outside 0..{n}")
        removable = _removable_cells(parts, letter, d)
        if removable:
            for r in removable:
                parts[r] -= 1
            parts = [p for p in parts if p > 0]
            continue
        addable = _addable_cells(parts, letter, d)
        for r in addable:
            if r == len(parts):
                parts.append(1)
            else:
                parts[r] += 1
    return tuple(parts)


def is_self_conjugate(parts):
    return tuple(parts) == conjugate(parts)


class InternalInconsistency(AssertionError):
    """A constructed partition failed a shape check that should be automatic."""


def doubled_distinct(parts):
    """The doubled diagram of a strict partition.

    It is the partition with Frobenius symbol (lambda_i | lambda_i - 1):
    row i holds lambda_i + i boxes for i <= r, and the columns j <= r have
    height lambda_j + j - 1.
    """
    parts = tuple(parts)
    if not is_strict(parts):
        raise ValueError("doubled diagram needs distinct parts")
    r = len(parts)
    if r == 0:
        return ()
    heights = [parts[j] + j for j in range(r)]  # height of column j+1, 1-indexed rows
    rows = []
    for i in range(1, max(heights) + 1):
        if i <= r:
            rows.append(parts[i - 1] + i)
        else:
            rows.append(sum(1 for hgt in heights if hgt >= i))
    return tuple(rows)


def bar_from_doubled(doubled):
    """Recover the strict partition from its doubled diagram, or None."""
    doubled = tuple(doubled)
    r = diagonal_length(doubled)
    parts = tuple(doubled[i] - (i + 1) for i in range(r))
    if any(p <= 0 for p in parts) or not is_strict(parts):
        return None
    if doubled_distinct(parts) != doubled:
        return None
    return parts


def bar_core_from_lattice(n, q):
    """Bar-partition model for the rank-n type with h = n+1 and M = Z^n stored.

    The point q = (q_1..q_n) defines the (2n+2)-charge
    (0, q_1..q_n, 0, -q_n..-q_1); its core is a doubled diagram whose bar
    partition this returns.  The bar partition's size equals the atomic
    length of q.
    """
    q = tuple(int(x) for x in q)
    if len(q) != n:
        raise ValueError(f"expected {n} coordinates")
    charge = (0,) + q + (0,) + tuple(-x for x in reversed(q))
    doubled = core_from_charge(2 * n + 2, charge)
    bar = bar_from_doubled(doubled)
    if bar is None:
        raise InternalInconsistency(
            f"charge {charge} produced a non-doubled core {doubled}")
    return bar


def d4flat_from_lattice(q):
    """Partition model attached to the rank-2 twist-3 lattice point (q_1, q_2).

    Part counts by residue mod 4 are m_2 = |q_1|, (m_1, m_-1) driven by the
    sign of q_2, and m_0 by q_1 + q_2; the partition is downward closed under
    subtracting 4 within each residue class.
    """
    q1, q2 = int(q[0]), int(q[1])
    m2 = abs(q1)
    m1, m_minus1 = (abs(q2), 0) if q2 <= 0 else (0, q2)
    s = q1 + q2
    m0 = s if s >= 0 else -s - 1
    parts = (
        [4 * i - 2 for i in range(1, m2 + 1)]
        + [4 * i - 3 for i in range(1, m1 + 1)]
        + [4 * i - 1 for i in range(1, m_minus1 + 1)]
        + [4 * i for i in range(1, m0 + 1)]
    )
    return tuple(sorted(parts, reverse=True))


def enumerate_atomic_upto(t, weight_index, bound, lattice="M"):
    """Dict mapping each value <= bound to its sorted list of lattice points."""
    t = _type(t)
    buckets = {}
    form = atomic.length_form(t.name, weight_index, lattice)
    for value, m in linalg.enumerate_quadratic_upto(form.ball, bound):
        buckets.setdefault(value, []).append(LatticeVector(t.name, form.coordinates(m)))
    for value in buckets:
        buckets[value].sort(key=lambda v: v.coords)
    return buckets


def outer_values(a, b, target):
    """How many integers x admit a real m with m_{k-1} = x and
    m^T a m + b.m <= target, for k >= 2.  With the other coordinates y free,
    the least value at x is a quadratic alpha x^2 + beta x + gamma (the
    Schur complement of the last coordinate, in Fraction arithmetic); it is
    convex, so the integers under the target form one run through the floor
    or the ceiling of its vertex, whose ends are found by bisection."""
    k = len(a)
    P = [list(row[:k - 1]) for row in a[:k - 1]]
    q2, b1 = [2 * row[k - 1] for row in a[:k - 1]], list(b[:k - 1])
    w0, w1 = solve_square(P, b1), solve_square(P, q2)
    dot = linalg.dot
    alpha = a[k - 1][k - 1] - dot(q2, w1) / 4
    beta = b[k - 1] - (dot(b1, w1) + dot(q2, w0)) / 4
    gamma = -dot(b1, w0) / 4

    def inside(x):
        return alpha * x * x + beta * x + gamma <= target

    def last(x, step):
        """The last x + i step (i >= 0) inside, for x inside."""
        far = 1
        while inside(x + far * step):
            far *= 2
        near = far // 2     # inside at near, outside at far
        while far - near > 1:
            mid = (near + far) // 2
            near, far = (mid, far) if inside(x + mid * step) else (near, mid)
        return x + near * step

    x0 = math.floor(-beta / (2 * alpha))
    low = last(x0, -1) if inside(x0) else x0 + 1
    high = last(x0 + 1, 1) if inside(x0 + 1) else x0
    return high - low + 1


def enumerate_command(argv):
    """(exit code, stdout, stderr) of the original `corelat enumerate` on the
    full argv: the LatticeVectors of atomic.enumerate_atomic, each shared
    coordinate Fraction formatted once, keyed by its id while the vectors
    hold it, then written by csv.writer or json.dump; a ValueError or
    KeyError is one `error:` line on stderr and exit 2."""
    args = cli.build_parser().parse_args(argv)
    try:
        t = dynkin.lookup_type(args.type)
        weight = int(args.weight[1:])
        target = cli._fraction(args.N)
        lattice = args.lattice or ("L" if weight == 1 else "M")
        vectors, level = atomic.enumerate_atomic(t, weight, target, lattice), str(target)
    except (ValueError, KeyError) as exc:
        return 2, "", f"error: {exc}\n"
    shown, elements = {}, []
    for v in vectors:
        row = []
        for x in v.coords:
            text = shown.get(id(x))
            if text is None:
                text = shown[id(x)] = str(x)
            row.append(text)
        elements.append(row)
    out = io.StringIO()
    if args.format == "json":
        json.dump({"type": args.type, "weight": args.weight, "lattice": lattice,
                   "N": level, "elements": elements}, out, separators=(",", ":"))
        out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["type", "weight", "lattice", "N", "coords"])
        writer.writerows([args.type, args.weight, lattice, level, "(" + ",".join(e) + ")"]
                         for e in elements)
    return 0, out.getvalue(), ""


def root_outcome(argv):
    """(exit code, stdout, stderr) of argv parsed by the root parser and run
    with cli.main's error handling; argparse's SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli._run(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Unsolvable(ValueError):
    """No representation as a sum of two squares exists."""


def factorize(k):
    """Trial-division factorisation, {prime: exponent}."""
    if k < 1:
        raise ValueError("factorize needs a positive integer")
    factors = {}
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > k:
            break
        while k % p == 0:
            factors[p] = factors.get(p, 0) + 1
            k //= p
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


def x2_3z2_represents(n):
    """Whether x^2 + 3z^2 = n has integer solutions, by the rule for a form
    of class number one (Cox, Primes of the Form x^2 + ny^2): n >= 0 is
    represented exactly when every prime p = 2 (mod 3) divides it to an even
    power, found by trial division (factorize)."""
    if n < 0:
        return False
    return n == 0 or all(e % 2 == 0 for p, e in factorize(n).items() if p % 3 == 2)


def two_squares_solvable(k):
    """Whether x^2 + y^2 = k has integer solutions."""
    if k < 0:
        return False
    if k == 0:
        return True
    return all(e % 2 == 0 for p, e in factorize(k).items() if p % 4 == 3)


class GaussianLift:
    """Bijection data between solution sets of x^2+y^2 = m and = k.

    k factors as 2^alpha * c^2 * m with m odd and free of prime factors
    congruent to 3 mod 4; multiplication by (1+i)^alpha * c carries
    solutions for m onto solutions for k.
    """

    def __init__(self, k):
        if k < 1:
            raise Unsolvable("k must be positive")
        if not two_squares_solvable(k):
            raise Unsolvable(f"{k} is not a sum of two squares")
        factors = factorize(k)
        self.k = k
        self.alpha = factors.get(2, 0)
        self.c = 1
        for p, e in factors.items():
            if p % 4 == 3:
                self.c *= p ** (e // 2)
        self.m = k // (2 ** self.alpha * self.c * self.c)

    def apply(self, point):
        x, y = point
        for _ in range(self.alpha):
            x, y = x - y, x + y
        return (self.c * x, self.c * y)


def gaussian_lift(k):
    return GaussianLift(k)


def residue_free_criterion(a, b):
    """True when b mod a is neither a quadratic residue nor twice one."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    residues = {(x * x) % a for x in range(a)}
    doubled = {(2 * r) % a for r in residues}
    return (b % a) not in residues | doubled
