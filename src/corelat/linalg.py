"""Exact rational linear algebra and positive-definite quadratic enumeration.

The linear algebra runs on integers.  eliminate is one fraction-free
Gauss-Jordan elimination: each row of [A | I] is an integer vector over one
positive denominator, reduced by its gcd after every update, so the set-up
of a rank-50 type costs integer products, not Fraction ones.  A SpanSolver
runs one elimination per basis and keeps its rows over one denominator, so
solving for coefficients, testing span membership and testing integrality
are integer dot products on a vector scaled to integers once
(integer_vector, which reads int and Fraction entries as they are and
builds a Fraction only for another kind).  The quadratic enumerators use
Fraction only for the LDL factors (_ldl) of a form scaled to integers
(scaled_basis): a QuadraticForm, built from integer rows, keeps its compiled
search (QuadraticForm.ball), built on its first search, and the search
itself runs on Python ints with exact isqrt bounds.
A ball compiles its level search once into straight-line Python
(level_source), with the form's constants inlined: one generated function
per depth, each looping one coordinate over its exact range and handing the
next the budget left and the partial centres of the earlier coordinates;
the last coordinate is solved instead of looped over.  The shell walk
(_IntegerBall.shell) walks the same ball, one generator per depth
(_IntegerBall.tails), up to a bound and from an integer lower bound, which
only the innermost coordinate can skip below: enumerate_quadratic_upto is
the walk with no lower bound, and QuadraticForm.levels buckets the walk's
points by their integer values, the levels of a band in one walk.
QuadraticForm.level_numerators lists the points of a level as sorted
integer rows C m, and QuadraticForm.level divides them by Q with one
Fraction per distinct value, shared by every point of the level.
QuadraticForm.outer_values counts in O(1) the values the outermost
coordinate of a level search takes.  A fixed integer map m -> P m + p, such
as a form's C m, is compiled once into a straight-line Python function
(compile_affine) that lists the non-zero terms of each row, so applying it makes no dot product;
in blocks it returns one tuple per block of rows, so several maps of the
same m, stacked (compile_stacked), cost one call.  QuadraticForm.pulls_back
decides once, in integers, whether an integer map carries the form onto a
diagonal quadric.  A statistic kernel (compile_kernel) returns
(q W.V + K V.V) / (M q^2) at a point V / q read by as_integer_ratio, after
testing the span equations; its source (kernel_source) is one factory per
shape (point length, number of equations), compiled once, of which each
kernel is a closure; a membership kernel (compile_membership) is
SpanSolver.in_lattice built the same way, with the same point reader
(_point_factory).  The generated source of all four, affine maps, level
searches, kernel and membership factories, runs only through _define, and
it finds isqrt, lcm and Fraction among this module's globals.
memo, the attribute cache of every corelat class, lives here as the lowest
module.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul


class memo:
    """functools.cached_property without its lock (3.11 takes an RLock on
    every first read): the first read of the attribute calls func and stores
    the value in the instance __dict__, which later reads find first.  As
    under 3.12, two threads that read it first may both call func."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def dot(u, v):
    return sum(map(mul, u, v))


def matmul(A, B):
    """The matrix product A B; a row of A shorter than the columns of B
    meets only their first entries."""
    return [[dot(row, col) for col in zip(*B)] for row in A]


def as_integers(values):
    """The values as a tuple of ints; ValueError on one that is not an integer."""
    for x in (values := tuple(values)):
        try:    # a fraction, or nan for an infinity or a nan; % on a str formats it
            fractional = isinstance(x, str) or x % 1
        except TypeError:   # None, or another value that is no number
            fractional = True
        if fractional:
            raise ValueError(f"{x!r} is not an integer")
    return tuple(map(int, values))


# the entry kinds integer_vector reads as they are
_EXACT = (int, Fraction)


def integer_vector(v):
    """(V, q) with v = V / q: v scaled to integers by the lcm q of its
    denominators.

    An int entry x is read as x / 1 and a Fraction as its numerator over its
    denominator, so a point of either kind costs no Fraction.  Any other
    entry (a float, a numeric string) is converted exactly through Fraction,
    as Fraction(x) reads it; a non-finite one is a ValueError (Fraction
    raises OverflowError for an infinity).
    """
    try:
        pairs = [(x if isinstance(x, _EXACT) else Fraction(x)).as_integer_ratio() for x in v]
    except OverflowError as error:
        raise ValueError(str(error)) from None
    q = math.lcm(*[d for _, d in pairs])
    return [n * (q // d) for n, d in pairs], q


def scaled_basis(basis):
    """(Q, vectors): the basis vectors scaled to integers by the lcm Q of
    their denominators."""
    scaled = list(map(integer_vector, basis))
    Q = math.lcm(*(q for _, q in scaled))
    return Q, [[x * (Q // q) for x in V] for V, q in scaled]


def _require_ints(values):
    """ValueError on a value whose type is not exactly int (a bool, a
    Fraction, a float, a string), so generated source holds only ints."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{x!r} is not an int")


def _times(x, name):
    """The source of x * name for a non-zero int x."""
    return name if x == 1 else f"-{name}" if x == -1 else f"{x}*{name}"


def _sum(*terms):
    """The source of the terms' sum; a term's only minus is its leading sign,
    so "+ -" marks a subtraction."""
    return " + ".join(terms).replace("+ -", "- ")


def _negated(term):
    """The source of -term for a name or an int literal."""
    return term[1:] if term.startswith("-") else f"-{term}"


def _args(names):
    """The source of the names as the items of a call or a tuple."""
    return "".join(f"{name}, " for name in names)


def _define(source, name):
    """The function the source defines under name, built once by exec.  Its
    code looks its global names (isqrt, lcm, Fraction) up in this module, at
    each call, so it finds what a test patches here."""
    namespace = {}
    exec(source, globals(), namespace)
    return namespace[name]


def affine_source(P, p, blocks=None):
    """The Python source of `def f(m)` returning the tuple P m + p, for an
    integer matrix P and offset p.

    Each component lists only the non-zero terms of its row, and m is unpacked
    into one local per column, so a call runs no loop and no dot product.
    With blocks, a list of row counts that sum to the rows of P, f returns
    one tuple per block instead, of the components of its consecutive rows:
    several affine maps of the same m, stacked, applied by one call.  An
    entry whose type is not exactly int is a ValueError before any source is
    built (_require_ints), and so are blocks that do not split the rows.
    """
    P, p = tuple(map(tuple, P)), tuple(p)
    _require_ints((*p, *(x for row in P for x in row)))
    if len(P) != len(p):
        raise ValueError(f"{len(P)} rows but {len(p)} offsets")
    if blocks is not None and (any(b < 0 for b in blocks) or sum(blocks) != len(P)):
        raise ValueError(f"blocks {tuple(blocks)} do not split {len(P)} rows")
    rows = []
    for row, c in zip(P, p):
        terms = [_times(x, f"m{i}") for i, x in enumerate(row) if x]
        if c or not terms:
            terms.append(str(c))
        rows.append(_sum(*terms))
    if blocks is not None:
        ends = list(itertools.accumulate(blocks))
        rows = [f"({_args(rows[end - b:end])})" for b, end in zip(blocks, ends)]
    k = max(map(len, P), default=0)
    unpack = f"    {_args(f'm{i}' for i in range(k))}= m\n" if k else ""
    return f"def f(m):\n{unpack}    return ({_args(rows)})\n"


def compile_affine(P, p, blocks=None):
    """The function m -> P m + p of affine_source, in blocks when given,
    built once by exec; it takes m of exactly as many entries as P has
    columns."""
    return _define(affine_source(P, p, blocks), "f")


def compile_stacked(maps):
    """m -> (P_1 m + p_1, ..., P_r m + p_r), one tuple per map with integer
    rows P and offsets p: their rows stacked and compiled once in blocks
    (compile_affine), so applying every map is one call."""
    return compile_affine([row for f in maps for row in f.P], [c for f in maps for c in f.p],
                          [len(f.p) for f in maps])


def _dot(u, x):
    """The source of the dot product of two lists of names."""
    return " + ".join(f"{a}*{b}" for a, b in zip(u, x))


def _point_factory(n, e, params, off_span, tail):
    """The source of `def shape(name, slow, params.., e0_0..)`, whose closure
    `kernel(v)` reads v as V / q and runs the lines tail: v of no type other
    than name, of n coordinates each with an as_integer_ratio, unpacked into
    locals v{i} and scaled by the lcm q of their denominators.  Any other
    point is slow(v)'s, the generic path; kernel returns off_span if a span
    equation (e{j}_0, ..) sends V off 0.  Every product is written out, so a
    call runs no loop, and only the shape is in the source."""
    v = [f"v{i}" for i in range(n)]
    rows = [[f"e{j}_{i}" for i in range(n)] for j in range(e)]
    lines = ['if getattr(v, "type_id", name) != name:',
             "    return slow(v)",
             "try:",
             f"    {_args(v)}= v",
             *[f"    v{i}, q{i} = v{i}.as_integer_ratio()" for i in range(n)],
             "except (AttributeError, TypeError, ValueError, OverflowError):",
             "    return slow(v)",
             # the product of the denominators is 1 only when each is
             f"q = {'*'.join(f'q{i}' for i in range(n))}",
             "if q != 1:",
             f"    q = lcm({_args(f'q{i}' for i in range(n))})",
             *[f"    v{i} *= q // q{i}" for i in range(n)],
             *[line for row in rows for line in (f"if {_dot(row, v)}:", f"    return {off_span}")],
             *tail]
    params = _args(["name", "slow", *params, *(x for row in rows for x in row)])
    return (f"def shape({params}):\n    def kernel(v):\n"
            + "".join(f"        {line}\n" for line in lines) + "    return kernel\n")


def kernel_source(n, e):
    """The source of `def shape(name, slow, K, M, w0.., e0_0..)`, the factory
    of every statistic kernel on points of n coordinates with e span
    equations (_point_factory): (q W.V + K V.V) / (M q^2) at v = V / q, with
    W = (w0, ..), and slow(v) off the span."""
    v, w = [f"v{i}" for i in range(n)], [f"w{i}" for i in range(n)]
    return _point_factory(n, e, ["K", "M", *w], "slow(v)",
                          [f"return Fraction(q*({_dot(w, v)}) + K*({_dot(v, v)}), M*q*q)"])


def membership_source(n, e):
    """The source of `def shape(name, slow, D, r0_0.., e0_0..)`, the factory
    of every lattice membership kernel on points of n coordinates with e span
    equations (_point_factory), SpanSolver.in_lattice written out: false off
    the span, else whether each of the n - e coefficient rows (r{j}_0, ..)
    sends V to a multiple of D q."""
    v = [f"v{i}" for i in range(n)]
    rows = [[f"r{j}_{i}" for i in range(n)] for j in range(n - e)]
    test = " or ".join(f"({_dot(row, v)}) % Dq" for row in rows)
    return _point_factory(n, e, ["D", *(x for row in rows for x in row)], "False",
                          ["Dq = D*q", f"return not ({test})"])


@lru_cache(maxsize=None)
def _shape(source, n, e):
    """The factory source(n, e) defines, built once per source and shape."""
    return _define(source(n, e), "shape")


def compile_kernel(name, equations, rows, slow):
    """The kernel of kernel_source for the integer rows (W, K, M) on points
    of type name whose span equations are the integer rows equations: a
    closure over the factory of its shape (len(W), len(equations)), which is
    compiled on the shape's first kernel only."""
    W, K, M = rows
    if any(len(row) != len(W) for row in equations):
        raise ValueError(f"span equations of another length than {len(W)} coordinates")
    return _shape(kernel_source, len(W), len(equations))(
        name, slow, K, M, *W, *(x for row in equations for x in row))


def compile_membership(name, solver, slow):
    """The kernel of membership_source for a SpanSolver's lattice on points
    of type name, a closure over the factory of its shape, as compile_kernel."""
    return _shape(membership_source, len(solver.rows[0]), len(solver.equations))(
        name, slow, solver.D, *(x for row in (*solver.rows, *solver.equations) for x in row))


def reduced(V, q):
    """(V, q) divided by the gcd of its entries, with q made positive; V / q
    is unchanged, and so is which entries of V are zero."""
    g = math.gcd(*V, q)
    if q < 0:
        g = -g
    return [x // g for x in V], q // g


def eliminate(columns):
    """Rows of the invertible E with E A = [I; 0], where A has the given
    linearly independent columns, by one Gauss-Jordan elimination of [A | I].

    Row i of E comes as (V, q) with E_i = V / q, V an integer list and q the
    positive lcm of its entries' denominators.  The first len(columns) rows
    of E are a left inverse of A.  The others send a vector to 0 exactly when
    it lies in the span of the columns, since E v = [c; 0] says v = A c.  A
    square A gives its inverse.

    The elimination is fraction-free: each row of [A | I] is an integer
    vector over its own denominator (integer_vector reads the entries), an
    update of row i by the pivot row P / p is (V p - V_col P) / (q p), and
    every row is reduced by its gcd afterwards (reduced).  The pivot is the
    first row with a non-zero entry in the column, as scaling a row never
    changes which of its entries are zero.
    """
    k, dim = len(columns), len(columns[0])
    rows = []
    for r in range(dim):
        V, q = integer_vector([col[r] for col in columns])
        V += [0] * dim
        V[k + r] = q
        rows.append((V, q))
    for col in range(k):
        pivot = next((i for i in range(col, dim) if rows[i][0][col]), None)
        if pivot is None:
            raise ValueError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        # the pivot row divided by its pivot entry, V / q over V_col / q
        P = rows[col][0]
        rows[col] = P, p = reduced(P, P[col])
        for i in range(dim):
            V, q = rows[i]
            f = V[col]
            if i != col and f:
                rows[i] = reduced([x * p - f * y for x, y in zip(V, P)], q * p)
    return [(V[k:], q) for V, q in rows]


class SpanSolver:
    """Coefficients in a fixed basis, compiled to integers once.

    From eliminate(basis): for v = V / q with V an integer vector,
    v = sum_i c_i basis_i exactly when every row of `equations` sends V to
    0, and then c_i = rows[i] . V / (D q).  `total` is the sum of the rows,
    so the coefficient sum is total . V / (D q).  A call is a few integer
    dot products; no elimination runs after the build.  D is the lcm of the
    denominators of the left-inverse rows of eliminate, and each equation is
    a row's integer numerators as they are.
    """

    def __init__(self, basis):
        E = eliminate(basis)
        left, equations = E[:len(basis)], E[len(basis):]
        self.D = D = math.lcm(*(q for _, q in left))
        self.rows = tuple(tuple(x * (D // q) for x in V) for V, q in left)
        self.total = tuple(map(sum, zip(*self.rows)))
        self.equations = tuple(tuple(V) for V, _ in equations)

    def in_span(self, V):
        return not any(dot(row, V) for row in self.equations)

    def in_lattice(self, V, q):
        """Whether V / q is an integer combination of the basis."""
        Dq = self.D * q
        return self.in_span(V) and all(dot(row, V) % Dq == 0 for row in self.rows)


def _ldl(a):
    """LDL^T factors, as Fractions, of a symmetric positive-definite matrix.

    Returns (d, u) with a = u^T diag(d) u and u unit upper triangular.
    """
    k = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = [Fraction(0)] * k
    u = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        d[i] = m[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        u[i][i] = Fraction(1)
        for j in range(i + 1, k):
            u[i][j] = m[i][j] / d[i]
        for p in range(i + 1, k):
            for q in range(p, k):
                m[p][q] -= d[i] * u[i][p] * u[i][q]
                m[q][p] = m[p][q]
    return d, u


def level_source(S, e, Su, c0, scale, offset):
    """The Python source of `def level(T)`, the list of points on the integer
    level T of the _IntegerBall with these constants, in the order of tails.

    Depth i loops m_i over its exact range -((r + q_i) // S) .. (r - q_i) // S,
    where b is the budget the later coordinates left, r = isqrt(b // e_i)
    and q_l is the partial centre S c_l.  Each depth i >= 2 is one function
    d{i}(b, ...); it hands depth i - 1 the budget left and each earlier
    centre plus its non-zero Su[i][l] m_i term.  A centre that no later
    coordinate moves is its literal c0_l, so a depth takes as parameters only
    the centres that move, and the depths above 2 record their coordinate in
    the list tail.  Depth 1 runs inline in depth 2 (in level at rank 2) and
    solves m_0: R_0 must be divisible by e_0 with R_0 / e_0 = x^2, then
    Y_0 = -x before x (0 once) and m_0 = (Y_0 - S c_0) / S where S divides
    it; rank 1 solves m_0 in level itself.  The depths are separate
    functions, not nested loops of one, because CPython refuses more than 20
    statically nested blocks and ranks go to 50.  Every constant is an int
    literal, refused before any source is built otherwise (_require_ints).
    """
    _require_ints((S, scale, offset, *e, *c0, *(x for column in Su for x in column)))
    k = len(e)
    point = f"(m0, {_args(['m1', 'm2'][:k - 1] + [f'tail[{j}]' for j in range(3, k)])})"

    def moved(l, i):
        """Whether a coordinate above depth i moves the centre of m_l."""
        return any(Su[j][l] for j in range(i + 1, k))

    def solve(budget, centre):
        """The lines appending every point whose m_0 solves the budget."""
        return f"""\
R, rem = divmod({budget}, {e[0]})
if not rem:
    x = isqrt(R)
    if x * x == R:
        c = {centre}
        m0, rem = divmod(-x - c, {S})
        if not rem:
            append({point})
        if x:
            m0, rem = divmod(x - c, {S})
            if not rem:
                append({point})""".splitlines()

    def loop(i, b, q):
        """The lines of depth i >= 1, given the source of its budget b and of
        each centre S c_l (l <= i)."""
        passed = [_sum(q[l], _times(Su[i][l], f"m{i}")) if Su[i][l] else q[l] for l in range(i)]
        budget = f"{b} - {e[i]}*y*y"
        lines = [f"r = isqrt({b} // {e[i]})",
                 f"for m{i} in range(-(({_sum('r', q[i])}) // {S}), "
                 f"({_sum('r', _negated(q[i]))}) // {S} + 1):",
                 *[f"    tail[{i}] = m{i}"] * (i > 2),
                 f"    y = {_sum(f'{S}*m{i}', q[i])}"]
        if i == 1:
            body = solve(budget, passed[0])
        elif i == 2:
            # depth 1 runs inline, on locals for its budget and centres
            body = [f"b1, p0, p1 = {budget}, {passed[0]}, {passed[1]}", *loop(1, "b1", ["p0", "p1"])]
        else:
            body = [f"d{i - 1}({budget}, {_args(passed[l] for l in range(i) if moved(l, i - 1))})"]
        return lines + [f"    {line}" for line in body]

    lines = [f"b = {scale}*T + {offset}", "if b < 0:", "    return []", "points = []",
             "append = points.append", *[f"tail = [0] * {k}"] * (k > 3)]
    for i in range(2, k):
        lines += [f"def d{i}(b, {_args(f'q{l}' for l in range(i + 1) if moved(l, i))}):",
                  *(f"    {line}" for line in loop(i, "b", [f"q{l}" if moved(l, i) else str(c0[l])
                                                             for l in range(i + 1)]))]
    if k == 0:
        lines += ["if not b:", "    append(())"]
    elif k == 1:
        lines += solve("b", c0[0])
    elif k == 2:
        lines += loop(1, "b", list(map(str, c0)))
    else:
        lines.append(f"d{k - 1}(b)")
    return "def level(T):\n" + "".join(f"    {line}\n" for line in lines + ["return points"])


def compile_level(S, e, Su, c0, scale, offset):
    """The function T -> level points of level_source, built once by exec."""
    return _define(level_source(S, e, Su, c0, scale, offset), "level")


class _IntegerBall:
    """The search {m in Z^k : m^T a m + b.m <= T / D} of one form, in integers.

    a and b are scaled to integers A and B by the lcm D of their
    denominators (scaled_basis); a bound or target is the integer T.  With
    s = A^{-1} B / 2 and A = u^T diag(d) u,
    m^T A m + B.m = sum_i d_i (m_i + c_i)^2 - s^T A s, where
    c_i = s_i + sum_{j>i} u_ij (m_j + s_j) depends only on later coordinates.
    A common denominator S of the c_i and a factor F clearing the d_i make
    Y_i = S (m_i + c_i) and e_i = F d_i integers, and the ball becomes
    sum_i e_i Y_i^2 <= R = F S^2 (T + s^T A s).  Given the later
    coordinates, m_i ranges exactly over |Y_i| <= isqrt(R_i // e_i), where
    R_i is what they left of R.  Only the LDL factors and centres use
    Fraction; they depend on the form alone, so one ball serves every bound.

    Su[i] is column i of S u above the diagonal, as dense integers: the
    coefficient of m_i in S c_l for each l < i.  Setting m_i adds m_i Su[i]
    to the partial centres of the earlier coordinates, so a search carries
    each centre down from its parent's instead of summing it afresh.

    The ball compiles its level search when built: level(T) is the list of
    points with D (m^T a m + b.m) = T, from the straight-line source of
    level_source with these constants inlined, one function per depth
    above 1.  tails walks the same ball for the shell walk (shell), which
    enumerate_quadratic_upto and QuadraticForm.levels run.
    """

    def __init__(self, a, b):
        k = len(a)
        self.D, (*A, B) = scaled_basis([*a, b])
        d, u = _ldl(A)
        # centre = u s, and A s = B / 2 reads u^T (diag(d) centre) = B / 2:
        # forward substitution through the unit lower triangular u^T
        z = []
        for i in range(k):
            z.append(Fraction(B[i], 2) - sum(u[j][i] * z[j] for j in range(i)))
        centre = [z[i] / d[i] for i in range(k)]
        self.S = S = math.lcm(*(x.denominator for x in centre),
                              *(u[i][j].denominator for i in range(k) for j in range(i + 1, k)))
        F = math.lcm(*(x.denominator for x in d))
        self.e = [int(x * F) for x in d]
        self.c0 = [int(x * S) for x in centre]
        self.Su = [[int(u[l][i] * S) for l in range(i)] for i in range(k)]
        # R minus sum_i e_i Y_i^2 is scale * (T - m^T A m - B.m)
        self.scale = F * S * S
        # s^T A s = sum_i d_i (s_i + sum_{j>i} u_ij s_j)^2, so F S^2 s^T A s
        # is the integer sum_i e_i c0_i^2
        self.offset = sum(e * c * c for e, c in zip(self.e, self.c0))
        self.level = compile_level(S, self.e, self.Su, self.c0, self.scale, self.offset)

    def tails(self, m, T):
        """Set m_{k-1}, ..., m_1 in place to every choice inside the ball of
        the integer bound T, in ascending order, and yield (R_0, S c_0) each
        time: the budget left for m_0 and its centre.

        Depth i loops m_i over its exact range, given its parent's budget b
        and partial centres Q[l] = S c_l (l <= i), and hands depth i - 1 the
        budget left and the centres Q[l] + Su[i][l] m_i, from all of R and c0.
        """
        R = self.scale * T + self.offset
        if R < 0:
            return
        S, e, Su = self.S, self.e, self.Su

        def depth(i, b, Q):
            c, r, u = Q[i], isqrt(b // e[i]), Su[i]
            if i == 1:
                # depth 0 yields at once, so depth 1 yields for it
                q0, u0, e1 = Q[0], u[0], e[1]
                for mi in range(-((r + c) // S), (r - c) // S + 1):
                    m[1] = mi
                    y = S * mi + c
                    yield b - e1 * y * y, q0 + u0 * mi
                return
            for mi in range(-((r + c) // S), (r - c) // S + 1):
                m[i] = mi
                y = S * mi + c
                yield from depth(i - 1, b - e[i] * y * y, [Q[l] + u[l] * mi for l in range(i)])

        if len(m) == 1:
            yield R, self.c0[0]
        else:
            yield from depth(len(m) - 1, R, self.c0)

    def shell(self, low, T):
        """Yield (t, m) for every m of the ball of the integer bound T whose
        integer value t = D (m^T a m + b.m) is at least low (None: no lower
        bound), in ascending order of (m_{k-1}, ..., m_0).

        One walk of tails: a point leaves m_0 the budget b - e_0 Y_0^2 =
        scale (T - t), so t >= low keeps e_0 Y_0^2 >= b - scale (T - low),
        and m_0 skips the interval |Y_0| < s inside it, s the least root of
        that bound, running over the two ranges of m_0 left.
        """
        k = len(self.e)
        if k == 0:
            if 0 <= T and (low is None or low <= 0):
                yield 0, ()
            return
        S, e0, scale = self.S, self.e[0], self.scale
        width = None if low is None else scale * (T - low)
        m = [0] * k
        for budget, c in self.tails(m, T):
            r = isqrt(budget // e0)
            if width is not None and (inner := budget - width) > 0:
                # -r <= Y_0 <= -s and s <= Y_0 <= r, empty where s > r
                s = isqrt((inner - 1) // e0) + 1
                ranges = (range(-((r + c) // S), (-s - c) // S + 1),
                          range(-((c - s) // S), (r - c) // S + 1))
            else:
                ranges = (range(-((r + c) // S), (r - c) // S + 1),)
            for m0s in ranges:
                for m0 in m0s:
                    m[0] = m0
                    y = S * m0 + c
                    yield T - (budget - e0 * y * y) // scale, tuple(m)


def enumerate_quadratic_upto(ball, bound):
    """Integer points of a positive-definite quadratic below a bound.

    Yields (value, m) for every m in Z^k with value = m^T a m + b.m <= bound,
    in ascending order of (m_{k-1}, ..., m_0), where ball is the form's
    _IntegerBall: its shell walk with no lower bound.  Complete by
    construction: every coordinate range is an exact integer bound of the
    ball, which serves every bound and target.
    """
    # every value lies in (1/D) Z, so value <= bound exactly when D value <= T
    D = ball.D
    for t, m in ball.shell(None, math.floor(Fraction(bound) * D)):
        yield Fraction(t, D), m


def enumerate_quadratic_level(ball, target):
    """Integer points with m^T a m + b.m exactly equal to target.

    The list comes in the order of enumerate_quadratic_upto on the same
    ball.  The last coordinate is not searched: on the level set
    e_0 Y_0^2 equals the budget R_0 the other coordinates leave, so
    Y_0 = +-isqrt(R_0 / e_0) when that is an exact square, and
    m_0 = (Y_0 - S c_0) / S when S divides it.  The search is the ball's
    compiled level function (level_source), at the integer level D target.
    """
    T = _integer_level(ball, target)
    return [] if T is None else ball.level(T)


def _integer_level(ball, target):
    """The integer level D target of the ball, or None for a target off
    (1/D) Z, which no value reaches."""
    T = target * ball.D if type(target) is int else Fraction(target) * ball.D
    return int(T) if T.denominator == 1 else None


class QuadraticForm:
    """value(m) = m^T a m + b.m on the integer coefficients m of a basis.

    The coefficients m stand for the lattice point sum_i m_i basis_i, whose
    coordinates are C m / Q: C holds the basis vectors scaled to integers by
    the lcm Q of their denominators, one row per coordinate, and numerators
    is m -> C m, compiled when the form is built (compile_affine).  level
    speaks in coordinates, level_coefficients in coefficients, and levels
    gives the level_coefficients of a band of levels from one walk.  The form
    keeps its compiled search, ball, built on first use, so every level and
    bound asked of one form (enumerate_quadratic_upto on the ball) shares it.
    A form pickles as (a, b, basis), and its compiled parts are rebuilt on
    the other side.
    """

    def __init__(self, a, b, basis):
        self.a, self.b, self.basis = tuple(map(tuple, a)), tuple(b), basis
        self.Q, vectors = scaled_basis(basis)
        self.C = tuple(zip(*vectors))
        self.numerators = compile_affine(self.C, (0,) * len(self.C))

    def __reduce__(self):
        return QuadraticForm, (self.a, self.b, self.basis)

    @classmethod
    def on_basis(cls, basis, kappa, linear):
        """The form kappa (x.x) + (W.x) / w on the points x of the lattice
        spanned by basis, for the integer row linear = (W, w).  With the
        basis scaled to integers V / Q, each Gram entry is one Fraction,
        kappa (V_i . V_j) / Q^2, and each linear entry one, (W . V_i) / (w Q),
        from integer dot products."""
        Q, vectors = scaled_basis(basis)
        n, d = Fraction(kappa).as_integer_ratio()
        W, w = linear
        a = [[Fraction(n * dot(v, u), d * Q * Q) for u in vectors] for v in vectors]
        return cls(a, [Fraction(dot(W, v), w * Q) for v in vectors], basis)

    @memo
    def ball(self):
        """The exact integer search of the form (_IntegerBall)."""
        return _IntegerBall(self.a, self.b)

    def pulls_back(self, D, P, p, a, b):
        """Whether the integer map y = P m + p solves sum_i D_i y_i^2 =
        a value(m) + b for every m: value(m) = (m^T A m + B.m) / L in integers
        (scaled_basis), each coefficient cross-multiplied by L."""
        L, (*A, B) = scaled_basis([*self.a, self.b])
        t, k = list(zip(D, P, p)), range(len(A))
        return (all(L * sum(d * r[u] * r[v] for d, r, _ in t) == a * A[u][v] for u in k for v in k)
                and all(2 * L * sum(d * c * r[u] for d, r, c in t) == a * B[u] for u in k)
                and sum(d * c * c for d, _, c in t) == b)

    def coordinates(self, m):
        """Coordinates of the lattice point with basis coefficients m."""
        return tuple(Fraction(x, self.Q) for x in self.numerators(m))

    def level_coefficients(self, target):
        """Basis coefficients of every lattice point of value target, in the
        order of the points' coordinates (sorted by the integer key C m)."""
        return sorted(enumerate_quadratic_level(self.ball, target), key=self.numerators)

    def levels(self, lo, hi):
        """{n: level_coefficients(n)} for each integer level lo <= n < hi,
        from one walk of the ball's shell between D lo and D (hi - 1)
        (_IntegerBall.shell): each point is bucketed by its integer value t,
        at level t / D where D divides t, and each level sorted as
        level_coefficients sorts it."""
        if lo >= hi:
            return {}
        D, found = self.ball.D, {n: [] for n in range(lo, hi)}
        for t, m in self.ball.shell(D * lo, D * (hi - 1)):
            n, rem = divmod(t, D)
            if not rem:
                found[n].append(m)
        for points in found.values():
            points.sort(key=self.numerators)
        return found

    def level_numerators(self, target):
        """The integer rows C m of every lattice point of value target,
        sorted; the point's coordinates are C m / Q."""
        return sorted(map(self.numerators, enumerate_quadratic_level(self.ball, target)))

    def level(self, target):
        """Coordinates of every lattice point of value target, sorted: the
        rows of level_numerators, each divided by Q.  One Fraction is built
        per distinct numerator and shared by every point that has it."""
        numerators = self.level_numerators(target)
        shared = {x: Fraction(x, self.Q) for x in set().union(*numerators)}
        return [tuple(map(shared.__getitem__, c)) for c in numerators]

    def outer_values(self, target):
        """How many values the level search of target loops its outermost
        coordinate m_{k-1} over, in O(1): (r - c) // S + (r + c) // S + 1 for
        r = isqrt(R // e_{k-1}) of the whole budget R and c = c0_{k-1}
        (level_source).  The search does at least this much work.  The count
        is 0 for a target off the form's values or an R below 0, which are
        never searched, and below rank 2, where no coordinate is looped."""
        ball, T = self.ball, _integer_level(self.ball, target)
        if T is None or len(ball.e) < 2 or (R := ball.scale * T + ball.offset) < 0:
            return 0
        r, c = isqrt(R // ball.e[-1]), ball.c0[-1]
        return max(0, (r - c) // ball.S + (r + c) // ball.S + 1)
