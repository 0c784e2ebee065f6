"""Integer points of diagonal quadratic forms and finite group actions.

solve_diagonal is the solver every verifier uses.  Without a group it takes
the sign changes (_signs) of the solutions x >= 0, which one chain search
(_chain) lists, deciding the last variable by divisibility and isqrt.  Given
a group, it lists one canonical point per orbit instead, searching the group's
fundamental domain wherever every solution lies in its parity domain: the
chain search for V4, D8, C4, C6 and H, a sector search for G_A3 that steps
x by 8 through the residues mod 8 that can leave 2y^2 (a table indexed by
the rest mod 16, _GA3_SIEVE), never visiting the others.  Each group is
one row of GROUPS, a Group holding its rank, order, invariance test,
closed-form canonical and orbit_size, its orbit by formula, its solver
and its band solve; orbit_size reads the canonical point, so canonical is
the one closed form that takes any point.  Neither builds an orbit: only FAIL
witnesses, param's LevelData.solutions (read by the solve and table
commands and a3_strata) and the extended row's per-point test on a case
without the C6 certificate (layers_tile_c6) build one.  orbit_partition
and is_action_free read one pass (_classes) that groups the points by
canonical point.  The public canonical, orbit_size, orbit, group_order and
solve_diagonal check their input and call the row: H reads its rank from
the point, every other group refuses a point whose length is not its rank
(3 for G_A3, else 2), and solve_diagonal checks a (form, group) pair once.
param binds each case to its row once, so a claim check calls the row's
closed forms with no check per point.  D8 is H on two coordinates, sharing
its search; its canonical point (|a|, |b|) in non-increasing order, its
orbit size 8 halved for each zero coordinate and for |a| = |b|, and its
orbit, its eight signed permutations, are written out, and H's orbit is
built from the distinct arrangements of the absolute values.  C6 and G_A3
rotate by halved integer matrices, which raise NonIntegralImage outside
their parity domain; _to_sector60 checks the parity and rotates into the
canonical sector in one frame, and _rotations60 serves orbit.
solve_band serves a band of levels, the values k of an arithmetic
progression, from one walk of the group's sector across them: the rank-2
chain of V4, D8, C4 and C6 (_chain_band) and G_A3's sector
(_ga3_sector_band), each stepping its last variable through the residues
that put k on the progression (_square_residues).  Where any k of the band leaves the sector
path, and for H, it serves nothing, and each level is solved on its own.
solve_diagonal_meet is an independent meet-in-the-middle cross-check; the
brute-force search over every variable lives in the tests as an oracle.
"""

import itertools
import math
from math import isqrt

from .linalg import as_integers


class NonIntegralImage(ValueError):
    """A half-integer matrix was applied outside its parity domain."""


class NotClosed(ValueError):
    """The point set is not closed under the requested action."""


def solve_diagonal(form, k, group=None):
    """All integer tuples x with sum_i form[i] * x_i^2 = k, sorted.

    Every diagonal form is invariant under sign changes, so U is the sorted
    sign changes (_signs) of its points in the non-negative orthant, which
    the chain search below lists at r = 0; the empty form has () at k = 0.

    With a group, whose action must leave the form invariant, only the
    canonical solutions, one per orbit (see canonical), sorted, from the
    group's row; each search visits only canonical points and calls no
    canonical.  V4, D8, H, C4 and C6 share one chain search (_chain): the
    chains x_1 >= r x_2 >= ... >= r x_n >= 0, the rotation groups C4 and C6
    listing the mirror (x, -y) of each chain point strictly inside their
    sector (0 < r y < x) just before it:

        group   form          r   mirror
        none    any           0   no: all of U, the sign changes of the chain points
        V4      (d1, d2)      0   no
        D8, H   (d, ..., d)   1   no
        C4      (d, d)        1   yes
        C6      (d, 3d)       3   yes, at k/d = 0 (mod 4)

    As the chain bounds x_j by x_i / r^(j-i), x_i is at least the least x
    with x^2 T_i >= R r^(2(n-1-i)), R the budget left to it and T_i =
    sum_{j>=i} form[j] r^(2(n-1-j)): the root of the mean at r = 1.  G_A3
    on (1, 2, 3) at even k searches x >= 3z >= 0, x only in the residues
    mod 8 where 2y^2 = k - 3z^2 - x^2 can hold mod 16 (_solve_ga3_sector).
    Those levels of C6 and G_A3 are exactly where U lies in the parity
    domain.  Any other input of C6 or G_A3 lists all of U of the reversed
    form, sorted, reverses each point and keeps those with x_1 >= 0 that
    are their own canonical point, as both groups negate x_1;
    canonical raises NonIntegralImage on the first such point off the
    parity domain, and the reversed order fixes which point that names:
    (2,-1) for C6 on (1, 3) at k = 7, and (2,0,-3) for G_A3 at k = 31, where
    lexicographic order would name (1,-3,-2).

    A (form, group) pair is checked once (_solver) and its solve built once,
    kept in _SOLVERS; later calls check only k.
    """
    try:
        solve = _SOLVERS[form, group]
    except (KeyError, TypeError):       # a new pair, or a form that is a list
        solve = _solver(form, k, group)
    if type(k) is not int:
        (k,) = as_integers([k])
    return solve(k) if k >= 0 else []


# (the form's integers, group) -> the solve, a function of k, for every checked pair
_SOLVERS = {}


def _solver(form, k, group):
    """The _SOLVERS entry of a (form, group) pair, built once, after
    solve_diagonal's checks in order: the form's integers, k's, the signs, the group."""
    form, _ = as_integers(form), as_integers([k])
    if any(d < 1 for d in form):
        raise ValueError("form coefficients must be positive")
    if group is not None and not (row := _row(group)).invariant(form):
        raise NotClosed(f"the form {form} is not invariant under {group}")
    if (form, group) not in _SOLVERS:
        _SOLVERS[form, group] = _signed_chain(form) if group is None else row.solver(form)
    return _SOLVERS[form, group]


def solve_band(form, group, ks):
    """{k: solve_diagonal(form, k, group)} for each k of the range ks, whose
    step is positive, from one walk of the group's sector across the band:
    the rank-2 chain of V4, D8, C4 and C6 (_chain_band) and G_A3's sector
    (_ga3_sector_band).  None, so that each level solves on its own, unless
    the (form, group) pair passes _solver's checks and every k of the band
    takes the group's sector path: C6 at k = 0 (mod 4 form[0]), G_A3 on
    (1, 2, 3) at even k.  H, and no group, always solve level by level."""
    try:
        form = as_integers(form)
        if (form, group) not in _SOLVERS:
            _solver(form, 0, group)
    except ValueError:          # NotClosed too: each level raises it in turn
        return None
    band = group and GROUPS[group].band
    return None if not band else band(form, ks) if ks else {}


def _square_residues(d, step):
    """(p, table): p the least period of y -> d y^2 (mod step), and table[t]
    the residues y0 in 0..p-1 with d y0^2 = t (mod step), for t in 0..step-1."""
    p = next(p for p in range(1, step + 1)
             if step % p == 0 and 2 * d * p % step == 0 and d * p * p % step == 0)
    table = [[] for _ in range(step)]
    for y in range(p):
        table[d * y * y % step].append(y)
    return p, table


def _chain_band(form, r, mirror, ks):
    """_chain(form, r, mirror)(k) at rank 2 for each k of the range ks, from
    one walk: x ascending from its chain bound at the band's least k, and for
    each x the y >= 0 of the annulus lo <= d_1 x^2 + d_2 y^2 <= top with
    r y <= x, stepped through the residues (_square_residues) that put k on
    the band's progression.  Each k meets at most one y per x, so every
    list comes in the chain's order."""
    (d1, d2), found = form, {k: [] for k in ks}
    lo, top, step = ks[0], ks[-1], ks.step
    if top < 0:
        return found
    period, residues = _square_residues(d2, step)
    m = -(-max(lo, 0) * r * r // (d1 * r * r + d2))
    for x in range(isqrt(m - 1) + 1 if m else 0, isqrt(top // d1) + 1):
        base = d1 * x * x
        high, need = isqrt((top - base) // d2), lo - base
        if r and x // r < high:
            high = x // r
        low = isqrt((need - 1) // d2) + 1 if need > 0 else 0
        for y0 in residues[need % step]:
            for y in range(low + (y0 - low) % period, high + 1, period):
                points = found[base + d2 * y * y]
                if mirror and 0 < r * y < x:
                    points.append((x, -y))
                points.append((x, y))
    return found


def _signed_chain(form):
    """solve_diagonal's solve without a group, a function of k."""
    if not form:
        return lambda k: [()] if k == 0 else []
    chain = _chain(form, 0)
    return lambda k: sorted(s for p in chain(k) for s in _signs(p))


def _signs(p):
    """The sign changes of p, each once: x and -x where x is not 0."""
    return itertools.product(*((-x, x) if x else (0,) for x in p))


# _GA3_SIEVE[rest % 16]: the residues a (mod 8) of x for which (rest - x^2) / 2
# is an integer and a square mod 8 (0, 1 or 4), a quadratic-residue test for
# squares (Cohen, A Course in Computational Algebraic Number Theory, 1.7.2);
# x^2 mod 16 depends on x mod 8 only
_GA3_SIEVE = tuple(tuple(a for a in range(8) if (r - a * a) % 16 in (0, 2, 8))
                   for r in range(16))


def _solve_ga3_sector(k):
    """Solutions of x^2 + 2y^2 + 3z^2 = k, k even, in the sector x >= 3z >= 0,
    sorted.

    x >= 3z needs 12z^2 <= k, which bounds z.  For each z, with
    rest = k - 3z^2, x runs from 3z in steps of 8 through the residues mod 8
    of _GA3_SIEVE[rest % 16] only, where 2y^2 = rest - x^2 can hold mod 16
    (at even k each has x = z mod 2), and y is decided by isqrt, -y before y.
    """
    solutions = []
    for z in range(isqrt(k // 12) + 1):
        rest = k - 3 * z * z
        low, top = 3 * z, isqrt(rest) + 1
        for a in _GA3_SIEVE[rest % 16]:
            for x in range(low + (a - low) % 8, top, 8):
                q = (rest - x * x) >> 1
                y = isqrt(q)
                if y * y == q:
                    solutions.extend(((x, -y, z), (x, y, z)) if y else ((x, 0, z),))
    solutions.sort()
    return solutions


def _ga3_sector_band(ks):
    """_solve_ga3_sector(k) for each even k of the range ks, from one walk
    of the sector x >= 3z >= 0: z and x as there, x through _GA3_SIEVE when
    the step is a multiple of 16, which fixes k - 3z^2 mod 16 across the
    band, else through x = z (mod 2), and y >= 0 across the band's annulus
    in the residues (_square_residues) that put k on its progression."""
    found = {k: [] for k in ks}
    lo, top, step = ks[0], ks[-1], ks.step
    if top < 0:
        return found
    period, residues = _square_residues(2, step)
    for z in range(isqrt(top // 12) + 1):
        zz = 3 * z * z
        low_x, top_x = 3 * z, isqrt(top - zz) + 1
        for a in _GA3_SIEVE[(lo - zz) % 16] if step % 16 == 0 else range(z % 2, 8, 2):
            for x in range(low_x + (a - low_x) % 8, top_x, 8):
                base = zz + x * x
                high, need = isqrt((top - base) >> 1), lo - base
                low = isqrt((need - 1) >> 1) + 1 if need > 0 else 0
                if low > high:
                    continue
                for y0 in residues[need % step]:
                    for y in range(low + (y0 - low) % period, high + 1, period):
                        found[base + 2 * y * y].extend(
                            ((x, -y, z), (x, y, z)) if y else ((x, 0, z),))
    for points in found.values():
        points.sort()
    return found


def solve_diagonal_meet(form, k):
    """Independent meet-in-the-middle implementation of solve_diagonal."""
    form, (k,) = as_integers(form), as_integers([k])
    if k < 0:
        return []
    split = max(1, len(form) // 2)
    left, right = form[:split], form[split:]

    def values(part):
        table = {}
        ranges = [range(-isqrt(k // d), isqrt(k // d) + 1) for d in part]
        for xs in itertools.product(*ranges):
            v = sum(d * x * x for d, x in zip(part, xs))
            if v <= k:
                table.setdefault(v, []).append(xs)
        return table

    lhs = values(left)
    out = []
    if right:
        rhs = values(right)
        for v, xs_list in lhs.items():
            for ys in rhs.get(k - v, ()):
                out.extend(xs + ys for xs in xs_list)
    else:
        out = list(lhs.get(k, ()))
    return sorted(out)


# ---------------------------------------------------------------------------
# Group actions


# Twice the rotation of (x, sqrt(3) z) through 60k degrees, k = 0..5, as the
# rows (a, b, c, d) of [[a, b], [c, d]]: C6 on the form (d, 3d) as integer
# matrices over 2, which param compares with a case's layer transforms.
R60 = ((2, 0, 0, 2), (1, -3, 1, 1), (-1, -3, 1, -1),
        (-2, 0, 0, -2), (-1, 3, -1, -1), (1, 3, -1, 1))


def _rotations60(point, x, z):
    """The rotations of (x, sqrt(3) z) through 0, 60, ..., 300 degrees, in
    that order; NonIntegralImage when x - z is odd, which is outside point's
    domain."""
    if (x - z) % 2:
        raise NonIntegralImage(f"({','.join(map(str, point))}) is outside the parity domain")
    return [((a * x + b * z) // 2, (c * x + d * z) // 2) for a, b, c, d in R60]


def _to_sector60(point, x, z):
    """(x, sqrt(3) z) rotated into (-30, 30] degrees, where the largest
    rotation lies: the point's sector (60s - 30, 60s + 30] is read off the
    signs of x and u, v = x -+ 3z and turned back by -60s degrees, R60[-s]
    written out on u and v (the origin falls through to s = 5).
    NonIntegralImage, as _rotations60, when x - z is odd."""
    if (x - z) % 2:
        raise NonIntegralImage(f"({','.join(map(str, point))}) is outside the parity domain")
    u, v = x - 3 * z, x + 3 * z
    if u >= 0 < v:
        return x, z
    if u < 0 <= x:
        return v // 2, (z - x) // 2
    if x < 0 <= v:
        return -u // 2, (-x - z) // 2
    if u <= 0 > v:
        return -x, -z
    if x <= 0 < u:
        return -v // 2, (x - z) // 2
    return u // 2, (x + z) // 2


def _c6_canonical(point):
    return _to_sector60(point, *point)


def _ga3_canonical(point):
    x, y, z = point
    x, z = _to_sector60(point, x, z)
    return (x, y, abs(z))


def _c4_canonical(point):
    x, y = point
    m = max(abs(x), abs(y))
    return ((x, y) if x == m and y != -m else (y, -x) if y == m
            else (-x, -y) if x == -m else (-y, x))


def _h_orbit_size(point):
    """n! 2^(non-zero entries) / prod(mult!): over the canonical point's
    absolute values, non-increasing, the i-th entry of a run of equal ones
    divides by i, so a run of mult divides by mult! one exact step at a time."""
    size, run, last = math.factorial(len(point)) << (len(point) - point.count(0)), 1, None
    for x in point:
        if x == last:
            run += 1
            size //= run
        else:
            run, last = 1, x
    return size


def _chain(form, r, mirror=False):
    """solve_diagonal's chain search on the form, a function of k; with mirror
    (rank 2), (x, -y) just before each (x, y) with 0 < r y < x.  x_i runs from
    its lower bound up to isqrt(R // form[i]) and, for r >= 1, x_{i-1} // r;
    the last coordinate is decided by divisibility and isqrt, r x_n <= x_{n-1}."""
    n, last = len(form), form[-1]
    if n == 1:      # the root >= 0, if any
        return lambda k: [(y,)] if last * (y := isqrt(k // last)) ** 2 == k else []
    scale = [r ** (2 * (n - 1 - i)) for i in range(n)]
    steps = [(d, s, sum(e * u for e, u in zip(form[i:], scale[i:])))
             for i, (d, s) in enumerate(zip(form, scale))]

    def rec(out, head, i, left, prev):
        d, s, t = steps[i]
        m, high = -(-left * s // t), isqrt(left // d)
        if r and prev // r < high:
            high = prev // r
        xs = range(isqrt(m - 1) + 1 if m else 0, high + 1)
        if i < n - 2:
            for x in xs:
                rec(out, head + (x,), i + 1, left - d * x * x, x)
            return out
        for x in xs:
            q, rem = divmod(left - d * x * x, last)
            if rem == 0 and (y := isqrt(q)) * y == q and r * y <= x:
                if mirror and 0 < r * y < x:
                    out.append(head + (x, -y))
                out.append(head + (x, y))
        return out

    return lambda k: rec([], (), 0, k, r * k)     # prev // r = k: no chain bound on x_1


def _c6_solver(form):
    sector, every = _chain(form, 3, True), _own_canonical(_c6_canonical, form)
    domain = 4 * form[0]
    return lambda k: every(k) if k % domain else sector(k)


def _c6_band(form, ks):
    domain = 4 * form[0]
    return None if any(k % domain for k in ks) else _chain_band(form, 3, True, ks)


def _ga3_band(form, ks):
    return _ga3_sector_band(ks) if form == (1, 2, 3) and not any(k % 2 for k in ks) else None


def _ga3_solver(form):
    # At odd k every solution of (1, 2, 3) has x - z odd, so the filter
    # raises NonIntegralImage from canonical, as orbit_partition does.
    every = _own_canonical(_ga3_canonical, form)
    if form != (1, 2, 3):
        return every
    return lambda k: every(k) if k % 2 else _solve_ga3_sector(k)


def _own_canonical(canonical, form):
    """The solve listing the solutions with x_1 >= 0 that are their own
    canonical point, sorted, tested in the sorted order of U of the reversed form."""
    every = _signed_chain(form[::-1])
    return lambda k: sorted(p for p in (s[::-1] for s in every(k))
                            if p[0] >= 0 and p == canonical(p))


class Group:
    """One row of GROUPS.  rank is the length of the points the group acts
    on (None for H, which reads it from the point) and order(rank) its order;
    invariant(form) tests a form's length and coefficients.  canonical and
    orbit take a tuple of the rank's length, unchecked, orbit_size that
    tuple's canonical point, and solver(form) an invariant form of positive
    ints, returning its solve, a function of k >= 0; band(form, ks), for
    the same form and a range ks, is solve_band's walk, or None where the
    band leaves the sector, and the row's band is None for a group without
    one (H).  So canonical is the one closed form that reads any point, and
    the one place where sizing an orbit can raise NonIntegralImage."""

    def __init__(self, rank, order, invariant, canonical, orbit_size, orbit, solver, band=None):
        self.rank, self.order, self.invariant, self.solver = rank, order, invariant, solver
        self.canonical, self.orbit_size, self.orbit = canonical, orbit_size, orbit
        self.band = band


def _arrangements(values):
    """The distinct arrangements of the sorted list values, each once, in
    ascending order: the next-permutation step swaps the last ascent's head
    for the least larger entry after it and reverses the tail."""
    values, last = list(values), len(values) - 1
    while True:
        yield tuple(values)
        i = last - 1
        while i >= 0 and values[i] >= values[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while values[j] <= values[i]:
            j -= 1
        values[i], values[j] = values[j], values[i]
        values[i + 1:] = values[:i:-1]


def _d8_orbit(point):
    a, b = point
    return {(a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)}


# Orbits by formula: the signed permutations for H, the sign changes of each
# distinct arrangement of the absolute values, each point once, and for D8
# the eight of them written out; the sign changes for V4, the quarter-turns
# for C4, the rotations of (x, sqrt(3) y) for C6, and for G_A3 those of
# (x, sqrt(3) z) and (x, -sqrt(3) z), y fixed.
GROUPS = {
    "V4": Group(2, lambda n: 4, lambda f: len(f) == 2, lambda p: (abs(p[0]), abs(p[1])),
                lambda p: 4 >> ((p[0] == 0) + (p[1] == 0)),
                lambda p: set(_signs(p)), lambda f: _chain(f, 0),
                lambda f, ks: _chain_band(f, 0, False, ks)),
    "D8": Group(2, lambda n: 8, lambda f: len(f) == 2 and f[0] == f[1],
                lambda p: (a, b) if (a := abs(p[0])) >= (b := abs(p[1])) else (b, a),
                lambda p: 8 >> ((p[0] == 0) + (p[1] == 0) + (p[0] == p[1])),
                _d8_orbit, lambda f: _chain(f, 1), lambda f, ks: _chain_band(f, 1, False, ks)),
    "C4": Group(2, lambda n: 4, lambda f: len(f) == 2 and f[0] == f[1], _c4_canonical,
                lambda p: 4 if any(p) else 1,
                lambda p: {p, (-p[1], p[0]), (-p[0], -p[1]), (p[1], -p[0])},
                lambda f: _chain(f, 1, True), lambda f, ks: _chain_band(f, 1, True, ks)),
    "C6": Group(2, lambda n: 6, lambda f: len(f) == 2 and f[1] == 3 * f[0], _c6_canonical,
                lambda p: 6 if any(p) else 1, lambda p: set(_rotations60(p, *p)), _c6_solver,
                _c6_band),
    "G_A3": Group(3, lambda n: 12, lambda f: len(f) == 3 and f[2] == 3 * f[0], _ga3_canonical,
                  lambda p: 1 if p[0] == 0 else 6 if p[2] == 0 or p[0] == 3 * p[2] else 12,
                  lambda p: {(a, p[1], c) for s in (p[2], -p[2]) for a, c in _rotations60(p, p[0], s)},
                  _ga3_solver, _ga3_band),
    "H": Group(None, lambda n: 2 ** n * math.factorial(n), lambda f: len(set(f)) == 1,
               lambda p: tuple(sorted(map(abs, p), reverse=True)), _h_orbit_size,
               lambda p: {s for a in _arrangements(sorted(map(abs, p))) for s in _signs(a)},
               lambda f: _chain(f, 1)),
}


def _row(group):
    row = GROUPS.get(group)
    if row is None:
        raise ValueError(f"unknown group {group!r}")
    return row


def _checked(group, point):
    """(the group's row, the point as a tuple); ValueError for an unknown
    group or a point whose length is not the group's rank."""
    row, point = _row(group), tuple(point)
    if len(point) != (row.rank or len(point)):
        raise ValueError(f"{group} acts on points of length {row.rank}, not on {point}")
    return row, point


def group_order(group, rank=None):
    if group == "H" and rank is None:
        raise ValueError("the hyperoctahedral group needs its rank")
    return _row(group).order(rank)


def canonical(group, point):
    """The lexicographic maximum of the point's orbit, in closed form.

    H and D8: absolute values, non-increasing.  V4: absolute values.  C4:
    the rotation into the sector x > 0, -x < y <= x, or the origin.  C6: the
    rotation of (x, sqrt(3) y) into (-30, 30] degrees (_to_sector60).  G_A3
    fixes y and adds z -> -z to the rotations of (x, sqrt(3) z): C6's
    result, |z|.
    """
    row, point = _checked(group, point)
    return row.canonical(point)


def orbit_size(group, point):
    """The number of points in the point's orbit, from its stabiliser, read
    by the row off the point's canonical point, which also checks the parity
    domain of C6 and G_A3.

    H: n!/prod(mult!) * 2^(non-zero entries), mult counting equal absolute
    values; D8: 8, halved for each zero entry and for |a| = |b|.  G_A3: 1 at
    the origin x = z = 0, 6 on the boundary rays z = 0 and x = 3z of the
    canonical sector x >= 3z >= 0, 12 inside it.  V4: 4 halved for each zero
    coordinate.  C4 and C6: 1 at the origin, the group order elsewhere, as no
    rotation fixes another point.
    """
    row, point = _checked(group, point)
    return row.orbit_size(row.canonical(point))


def orbit(group, point):
    """The point's orbit as a set, by formula (the comment on GROUPS)."""
    row, point = _checked(group, point)
    return row.orbit(point)


def _classes(group, solutions):
    """The distinct points grouped by canonical point, each class sorted, in
    the order of their least points: the orbits of a closed set.  NotClosed
    names the least point of the first class that holds fewer points than
    its orbit_size."""
    classes = {}
    for p in sorted(set(map(tuple, solutions))):
        classes.setdefault(canonical(group, p), []).append(p)
    for c, ps in classes.items():
        if len(ps) < GROUPS[group].orbit_size(c):
            raise NotClosed(f"orbit of {ps[0]} leaves the solution set")
    return classes


def orbit_partition(group, solutions):
    """Partition a closed solution set into orbits, each sorted, sorted by
    their minima: the classes of _classes, so no orbit is built."""
    return list(_classes(group, solutions).values())


def is_action_free(group, solutions):
    """(True, None) when every orbit has full group size, else (False, the
    canonical point of the first undersized orbit, in the order of their
    least points).  One pass (_classes) groups the points by canonical
    point, so no orbit is built."""
    small = [c for c, ps in _classes(group, solutions).items() if len(ps) < group_order(group, len(c))]
    return (False, small[0]) if small else (True, None)
