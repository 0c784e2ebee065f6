"""Integer points of diagonal quadratic forms and finite group actions.

solve_diagonal is the solver every verifier uses: it searches all variables
but the last and decides that one by divisibility and isqrt.  Given a group,
it lists one canonical point per orbit instead, searching the group's
fundamental domain wherever every solution lies in its parity domain;
canonical and orbit_size give a point's canonical point and orbit size in
closed form, for every group, without building the orbit, and orbit lists
the orbit itself by formula; only FAIL witnesses, A2ext's tiling check and
orbit_partition build one.
H (signed permutations) reads its rank from the point; every other group
refuses a point whose length is not its rank (3 for G_A3, else 2), and D8
is H on two coordinates, sharing its rules.  C6 and G_A3 rotate by halved
integer matrices, which raise NonIntegralImage outside their parity domain.
solve_diagonal_meet is an independent meet-in-the-middle cross-check; the
brute-force search over every variable lives in the tests as an oracle.
"""

import itertools
import math
from collections import Counter
from math import isqrt

from .linalg import as_integers


class NonIntegralImage(ValueError):
    """A half-integer matrix was applied outside its parity domain."""


class NotClosed(ValueError):
    """The point set is not closed under the requested action."""


def solve_diagonal(form, k, group=None):
    """All integer tuples x with sum_i form[i] * x_i^2 = k, sorted.

    Loops over every variable but the last, in ascending order.  The last
    one is decided exactly: what is left must be form[-1] times a perfect
    square r^2, which gives -r before r (0 once), so the output is already
    in sorted order.

    With a group, whose action must leave the form invariant, only the
    canonical solutions, one per orbit (see canonical), sorted.  Each
    search below visits only canonical points and calls no canonical: V4 on
    (d1, d2) over x, y >= 0 (_solve_quadrant); H and D8 on an equal form
    over the non-increasing non-negative tuples (_solve_descending), and C4
    over those pairs, adding (x, -y) for each 0 < y < x; C6 on (d, 3d) at
    k/d = 0 (mod 4) over -x < 3y <= x (_solve_c6_sector); G_A3 on (1, 2, 3)
    at even k over x >= 3z >= 0 (_solve_ga3_sector).  Those levels of C6
    and G_A3 are exactly where U lies in the parity domain.  Any other input
    of C6 or G_A3 lists all of U (the search on the reversed form decides
    x_1 last) and keeps the points with x_1 >= 0 that are their own
    canonical point, as both groups negate x_1; canonical raises
    NonIntegralImage on the first such point off the parity domain, and the
    reversed order fixes which point that names: (2,-1) for C6 on (1, 3) at
    k = 7, and (2,0,-3) for G_A3 at k = 31, where lexicographic order would
    name (1,-3,-2).
    """
    form, (k,) = as_integers(form), as_integers([k])
    if any(d < 1 for d in form):
        raise ValueError("form coefficients must be positive")
    if group is not None:
        if group not in _INVARIANT:
            raise ValueError(f"unknown group {group!r}")
        if not _INVARIANT[group](form):
            raise NotClosed(f"the form {form} is not invariant under {group}")
    if k < 0:
        return []
    if group is None:
        return _solve_all(form, k)
    # At odd k every solution of (1, 2, 3) has x - z odd, so the filter
    # below raises NonIntegralImage from canonical, as orbit_partition does.
    if group == "G_A3" and form == (1, 2, 3) and k % 2 == 0:
        return _solve_ga3_sector(k)
    if group == "V4":
        return _solve_quadrant(*form, k)
    if group == "C6" and k % (4 * form[0]) == 0:
        return _solve_c6_sector(k // form[0])
    if group in ("H", "D8", "C4"):
        reps = _solve_descending(len(form), k // form[0]) if k % form[0] == 0 else []
        if group != "C4":
            return reps
        # C4's sector -x < y <= x adds (x, -y) before each (x, y) with 0 < y < x
        return [p for x, y in reps for p in ([(x, -y), (x, y)] if 0 < y < x else [(x, y)])]
    return sorted(p for p in (s[::-1] for s in _solve_all(form[::-1], k))
                  if p[0] >= 0 and p == canonical(group, p))


def _solve_all(form, k):
    if not form:
        return [()] if k == 0 else []
    *outer, last = form
    solutions = []

    def finish(head, q):
        r = isqrt(q)
        if r * r == q:
            solutions.extend((head + (-r,), head + (r,)) if r else (head + (0,),))

    def rec(head, remaining):
        d = outer[len(head)]
        bound = isqrt(remaining // d)
        if len(head) + 1 < len(outer):
            for x in range(-bound, bound + 1):
                rec(head + (x,), remaining - d * x * x)
            return
        for x in range(-bound, bound + 1):
            q, rem = divmod(remaining - d * x * x, last)
            if rem == 0:
                finish(head + (x,), q)

    if outer:
        rec((), k)
    elif k % last == 0:
        finish((), k // last)
    return solutions


def _solve_ga3_sector(k):
    """Solutions of x^2 + 2y^2 + 3z^2 = k, k even, in the sector x >= 3z >= 0,
    sorted.

    x >= 3z needs 12z^2 <= k, which bounds z.  An even k forces x = z (mod 2),
    so x steps by 2 from 3z, and y is decided by isqrt, -y before y.
    """
    solutions = []
    for z in range(isqrt(k // 12) + 1):
        rest = k - 3 * z * z
        for x in range(3 * z, isqrt(rest) + 1, 2):
            q = (rest - x * x) // 2
            y = isqrt(q)
            if y * y == q:
                solutions.extend(((x, -y, z), (x, y, z)) if y else ((x, 0, z),))
    solutions.sort()
    return solutions


def _solve_quadrant(d1, d2, k):
    """Solutions of d1 x^2 + d2 y^2 = k with x, y >= 0, sorted: x ascending,
    y decided by divisibility and isqrt."""
    solutions = []
    for x in range(isqrt(k // d1) + 1):
        q, rem = divmod(k - d1 * x * x, d2)
        y = isqrt(q)
        if rem == 0 and y * y == q:
            solutions.append((x, y))
    return solutions


def _solve_c6_sector(n):
    """Solutions of x^2 + 3y^2 = n, n = 0 (mod 4), in the sector -x < 3y <= x
    or at the origin, sorted.

    The sector needs 12y^2 <= n, which bounds y, and x > 0 is decided by
    isqrt.  n = 0 (mod 4) forces x = y (mod 2), C6's parity domain.
    """
    solutions = [(0, 0)] if n == 0 else []
    bound = isqrt(n // 12)
    for y in range(-bound, bound + 1):
        q = n - 3 * y * y
        x = isqrt(q)
        if x * x == q and -x < 3 * y <= x:
            solutions.append((x, y))
    solutions.sort()
    return solutions


def _solve_descending(n, k):
    """Non-increasing non-negative n-tuples with sum_i x_i^2 = k, sorted.

    A coordinate is at most the one before it, and at least the root of the
    mean of what is left, since it is the largest of the coordinates left.
    """
    solutions = []

    def rec(head, cap, remaining, left):
        if left == 1:
            r = isqrt(remaining)
            if r * r == remaining and r <= cap:
                solutions.append(head + (r,))
            return
        mean = -(-remaining // left)
        low = isqrt(mean - 1) + 1 if mean else 0
        for x in range(low, min(cap, isqrt(remaining)) + 1):
            rec(head + (x,), x, remaining - x * x, left - 1)

    rec((), k, k, n)
    return solutions


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
# rows (a, b, c, d) of [[a, b], [c, d]].
_R60 = ((2, 0, 0, 2), (1, -3, 1, 1), (-1, -3, 1, -1),
        (-2, 0, 0, -2), (-1, 3, -1, -1), (1, 3, -1, 1))


def _rotate60(point, x, z, k):
    """(x, sqrt(3) z) rotated through 60k degrees; NonIntegralImage when x - z
    is odd, which is outside point's domain."""
    if (x - z) % 2:
        raise NonIntegralImage(f"({','.join(map(str, point))}) is outside the parity domain")
    a, b, c, d = _R60[k]
    return ((a * x + b * z) // 2, (c * x + d * z) // 2)


def _rotations60(point, x, z):
    """The rotations of (x, sqrt(3) z) through 0, 60, ..., 300 degrees, in that order."""
    return [_rotate60(point, x, z, k) for k in range(6)]


def group_order(group, rank=None):
    if group == "H":
        if rank is None:
            raise ValueError("the hyperoctahedral group needs its rank")
        return (2 ** rank) * math.factorial(rank)
    if group not in _RANK:
        raise ValueError(f"unknown group {group!r}")
    return {"D8": 8, "C4": 4, "V4": 4, "C6": 6, "G_A3": 12}[group]


# Whether a group's action leaves a diagonal form invariant.
_INVARIANT = {
    "D8": lambda f: len(f) == 2 and f[0] == f[1],
    "C4": lambda f: len(f) == 2 and f[0] == f[1],
    "V4": lambda f: len(f) == 2,
    "C6": lambda f: len(f) == 2 and f[1] == 3 * f[0],
    "G_A3": lambda f: len(f) == 3 and f[2] == 3 * f[0],
    "H": lambda f: len(set(f)) == 1,
}


# The length of the points a fixed-rank group acts on; H takes any length.
_RANK = {"D8": 2, "C4": 2, "V4": 2, "C6": 2, "G_A3": 3}


def _point(group, point):
    """The point as a tuple; ValueError unless its length is the group's rank."""
    point = tuple(point)
    if len(point) != _RANK.get(group, len(point)):
        raise ValueError(f"{group} acts on points of length {_RANK[group]}, not on {point}")
    return point


def canonical(group, point):
    """The lexicographic maximum of the point's orbit, in closed form.

    H and D8: absolute values, non-increasing.  V4: absolute values.  C4:
    the rotation into the sector x > 0, -x < y <= x, or the origin.  C6: the
    rotation of (x, sqrt(3) y) into (-30, 30] degrees: the point's sector
    (60s - 30, 60s + 30] is read off the signs of x and x -+ 3y and turned
    back by -60s degrees (the origin falls through to s = 5).  G_A3 fixes y
    and adds z -> -z to the rotations of (x, sqrt(3) z): C6's result, |z|.
    """
    point = _point(group, point)
    if group in ("G_A3", "C6"):     # first, as the A3 sweep's hottest call
        x, z = point[0], point[-1]
        u, v = x - 3 * z, x + 3 * z
        s = (0 if u >= 0 < v else 1 if u < 0 <= x else 2 if x < 0 <= v
             else 3 if u <= 0 > v else 4 if x <= 0 < u else 5)
        x, z = _rotate60(point, x, z, -s)
        return (x, point[1], abs(z)) if group == "G_A3" else (x, z)
    if group in ("H", "D8"):
        return tuple(sorted(map(abs, point), reverse=True))
    if group == "V4":
        return (abs(point[0]), abs(point[1]))
    if group == "C4":
        x, y = point
        m = max(abs(x), abs(y))
        return ((x, y) if x == m and y != -m else (y, -x) if y == m
                else (-x, -y) if x == -m else (-y, x))
    raise ValueError(f"unknown group {group!r}")


def orbit_size(group, point):
    """The number of points in the point's orbit, from its stabiliser.

    H and D8: n!/prod(mult!) * 2^(non-zero entries), mult counting equal
    absolute values.  G_A3: 1 at x = z = 0, 6 on the boundary rays z = 0 and
    x = 3z of the canonical sector x >= 3z >= 0, 12 inside it, read off a
    sector point with x - z even (every representative) without canonical.
    V4: 4 halved for each zero coordinate.  C4 and C6: 1 at the origin, the
    group order elsewhere, as no rotation fixes another point; C6 reads a
    sector point -x < 3y <= x with x - y even (every representative) without
    canonical, which checks the parity domain of any other point.
    """
    if group == "G_A3":     # first, as the A3 sweep's hottest call
        if len(point) != 3 or not point[0] >= 3 * point[2] >= 0 or (point[0] - point[2]) % 2:
            point = canonical(group, point)
        x, _, z = point
        return 1 if x == z == 0 else 6 if z == 0 or x == 3 * z else 12
    point = _point(group, point)
    if group in ("H", "D8"):
        size = math.factorial(len(point)) * 2 ** sum(1 for x in point if x)
        for mult in Counter(map(abs, point)).values():
            size //= math.factorial(mult)
        return size
    if group == "V4":
        return 4 >> sum(1 for x in point if x == 0)
    if group == "C4":
        return 4 if any(point) else 1
    if group == "C6":
        x, y = point
        if x == y == 0:
            return 1
        if -x < 3 * y <= x and (x - y) % 2 == 0:
            return 6
    return group_order(group) if any(canonical(group, point)) else 1


def orbit(group, point):
    """The point's orbit as a set, by formula.

    H and D8: the signed permutations.  V4: the sign changes.  C4: the four
    quarter-turns.  C6: the rotations of (x, sqrt(3) y).  G_A3: those of
    (x, sqrt(3) z) and of (x, -sqrt(3) z), with y fixed.
    """
    point = _point(group, point)
    if group in ("H", "D8"):
        return {signed for perm in itertools.permutations(point)
                for signed in itertools.product(*((x, -x) for x in perm))}
    if group == "V4":
        return set(itertools.product(*((x, -x) for x in point)))
    if group == "C4":
        x, y = point
        return {(x, y), (-y, x), (-x, -y), (y, -x)}
    if group == "C6":
        return set(_rotations60(point, *point))
    if group == "G_A3":
        x, y, z = point
        return {(a, y, c) for s in (z, -z) for a, c in _rotations60(point, x, s)}
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
        orb = orbit(group, p)
        if not orb <= pool:
            raise NotClosed(f"orbit of {p} leaves the solution set")
        orbits.append(sorted(orb))
        seen |= orb
    return orbits


def is_action_free(group, solutions):
    """(True, None) when every orbit has full group size, else (False, the
    canonical point of the least undersized point).  One pass groups the points
    by canonical point; the set is closed when each class holds orbit_size
    points, else NotClosed names the least point of a short class."""
    classes = {}
    for p in sorted(set(map(tuple, solutions))):
        classes.setdefault(canonical(group, p), []).append(p)
    sizes = [(c, ps, orbit_size(group, c)) for c, ps in classes.items()]
    short = [ps[0] for c, ps, size in sizes if len(ps) < size]
    if short:
        raise NotClosed(f"orbit of {short[0]} leaves the solution set")
    small = [c for c, ps, size in sizes if size < group_order(group, len(c))]
    return (False, small[0]) if small else (True, None)
