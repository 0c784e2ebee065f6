"""Slow reference implementations the fast kernels are tested against.

solve_diagonal_brute loops over every variable, the last one included.
enumerate_quadratic_ball_upto walks the whole completed-square ball in
Fraction arithmetic, and enumerate_quadratic_ball_level keeps the ball
points whose value equals the target.  Both are the original kernels of
diophantine and linalg, kept here unchanged as differential oracles.
"""

import math
from fractions import Fraction
from math import isqrt

from corelat.linalg import _ldl, solve_square


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
