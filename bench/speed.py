"""Interpreter speed of the machine, for reporting times at a reference speed.

Shared machines drift between speed states: the same corelat pass can take
twice as long a few seconds later.  The benchmark therefore runs a fixed
calibration loop between operations and scales every measured time by
REFERENCE_S / (the calibration time around it).  A reported second is a
second at the speed where one calibration loop takes REFERENCE_S; raw
times go to the run record.  Set-up times are scaled the same way by the
compile of a fixed module, against REFERENCE_COMPILE_S.  Neither
calibration calls corelat, so a change to corelat cannot move them.
"""

import time
from fractions import Fraction
from math import isqrt

REFERENCE_S = 0.0065
REFERENCE_COMPILE_S = 0.0085

# A fixed module for calibrate_compile(): set-up time is mostly compiling
# and importing, whose speed the loop below tracks less closely.
_MODULE = "".join(
    f"def f{i}(a, b=Fraction({i}, 7)):\n"
    f"    table = {{k: a * k + b for k in range({i})}}\n"
    f"    return sorted(table.items())[:{i % 5}]\n\n"
    for i in range(100))


def _search(form, k):
    found = []

    def rec(i, remaining, acc):
        if i == len(form):
            if remaining == 0:
                found.append(tuple(acc))
            return
        bound = isqrt(remaining // form[i])
        for x in range(-bound, bound + 1):
            rec(i + 1, remaining - form[i] * x * x, acc + [x])

    rec(0, k, [])
    return found


def calibration_loop():
    """Fixed work of the kinds corelat's layers do: a recursive integer
    search, Fraction arithmetic, and tuple, set and dict traffic."""
    points = _search((1, 2, 3), 318)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, i % 3 + 1)
    seen = set()
    counts = {}
    for x, y, z in points:
        for sign in (1, -1):
            image = (sign * x, z, y)
            seen.add(image)
            counts[image[1]] = counts.get(image[1], 0) + 1
    return total, sorted(seen)


def calibrate():
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def calibrate_compile():
    """Seconds one compile of the fixed module takes now."""
    start = time.perf_counter()
    compile(_MODULE, "<calibration>", "exec")
    return time.perf_counter() - start
