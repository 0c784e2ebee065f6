"""Partition combinatorics: hooks, abaci/charges, cores and the lattice models.

Partitions are plain tuples of weakly decreasing positive integers.  The
d-charge convention is fixed by beta-numbers: take the first K values
lambda_i - i (K a multiple of d, at least the number of parts); the charge
entry of runner j is the count of beta-numbers congruent to j mod d, minus
K/d.  This normalises the empty partition to the zero charge and is the
convention under which a type-A charge equals the corresponding lattice
point in the epsilon-basis.

A d-core is its charge: core_from_charge and charge_of_core are inverse
bijections between d-cores and sum-zero integer d-vectors, under which the
size of a core is the quadratic form _size_form of its charge.  The d-cores
of size n are level n of that form; the self-conjugate ones, whose charges
satisfy c_r = -c_{d-1-r}, are level n of its restriction to that sublattice.
"""

from fractions import Fraction
from functools import lru_cache

from . import linalg


class NotACore(ValueError):
    pass


class BadCharge(ValueError):
    pass


class InternalInconsistency(AssertionError):
    """A constructed partition failed a shape check that should be automatic."""


def validate_partition(parts):
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def size(parts):
    return sum(parts)


def conjugate(parts):
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def is_self_conjugate(parts):
    return tuple(parts) == conjugate(parts)


def diagonal_length(parts):
    return sum(1 for i, p in enumerate(parts) if p >= i + 1)


def hook_lengths(parts):
    """All hook lengths, row by row."""
    conj = conjugate(parts)
    return [
        [parts[r] - c + conj[c - 1] - r for c in range(1, parts[r] + 1)]
        for r in range(len(parts))
    ]


def is_d_core(parts, d):
    """True when no box has hook length d.

    For cores this is equivalent to having no hook length divisible by d.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    return all(h != d for row in hook_lengths(parts) for h in row)


def residue_count(parts, d, i):
    """Number of boxes (r, c) with c - r = i mod d."""
    if not 0 <= i < d:
        raise ValueError("residue outside 0..d-1")
    count = 0
    for r, part in enumerate(parts, start=1):
        for c in range(1, part + 1):
            if (c - r) % d == i:
                count += 1
    return count


def format_partition(parts):
    return ",".join(str(p) for p in parts) if parts else "-"


def parse_partition(text):
    text = text.strip()
    if text in ("", "-"):
        return ()
    return validate_partition(int(tok) for tok in text.split(","))


# ---------------------------------------------------------------------------
# Abacus / charge


def charge_of_core(d, parts):
    """The d-charge of a d-core; entries sum to zero."""
    parts = tuple(parts)
    if not is_d_core(parts, d):
        raise NotACore(f"{parts} has a hook of length {d}")
    k = len(parts)
    window = d * (k // d + 1)
    counts = [0] * d
    for i in range(window):
        beta = (parts[i] if i < k else 0) - (i + 1)
        counts[beta % d] += 1
    shift = window // d
    return tuple(c - shift for c in counts)


def core_from_charge(d, charge):
    """Inverse of charge_of_core; exact round trip on every d-core."""
    charge = tuple(int(c) for c in charge)
    if len(charge) != d:
        raise BadCharge(f"expected {d} entries, got {len(charge)}")
    if sum(charge) != 0:
        raise BadCharge("charge entries must sum to 0")
    t0 = min(charge)
    beads = sorted(
        (d * t + j for j, c in enumerate(charge) for t in range(t0, c)),
        reverse=True,
    )
    # all abacus positions below d*t0 are filled, and sum(charge)=0 makes
    # their contribution vanish, so only the explicit beads produce parts
    parts = tuple(p for p in (bead + i for i, bead in enumerate(beads, start=1)) if p > 0)
    return parts


# ---------------------------------------------------------------------------
# Enumeration


def partitions_of(n):
    """All partitions of n, descending-part tuples (ascending lex order)."""
    result = []

    def rec(remaining, maximum, acc):
        if remaining == 0:
            result.append(tuple(acc))
            return
        for p in range(min(remaining, maximum), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, n if n else 1, [])
    return sorted(result)


@lru_cache(maxsize=None)
def _size_form(d, self_conjugate=False):
    """size(core_from_charge(d, c)) as a linalg.QuadraticForm on the
    sum-zero charge lattice, or on its self-conjugate sublattice
    c_r = -c_{d-1-r} (basis e_j - e_{d-1-j}, j < d//2; the middle entry of
    an odd d is 0): (d/2) sum c_r^2 + sum r*c_r."""
    if self_conjugate:
        pairs = [(j, d - 1 - j) for j in range(d // 2)]
    else:
        pairs = [(j, d - 1) for j in range(d - 1)]
    basis = [[(r == j) - (r == k) for r in range(d)] for j, k in pairs]
    return linalg.QuadraticForm.on_basis(
        basis, Fraction(d, 2), lambda c: sum(r * x for r, x in enumerate(c)))


def _cores_of_size(n, d, self_conjugate=False):
    """All d-cores of size n, or the self-conjugate ones, through charge
    space (complete via the exact positive-definite enumeration of the size
    quadratic)."""
    return sorted(core_from_charge(d, charge)
                  for charge in _size_form(d, self_conjugate).level(n))


def enumerate_partitions(n, kind="all", d=None):
    """Partitions of n passing the filter, duplicate-free and sorted.

    kind: 'all', 'core', 'scc' (self-conjugate d-core) or 'scc-plus'
    (additionally an even number of diagonal boxes).
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if kind == "all":
        return partitions_of(n)
    if d is None or d < 2:
        raise ValueError("kind %r needs d >= 2" % kind)
    if kind == "core":
        return _cores_of_size(n, d)
    if kind in ("scc", "scc-plus"):
        out = _cores_of_size(n, d, self_conjugate=True)
        if kind == "scc-plus":
            out = [p for p in out if diagonal_length(p) % 2 == 0]
        return out
    raise ValueError(f"unknown filter {kind!r}")


# ---------------------------------------------------------------------------
# Weighted sizes of the self-conjugate-core models

WEIGHT_RULES = ("C", "Dt", "Aeven", "B", "Aodd", "D", "G2", "D43")


# Coefficients (on |lambda|, |lambda|_0, |lambda|_special) of each rule.
# The two twisted full-SCC rules (Dt, Aeven) carry a plus sign on the 0-boxes:
# these cofficients are pinned, uniquely within half-integer combinations of
# the three counts, by multiset equality against the corresponding atomic
# lengths at two consecutive ranks.
_RULE_COEFFS = {
    "C": (Fraction(1), Fraction(0), Fraction(0)),
    "Dt": (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    "Aeven": (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    "B": (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
    "Aodd": (Fraction(1, 2), Fraction(-1, 2), Fraction(0)),
    "D": (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)),
    "G2": (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
    "D43": (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)),
}


def weighted_size(rule, parts, n):
    """Model-specific weighted size; the domain of the rule is not checked."""
    if rule not in WEIGHT_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    a, b, c = _RULE_COEFFS[rule]
    total = Fraction(size(parts))
    if b == 0 and c == 0:
        return a * total
    d, special = (6, 3) if rule in ("G2", "D43") else (2 * n, n)
    return (a * total
            + b * residue_count(parts, d, 0)
            + c * residue_count(parts, d, special))


# ---------------------------------------------------------------------------
# Bar partitions / doubled-distinct diagrams


def is_strict(parts):
    return all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


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
