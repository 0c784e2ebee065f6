"""Partition combinatorics: hooks, abaci/charges, cores and the lattice models.

Partitions are plain tuples of weakly decreasing positive integers; a
function that reads one checks it (validate_partition), so any other input
is a ValueError.  Every partition this module builds or reads is a bead set
of an abacus, its beta-numbers lambda_i - i (i >= 1); a finite bead set B
stands for B and every position below -|B|.  _beads lists a partition's
first k beads and _partition reads the partition off a bead set.  The
d-charge counts the first K beads (K a multiple of d, at least the number
of parts) by runner: entry j is the count congruent to j mod d, minus K/d.
This normalises the empty partition to the zero charge and is the
convention under which a type-A charge equals the corresponding lattice
point in the epsilon-basis.

A d-core is its charge: core_from_charge and charge_of_core are inverse
bijections between d-cores and sum-zero integer d-vectors, under which the
size of a core is the atomic length of its charge, a point of the lattice M
of A_{d-1}^(1).  The self-conjugate d-cores are those whose charges satisfy
c_r = -c_{d-1-r}, and on that sublattice the size is an atomic length too:
of C_k^(1) at Lambda_0 for d = 2k (coefficients m, charge (m, -reversed m))
and of A_{2k}^(2) at Lambda_k for d = 2k + 1 (charge (-reversed m, 0, m)).
Every 2-core is self-conjugate.  So the cores of size n are level n of a
registry form (atomic.length_form), and a d beyond the registry's ranks
(above 51, or 100 for even self-conjugate cores) is refused as
dynkin.UnknownType.

The lattice models are positive bead sets.  The bar partition of a rank-n
point q is the positive beads of its (2n+2)-charge, whose core is that bar
partition's doubled diagram; the D_4^(3) partition of (q_1, q_2) is the
positive beads of a 4-abacus with runner counts (m_0 + 1, m_1, |q_1|, m_-1).

hook_lengths and conjugate are public API, the hooks the package lists
among its features, though no other module calls them.
"""

from fractions import Fraction

from . import atomic, dynkin, linalg


class NotACore(ValueError):
    pass


class BadCharge(ValueError):
    pass


def validate_partition(parts):
    parts = linalg.as_integers(parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def size(parts):
    return sum(parts)


def conjugate(parts):
    parts = validate_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def diagonal_length(parts):
    return sum(1 for i, p in enumerate(parts) if p >= i + 1)


def hook_lengths(parts):
    """All hook lengths, row by row."""
    parts = validate_partition(parts)
    conj = conjugate(parts)
    return [
        [parts[r] - c + conj[c - 1] - r for c in range(1, parts[r] + 1)]
        for r in range(len(parts))
    ]


def is_d_core(parts, d):
    """True when no box has hook length d: no bead slides d down into a gap.

    For cores this is equivalent to having no hook length divisible by d.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    beads = set(_beads(validate_partition(parts)))
    return all(b - d in beads or b - d < -len(beads) for b in beads)


def residue_count(parts, d, i):
    """Number of boxes (r, c) with c - r = i mod d."""
    if not 0 <= i < d:
        raise ValueError("residue outside 0..d-1")
    parts, count = validate_partition(parts), 0
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


def _beads(parts, k=None):
    """The first k beta-numbers (k defaults to the number of parts), decreasing."""
    k = len(parts) if k is None else k
    return [(parts[i] if i < len(parts) else 0) - (i + 1) for i in range(k)]


def _partition(beads):
    """The partition of the decreasing beads and every position below -len(beads)."""
    return tuple(p for p in (b + i for i, b in enumerate(beads, start=1)) if p > 0)


def _abacus(d, counts, low=0):
    """The beads d*t + j with low <= t < counts[j] of a d-abacus, decreasing."""
    return sorted((d * t + j for j, c in enumerate(counts) for t in range(low, c)),
                  reverse=True)


def charge_of_core(d, parts):
    """The d-charge of a d-core; entries sum to zero."""
    parts = validate_partition(parts)
    if not is_d_core(parts, d):
        raise NotACore(f"{parts} has a hook of length {d}")
    window = d * (len(parts) // d + 1)
    counts = [0] * d
    for b in _beads(parts, window):
        counts[b % d] += 1
    return tuple(c - window // d for c in counts)


def core_from_charge(d, charge):
    """Inverse of charge_of_core; exact round trip on every d-core."""
    if d < 1:
        raise BadCharge(f"d must be at least 1, got {d}")
    charge = linalg.as_integers(charge)
    if len(charge) != d:
        raise BadCharge(f"expected {d} entries, got {len(charge)}")
    if sum(charge) != 0:
        raise BadCharge("charge entries must sum to 0")
    # sum(charge) = 0 makes len(beads) = -d * min(charge), so _partition fills
    # every row below min(charge), as the abacus of the charge does
    return _partition(_abacus(d, charge, min(charge)))


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


def _cores_of_size(n, d, self_conjugate=False):
    """All d-cores of size n, or the self-conjugate ones, as level n of the
    atomic length on their charges (module docstring); ValueError for a d
    that is not an integer."""
    d, = linalg.as_integers((d,))
    k = d // 2
    cap = 2 * dynkin.MAX_RANK_LABEL if self_conjugate and d % 2 == 0 else dynkin.MAX_RANK_LABEL + 1
    if d > cap:
        kind = f"{('even', 'odd')[d % 2]} self-conjugate d-cores" if self_conjugate else "d-cores"
        raise dynkin.UnknownType(f"d = {d} is above the largest supported for {kind}, {cap}")
    if not self_conjugate or d == 2:
        charges = atomic.length_form(f"A{d - 1}_1", 0, "M").level(n)
    elif d % 2 == 0:
        charges = (m + tuple(-x for x in reversed(m))
                   for m in atomic.length_form(f"C{k}_1", 0, "M").level_coefficients(n))
    else:
        charges = (tuple(-x for x in reversed(m)) + (0,) + m
                   for m in atomic.length_form(f"A{d - 1}_2", k, "M").level_coefficients(n))
    return sorted(core_from_charge(d, charge) for charge in charges)


def enumerate_partitions(n, kind="all", d=None):
    """Partitions of n passing the filter, duplicate-free and sorted.

    kind: 'all', 'core', 'scc' (self-conjugate d-core) or 'scc-plus'
    (additionally an even number of diagonal boxes).  n is read through
    linalg.as_integers, so 3.0 is 3 and 2.5 a ValueError for every kind.
    """
    n, = linalg.as_integers((n,))
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

WEIGHT_RULES = tuple(_RULE_COEFFS)


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
    """The doubled diagram of a strict partition, with Frobenius symbol
    (lambda_i | lambda_i - 1): its beads are the parts and the positions
    -lambda_1..-1 other than the -lambda_i."""
    parts = tuple(parts)
    if not is_strict(parts):
        raise ValueError("doubled diagram needs distinct parts")
    top = parts[0] if parts else 0
    return _partition(list(parts) + [-j for j in range(1, top + 1) if j not in parts])


def bar_from_doubled(doubled):
    """Recover the strict partition from its doubled diagram, or None: the
    positive beads, if their doubled diagram is the one given."""
    doubled = tuple(doubled)
    parts = tuple(b for b in _beads(doubled) if b > 0)
    return parts if is_strict(parts) and doubled_distinct(parts) == doubled else None


def bar_core_from_lattice(n, q):
    """Bar-partition model for the rank-n type with h = n+1 and M = Z^n stored.

    The point q = (q_1..q_n) defines the (2n+2)-charge
    (0, q_1..q_n, 0, -q_n..-q_1); its core is a doubled diagram, and the bar
    partition is its positive beads.  The bar partition's size equals the
    atomic length of q.
    """
    q = linalg.as_integers(q)
    if len(q) != n:
        raise ValueError(f"expected {n} coordinates")
    charge = (0,) + q + (0,) + tuple(-x for x in reversed(q))
    # the beads at t >= 0 are the positive ones, since runner 0 holds none
    return tuple(_abacus(2 * n + 2, charge))


def d4flat_from_lattice(q):
    """Partition model attached to the rank-2 twist-3 lattice point (q_1, q_2).

    Part counts by residue mod 4 are m_2 = |q_1|, (m_1, m_-1) driven by the
    sign of q_2, and m_0 by q_1 + q_2; the parts are the positive beads of
    the 4-abacus with these runner counts, m_0 + 1 on runner 0.
    """
    q1, q2 = linalg.as_integers(q[:2])
    m1, m_minus1 = (-q2, 0) if q2 <= 0 else (0, q2)
    s = q1 + q2
    m0 = s if s >= 0 else -s - 1
    return tuple(b for b in _abacus(4, (m0 + 1, m1, abs(q1), m_minus1)) if b > 0)
