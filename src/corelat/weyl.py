"""Extended Grassmannian bookkeeping for types A_n^(1) and C_n^(1).

The length-zero elements sigma_j act on translation parts through explicit
matrices: a cyclic coordinate shift in type A, the negated antidiagonal in
type C.  An extended element is stored as its layer index j together with
its translation part q; its image in the weight lattice is
omega_j + M_j(q).  The Lascoux generator action on partitions lives here
too, since it realises type-A Grassmannian elements as cores.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import atomic, dynkin, linalg
from .atomic import LatticeVector
from .dynkin import lookup_type


class UnsupportedType(ValueError):
    """Operation only defined for types A_n^(1) and C_n^(1)."""


@dataclass(frozen=True)
class ExtGrassElement:
    type_id: str
    j: int
    q: tuple        # stored coordinates of the translation part, in M

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))


def _check_type(t):
    t = t if isinstance(t, dynkin.TypeData) else lookup_type(t)
    if not (t.id.twist == 1 and t.id.family in ("A", "C")):
        raise UnsupportedType(f"sigma matrices are registered only for A/C untwisted, not {t.name}")
    return t


def sigma_indices(t):
    """Valid layer indices: 0..n in type A, {0, n} in type C."""
    t = _check_type(t)
    if t.id.family == "A":
        return tuple(range(t.n + 1))
    return (0, t.n)


@lru_cache(maxsize=None)
def _matrix_mj(name, j):
    t = lookup_type(name)
    dim = t.ambient_dim
    if j == 0:
        return tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
    if t.id.family == "A":
        # cyclic shift (q_1..q_{n+1}) -> (q_{n+1}, q_1, .., q_n), to the j-th power
        return tuple(tuple(int((r - c) % dim == j) for c in range(dim)) for r in range(dim))
    return tuple(tuple(-int(r + c == dim - 1) for c in range(dim)) for r in range(dim))


def matrix_Mj(t, j):
    """Matrix of the j-th layer action on stored coordinates (j=0: identity)."""
    t = _check_type(t)
    if j not in sigma_indices(t):
        raise ValueError(f"layer index {j} invalid for {t.name}")
    return _matrix_mj(t.name, j)


def extended_image(t, element):
    """The weight-lattice vector omega_j + M_j(q) of an extended element.

    In integers: with q = V / d and omega_j = W / p (zero for j = 0), the
    image is (p M_j V + d W) / (d p), one Fraction per coordinate.
    """
    t = _check_type(t)
    j = element.j
    mat = matrix_Mj(t, j)
    V, d = linalg.integer_vector(element.q)
    W, p = atomic.integer_weights(t.name)[j - 1] if j else ((0,) * t.ambient_dim, 1)
    coords = tuple(Fraction(p * linalg.dot(row, V) + d * w, d * p) for row, w in zip(mat, W))
    return LatticeVector(t.name, coords)


def enumerate_extended(t, target):
    """All extended Grassmannian elements of the given atomic length.

    The layer action preserves the statistic, so these are exactly the pairs
    (j, q) with q of atomic length equal to the target.
    """
    t = _check_type(t)
    base = atomic.enumerate_atomic(t, 0, target, "M")
    return [ExtGrassElement(t.name, j, v.coords)
            for j in sigma_indices(t) for v in base]


# ---------------------------------------------------------------------------
# Lascoux action on cores (type A_n^(1), residues mod n+1)


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
