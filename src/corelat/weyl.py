"""Extended Grassmannian bookkeeping for types A_n^(1) and C_n^(1).

The length-zero elements sigma_j act on translation parts through explicit
matrices: a cyclic coordinate shift in type A, the negated antidiagonal in
type C.  An extended element is stored as its layer index j together with
its translation part q; its image in the weight lattice is
omega_j + M_j(q).  The Lascoux generator action on cores lives here too:
it is the type-A affine Weyl group acting on the translation part, the
(n+1)-charge, and cores.core_from_charge reads the core off the charge.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import atomic, cores, dynkin, linalg
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
        if getattr(self.q, "type_id", self.type_id) != self.type_id:
            raise ValueError(f"vector of type {self.q.type_id} given for {self.type_id}")
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
    image is (p M_j V + d W) / (d p), one Fraction per coordinate.  The
    translation part is a vector of the element's type, so an element of
    another type is refused as dynkin.integer_point refuses such a vector.
    """
    t = _check_type(t)
    j = element.j
    mat = matrix_Mj(t, j)
    V, d = dynkin.integer_point(t, LatticeVector(element.type_id, element.q))
    W, p = t.integer_weights[j - 1] if j else ((0,) * t.ambient_dim, 1)
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
# Lascoux action on cores (type A_n^(1), on (n+1)-charges)


def lascoux_orbit(n, word):
    """Apply the letters of the word right-to-left to the empty partition.

    The affine Weyl group of A_n^(1) acts on the (n+1)-charge, the
    translation part: letter i >= 1 swaps charge entries i-1 and i, letter 0
    sends (c_0, c_n) to (c_n + 1, c_0 - 1).  The result is the (n+1)-core of
    the final charge.  Words need not be reduced.
    """
    if n < 1:
        raise ValueError(f"rank {n} has no cores; need n >= 1")
    c = [0] * (n + 1)
    for letter in reversed(tuple(word)):
        if not 0 <= letter <= n:
            raise ValueError(f"letter {letter} outside 0..{n}")
        if letter:
            c[letter - 1], c[letter] = c[letter], c[letter - 1]
        else:
            c[0], c[n] = c[n] + 1, c[0] - 1
    return cores.core_from_charge(n + 1, c)
