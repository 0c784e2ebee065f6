"""Extended Grassmannian bookkeeping for every affine type of the registry.

A length-zero element sigma_j, for j = 0 or a special node of
dynkin.TypeData.J (a_j = a_j^v = 1), sends a translation part q to
omega_j + M_j(q); an extended element is stored as j with q.  M_j is
derived, by one rule for untwisted and twisted types alike: it is the Weyl
group element with M_j rho = rho - h omega_j, (rho | alpha_i) = 1, so
sigma_j fixes rho / h, the centre of the atomic length.  The Lascoux
generator action on cores lives here too: it is the type-A affine Weyl
group acting on the translation part, the (n+1)-charge, and
cores.core_from_charge reads the core off the charge.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import atomic, cores, dynkin, linalg
from .atomic import LatticeVector, _type


@dataclass(frozen=True)
class ExtGrassElement:
    type_id: str
    j: int
    q: tuple        # stored coordinates of the translation part, in M

    def __post_init__(self):
        if getattr(self.q, "type_id", self.type_id) != self.type_id:
            raise ValueError(f"vector of type {self.q.type_id} given for {self.type_id}")
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))


def sigma_indices(t):
    """Valid layer indices: 0 and the special nodes t.J."""
    return (0,) + _type(t).J


def matrix_Mj(t, j):
    """Matrix of the j-th layer action on stored coordinates (j=0: identity).

    M_j = s_{i_1} .. s_{i_k} for the walk s_{i_k} .. s_{i_1} that reflects
    rho - h omega_j into the dominant chamber, onto rho.  In integers: with
    R_i = Q alpha_i and G their Gram matrix (TypeData.integer_roots), the walk
    moves the pairings d_k = 2 Q^2 (v | alpha_k) by the Cartan integers
    2 G_ik / G_ii, and s_i moves the rows of X = den M^T in the support of
    R_i, X and den first scaled by G_ii where s_i would leave the integers.
    An entry is an int where it is integral, as every entry is outside E6 and E7.
    Cached per type, however it is spelled: a name and its TypeData share a walk.
    """
    return _matrix_Mj(_type(t).name, j)


@lru_cache(maxsize=None)
def _matrix_Mj(name, j):
    t = _type(name)
    if j not in sigma_indices(t):
        raise ValueError(f"layer index {j} invalid for {t.name}")
    Q, R, G = t.integer_roots
    d = [2 * Q * Q - (k == j - 1) * t.h * t.scale_sq * G[k][k] for k in range(t.n)]
    X, den = [[int(a == c) for c in range(t.ambient_dim)] for a in range(t.ambient_dim)], 1
    while min(d) < 0:
        i = d.index(min(d))
        r, g = R[i], G[i][i]
        d = [x - d[i] * 2 * G[i][k] // g for k, x in enumerate(d)]
        supp = [a for a, x in enumerate(r) if x]
        u = [sum(r[a] * X[a][c] for a in supp) for c in range(t.ambient_dim)]
        if any(2 * r[a] * y % g for a in supp for y in u):
            X, u, den = [[x * g for x in row] for row in X], [y * g for y in u], den * g
        for a in supp:
            X[a] = [x - 2 * r[a] * y // g for x, y in zip(X[a], u)]
    return tuple(tuple(x // den if x % den == 0 else Fraction(x, den) for x in row)
                 for row in zip(*X))


def extended_image(t, element):
    """The weight-lattice vector omega_j + M_j(q) of an extended element.

    In integers: with q = V / d and omega_j = W / p (zero for j = 0), the
    image is (p M_j V + d W) / (d p), one Fraction per coordinate.  The
    translation part is a vector of the element's type, so an element of
    another type is refused as dynkin.integer_point refuses such a vector.
    """
    t = _type(t)
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
    t = _type(t)
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
