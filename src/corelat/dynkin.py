"""Registry of affine Dynkin type data over exact rationals.

Each supported type carries its marks and an explicit realisation of the
simple roots in an ambient epsilon-basis; its rank, Coxeter number, comarks
(a_i^v = a_i |alpha_i|^2 / 2), ambient dimension and J are derived from them,
as a type id's rank is from its label and all_type_ids from the registry.
Types whose textbook realisation involves sqrt(2) are stored as rational
coordinate vectors together with scale_sq = 2: the true vector is
sqrt(scale_sq) times the stored one, so every inner product is
scale_sq * (dot product of stored coordinates), which keeps all
arithmetic exact.

Each type compiles the map from a vector to its simple-root coefficients
once (TypeData.root_solver, a linalg.SpanSolver), so a coefficient, a
height or a root-span check is a few integer dot products.  Its fundamental
weights are set up in integers too (TypeData.integer_weights): one
fraction-free elimination of the integer Gram matrix of the simple roots,
scaled once by the lcm of their denominators, and one integer combination
of the scaled roots per weight.  A point enters
through integer_point, which scales it to integers and refuses a vector of
another type or one whose length is not the type's ambient_dim.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg


class UnknownType(ValueError):
    """Requested (family, rank, twist) is not a supported affine type."""


class NotInRootSpan(ValueError):
    """Vector is not a rational combination of the simple roots."""


def _vec(*entries):
    return tuple(Fraction(e) for e in entries)


def _chain(count, dim, step=1):
    """The roots step * (e_i - e_{i+1}) for i < count, in dimension dim."""
    return tuple(tuple(Fraction(step) if j == i else -Fraction(step) if j == i + 1 else Fraction(0)
                       for j in range(dim))
                 for i in range(count))


def _unit(dim, i, value=1):
    return tuple(Fraction(value) if j == i else Fraction(0) for j in range(dim))


# The largest rank label a type id may carry.  A type's set-up grows with its
# rank, and a hyperoctahedral case's more: with the cap lifted to 100, the
# fundamental weights of A100_1 take about 0.28 s, its root solver 0.01 s and
# hyp_case("C100_1") with its compiled search 1.1 s, on one core of a 2-CPU
# machine with Python 3.11.7, and a level search there is slower still (A50_1
# level 3 takes seconds).  So a larger label is refused before anything is
# built.  The tests and the README name ids up to A50_1.
MAX_RANK_LABEL = 50


@dataclass(frozen=True)
class AffineTypeId:
    family: str
    rank_label: int
    twist: int

    @classmethod
    def parse(cls, text):
        """Parse the serialised form '<FAMILY><rank>_<twist>', e.g. 'C2_1'.

        Only the form str() writes back is accepted, so one type has one
        spelling: 'A02_1', 'A 2_1' or 'A2_1\\n' are malformed.  A rank
        label above MAX_RANK_LABEL is refused as well."""
        try:
            head, twist = text.split("_")
            tid = cls(head[0], int(head[1:]), int(twist))
        except (ValueError, IndexError):
            tid = None
        if tid is None or str(tid) != text:
            raise UnknownType(f"malformed type id {text!r}")
        if tid.rank_label > MAX_RANK_LABEL:
            raise UnknownType(f"type id {text!r} has rank label {tid.rank_label}, "
                              f"above the largest supported, {MAX_RANK_LABEL}")
        return tid

    def __str__(self):
        return f"{self.family}{self.rank_label}_{self.twist}"

    @property
    def rank(self):
        """n, the number of finite simple roots: the label m at twist 1,
        (m+1)//2 for A_m^(2), m-1 for D_m^(2), 4 for E6_2 and 2 for D4_3.
        Every id that parses has one, whether or not it names a type."""
        m = self.rank_label
        return {("A", 2): (m + 1) // 2, ("D", 2): m - 1, ("E", 2): 4,
                ("D", 3): 2}.get((self.family, self.twist), m)


@dataclass(frozen=True)
class TypeData:
    id: AffineTypeId
    marks: tuple                # a_0 .. a_n; the comarks are derived
    scale_sq: int               # 1 or 2
    simple_roots: tuple         # stored coordinates
    m_basis: tuple              # Z-basis of the lattice M, stored coordinates
    l_basis: tuple              # Z-basis of L when registered, else None

    def __hash__(self):
        # every field is a function of the id; hashing the id alone spares
        # the caches keyed by a type from hashing all its Fractions
        return hash(self.id)

    @linalg.memo
    def n(self):
        """The number of finite simple roots."""
        return len(self.simple_roots)

    @linalg.memo
    def h(self):
        """The Coxeter number, the sum of the marks."""
        return sum(self.marks)

    @linalg.memo
    def comarks(self):
        """a_0^v .. a_n^v: a_0^v = 1 and a_i^v = a_i |alpha_i|^2 / 2, that is
        a_i scale_sq G_ii / (2 Q^2) with (Q, R, G) of integer_roots."""
        Q, _, G = self.integer_roots
        pairs = [divmod(a * self.scale_sq * G[i][i], 2 * Q * Q) for i, a in enumerate(self.marks[1:])]
        if any(r for _, r in pairs):
            raise ValueError(f"a comark of {self.name} is not an integer")
        return (1, *(c for c, _ in pairs))

    @linalg.memo
    def ambient_dim(self):
        """The length of a stored coordinate vector."""
        return len(self.simple_roots[0])

    @linalg.memo
    def J(self):
        """The special nodes i >= 1, a_i = a_i^v = 1: one per element of the
        length-zero group Omega other than the identity."""
        return tuple(i for i in range(1, len(self.marks)) if self.marks[i] == self.comarks[i] == 1)

    @linalg.memo
    def root_solver(self):
        """linalg.SpanSolver of the simple roots, built on first use."""
        return linalg.SpanSolver(self.simple_roots)

    @linalg.memo
    def integer_roots(self):
        """(Q, R, G), built on first use: the simple roots scaled to integers
        R_k = Q alpha_k (linalg.scaled_basis) and their Gram matrix R_k . R_j."""
        Q, R = linalg.scaled_basis(self.simple_roots)
        return Q, tuple(map(tuple, R)), tuple(tuple(linalg.dot(u, v) for v in R) for u in R)

    @linalg.memo
    def integer_weights(self):
        """The fundamental weights scaled to integers, built on first use:
        entry i - 1 is (W_i, p_i) with omega_i = W_i / p_i, W_i an integer
        tuple and p_i the positive lcm of its entries' denominators.

        With (Q, R, G) of integer_roots, the conditions
        2 (omega_i | alpha_j) / |alpha_j|^2 = delta_ij read
        omega_i = (G_ii / 2Q) sum_k (G^-1)_ik R_k (scale_sq cancels).  G is
        symmetric, so row i of its inverse, V_i / q_i from linalg.eliminate,
        gives omega_i as one integer combination of the R_k over 2 Q q_i.
        """
        Q, R, G = self.integer_roots
        coords = list(zip(*R))
        weights = []
        for i, (V, q) in enumerate(linalg.eliminate(G)):
            W, p = linalg.reduced([G[i][i] * linalg.dot(V, c) for c in coords], 2 * Q * q)
            weights.append((tuple(W), p))
        return tuple(weights)

    def inner(self, v, w):
        """Bilinear form in stored coordinates."""
        return self.scale_sq * sum(Fraction(a) * Fraction(b) for a, b in zip(v, w))

    @linalg.memo
    def name(self):
        return str(self.id)


def _omega1_type_a(n):
    # e_1 - (1/(n+1)) * (e_1 + ... + e_{n+1})
    frac = Fraction(1, n + 1)
    return tuple(Fraction(1) - frac if i == 0 else -frac for i in range(n + 1))


def _build_type(tid):
    fam, m, tw, n = tid.family, tid.rank_label, tid.twist, tid.rank
    if tw == 1:
        if fam == "A" and n >= 1:
            roots = _chain(n, n + 1)
            l_basis = (_omega1_type_a(n),) + roots[: n - 1]
            return TypeData(tid, (1,) * (n + 1), 1, roots, roots, l_basis)
        if fam == "B" and n >= 3:
            roots = _chain(n - 1, n) + (_unit(n, n - 1),)
            m_basis = roots[:-1] + (_unit(n, n - 1, 2),)
            return TypeData(tid, (1, 1) + (2,) * (n - 1), 1, roots, m_basis, None)
        if fam == "C" and n >= 2:
            roots = _chain(n - 1, n, Fraction(1, 2)) + (_unit(n, n - 1),)
            m_basis = tuple(_unit(n, i) for i in range(n))
            omega_n = tuple(Fraction(1, 2) for _ in range(n))
            l_basis = tuple(_unit(n, i) for i in range(n - 1)) + (omega_n,)
            marks = (1,) + (2,) * (n - 1) + (1,)
            return TypeData(tid, marks, 2, roots, m_basis, l_basis)
        if fam == "D" and n >= 4:
            roots = _chain(n - 1, n) + (
                tuple(Fraction(1) if j >= n - 2 else Fraction(0) for j in range(n)),)
            marks = (1, 1) + (2,) * (n - 3) + (1, 1)
            return TypeData(tid, marks, 1, roots, roots, None)
        if fam == "E" and n in (6, 7, 8):
            marks = {
                6: (1, 1, 2, 3, 2, 2, 1),
                7: (1, 1, 2, 3, 4, 2, 3, 2),
                8: (1, 2, 3, 4, 5, 6, 3, 4, 2),
            }[n]
            roots = _chain(n - 2, 8) + (
                tuple(Fraction(1) if j in (n - 3, n - 2) else Fraction(0) for j in range(8)),
                tuple(Fraction(-1, 2) for _ in range(8)),
            )
            return TypeData(tid, marks, 1, roots, roots, None)
        if fam == "F" and n == 4:
            roots = (
                _vec(1, -1, 0, 0),
                _vec(0, 1, -1, 0),
                _vec(0, 0, 1, 0),
                _vec(Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
            )
            m_basis = roots[:2] + (_vec(0, 0, 2, 0), _vec(-1, -1, -1, 1))
            return TypeData(tid, (1, 2, 3, 4, 2), 1, roots, m_basis, None)
        if fam == "G" and n == 2:
            roots = (
                _vec(1, -1, 0),
                _vec(Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)),
            )
            m_basis = (roots[0], _vec(-2, 1, 1))
            return TypeData(tid, (1, 2, 3), 1, roots, m_basis, None)
    elif tw == 2:
        if fam == "A" and m == 2:
            roots = (_vec(1, -1),)
            m_basis = (_vec(Fraction(1, 2), Fraction(-1, 2)),)
            return TypeData(tid, (2, 1), 2, roots, m_basis, None)
        if fam == "A" and m >= 4:
            roots = _chain(n - 1, n) + (_unit(n, n - 1, 2),)
            if m % 2 == 0:           # A_{2n}^{(2)}
                m_basis = tuple(_unit(n, i) for i in range(n))
                return TypeData(tid, (2,) * n + (1,), 1, roots, m_basis, None)
            marks = (1, 1) + (2,) * (n - 2) + (1,)   # A_{2n-1}^{(2)}
            return TypeData(tid, marks, 1, roots, roots, None)
        if fam == "D" and n >= 2:    # D_{n+1}^{(2)}
            roots = _chain(n - 1, n) + (_unit(n, n - 1),)
            m_basis = tuple(_unit(n, i) for i in range(n))
            return TypeData(tid, (1,) * (n + 1), 2, roots, m_basis, None)
        if fam == "E" and m == 6:
            roots = (
                _vec(1, -1, 0, 0),
                _vec(0, 1, -1, 0),
                _vec(0, 0, 2, 0),
                _vec(-1, -1, -1, 1),
            )
            return TypeData(tid, (1, 2, 3, 2, 1), 1, roots, roots, None)
    elif tw == 3:
        if fam == "D" and m == 4:
            roots = (_vec(1, -1, 0), _vec(-2, 1, 1))
            return TypeData(tid, (1, 2, 1), 1, roots, roots, None)
    raise UnknownType(f"{tid} is not a supported affine type")


@lru_cache(maxsize=None)
def lookup_type(type_id):
    """Return the TypeData record for a type id (string or AffineTypeId)."""
    tid = AffineTypeId.parse(type_id) if isinstance(type_id, str) else type_id
    return _build_type(tid)


# The families in the order all_type_ids lists them.
_FAMILIES = (("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1), ("F", 1), ("G", 1),
             ("A", 2), ("D", 2), ("E", 2), ("D", 3))


def all_type_ids(max_rank=4):
    """Exactly the type ids lookup_type accepts with rank (n) at most max_rank,
    family by family in label order, A_{2n}^(2) (even labels) before
    A_{2n-1}^(2) (odd labels).  A rank-n type has a label of at most 2n."""
    ids = []
    for family, twist in _FAMILIES:
        labels = range(1, 2 * max_rank + 2)
        if (family, twist) == ("A", 2):
            labels = sorted(labels, key=lambda m: m % 2)
        for tid in (AffineTypeId(family, m, twist) for m in labels):
            if tid.rank > max_rank:
                continue
            try:
                lookup_type(str(tid))   # parsed, so the rank-label cap holds
            except UnknownType:
                continue
            ids.append(str(tid))
    return ids


def integer_point(t, v):
    """(V, q) with v = V / q over the integers (linalg.integer_vector), once
    v is checked to be a point of t: ValueError for a vector attached to
    another type (a LatticeVector's type_id) or one without the ambient_dim
    coordinates of t."""
    type_id = getattr(v, "type_id", t.name)
    if type_id != t.name:
        raise ValueError(f"vector of type {type_id} given for {t.name}")
    V, q = linalg.integer_vector(v)
    if len(V) != t.ambient_dim:
        raise ValueError(f"{t.name} takes {t.ambient_dim} coordinates (its ambient_dim), "
                         f"got {len(V)}")
    return V, q


def root_span_integers(t, v):
    """integer_point(t, v), once v is checked to lie in the root span of t.

    The NotInRootSpan message lists v as the CLI reads coordinates, e.g.
    1,-1/2,0: each coordinate as its exact Fraction V_i / q, which is built
    only on this error path.
    """
    V, q = integer_point(t, v)
    if not t.root_solver.in_span(V):
        shown = ",".join(str(Fraction(x, q)) for x in V)
        raise NotInRootSpan(f"{shown} is not in the root span of {t.name}")
    return V, q


def simple_root_coefficients(t, v):
    """Coefficients (c_1..c_n) with v = sum c_i alpha_i in stored coordinates."""
    V, q = root_span_integers(t, v)
    solver = t.root_solver
    return tuple(Fraction(linalg.dot(row, V), solver.D * q) for row in solver.rows)


@lru_cache(maxsize=None)
def fundamental_weights(t):
    """The finite fundamental weights omega_1..omega_n in stored coordinates,
    as Fractions: omega_i = W_i / p_i for (W_i, p_i) of t.integer_weights.

    omega_i is the unique vector in the root span with
    2 (omega_i | alpha_j) / |alpha_j|^2 = delta_ij.
    """
    return tuple(tuple(Fraction(x, p) for x in W) for W, p in t.integer_weights)
