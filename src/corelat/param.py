"""Per-type parametrisation pipelines and theorem verifiers.

A case is the lattice and weight whose atomic length N drives the equation,
the diagonal form D, the linear part P of phi and the group acting on the
solutions.  One constructor (_case) derives the rest: phi(q) = P(q - q*) for
the least point q* of the length, a from the quadratic part and
b = sum_i D_i p_i^2, so that sum_i D_i phi(q)_i^2 = a N + b.  Verifiers are
exhaustive for a fixed N: a LevelData holds the canonical point of each
orbit of the level's solution set U, its lattice points and their phi
images.  Each layer's images come from a LayerMap, an integer map
m -> P m + p of the basis coefficients m, or a refusal when the layer leaves
the integers, built once with whether its images lie on the quadric
(keeps_quadric); a case compiles all its layers into one function
(ParamCase.layers_map), one call per point.  A case binds its group's row
of diophantine.GROUPS once (ParamCase.action), fitted to phi and the form
by _case, so the checks call its canonical and orbit_size with no check per
call.  Each claim is a row of one table, CHECKS, that decide runs on a
LevelData: a Claim names the images it reads, the freeness it requires, the
window on the hits per orbit of U, its counts and its FAIL reasons, and
check_stratified alone has steps of its own.  Each layer is one fixed map
T_j of layer 0 (ParamCase.layer_transforms); where the +-T_j are C6's
rotations (ParamCase.layers_tile_c6), the extended row skips its per-point
tiling step and reads no layer.  FAIL is data, never raised.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import atomic, diophantine, dynkin, linalg, weyl
from .diophantine import NonIntegralImage, NotClosed, solve_diagonal
from .weyl import ExtGrassElement


class AffineMap:
    """x -> P x + p on rational x, for integer P and p.

    x is scaled once to V / q (linalg.integer_vector), so each component is
    an integer dot product, and divmod by q tests that it is an integer;
    a non-integral one raises NonIntegralImage.  A row of P may be shorter
    than x: the coordinates past it do not enter that component.
    """

    def __init__(self, P, p):
        self.P, self.p = tuple(map(tuple, P)), tuple(p)

    def __call__(self, x):
        V, q = linalg.integer_vector(x)
        image = []
        for row, c in zip(self.P, self.p):
            num = linalg.dot(row, V) + c * q
            y, r = divmod(num, q)
            if r:
                raise NonIntegralImage(f"non-integral image component {Fraction(num, q)}")
            image.append(y)
        return tuple(image)


class LayerMap:
    """m -> the layer-j image of the lattice point q with basis coefficients
    m, phi(q) at j = 0 and phi(omega_j + M_j q) above: apply(m), chosen once.

    For an AffineMap phi, one integer map m -> P m + p composed once from
    integer matrices: with q = C m / Q (linalg.QuadraticForm), omega_j = W / w
    and phi(x) = F x + f, the image is (w F M_j C m + Q F W + Q w f) / (Q w),
    and every entry must divide by Q w, or the constructor raises
    NonIntegralImage naming the case, j and Q w.  apply is numerators, m ->
    P m + p compiled once (linalg.compile_affine).  Any other phi is applied
    point by point (layer_image), the path the compiled maps are tested
    against, with numerators None and keeps_quadric False.
    """

    def __init__(self, case, j):
        form, phi, self.j = case.length, case.phi_map, j
        if not isinstance(phi, AffineMap):
            coordinates, self.numerators, self.keeps_quadric = form.coordinates, None, False
            self.apply = lambda m: layer_image(case, j, coordinates(m))
            return
        if j:
            MC = linalg.matmul(weyl.matrix_Mj(case.type_id, j), form.C)
            W, w = dynkin.lookup_type(case.type_id).integer_weights[j - 1]
        else:
            MC, W, w = form.C, (), 1
        Q, den = form.Q, form.Q * w
        P = [[w * x for x in row] for row in linalg.matmul(phi.P, MC)]
        p = [Q * (linalg.dot(row, W) + w * c) for row, c in zip(phi.P, phi.p)]
        if any(x % den for x in (*p, *(x for row in P for x in row))):
            raise NonIntegralImage(f"case {case.case_id}: layer {j} of phi is not an integer map"
                                   f" (its entries are not all divisible by {den})")
        self.P = tuple(tuple(x // den for x in row) for row in P)
        self.p = tuple(x // den for x in p)
        self.apply = self.numerators = linalg.compile_affine(self.P, self.p)
        self.keeps_quadric = form.pulls_back(case.form, self.P, self.p, case.a, case.b)

    def __call__(self, m):
        return self.apply(m)


# The involutive rank-2 change of coordinates (q1, q2) -> (q1+q2, q1-q2).
u_rotate = AffineMap(((1, 1), (1, -1)), (0, 0))


@dataclass(frozen=True)
class ParamCase:
    case_id: str
    type_id: str
    weight: int
    lattice: str
    a: int
    b: int
    form: tuple
    group: str
    claim: str                      # 'complete', 'orbit-size', 'extended' or 'stratified'
    phi_map: callable
    # the atomic length on the lattice, a linalg.QuadraticForm; a
    # hyperoctahedral case's is its family's, which needs no registry type
    length: object = field(repr=False)

    def equation_value(self, n):
        return self.a * n + self.b

    @linalg.memo
    def action(self):
        """The case's row of diophantine.GROUPS: a memo, not a field, so that
        dataclasses.replace keeps working."""
        return diophantine.GROUPS[self.group]

    @linalg.memo
    def image_map(self):
        """LayerMap(self, 0), from basis coefficients to phi images."""
        return LayerMap(self, 0)

    @linalg.memo
    def layer_maps(self):
        """LayerMap(self, j) for each j in weyl.sigma_indices, one per element
        of Omega; dynkin.UnknownType for a rank the registry does not hold."""
        return (self.image_map,) + tuple(LayerMap(self, j)
                                         for j in weyl.sigma_indices(self.type_id)[1:])

    @linalg.memo
    def layers_map(self):
        """m -> the tuple of the layer_maps images of m: one function compiled
        in blocks (linalg.compile_stacked) when every map is compiled;
        otherwise, for a phi applied point by point, one apply per map."""
        if all(f.apply is f.numerators for f in self.layer_maps):
            return linalg.compile_stacked(self.layer_maps)
        applies = [f.apply for f in self.layer_maps]
        return lambda m: tuple([f(m) for f in applies])

    @linalg.memo
    def layer_transforms(self):
        """(T_j, d) per layer map, T_j / d = P_j P_0^-1 in lowest terms, so
        layer j is T_j / d applied to layer 0's image; or None.  None unless
        every map keeps the quadric (so none is applied point by point), P_0
        is square and T_j p_0 = d p_j.  The rows of the SpanSolver of P_0's
        columns are D P_0^-1."""
        maps = self.layer_maps
        if not all(f.keeps_quadric for f in maps) or len(maps[0].P) != len(maps[0].P[0]):
            return None
        solver, p0 = linalg.SpanSolver(list(zip(*maps[0].P))), maps[0].p
        transforms = []
        for f in maps:
            T = linalg.matmul(f.P, solver.rows)
            if [linalg.dot(row, p0) for row in T] != [solver.D * x for x in f.p]:
                return None
            g = math.gcd(solver.D, *(x for row in T for x in row))
            transforms.append((tuple(tuple(x // g for x in row) for row in T), solver.D // g))
        return tuple(transforms)

    @linalg.memo
    def layers_tile_c6(self):
        """Whether the group is C6 and the matrices +-T_j / d of
        layer_transforms are its six rotations (diophantine.R60), each once.

        Then the layer pairs {T_j x, -T_j x} of a base image x are the
        orbit C6 x, and they tile it exactly when it is free, so the
        extended row needs no tiling step: it tests that each base image is
        free and that their canonical points are the representatives, each
        once."""
        T = self.layer_transforms
        if self.group != "C6" or T is None or any(2 % d for _, d in T):
            return False
        signed = [tuple(s * (2 // d) * x for row in M for x in row) for M, d in T for s in (1, -1)]
        return sorted(signed) == sorted(diophantine.R60)


def _case(case_id, type_id, weight, lattice, D, P, group, claim, length=None):
    """The case of phi(q) = P (q - q*), q* the least point of its length.

    In basis coefficients the length is (m^T A m + B.m) / L in integers,
    least at m* = -A^-1 B / 2, the coefficients of -B / 2 in the columns of A
    (linalg.SpanSolver), and q* = C m* / Q.  a is read off the quadratic part
    and b = sum_i D_i p_i^2 is phi's value at q = 0, so the length's
    pulls_back (linalg.QuadraticForm) decides the identity on the integer map
    m -> (P C / Q) m + p.  ValueError naming the case when p = -P q* is not an
    integer vector, when P C is not divisible by Q (phi leaves the integers on
    the lattice), when a is not an integer, or when the identity fails.
    length is a hyperoctahedral family's form; the others are the
    registry's.  ValueError naming the case, too, unless phi has one row per
    term of D and the group preserves D, as ParamCase.action's callers assume.
    """
    if len(P) != len(D):
        raise ValueError(f"case {case_id}: phi has {len(P)} rows for a form of {len(D)} terms")
    form = length or atomic.length_form(type_id, weight, lattice)
    (L, (*A, B)), Q = linalg.scaled_basis([*form.a, form.b]), form.Q
    solver = linalg.SpanSolver(A)
    centre = [linalg.dot(row, B) for row in solver.rows]        # -2 D m*
    PC, den = linalg.matmul(P, form.C), 2 * solver.D * Q
    p, r = zip(*(divmod(linalg.dot(row, centre), den) for row in PC))
    if any(r):
        p = ", ".join(str(Fraction(linalg.dot(row, centre), den)) for row in PC)
        raise ValueError(f"case {case_id}: the offset -P q* = ({p}) is not an integer vector")
    if any(x % Q for row in PC for x in row):
        raise ValueError(f"case {case_id}: phi is not an integer map on the lattice")
    PC = [[x // Q for x in row] for row in PC]
    a, r = divmod(L * sum(d * row[0] ** 2 for d, row in zip(D, PC)), A[0][0])
    case = ParamCase(case_id, type_id, weight, lattice, a, sum(d * c * c for d, c in zip(D, p)),
                     tuple(D), group, claim, AffineMap(P, p), form)
    if r or not form.pulls_back(case.form, PC, p, case.a, case.b):
        raise ValueError(f"case {case_id}: sum_i D_i y_i^2 is not an integer multiple of the length")
    # each invariance test checks the form's length against the group's rank
    row = diophantine.GROUPS.get(group)
    if row is None or not row.invariant(case.form):
        raise ValueError(f"case {case_id}: the group {group} does not preserve the form {case.form}")
    return case


CASES = {case.case_id: case for case in (
    _case("A2", "A2_1", 0, "M", (1, 3), ((3, 6), (3, 0)), "C6", "complete"),
    _case("A2ext", "A2_1", 0, "M", (1, 3), ((3, 6), (3, 0)), "C6", "extended"),
    _case("C2", "C2_1", 0, "M", (1, 1), ((4, 4), (4, -4)), "D8", "complete"),
    _case("C2L1", "C2_1", 1, "L", (1, 1), ((4, 4), (4, -4)), "C4", "complete"),
    _case("D3t", "D3_2", 0, "M", (1, 1), ((6, 0), (0, 6)), "D8", "complete"),
    _case("A42", "A4_2", 0, "M", (1, 1), ((10, 0), (0, 10)), "D8", "orbit-size"),
    _case("G21", "G2_1", 0, "M", (1, 3), ((6, 3), (0, 3)), "V4", "orbit-size"),
    _case("D43", "D4_3", 0, "M", (1, 3), ((0, 6), (4, 2)), "V4", "complete"),
    _case("A3", "A3_1", 0, "M", (1, 2, 3), ((0, 12, 4), (0, 0, 8), (8, 4, 4)), "G_A3", "stratified"),
)}
map_p_a2, map_p_a3 = CASES["A2"].phi_map, CASES["A3"].phi_map


# ---------------------------------------------------------------------------
# Hyperoctahedral families (underlying finite type B_n / C_n)

_HYP_FAMILIES = {
    # key: (kappa(n), linear l_i(n, i), even_sum); the length is
    # kappa |q|^2 - sum_i l_i q_i on Z^n, or on its even-sum sublattice
    "B": dict(kappa=lambda n: n, linear=lambda n, i: n - i + 1, even_sum=True),
    "C": dict(kappa=lambda n: 2 * n, linear=lambda n, i: 2 * (n - i) + 1, even_sum=False),
    "Aodd": dict(kappa=lambda n: Fraction(2 * n - 1, 2),
                 linear=lambda n, i: Fraction(2 * (n - i) + 1, 2), even_sum=True),
    "Dt": dict(kappa=lambda n: n + 1, linear=lambda n, i: n - i + 1, even_sum=False),
    "Aeven": dict(kappa=lambda n: Fraction(2 * n + 1, 2),
                  linear=lambda n, i: Fraction(2 * (n - i) + 1, 2), even_sum=False),
}


def _hyp_family_of_type(type_id):
    tid = dynkin.AffineTypeId.parse(type_id)
    if tid.twist == 1 and tid.family in ("B", "C"):
        family = tid.family
    elif tid.twist == 2 and tid.family == "A":
        family = "Aodd" if tid.rank_label % 2 else "Aeven"
    elif tid.twist == 2 and tid.family == "D":
        family = "Dt"
    else:
        raise ValueError(f"{type_id} has no hyperoctahedral pipeline")
    n = tid.rank
    if n < 1:
        raise ValueError(f"{type_id} has hyperoctahedral rank {n}; the pipeline needs rank >= 1")
    return family, n


def _hyp_basis(n, even_sum):
    """A basis of Z^n, or of its even-sum sublattice when even_sum and n >= 2."""
    if not even_sum or n < 2:
        return [[int(r == i) for r in range(n)] for i in range(n)]
    return ([[int(r == i) - int(r == i + 1) for r in range(n)] for i in range(n - 1)]
            + [[int(r >= n - 2) for r in range(n)]])


@lru_cache(maxsize=None)
def hyp_case(type_id):
    """The hyperoctahedral case for a type with underlying finite B_n/C_n.

    Built from the family's explicit quadratic, so ranks below the type
    table's minimum (where the formulas still make sense) are accepted.
    _case derives the equation from P = 2 kappa s I, s the lcm of the
    denominators of 2 kappa and the l_i: q* = l / (2 kappa), so phi(q)_i =
    2 kappa s q_i - l_i s, a = 4 kappa s^2 and b = sum_i (l_i s)^2.
    """
    family, n = _hyp_family_of_type(type_id)
    spec = _HYP_FAMILIES[family]
    kappa, linear = spec["kappa"](n), [spec["linear"](n, i) for i in range(1, n + 1)]
    length = linalg.QuadraticForm.on_basis(_hyp_basis(n, spec["even_sum"]), kappa,
                                           linalg.integer_vector([-x for x in linear]))
    c = int(2 * kappa * math.lcm((2 * kappa).denominator, *(x.denominator for x in linear)))
    return _case(f"HYP:{type_id}", type_id, 0, "M", (1,) * n,
                 [[c * (r == i) for i in range(n)] for r in range(n)], "H", "orbit-size", length)


def get_case(case_id):
    if case_id in CASES:
        return CASES[case_id]
    if case_id.startswith("HYP:"):
        return hyp_case(case_id.split(":", 1)[1])
    raise ValueError(f"unknown case {case_id!r}")


def lattice_points(case, n):
    """Coordinate tuples of the case's lattice points with atomic length n, sorted."""
    return case.length.level(n)


def layer_image(case, j, q):
    """Solution-space image of the layer-j extended element over q."""
    if j == 0:
        return case.phi_map(q)
    vec = weyl.extended_image(case.type_id, ExtGrassElement(case.type_id, j, tuple(q)))
    return case.phi_map(vec.coords)


@dataclass
class LevelData:
    """Everything the claims of one case read at one level N.

    Each part is computed when a check first reads it and kept, so a level
    solves its equation and enumerates its lattice points once.  The claims
    read U through reps and solution_count; only the solve and table
    commands and a3_strata list U in full.
    """
    case: ParamCase
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"level N must be non-negative, got {self.n}")

    @linalg.memo
    def k(self):
        """The right-hand side a N + b of the case's equation at level N."""
        return self.case.equation_value(self.n)

    @linalg.memo
    def solutions(self):
        """The sorted solution set U of the case's equation at level N: the
        G-orbits of reps, disjoint as each rep is its orbit's canonical point."""
        return sorted(itertools.chain.from_iterable(map(self.case.action.orbit, self.reps)))

    @linalg.memo
    def reps(self):
        """The canonical point of each G-orbit of U, sorted
        (diophantine.canonical)."""
        return solve_diagonal(self.case.form, self.k, self.case.group)

    @linalg.memo
    def solution_count(self):
        """|U|, the sum of the orbit sizes of reps."""
        return sum(map(self.case.action.orbit_size, self.reps))

    @linalg.memo
    def coefficients(self):
        """The basis coefficients of the lattice points of atomic length N,
        in the order of points."""
        return self.case.length.level_coefficients(self.n)

    @linalg.memo
    def points(self):
        """The lattice points of atomic length N, sorted; only witnesses,
        the table command and the test oracles read their coordinates."""
        return list(map(self.case.length.coordinates, self.coefficients))

    @linalg.memo
    def images(self):
        """phi of each lattice point, in the order of points."""
        return list(map(self.case.image_map.apply, self.coefficients))

    @linalg.memo
    def layers(self):
        """Per lattice point q, the tuple of the images of the extended
        elements (j, q), all j (ParamCase.layers_map)."""
        return list(map(self.case.layers_map, self.coefficients))

    def on_quadric(self, point):
        """Whether the point solves the case's equation at level N."""
        return sum(d * x * x for d, x in zip(self.case.form, point)) == self.k

    def off_quadric(self, images, keeps):
        """The index of the first image off the quadric, or None; no image is
        tested when the maps that made them keep the quadric (keeps)."""
        if keeps:
            return None
        return next((i for i, img in enumerate(images) if not self.on_quadric(img)), None)

    def first_orbit(self, reps):
        """The sorted orbit of least minimum among those of reps, for a witness."""
        return min(sorted(diophantine.orbit(self.case.group, r)) for r in reps)


# ---------------------------------------------------------------------------
# Reports and the claim table


@dataclass
class Report:
    case: str
    N: int
    status: str                 # 'PASS' or 'FAIL'
    counts: dict
    witness: object = None

    @property
    def passed(self):
        return self.status == "PASS"

    def to_dict(self):
        out = {"case": self.case, "N": self.N, "status": self.status,
               "counts": dict(self.counts)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _fail(case_id, n, counts, witness):
    return Report(case_id, n, "FAIL", counts, witness)


def _point(level, i):
    """The level's i-th lattice point, as a witness prints it."""
    return [str(x) for x in level.points[i]]


def _extended_counts(level, images=None, order=None):
    """|U| and the numbers of base and extended elements, the layers' counts."""
    base = len(level.coefficients)
    return {"solutions": level.solution_count, "base_elements": base,
            "extended_elements": len(level.case.layer_maps) * base}


@dataclass
class Claim:
    """A row of CHECKS: a claim about the G-orbits of U, decided on images
    through reps, canonical and orbit_size alone.  reasons maps each step to
    its FAIL reason and witness fields, in the order the steps decide;
    counts(level, images, order) are the counts before them, to which a row
    without a window adds the orbits its images cover, and one whose window
    is 'some' the solutions in them."""
    name: str           # its name in this module, which it also gives as __name__
    images: str         # 'phi', or 'layers': every layer's, in point order
    free: str           # of the 'orbits' of U, the 'images', the 'base' images, or None
    window: str         # hits per orbit of U: 'once', 'some' (at least one) or None
    counts: callable
    reasons: dict
    report: str = None  # the report's name, when it is not the case's

    def __post_init__(self):
        self.__name__ = self.name
        # (injective, quadric, layers, each image free, each base image free)
        self.steps = ("injective" in self.reasons, "quadric" in self.reasons,
                      self.images == "layers", self.free in ("images", "base"), self.free == "base")

    def fail(self, level, counts, step, i=None, **found):
        """The step's FAIL, with q the level's i-th point."""
        reason, *fields = self.reasons[step]
        if "q" in fields:
            found["q"] = _point(level, i)
        return _fail(self.report or level.case.case_id, level.n, counts,
                     {"reason": reason, **{f: found[f] for f in fields}})

    def __call__(self, level):
        case, reps, (injective, quadric, layers, each, base) = level.case, level.reps, self.steps
        group = case.action
        order = group.order(len(case.form))
        # a free base image's layer pairs tile its orbit where +-T_j are C6's rotations
        tiling = base and not case.layers_tile_c6
        if layers:
            images = [img for layer in level.layers for img in layer]
            keeps = all(f.keeps_quadric for f in case.layer_maps)
        else:
            images = [layer[0] for layer in level.layers] if tiling else level.images
            keeps = case.image_map.keeps_quadric
        counts = self.counts(level, images, order)
        if injective and len(set(images)) != len(images):
            dup = next(x for x in images if images.count(x) > 1)
            return self.fail(level, counts, "injective", point=dup)
        off = level.off_quadric(images, keeps) if quadric else None
        # the pass in image order stops at the first image off the quadric,
        # with a small orbit, or whose layer pairs do not tile its orbit
        if off is not None or each:
            for i, img in enumerate(images):
                if i == off:
                    return self.fail(level, counts, "quadric", i, image=img)
                if each and (size := group.orbit_size(img)) != order:
                    return self.fail(level, counts, "free", point=img, image=img, size=size)
                if tiling:
                    pairs = [frozenset({x, (-x[0], -x[1])}) for x in level.layers[i]]
                    if (set().union(*pairs) != diophantine.orbit(case.group, img)
                            or sum(map(len, pairs)) != order):
                        return self.fail(level, counts, "tiling", i)
        if self.free == "orbits":
            counts["orbits"] = len(reps)
            # no orbit outgrows the group, so all are free when the sizes sum to this
            if level.solution_count != order * len(reps):
                small = [r for r in reps if group.orbit_size(r) < order]
                return self.fail(level, counts, "free", point=level.first_orbit(small)[-1])
        # the images' canonical points hit each rep once (then, sorted, they
        # are reps) or at least once, and no other point; only a FAIL counts them
        window, canonical = self.window, group.canonical
        hit = sorted(map(canonical, images)) if window == "once" else set(map(canonical, images))
        if window is None:
            counts["covered_orbits"] = len(hit)
        elif hit != reps if window == "once" else len(hit) != len(reps) or not hit.issuperset(reps):
            points = list(map(canonical, images))
            hits, listed = Counter(points), set(reps)
            missed = [r for r in reps if (hits[r] != 1 if window == "once" else not hits[r])]
            unlisted = next((x for x, p in zip(images, points) if p not in listed), None)
            # a representative is missed or an image lies in no listed orbit
            step = next(s for s in self.reasons
                        if s == "window" and missed or s == "unlisted" and unlisted)
            if step == "unlisted":
                return self.fail(level, counts, step, image=unlisted)
            if window == "some":
                counts["covered"] = sum(group.orbit_size(r) for r in reps if hits[r])
            orb = level.first_orbit(missed)
            return self.fail(level, counts, step, orbit_min=orb[0], first=orb[0],
                             hits=sorted(set(images).intersection(orb)))
        elif window == "some":
            counts["covered"] = level.solution_count
        return Report(self.report or case.case_id, level.n, "PASS", counts)


def check_stratified(level):
    """Stratification, layer separation and rotation-orbit disjointness.

    The check is for G = G_A3, as its separation test acts on (x, z) as C6
    whatever case.group is.  G_A3 fixes the middle coordinate, so each
    stratum is G-stable by construction (reps raises NotClosed for a form
    G_A3 does not preserve), and U is read only through the middle values of
    the representatives, one of each value standing witness for its
    Omega_y test (_strata_flags).  At k = 48N+30, which is 0 mod 3, the
    Omega_y predicate is the stratum's own equation m^2 + 2y^2 + 3s^2 = k,
    so the emptiness rule cross-checks that the G_A3 sector search met every
    non-empty stratum, and only the candidates it has no point for are
    scanned.
    """
    case_id, n = level.case.case_id, level.n
    gamma, nonempty_iff_omega, partition_ok, all_y_odd = _strata_flags(
        level.k, {r[1]: r for r in level.reps})
    counts = {**_extended_counts(level), "strata": len(gamma)}
    for holds, reason in ((all_y_odd, "even middle coordinate"),
                          (nonempty_iff_omega, "emptiness rule violated"),
                          (partition_ok, "strata do not partition U")):
        if not holds:
            return _fail(case_id, n, counts, {"reason": reason})
    # Separation is a rotation-orbit statement: the reflection can carry one
    # extended image onto the mirror rotation orbit of another in the same
    # stratum (first seen at N = 3), so only orbits under the rotation
    # subgroup of distinct extended elements are disjoint.  That subgroup acts
    # on (x, z) as C6, and two orbits meet only when equal, so each image is
    # keyed by its C6 canonical point and stratum, and the orbits are disjoint
    # when no key repeats.
    maps, layers = level.case.layer_maps, level.layers
    width, images = len(maps), [img for layer in layers for img in layer]
    # index of the first image off the quadric, or None; none is tested when
    # every map keeps the quadric
    off = level.off_quadric(images, all(f.keeps_quadric for f in maps))
    share = next((i for i, layer in enumerate(layers) if len({img[1] for img in layer}) != 4),
                 None)
    # the pass in point order stops at the first image off the quadric or
    # after the images of the first point whose layers share a stratum,
    # whichever comes first; canonical raises as it would on the way there
    stop = len(images) if share is None else width * (share + 1)
    off_first = off is not None and off < stop
    c6 = diophantine.GROUPS["C6"].canonical
    keys = [(c6(img[::2]), img[1]) for img in images[:off if off_first else stop]]
    if off_first:
        return _fail(case_id, n, counts,
                     {"reason": "layer image off the quadric", "image": images[off]})
    if share is not None:
        return _fail(case_id, n, counts,
                     {"reason": "layers share a stratum", "q": _point(level, share)})
    if len(set(keys)) < len(keys):
        # the witness is the first two (j, point index) keys of the shared
        # class with the least such key, which sort as (j, point) does
        classes = {}
        for index, key in enumerate(keys):
            i, j = divmod(index, width)
            classes.setdefault(key, []).append((j, i))
        (j1, i1), (j2, i2) = min(sorted(v) for v in classes.values() if len(v) > 1)[:2]
        return _fail(case_id, n, counts,
                     {"reason": "extended rotation orbits intersect",
                      "first": _point(level, i1), "j1": j1,
                      "second": _point(level, i2), "j2": j2})
    return Report(case_id, n, "PASS", counts)


# The claim table.  complete: phi is injective, every orbit of U is free
# (its orbits counted once the images pass) and holds one image.  orbit-size:
# each image's orbit is free; at rank 1 two images +-x can share an orbit, so
# no window.  extended: each base point's antipodal layer pairs tile its free
# C6 orbit, one base image per orbit of U.  A3conj: the layers' orbits cover U.
CHECKS = {
    "complete": Claim("check_complete", "phi", "orbits", "once", lambda level, images, order: {
        "solutions": level.solution_count, "orbits": 0, "phi_images": len(images)}, {
        "injective": ("phi not injective", "point"),
        "quadric": ("phi image off the quadric", "q", "image"),
        "free": ("action not free", "point"),
        "window": ("orbit without unique representative", "orbit_min", "hits"),
        "unlisted": ("image in no listed orbit", "image")}),
    "orbit-size": Claim("check_orbit_size", "phi", "images", None, lambda level, images, order: {
        "solutions": level.solution_count, "orbits": len(level.reps),
        "phi_images": len(images), "expected_orbit_size": order}, {
        "quadric": ("phi image off the quadric", "image"),
        "free": ("orbit not of full size", "image", "size")}),
    "extended": Claim("decide_extended", "phi", "base", "once", _extended_counts, {
        "free": ("C6 orbit undersized", "point"),
        "tiling": ("layer pairs do not tile the orbit", "q"),
        "window": ("pairs do not partition U",),
        "unlisted": ("pairs do not partition U",)}),
    "stratified": check_stratified,
    "A3conj": Claim("check_a3_conjecture", "layers", None, "some", _extended_counts, {
        "quadric": ("layer image off the quadric", "image"),
        "unlisted": ("image in no listed orbit", "image"),
        "window": ("uncovered solutions", "first")}, report="A3conj"),
}
check_complete, check_orbit_size, decide_extended, check_a3_conjecture = (
    CHECKS[claim] for claim in ("complete", "orbit-size", "extended", "A3conj"))


def _decide(check, level, case_id=None):
    """check(level), with a phi map or action undefined on the level a FAIL
    named case_id, by default the check's report name or else the case's."""
    try:
        return check(level)
    except (NonIntegralImage, NotClosed) as exc:
        case_id = case_id or getattr(check, "report", None) or level.case.case_id
        return _fail(case_id, level.n, {}, {"reason": "level not decided",
                                            "error": f"{type(exc).__name__}: {exc}"})


def decide(level, claim):
    """The level decided by the claim's row of CHECKS."""
    return _decide(CHECKS[claim], level)


def verify_case(case_id, n):
    """The check of the case's claim at level n."""
    case = get_case(case_id)
    return decide(LevelData(case, n), case.claim)


def a3_conjecture_check(n):
    return decide(LevelData(CASES["A3"], n), "A3conj")


# ---------------------------------------------------------------------------
# Type A_3^(1): strata


@dataclass
class A3Strata:
    N: int
    gamma: list                  # y's with non-empty strata, ascending
    strata: dict                 # y -> sorted points of U with that middle value
    nonempty_iff_omega: bool
    partition_ok: bool
    all_y_odd: bool


def a3_strata(n):
    """Stratify U(48N+30) by the middle coordinate and test the emptiness rule.

    Only this lists each stratum's points; check_stratified reads the same
    flags (_strata_flags) off one representative per middle value.  As
    48N+30 is 0 mod 3, the Omega_y predicate is the stratum's own equation
    m^2 + 2y^2 + 3s^2 = 48N+30, so Omega_y is non-empty exactly when the
    stratum is, and a stratum the solve missed breaks the emptiness rule.
    """
    level = LevelData(CASES["A3"], n)
    return _stratify(level, level.solutions)


def _stratify(level, sols):
    """a3_strata from points of U(k), k = 48N+30 the level's, that meet every
    stratum: the sorted points of each stratum, and _strata_flags on one
    point per stratum."""
    by_y = {}
    for s in sols:
        by_y.setdefault(s[1], []).append(s)
    gamma, *flags = _strata_flags(level.k, {y: v[0] for y, v in by_y.items()})
    return A3Strata(level.n, gamma, {y: sorted(v) for y, v in by_y.items()}, *flags)


def _strata_flags(k, met):
    """(gamma, nonempty_iff_omega, partition_ok, all_y_odd) of A3Strata for
    the strata of U(k) that met names, each middle value y mapped to one
    point (x, y, z) of U(k) with it.

    gamma lists the odd candidates y, 2y^2 < k, whose Omega_y is non-empty:
    some m >= 0 with m^2 = y^2 (mod 3) makes t = (k//3 - 2(y^2//3)) -
    (m^2 + 2(y^2 % 3))//3, which is k//3 - (m^2 + 2y^2)/3, a square s^2.
    At k = 0 (mod 3) that is m^2 + 2y^2 + 3s^2 = k, the equation of the
    stratum itself.  Omega_y is decided once per |y|: by the point met has
    at y or -y when its m = |x| passes the scan's tests with t = z^2, and
    otherwise by _omega_scan.  At k = 0 (mod 3) every point of U(k) passes,
    so only the candidates that met lacks are scanned.
    """
    y_bound = k // 2
    # y enters only as y^2: decide the positive candidates, then mirror them
    positive = [y for y in range(1, isqrt(y_bound) + 1, 2) if y * y < y_bound]
    nonempty = []
    for y in positive:
        point = met.get(y) or met.get(-y)
        # m^2 = y^2 (mod 3) is 3 | m^2 + 2y^2, the residue classes the scan
        # accepts, where t = z^2 >= 0 bounds m by the scan's radius
        if ((point is not None and (r := point[0] ** 2 + 2 * y * y) % 3 == 0
             and k // 3 - r // 3 == point[2] ** 2) or _omega_scan(k, y)):
            nonempty.append(y)
    candidates = [-y for y in reversed(positive)] + positive
    gamma = [-y for y in reversed(nonempty)] + nonempty
    return (gamma, gamma == [y for y in candidates if y in met], gamma == sorted(met),
            all(y % 2 == 1 for y in met))


def _omega_scan(k, y):
    """Whether Omega_y (_strata_flags) is non-empty, by scanning m."""
    which = y * y % 3            # 0 or 1, as y^2 is a square
    m_y, radius = k // 3 - 2 * (y * y // 3), isqrt(k - 2 * y * y)
    # the test reads m only through m^2 and m % 3 == 0, so m >= 0 in the
    # residue classes mod 3 it accepts covers every m
    for start in ((0,) if which == 0 else (1, 2)):
        for m in range(start, radius + 1, 3):
            t = m_y - (m * m + 2 * which) // 3
            if t >= 0 and isqrt(t) ** 2 == t:
                return True
    return False
