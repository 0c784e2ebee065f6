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
by _case, so the checks call its canonical, once per image, and its
orbit_size, on canonical points, with no check per call.  Each claim is a
row of one table, CHECKS, that one kernel (Claim) runs on a LevelData: a
row names its images, freeness, window on the hits per orbit of U, counts,
FAIL reasons and optional hooks (a level screen, a per-point test, a key),
and tests each image when its one pass reaches it.  Each layer is one fixed
map T_j of layer 0 (ParamCase.layer_transforms); where the +-T_j are C6's
rotations (ParamCase.layers_tile_c6), the extended row's per-point test is
proved and it reads no layer.  FAIL is data, never raised.  A sweep
decides its levels in bands (band_levels, run by verify_sweep,
a3_conjecture_sweep and the CLI's tables): one band search of the lattice
and one of the group's per band (H's too) preset each LevelData's
coefficients and reps, and each level is then decided as on its own; the
per-level path (verify_case, a3_conjecture_check) is the oracle.  A
LevelData is made with its right-hand side k = a N + b.  The A3 strata's
flags (_strata_flags) are read off the representatives, by the
stratified row's screen and by a3_strata, which alone lists each
stratum's points.
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
    def layers_keep_quadric(self):
        """Whether every map of layer_maps keeps the quadric."""
        return all(f.keeps_quadric for f in self.layer_maps)

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
        every map keeps the quadric (so none is applied point by point) and
        P_0 is square.  Then T_j p_0 = d p_j: keeping the quadric makes
        P_j^T D P_j = a A / L and 2 L P_j^T D p_j = a B for every j, so
        P_j^-1 p_j = A^-1 B / 2 is one vector.  The rows of the SpanSolver of
        P_0's columns are D P_0^-1."""
        maps = self.layer_maps
        if not self.layers_keep_quadric or len(maps[0].P) != len(maps[0].P[0]):
            return None
        solver, transforms = linalg.SpanSolver(list(zip(*maps[0].P))), []
        for f in maps:
            T = linalg.matmul(f.P, solver.rows)
            g = math.gcd(solver.D, *(x for row in T for x in row))
            transforms.append((tuple(tuple(x // g for x in row) for row in T), solver.D // g))
        return tuple(transforms)

    @linalg.memo
    def layers_tile_c6(self):
        """Whether the group is C6 and the matrices +-T_j / d of
        layer_transforms are its six rotations (diophantine.R60), each once.

        Then the layer pairs {T_j x, -T_j x} of a base image x are the
        orbit C6 x, and they tile it exactly when it is free, so the
        extended row skips its point test: it tests that each base image is
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

    k, the right-hand side a N + b of the case's equation at level N, is
    set when the level is made.  Every other part is computed when a check
    first reads it and kept, so a level solves its equation and enumerates
    its lattice points once.  The claims read U through reps and
    solution_count; only the solve and table commands and a3_strata list U
    in full.
    """
    case: ParamCase
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"level N must be non-negative, got {self.n}")
        self.k = self.case.equation_value(self.n)

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

    def first_orbit(self, reps):
        """The sorted orbit of least minimum among those of reps, for a witness."""
        return min(sorted(self.case.action.orbit(r)) for r in reps)


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


def _extended_counts(level, order):
    """|U| and the numbers of base and extended elements, the layers' counts."""
    base = len(level.coefficients)
    return {"solutions": level.solution_count, "base_elements": base,
            "extended_elements": len(level.case.layer_maps) * base}


@dataclass
class Claim:
    """A row of CHECKS: a claim about the G-orbits of U, decided on images
    through reps, canonical and orbit_size alone.  reasons maps each step to
    its FAIL reason and witness fields, in the order the steps decide;
    counts(level, order) are the counts before them, to which a row without
    a window adds the orbits its images cover, and one whose window is
    'some' the solutions in them.  Optional hooks: screen(level), run before
    any image is built, gives the counts it adds and its failing step or
    None; point(case, layer, order), run after a point's last image, tests
    its layer images (step 'point'); key(image) replaces canonical."""
    name: str           # its name in this module, which it also gives as __name__
    images: str         # 'phi', or 'layers': every layer's, in point order
    free: str           # of the 'orbits' of U, the 'images', the 'base' images, or None
    window: str         # hits per orbit: 'once', 'some' (>= 1) or None; or 'distinct' keys
    counts: callable
    reasons: dict
    report: str = None  # the report's name, when it is not the case's
    screen: callable = None
    point: callable = None
    key: callable = None

    def __post_init__(self):
        self.__name__ = self.name
        each = self.free in ("images", "base")
        # (injective, quadric, layers, each image free, each base image
        # free, each image keyed in the pass)
        self.steps = ("injective" in self.reasons, "quadric" in self.reasons,
                      self.images == "layers", each, self.free == "base", each or bool(self.key))

    def fail(self, level, counts, step, i=None, **found):
        """The step's FAIL, with q the level's i-th point."""
        reason, *fields = self.reasons[step]
        if "q" in fields:
            found["q"] = _point(level, i)
        return _fail(self.report or level.case.case_id, level.n, counts,
                     {"reason": reason, **{f: found[f] for f in fields}})

    def __call__(self, level):
        case, reps, (injective, quadric, layers, each, base, keyed) = (
            level.case, level.reps, self.steps)
        group = case.action
        order = group.order(len(case.form))
        counts = self.counts(level, order)
        if self.screen is not None:
            added, step = self.screen(level)
            counts.update(added)
            if step is not None:
                return self.fail(level, counts, step)
        # the C6 certificate proves a base row's point test at every point
        point = None if base and case.layers_tile_c6 else self.point
        if layers or point:
            rows = level.layers
            images = [img for row in rows for img in row] if layers else [row[0] for row in rows]
        else:
            images = level.images
            rows = (images,)
        # an image is tested on the quadric only when a map that made it may leave it
        quadric = quadric and not (case.layers_keep_quadric if layers
                                   else case.image_map.keeps_quadric)
        if injective and len(set(images)) != len(images):
            dup = next(x for x in images if images.count(x) > 1)
            return self.fail(level, counts, "injective", point=dup)
        # the pass, point by point (a phi row's base image) where a row reads
        # layers or tests points, stops at the first image off the quadric or
        # with a small orbit, or at the first point that fails
        key, points = self.key or group.canonical, []
        if quadric or keyed or point:
            for i, row in enumerate(rows):
                for img in row[:1] if point and not layers else row:
                    if quadric and not level.on_quadric(img):
                        # the pass stops at the image's first occurrence
                        return self.fail(level, counts, "quadric", images.index(img), image=img)
                    if keyed:
                        points.append(c := key(img))
                        if each and (size := group.orbit_size(c)) != order:
                            return self.fail(level, counts, "free", point=img, image=img, size=size)
                if point and not point(case, row, order):
                    return self.fail(level, counts, "point", i)
        if self.free == "orbits":
            counts["orbits"] = len(reps)
            # no orbit outgrows the group, so all are free when the sizes sum to this
            if level.solution_count != order * len(reps):
                small = [r for r in reps if group.orbit_size(r) < order]
                return self.fail(level, counts, "free", point=level.first_orbit(small)[-1])
        # the images' keys hit each rep once (then, sorted, they are reps) or at
        # least once, and no other point, or are distinct; only a FAIL counts them
        window, points = self.window, points if keyed else list(map(key, images))
        hit = sorted(points) if window == "once" else set(points)
        if window is None:
            counts["covered_orbits"] = len(hit)
        elif window == "distinct":
            if len(hit) < len(points):
                # the first two (layer, point) pairs of the least repeated key
                width, classes = len(points) // len(level.coefficients), {}
                for index, k in enumerate(points):
                    classes.setdefault(k, []).append(divmod(index, width)[::-1])
                (j1, i1), (j2, i2) = min(sorted(v) for v in classes.values() if len(v) > 1)[:2]
                return self.fail(level, counts, "distinct", first=_point(level, i1), j1=j1,
                                 second=_point(level, i2), j2=j2)
        elif hit != reps if window == "once" else len(hit) != len(reps) or not hit.issuperset(reps):
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


def _tiles(case, layer, order):
    """Whether the antipodal pairs {x, -x} of a point's layer images tile
    its base image's orbit, each once: the extended row's point test, which
    the C6 certificate (ParamCase.layers_tile_c6) proves at every point."""
    pairs = [frozenset({x, (-x[0], -x[1])}) for x in layer]
    return (set().union(*pairs) == diophantine.orbit(case.group, layer[0])
            and sum(map(len, pairs)) == order)


def _strata_screen(level):
    """The strata count and the first of _strata_flags' tests that fails.
    G_A3 fixes y, so each stratum is G-stable (reps raises NotClosed for a
    form G_A3 does not preserve) and U is read through reps alone.  At
    k = 48N+30, 0 mod 3, the Omega_y predicate is the stratum's own equation
    m^2 + 2y^2 + 3s^2 = k, so each rep is a witness for its stratum: only the
    strata no rep meets are scanned, and the emptiness rule cross-checks
    that the G_A3 sector search met every non-empty stratum."""
    gamma, omega, partition, odd = _strata_flags(level.k, {r[1]: r for r in level.reps})
    return {"strata": len(gamma)}, ("odd" if not odd else "omega" if not omega
                                    else None if partition else "partition")


def _rotation_key(img):
    """(C6 canonical point of (x, z), y).  The reflection z -> -z can carry
    an extended image onto the mirror rotation orbit of another in its
    stratum (first seen at N = 3), so only rotation orbits are disjoint;
    rotations fix y and act on (x, z) as C6, so two meet iff keys agree."""
    x, y, z = img
    return diophantine._to_sector60((x, z), x, z), y


# The claim table.  complete: phi is injective, every orbit of U is free
# (its orbits counted once the images pass) and holds one image.  orbit-size:
# each image's orbit is free; at rank 1 two images +-x can share an orbit, so
# no window.  extended: each base point's antipodal layer pairs tile its free
# C6 orbit, one base image per orbit of U.  stratified: the strata pass
# _strata_flags, a point's layers lie in distinct strata, and the layers'
# rotation orbits are disjoint.  A3conj: the layers' orbits cover U.
CHECKS = {
    "complete": Claim("check_complete", "phi", "orbits", "once", lambda level, order: {
        "solutions": level.solution_count, "orbits": 0, "phi_images": len(level.coefficients)}, {
        "injective": ("phi not injective", "point"),
        "quadric": ("phi image off the quadric", "q", "image"),
        "free": ("action not free", "point"),
        "window": ("orbit without unique representative", "orbit_min", "hits"),
        "unlisted": ("image in no listed orbit", "image")}),
    "orbit-size": Claim("check_orbit_size", "phi", "images", None, lambda level, order: {
        "solutions": level.solution_count, "orbits": len(level.reps),
        "phi_images": len(level.coefficients), "expected_orbit_size": order}, {
        "quadric": ("phi image off the quadric", "image"),
        "free": ("orbit not of full size", "image", "size")}),
    "extended": Claim("decide_extended", "phi", "base", "once", _extended_counts, {
        "free": ("C6 orbit undersized", "point"),
        "point": ("layer pairs do not tile the orbit", "q"),
        "window": ("pairs do not partition U",),
        "unlisted": ("pairs do not partition U",)}, point=_tiles),
    "stratified": Claim("check_stratified", "layers", None, "distinct", _extended_counts, {
        "odd": ("even middle coordinate",),
        "omega": ("emptiness rule violated",),
        "partition": ("strata do not partition U",),
        "quadric": ("layer image off the quadric", "image"),
        "point": ("layers share a stratum", "q"),
        "distinct": ("extended rotation orbits intersect", "first", "j1", "second", "j2")},
        screen=_strata_screen, key=_rotation_key,
        point=lambda case, layer, order: len({y for _, y, _ in layer}) == len(layer)),
    "A3conj": Claim("check_a3_conjecture", "layers", None, "some", _extended_counts, {
        "quadric": ("layer image off the quadric", "image"),
        "unlisted": ("image in no listed orbit", "image"),
        "window": ("uncovered solutions", "first")}, report="A3conj"),
}
check_complete, check_orbit_size, decide_extended, check_stratified, check_a3_conjecture = (
    CHECKS[claim] for claim in ("complete", "orbit-size", "extended", "stratified", "A3conj"))


def decide(level, claim):
    """The level decided by the claim's row of CHECKS, with a phi map or
    action undefined on the level a FAIL named as the row's report is."""
    check = CHECKS[claim]
    try:
        return check(level)
    except (NonIntegralImage, NotClosed) as exc:
        return _fail(check.report or level.case.case_id, level.n, {},
                     {"reason": "level not decided", "error": f"{type(exc).__name__}: {exc}"})


def verify_case(case_id, n):
    """The check of the case's claim at level n."""
    case = get_case(case_id)
    return decide(LevelData(case, n), case.claim)


def a3_conjecture_check(n):
    return decide(LevelData(CASES["A3"], n), "A3conj")


# Levels per band of band_levels: by measurement, bands of 32 levels beat
# per-level searches from the shortest sweeps on, and bands that grow from
# one level did not (ROADMAP item 17)
BAND = 32


def band_levels(case, lo, hi):
    """LevelData(case, n) for n = lo, ..., hi - 1, fed in bands of BAND
    levels: per band, one band search of the length form's ball
    (QuadraticForm.levels) and one of the group's search
    (diophantine.solve_band) preset each
    level's coefficients and reps in the instance __dict__, which linalg.memo
    reads first; a level of a band the solve leaves (C6 or G_A3 off the
    sector path) solves, and raises, on its own, as LevelData(case, n) does.
    Each level is made when asked for, so a caller that decides and writes
    it first has done so before the next band's walks start."""
    for start in range(lo, hi, BAND):
        stop = min(start + BAND, hi)
        coefficients = case.length.levels(start, stop)
        reps = diophantine.solve_band(case.form, case.group, range(
            case.equation_value(start), case.equation_value(stop), case.a))
        for n in range(start, stop):
            level = LevelData(case, n)
            level.__dict__["coefficients"] = coefficients[n]
            if reps is not None:
                level.__dict__["reps"] = reps[level.k]
            yield level


def verify_sweep(case_id, max_n):
    """verify_case(case_id, n) for n = 0, ..., max_n, in order, decided on
    band_levels."""
    case = get_case(case_id)
    return (decide(level, case.claim) for level in band_levels(case, 0, max_n + 1))


def a3_conjecture_sweep(max_n):
    """a3_conjecture_check(n) for n = 0, ..., max_n, in order, decided on
    band_levels."""
    return (decide(level, "A3conj") for level in band_levels(CASES["A3"], 0, max_n + 1))


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
    """Stratify U(48N+30) by the middle coordinate and test the emptiness
    rule.  The flags are _strata_flags on the representatives, as the
    stratified row's screen reads them: G_A3 fixes y, so they meet exactly
    the strata that U meets.  Only this lists each stratum's points."""
    level, strata = LevelData(CASES["A3"], n), {}
    for s in level.solutions:
        strata.setdefault(s[1], []).append(s)
    gamma, *flags = _strata_flags(level.k, {r[1]: r for r in level.reps})
    return A3Strata(n, gamma, strata, *flags)


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
