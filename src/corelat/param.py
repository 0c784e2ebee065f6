"""Per-type parametrisation pipelines and theorem verifiers.

A case is the lattice and weight whose atomic length N drives the equation,
the diagonal form D, the linear part P of phi and the group acting on the
solutions.  One constructor (_case) derives the rest: phi(q) = P(q - q*) for
the least point q* of the length, a from the quadratic part and
b = sum_i D_i p_i^2, so that sum_i D_i phi(q)_i^2 = a N + b.  Verifiers are
exhaustive for a fixed N: a LevelData holds the canonical point of each
orbit of the level's solution set U, its lattice points and their phi
images, and one check function per claim decides it on them.  Each layer's
images come from a LayerMap, an integer map m -> P m + p of the basis
coefficients m, or a refusal when the layer leaves the integers, built once
with whether its images lie on the quadric (keeps_quadric); a case compiles
all its layers into one function (ParamCase.layers_map), one call per point.
A case binds its group's row of diophantine.GROUPS once (ParamCase.action),
fitted to phi and the form by _case, so the checks call its canonical and
orbit_size with no check per call.  Each layer is one fixed map T_j of
layer 0 (ParamCase.layer_transforms); where the +-T_j are C6's rotations
(ParamCase.layers_tile_c6), the extended claim is decided by check_complete
(decide_extended), with check_extended the fallback and the oracle.  FAIL
is data, never raised.
"""

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

        Then check_extended PASSes at a level exactly when check_complete
        does.  The layer pairs {T_j x, -T_j x} of a base image x are the
        orbit C6 x, and they tile it exactly when it is free.  So the tiling
        holds at every base point exactly when every image's orbit is free,
        and the pairs partition U exactly when the images' canonical points
        are the representatives, each once; every image lies on the quadric,
        as every layer map keeps it.  These are check_complete's tests."""
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
        """The sorted solution set U of the case's equation at level N."""
        return solve_diagonal(self.case.form, self.k)

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

    def off_quadric(self, images, maps):
        """The index of the first image off the quadric, or None; no image is
        tested when each of the maps that made them keeps the quadric."""
        if all(f.keeps_quadric for f in maps):
            return None
        return next((i for i, img in enumerate(images) if not self.on_quadric(img)), None)

    def first_orbit(self, reps):
        """The sorted orbit of least minimum among those of reps, for a witness."""
        return min(sorted(diophantine.orbit(self.case.group, r))
                   for r in reps)


# ---------------------------------------------------------------------------
# Reports and the claim checks


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


def check_complete(level):
    """Freeness plus exactly-one-image-per-orbit."""
    case_id, n, case = level.case.case_id, level.n, level.case
    reps, images = level.reps, level.images
    counts = {"solutions": level.solution_count, "orbits": 0, "phi_images": len(images)}
    image_set = set(images)
    if len(image_set) != len(images):
        dup = next(x for x in images if images.count(x) > 1)
        return _fail(case_id, n, counts, {"reason": "phi not injective", "point": dup})
    i = level.off_quadric(images, (case.image_map,))
    if i is not None:
        return _fail(case_id, n, counts,
                     {"reason": "phi image off the quadric",
                      "q": [str(x) for x in level.points[i]], "image": images[i]})
    counts["orbits"] = len(reps)
    group = case.action
    order = group.order(len(case.form))
    # no orbit outgrows the group, so all are free when the sizes sum to this
    if level.solution_count != order * len(reps):
        small = [r for r in reps if group.orbit_size(r) < order]
        return _fail(case_id, n, counts,
                     {"reason": "action not free", "point": level.first_orbit(small)[-1]})
    # on a PASS the images' canonical points are the representatives, each
    # hit once; only a FAIL counts the hits
    if sorted(map(group.canonical, images)) == reps:
        return Report(case_id, n, "PASS", counts)
    hits = Counter(map(group.canonical, images))
    missed = [r for r in reps if hits[r] != 1]
    if missed:
        orb = level.first_orbit(missed)
        return _fail(case_id, n, counts,
                     {"reason": "orbit without unique representative",
                      "orbit_min": orb[0], "hits": [p for p in orb if p in image_set]})
    # every representative is hit once, so some image lies in no listed orbit
    return _fail(case_id, n, counts, _unlisted(level, images))


def _unlisted(level, images):
    """The witness of the first image whose orbit is not among level.reps."""
    reps, canonical = set(level.reps), level.case.action.canonical
    return {"reason": "image in no listed orbit",
            "image": next(img for img in images if canonical(img) not in reps)}


def check_orbit_size(level):
    """Every phi-image has a full-size orbit; coverage is reported, not required."""
    case_id, n, case = level.case.case_id, level.n, level.case
    reps, images, group = level.reps, level.images, case.action
    expected = group.order(len(case.form))
    counts = {"solutions": level.solution_count, "orbits": len(reps),
              "phi_images": len(images), "expected_orbit_size": expected}
    off = level.off_quadric(images, (case.image_map,))
    for i, img in enumerate(images):
        if i == off:
            return _fail(case_id, n, counts, {"reason": "phi image off the quadric", "image": img})
        size = group.orbit_size(img)
        if size != expected:
            return _fail(case_id, n, counts,
                         {"reason": "orbit not of full size", "image": img,
                          "size": size})
    counts["covered_orbits"] = len(set(map(group.canonical, images)))
    return Report(case_id, n, "PASS", counts)


def check_extended(level):
    """Decomposition of U(12N+4) into antipodal pairs of extended images,
    tiled point by point: decide_extended's fallback, for a FAIL and for a
    case whose layers do not tile C6, and the oracle its PASS is tested
    against."""
    case_id, n, case = level.case.case_id, level.n, level.case
    layers = level.layers
    order = case.action.order(len(case.form))
    counts = {"solutions": level.solution_count, "base_elements": len(layers),
              "extended_elements": len(case.layer_maps) * len(layers)}
    for i, layer in enumerate(layers):
        full_orbit = diophantine.orbit(case.group, layer[0])
        if len(full_orbit) != order:
            return _fail(case_id, n, counts,
                         {"reason": "C6 orbit undersized", "point": layer[0]})
        pairs = [frozenset({img, (-img[0], -img[1])}) for img in layer]
        if set().union(*pairs) != full_orbit or sum(len(p) for p in pairs) != order:
            return _fail(case_id, n, counts,
                         {"reason": "layer pairs do not tile the orbit",
                          "q": [str(x) for x in level.points[i]]})
    # each layer tiles one orbit, so the pairs partition U when the orbits
    # of distinct base points are distinct and are all of U's
    hit = sorted({case.action.canonical(layer[0]) for layer in layers})
    if hit != level.reps or len(hit) != len(layers):
        return _fail(case_id, n, counts, {"reason": "pairs do not partition U"})
    return Report(case_id, n, "PASS", counts)


def check_stratified(level):
    """Stratification, layer separation and rotation-orbit disjointness.

    The check is for G = G_A3, as its separation test acts on (x, z) as C6
    whatever case.group is.  G_A3 fixes the middle coordinate, so the strata
    flags read the middle values of the representatives, and each stratum is
    G-stable by construction: reps raises NotClosed for a form G_A3 does not
    preserve.
    """
    case_id, n = level.case.case_id, level.n
    reps, base = level.reps, len(level.coefficients)
    strata = _stratify(level, reps)
    counts = {"solutions": level.solution_count, "base_elements": base,
              "extended_elements": len(level.case.layer_maps) * base,
              "strata": len(strata.gamma)}
    if not strata.all_y_odd:
        return _fail(case_id, n, counts, {"reason": "even middle coordinate"})
    if not strata.nonempty_iff_omega:
        return _fail(case_id, n, counts, {"reason": "emptiness rule violated"})
    if not strata.partition_ok:
        return _fail(case_id, n, counts, {"reason": "strata do not partition U"})
    # decided once per level: (point, layer) of the first image off the quadric
    maps = level.case.layer_maps
    off = level.off_quadric((img for layer in level.layers for img in layer), maps)
    off = off if off is None else divmod(off, len(maps))
    # Separation is a rotation-orbit statement: the reflection can carry one
    # extended image onto the mirror rotation orbit of another in the same
    # stratum (first seen at N = 3), so only orbits under the rotation
    # subgroup of distinct extended elements are disjoint.  That subgroup acts
    # on (x, z) as C6, and two orbits meet only when equal, so the images are
    # grouped by C6 canonical point and stratum under keys (j, point index),
    # which sort as (j, point) does.  The witness is the first two keys of
    # the shared class with the least key.
    classes, c6 = {}, diophantine.GROUPS["C6"].canonical
    for i, layer in enumerate(level.layers):
        for j, img in enumerate(layer):
            if (i, j) == off:
                return _fail(case_id, n, counts,
                             {"reason": "layer image off the quadric", "image": img})
            classes.setdefault((c6(img[::2]), img[1]), []).append((j, i))
        if len({img[1] for img in layer}) != 4:
            return _fail(case_id, n, counts,
                         {"reason": "layers share a stratum",
                          "q": [str(x) for x in level.points[i]]})
    shared = [sorted(keys) for keys in classes.values() if len(keys) > 1]
    if shared:
        (j1, i1), (j2, i2) = min(shared)[:2]
        return _fail(case_id, n, counts,
                     {"reason": "extended rotation orbits intersect",
                      "first": list(map(str, level.points[i1])), "j1": j1,
                      "second": list(map(str, level.points[i2])), "j2": j2})
    return Report(case_id, n, "PASS", counts)


def check_a3_conjecture(level):
    """Do the G-orbits of the extended images cover all of U(48N+30)?

    Decided on orbit representatives: an orbit is covered when it is the
    canonical point of some layer image.  The witness, the least uncovered
    solution, builds the uncovered orbits only on a FAIL.
    """
    n, case, base = level.n, level.case, len(level.coefficients)
    counts = {"solutions": level.solution_count, "base_elements": base,
              "extended_elements": len(case.layer_maps) * base}
    images = [img for layer in level.layers for img in layer]
    off = level.off_quadric(images, case.layer_maps)
    hit = set(map(case.action.canonical, images[:off]))
    if off is not None:
        return _fail("A3conj", n, counts,
                     {"reason": "layer image off the quadric", "image": images[off]})
    # hit lies in reps unless the solver missed an orbit: when it holds them
    # all, the orbits cover U and no size is summed
    uncovered = [r for r in level.reps if r not in hit]
    if len(hit) != len(level.reps) - len(uncovered):
        return _fail("A3conj", n, counts, _unlisted(level, images))
    counts["covered"] = sum(map(case.action.orbit_size, hit)) if uncovered else level.solution_count
    if uncovered:
        return _fail("A3conj", n, counts, {"reason": "uncovered solutions",
                                           "first": level.first_orbit(uncovered)[0]})
    return Report("A3conj", n, "PASS", counts)


def decide_extended(level):
    """The extended claim: where the layers tile C6 (ParamCase.layers_tile_c6),
    a check_complete PASS with check_extended's counts, and read no layer;
    check_extended's report, witness and all, on any other case or level."""
    case = level.case
    if case.layers_tile_c6:
        report = _decide(check_complete, level, case.case_id)
        if report.passed:
            base = report.counts["phi_images"]
            return Report(case.case_id, level.n, "PASS",
                          {"solutions": report.counts["solutions"], "base_elements": base,
                           "extended_elements": len(case.layer_maps) * base})
    return check_extended(level)


CHECKS = {"complete": check_complete, "orbit-size": check_orbit_size,
          "extended": decide_extended, "stratified": check_stratified}


def _decide(check, level, case_id):
    """check(level), with a phi map or action undefined on the level a FAIL."""
    try:
        return check(level)
    except (NonIntegralImage, NotClosed) as exc:
        return _fail(case_id, level.n, {}, {"reason": "level not decided",
                                            "error": f"{type(exc).__name__}: {exc}"})


def verify_case(case_id, n):
    """The check of the case's claim at level n."""
    case = get_case(case_id)
    return _decide(CHECKS[case.claim], LevelData(case, n), case_id)


def a3_conjecture_check(n):
    return _decide(check_a3_conjecture, LevelData(CASES["A3"], n), "A3conj")


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
    """Stratify U(48N+30) by the middle coordinate and test the emptiness rule."""
    level = LevelData(CASES["A3"], n)
    return _stratify(level, level.solutions)


def _stratify(level, sols):
    """a3_strata from points of U(k), k = 48N+30 the level's, that meet every
    stratum; the flags read only their middle values."""
    n, k = level.n, level.k
    by_y = {}
    for s in sols:
        by_y.setdefault(s[1], []).append(s)
    all_y_odd = all(y % 2 == 1 for y in by_y)

    omega_nonempty = {}
    y_bound = k // 2
    candidates = [y for y in range(-isqrt(y_bound) - 1, isqrt(y_bound) + 2)
                  if y % 2 != 0 and y * y < y_bound]
    # decided once per |y|, as y enters only as y^2: the upper half of the candidates
    for y in candidates[len(candidates) // 2:]:
        which = y * y % 3            # 0 or 1, as y^2 is a square
        m_y, radius = k // 3 - 2 * (y * y // 3), isqrt(k - 2 * y * y)
        # the test reads m only through m^2 and m % 3 == 0, so m >= 0 in the
        # residue classes mod 3 it accepts covers every m
        omega_nonempty[y] = omega_nonempty[-y] = any(
            (t := m_y - (m * m + 2 * which) // 3) >= 0 and isqrt(t) ** 2 == t
            for start in ((0,) if which == 0 else (1, 2)) for m in range(start, radius + 1, 3))
    gamma = [y for y in candidates if omega_nonempty[y]]
    return A3Strata(n, gamma, {y: sorted(v) for y, v in by_y.items()},
                    all(omega_nonempty[y] == (y in by_y) for y in candidates),
                    gamma == sorted(by_y), all_y_odd)
