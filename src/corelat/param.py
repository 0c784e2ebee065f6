"""Per-type parametrisation pipelines and theorem verifiers.

Each case packages: the lattice and weight whose atomic length drives the
equation, the diagonal form and the residue class a*N + b, the affine map
phi from lattice points to integer solutions, and the finite group acting
on the solution set.  Verifiers are exhaustive for a fixed N: the solution
set comes from the exact diagonal solver, the lattice points from the exact
quadratic enumeration, and every claim is checked point by point; FAIL is
reported as data, never raised.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import atomic, diophantine, linalg, weyl
from .diophantine import NonIntegralImage, solve_diagonal
from .linalg import is_perfect_square
from .weyl import ExtGrassElement


def _as_int(x):
    x = Fraction(x)
    if x.denominator != 1:
        raise NonIntegralImage(f"non-integral image component {x}")
    return int(x)


def _ints(xs):
    return tuple(_as_int(x) for x in xs)


def u_rotate(q):
    """The involutive rank-2 change of coordinates (q1, q2) -> (q1+q2, q1-q2)."""
    q1, q2 = Fraction(q[0]), Fraction(q[1])
    return (q1 + q2, q1 - q2)


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
    claim: str                      # 'complete' or 'orbit-size'
    phi_map: callable
    quadratic: tuple = field(default=None, repr=False)  # (A, b, basis) override
    arity: int = None               # hyperoctahedral arity

    def equation_value(self, n):
        return self.a * n + self.b


def _phi_a2(q):
    b1, b2 = q[0], q[1]
    return _ints((6 * b2 + 3 * b1 - 1, 3 * b1 - 1))


def _phi_c2(q):
    b1p, b2p = u_rotate(q)
    return _ints((4 * b1p - 2, 4 * b2p - 1))


def _phi_c2l1(q):
    b1p, b2p = u_rotate(q)
    return _ints((4 * b1p, 4 * b2p + 1))


def _phi_d3t(q):
    return _ints((6 * q[0] - 2, 6 * q[1] - 1))


def _phi_a42(q):
    return _ints((10 * q[0] - 3, 10 * q[1] - 1))


def _phi_g21(q):
    return _ints((6 * q[0] + 3 * q[1] + 2, 3 * q[1] + 1))


def _phi_d43(q):
    return _ints((6 * q[1] + 2, 4 * q[0] + 2 * q[1] + 1))


def _phi_a2_base(q):
    return _ints((3 * q[0] + 6 * q[1] - 1, 3 * q[0] - 1))


def _phi_a3_base(q):
    return _ints((12 * q[1] + 4 * q[2] - 1, 8 * q[2] + 1,
                  8 * q[0] + 4 * q[1] + 4 * q[2] - 3))


CASES = {
    "A2": ParamCase("A2", "A2_1", 0, "M", 12, 4, (1, 3), "C6", "complete", _phi_a2),
    "A2ext": ParamCase("A2ext", "A2_1", 0, "M", 12, 4, (1, 3), "C6", "extended",
                       _phi_a2_base),
    "C2": ParamCase("C2", "C2_1", 0, "M", 8, 5, (1, 1), "D8", "complete", _phi_c2),
    "C2L1": ParamCase("C2L1", "C2_1", 1, "L", 8, 1, (1, 1), "C4", "complete", _phi_c2l1),
    "D3t": ParamCase("D3t", "D3_2", 0, "M", 12, 5, (1, 1), "D8", "complete", _phi_d3t),
    "A42": ParamCase("A42", "A4_2", 0, "M", 40, 10, (1, 1), "D8", "orbit-size", _phi_a42),
    "G21": ParamCase("G21", "G2_1", 0, "M", 6, 7, (1, 3), "V4", "orbit-size", _phi_g21),
    "D43": ParamCase("D43", "D4_3", 0, "M", 12, 7, (1, 3), "V4", "complete", _phi_d43),
    "A3": ParamCase("A3", "A3_1", 0, "M", 48, 30, (1, 2, 3), "G_A3", "stratified",
                    _phi_a3_base),
}


# ---------------------------------------------------------------------------
# Hyperoctahedral families (underlying finite type B_n / C_n)

_HYP_FAMILIES = {
    # key: (a(n), b(n), coefficient c(n), offset s_i(n, i), kappa(n), linear l_i, even_sum)
    "B": dict(a=lambda n: 4 * n,
              b=lambda n: n * (n + 1) * (2 * n + 1) // 6,
              coeff=lambda n: 2 * n,
              offset=lambda n, i: n - i + 1,
              kappa=lambda n: Fraction(n),
              linear=lambda n, i: Fraction(n - i + 1),
              even_sum=True),
    "C": dict(a=lambda n: 8 * n,
              b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
              coeff=lambda n: 4 * n,
              offset=lambda n, i: 2 * (n - i) + 1,
              kappa=lambda n: Fraction(2 * n),
              linear=lambda n, i: Fraction(2 * (n - i) + 1),
              even_sum=False),
    "Aodd": dict(a=lambda n: 16 * n - 8,
                 b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
                 coeff=lambda n: 4 * n - 2,
                 offset=lambda n, i: 2 * (n - i) + 1,
                 kappa=lambda n: Fraction(2 * n - 1, 2),
                 linear=lambda n, i: Fraction(2 * (n - i) + 1, 2),
                 even_sum=True),
    "Dt": dict(a=lambda n: 4 * (n + 1),
               b=lambda n: n * (n + 1) * (2 * n + 1) // 6,
               coeff=lambda n: 2 * (n + 1),
               offset=lambda n, i: n - i + 1,
               kappa=lambda n: Fraction(n + 1),
               linear=lambda n, i: Fraction(n - i + 1),
               even_sum=False),
    "Aeven": dict(a=lambda n: 16 * n + 8,
                  b=lambda n: n * (2 * n + 1) * (2 * n - 1) // 3,
                  coeff=lambda n: 4 * n + 2,
                  offset=lambda n, i: 2 * (n - i) + 1,
                  kappa=lambda n: Fraction(2 * n + 1, 2),
                  linear=lambda n, i: Fraction(n - i) + Fraction(1, 2),
                  even_sum=False),
}


def _hyp_family_of_type(type_id):
    from .dynkin import AffineTypeId
    tid = AffineTypeId.parse(type_id)
    if tid.twist == 1 and tid.family == "B":
        return "B", tid.rank_label
    if tid.twist == 1 and tid.family == "C":
        return "C", tid.rank_label
    if tid.twist == 2 and tid.family == "A" and tid.rank_label % 2 == 1:
        return "Aodd", (tid.rank_label + 1) // 2
    if tid.twist == 2 and tid.family == "A":
        return "Aeven", tid.rank_label // 2
    if tid.twist == 2 and tid.family == "D":
        return "Dt", tid.rank_label - 1
    raise ValueError(f"{type_id} has no hyperoctahedral pipeline")


def _even_sum_basis(n):
    basis = [
        tuple(Fraction(1) if r == i else Fraction(-1) if r == i + 1 else Fraction(0)
              for r in range(n))
        for i in range(n - 1)
    ]
    basis.append(tuple(Fraction(1) if r >= n - 2 else Fraction(0) for r in range(n)))
    return tuple(basis)


def hyp_case(type_id):
    """The hyperoctahedral case for a type with underlying finite B_n/C_n.

    Built from the family's explicit quadratic, so ranks below the type
    table's minimum (where the formulas still make sense) are accepted.
    """
    family, n = _hyp_family_of_type(type_id)
    spec = _HYP_FAMILIES[family]
    a, b = spec["a"](n), spec["b"](n)
    coeff = spec["coeff"](n)
    offsets = [spec["offset"](n, i) for i in range(1, n + 1)]
    kappa = spec["kappa"](n)
    linear = [spec["linear"](n, i) for i in range(1, n + 1)]
    if spec["even_sum"] and n >= 2:
        basis = _even_sum_basis(n)
    else:
        basis = tuple(
            tuple(Fraction(1) if r == i else Fraction(0) for r in range(n))
            for i in range(n)
        )
    k = len(basis)
    qa = tuple(
        tuple(kappa * sum(basis[i][r] * basis[j][r] for r in range(n)) for j in range(k))
        for i in range(k)
    )
    qb = tuple(-sum(linear[r] * basis[i][r] for r in range(n)) for i in range(k))

    def phi(q):
        return _ints(tuple(coeff * q[i] - offsets[i] for i in range(n)))

    return ParamCase(f"HYP:{type_id}", type_id, 0, "M", a, b, (1,) * n, "H",
                     "orbit-size", phi, quadratic=(qa, qb, basis), arity=n)


def get_case(case_id):
    if case_id in CASES:
        return CASES[case_id]
    if case_id.startswith("HYP:"):
        return hyp_case(case_id.split(":", 1)[1])
    raise ValueError(f"unknown case {case_id!r}")


def lattice_points(case, n):
    """Coordinate tuples of the case's lattice points with atomic length n."""
    if case.quadratic is not None:
        qa, qb, basis = case.quadratic
        out = []
        for m in linalg.enumerate_quadratic_level(qa, qb, n):
            out.append(tuple(sum(m[i] * basis[i][r] for i in range(len(basis)))
                             for r in range(len(basis[0]))))
        return sorted(out)
    vectors = atomic.enumerate_atomic(case.type_id, case.weight, n, case.lattice)
    return [v.coords for v in vectors]


def case_length(case, q):
    """Atomic length of a lattice point, through the case's own model."""
    if case.quadratic is not None:
        family, n = _hyp_family_of_type(case.type_id)
        spec = _HYP_FAMILIES[family]
        kappa = spec["kappa"](n)
        return (kappa * sum(Fraction(x) ** 2 for x in q)
                - sum(spec["linear"](n, i + 1) * Fraction(q[i]) for i in range(n)))
    if case.weight == 0:
        return atomic.atomic_length0(case.type_id, q)
    return atomic.atomic_length_i(case.type_id, case.weight, q)


# ---------------------------------------------------------------------------
# Reports


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


def verify_representatives(case_id, n):
    """Freeness plus exactly-one-image-per-orbit, exhaustively at level n."""
    case = get_case(case_id)
    if case.claim != "complete":
        raise ValueError(f"case {case_id} makes no complete-representatives claim")
    sols = solve_diagonal(case.form, case.equation_value(n))
    points = lattice_points(case, n)
    images = [case.phi_map(q) for q in points]
    counts = {"solutions": len(sols), "orbits": 0, "phi_images": len(images)}
    if len(set(images)) != len(images):
        dup = next(x for x in images if images.count(x) > 1)
        return _fail(case_id, n, counts, {"reason": "phi not injective", "point": dup})
    sol_set = set(sols)
    for q, img in zip(points, images):
        if img not in sol_set:
            return _fail(case_id, n, counts,
                         {"reason": "phi image off the quadric",
                          "q": [str(x) for x in q], "image": img})
    free, bad = diophantine.is_action_free(case.group, sols)
    orbits = diophantine.orbit_partition(case.group, sols)
    counts["orbits"] = len(orbits)
    if not free:
        return _fail(case_id, n, counts, {"reason": "action not free", "point": bad})
    image_set = set(images)
    for orb in orbits:
        hits = [p for p in orb if p in image_set]
        if len(hits) != 1:
            return _fail(case_id, n, counts,
                         {"reason": "orbit without unique representative",
                          "orbit_min": orb[0], "hits": hits})
    if case_id == "C2L1":
        even = {case.phi_map(q) for q in points
                if (_as_int(sum(u_rotate(q)))) % 2 == 0}
        odd = set(images) - even
        if even & odd:
            return _fail(case_id, n, counts,
                         {"reason": "parity classes overlap",
                          "point": sorted(even & odd)[0]})
    return Report(case_id, n, "PASS", counts)


def verify_orbit_size(case_id, n):
    """Every phi-image has a full-size orbit; coverage is reported, not required."""
    case = get_case(case_id)
    sols = solve_diagonal(case.form, case.equation_value(n))
    points = lattice_points(case, n)
    images = [case.phi_map(q) for q in points]
    expected = diophantine.group_order(case.group, case.arity)
    orbits = diophantine.orbit_partition(case.group, sols)
    counts = {"solutions": len(sols), "orbits": len(orbits),
              "phi_images": len(images), "expected_orbit_size": expected}
    sol_set = set(sols)
    for q, img in zip(points, images):
        if img not in sol_set:
            return _fail(case.case_id, n, counts,
                         {"reason": "phi image off the quadric", "image": img})
        orb = diophantine.orbit(case.group, img, case.arity)
        if len(orb) != expected:
            return _fail(case.case_id, n, counts,
                         {"reason": "orbit not of full size", "image": img,
                          "size": len(orb)})
    image_set = set(images)
    covered = sum(1 for orb in orbits if any(p in image_set for p in orb))
    counts["covered_orbits"] = covered
    return Report(case.case_id, n, "PASS", counts)


def verify_case(case_id, n):
    case = get_case(case_id)
    if case.claim == "complete":
        return verify_representatives(case_id, n)
    if case.claim == "extended":
        return pig_a2_verify(n)
    if case.claim == "stratified":
        return a3_props_verify(n)
    return verify_orbit_size(case_id, n)


# ---------------------------------------------------------------------------
# Extended decomposition in type A_2^(1)


def map_p_a2(v):
    """(3x + 6y - 1, 3x - 1) on the first two coordinates."""
    return _ints((3 * v[0] + 6 * v[1] - 1, 3 * v[0] - 1))


def a2_layer_image(j, q):
    """Solution-plane image of the layer-j extended element over q."""
    if j == 0:
        return map_p_a2(q)
    vec = weyl.extended_image("A2_1", ExtGrassElement("A2_1", j, tuple(q)))
    return map_p_a2(vec.coords)


def pig_a2_verify(n):
    """Decomposition of U(12N+4) into antipodal pairs of extended images."""
    sols = solve_diagonal((1, 3), 12 * n + 4)
    base = [v.coords for v in atomic.enumerate_atomic("A2_1", 0, n, "M")]
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 3 * len(base)}
    case_id = "A2ext"
    all_pairs = []
    for q in base:
        point = map_p_a2(q)
        full_orbit = {diophantine.act("C6", k, point) for k in range(6)}
        if len(full_orbit) != 6:
            return _fail(case_id, n, counts,
                         {"reason": "C6 orbit undersized", "point": point})
        pairs = []
        for j in range(3):
            img = a2_layer_image(j, q)
            pairs.append(frozenset({img, (-img[0], -img[1])}))
        union = set().union(*pairs)
        if union != full_orbit or sum(len(p) for p in pairs) != 6:
            return _fail(case_id, n, counts,
                         {"reason": "layer pairs do not tile the orbit",
                          "q": [str(x) for x in q]})
        all_pairs.extend(pairs)
    union = set().union(*all_pairs) if all_pairs else set()
    if union != set(sols) or sum(len(p) for p in all_pairs) != len(sols):
        return _fail(case_id, n, counts, {"reason": "pairs do not partition U"})
    return Report(case_id, n, "PASS", counts)


# ---------------------------------------------------------------------------
# Type A_3^(1): strata and the orbit conjecture


def map_p_a3(v):
    """(12y + 4z - 1, 8z + 1, 8x + 4y + 4z - 3) on coordinates (x, y, z, t)."""
    return _ints((12 * v[1] + 4 * v[2] - 1,
                  8 * v[2] + 1,
                  8 * v[0] + 4 * v[1] + 4 * v[2] - 3))


def a3_layer_image(j, q):
    if j == 0:
        return map_p_a3(q)
    vec = weyl.extended_image("A3_1", ExtGrassElement("A3_1", j, tuple(q)))
    return map_p_a3(vec.coords)


@dataclass
class A3Stratum:
    N: int
    y: int
    points: list


@dataclass
class A3Strata:
    N: int
    gamma: list                  # y's with non-empty strata, ascending
    strata: dict                 # y -> sorted points of U with that middle value
    omega: dict                  # y -> (case, sorted omega set)
    nonempty_iff_omega: bool
    partition_ok: bool
    all_y_odd: bool

    def stratum(self, y):
        return A3Stratum(self.N, y, self.strata.get(y, []))


def a3_strata(n):
    """Stratify U(48N+30) by the middle coordinate and test the emptiness rule."""
    k = 48 * n + 30
    sols = solve_diagonal((1, 2, 3), k)
    by_y = {}
    for s in sols:
        by_y.setdefault(s[1], []).append(s)
    all_y_odd = all(y % 2 == 1 for y in by_y)

    omega = {}
    gamma = []
    ok_iff = True
    y_bound = 24 * n + 15
    candidates = [y for y in range(-math.isqrt(y_bound) - 1, math.isqrt(y_bound) + 2)
                  if y % 2 != 0 and y * y < y_bound]
    for y in sorted(candidates):
        sq = y * y
        which = sq % 3
        p = sq // 3 if which == 0 else (sq - 1) // 3
        m_y = 16 * n + 10 - 2 * p
        radius = math.isqrt(k - 2 * sq)
        members = []
        for m in range(-radius, radius + 1):
            if which == 0:
                if m % 3 == 0 and is_perfect_square(m_y - m * m // 3):
                    members.append(m)
            else:
                if m % 3 != 0 and is_perfect_square(m_y - (m * m + 2) // 3):
                    members.append(m)
        omega[y] = (which, members)
        if bool(members) != (y in by_y):
            ok_iff = False
        if members:
            gamma.append(y)
    partition_ok = sorted(gamma) == sorted(by_y)
    return A3Strata(n, sorted(gamma), {y: sorted(v) for y, v in by_y.items()},
                    omega, ok_iff, partition_ok, all_y_odd)


def a3_props_verify(n):
    """Stratification, G-stability, layer separation and orbit disjointness."""
    case_id = "A3"
    strata = a3_strata(n)
    sols = [s for pts in strata.strata.values() for s in pts]
    base = [v.coords for v in atomic.enumerate_atomic("A3_1", 0, n, "M")]
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 4 * len(base), "strata": len(strata.gamma)}
    if not strata.all_y_odd:
        return _fail(case_id, n, counts, {"reason": "even middle coordinate"})
    if not strata.nonempty_iff_omega:
        return _fail(case_id, n, counts, {"reason": "emptiness rule violated"})
    if not strata.partition_ok:
        return _fail(case_id, n, counts, {"reason": "strata do not partition U"})
    sol_set = {tuple(s) for s in sols}
    for s in sol_set:
        for g in diophantine.group_elements("G_A3"):
            img = diophantine.act("G_A3", g, s)
            if img not in sol_set or img[1] != s[1]:
                return _fail(case_id, n, counts,
                             {"reason": "G does not stabilise the stratum",
                              "point": s})
    images = {}
    for q in base:
        ys = set()
        for j in range(4):
            img = a3_layer_image(j, q)
            if img not in sol_set:
                return _fail(case_id, n, counts,
                             {"reason": "layer image off the quadric", "image": img})
            images[(j, q)] = img
            ys.add(img[1])
        if len(ys) != 4:
            return _fail(case_id, n, counts,
                         {"reason": "layers share a stratum",
                          "q": [str(x) for x in q]})
    # Separation is a rotation-orbit statement: the reflection can carry one
    # extended image onto the mirror rotation orbit of another in the same
    # stratum (first seen at N = 3), so only orbits under the rotation
    # subgroup of distinct extended elements are disjoint.
    orbits = {key: frozenset(diophantine.act("G_A3", (k, 0), img) for k in range(6))
              for key, img in images.items()}
    keys = sorted(orbits, key=lambda key: (key[0], key[1]))
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            if orbits[k1] & orbits[k2]:
                return _fail(case_id, n, counts,
                             {"reason": "extended rotation orbits intersect",
                              "first": list(map(str, k1[1])), "j1": k1[0],
                              "second": list(map(str, k2[1])), "j2": k2[0]})
    return Report(case_id, n, "PASS", counts)


def a3_conjecture_check(n):
    """Do the G-orbits of the extended images cover all of U(48N+30)?"""
    case_id = "A3conj"
    sols = solve_diagonal((1, 2, 3), 48 * n + 30)
    base = [v.coords for v in atomic.enumerate_atomic("A3_1", 0, n, "M")]
    counts = {"solutions": len(sols), "base_elements": len(base),
              "extended_elements": 4 * len(base)}
    covered = set()
    for q in base:
        for j in range(4):
            covered |= diophantine.orbit("G_A3", a3_layer_image(j, q))
    missing = sorted(set(sols) - covered)
    counts["covered"] = len(covered)
    if covered != set(sols):
        return _fail(case_id, n, counts,
                     {"reason": "uncovered solutions", "first": missing[0]})
    return Report(case_id, n, "PASS", counts)


# ---------------------------------------------------------------------------
# Auxiliary statistic on the rank-2 type C lattice


def h_statistic(q):
    """The companion statistic on M realised as a shift of the level-1 length.

    In rotated coordinates: H'(q') = L1'((q1', q2' - 1)) - 1.
    """
    q1p, q2p = u_rotate(q)
    shifted = (q1p, q2p - 1)
    # inverse rotation brings the shifted point back to stored coordinates
    back = (Fraction(shifted[0] + shifted[1], 2), Fraction(shifted[0] - shifted[1], 2))
    return atomic.atomic_length_i("C2_1", 1, back) - 1
