import itertools
import random
from fractions import Fraction as F

import pytest

from corelat import atomic, cores, dynkin, weyl
from corelat.atomic import (
    BadIndex,
    UnsupportedLattice,
    atomic_length0,
    atomic_length_i,
    defect,
    enumerate_atomic,
    extended_atomic_length,
    height,
    norm_sq,
    weight_Lambda,
    weight_Lambda0,
)
from corelat.dynkin import NotInRootSpan, lookup_type
import oracles
from oracles import enumerate_atomic_upto


def ball(t, radius):
    """Lattice points of M with basis coefficients in [-radius, radius]."""
    basis = t.m_basis
    for m in itertools.product(range(-radius, radius + 1), repeat=len(basis)):
        yield tuple(
            sum(m[i] * basis[i][d] for i in range(len(basis)))
            for d in range(t.ambient_dim)
        )


def test_height_examples():
    assert height("A2_1", (1, 0, -1)) == 2
    assert height("C2_1", (1, 0)) == 3
    assert height("G2_1", (1, -1, 0)) == 1


def test_height_formulas_on_ball():
    # closed forms of the height in the stored coordinates
    c2 = lookup_type("C2_1")
    g2 = lookup_type("G2_1")
    d43 = lookup_type("D4_3")
    for b1, b2 in itertools.product(range(-4, 5), repeat=2):
        assert height(c2, (b1, b2)) == 3 * b1 + b2
        assert height(g2, (b1, b2, -b1 - b2)) == -4 * b1 - 5 * b2
        assert height(d43, (b1, b2, -b1 - b2)) == -2 * b1 - 3 * b2


def test_norm_examples():
    assert norm_sq("A2_1", (1, 0, -1)) == 2
    assert norm_sq("C2_1", (1, -3)) == 20
    assert norm_sq("D4_3", (-3, 1, 2)) == 14


def test_atomic_length0_examples():
    for name in ("A2_1", "C2_1", "D4_3", "B3_1"):
        t = lookup_type(name)
        zero = (0,) * t.ambient_dim
        assert atomic_length0(t, zero) == 0
    assert atomic_length0("A2_1", (0, -1, 1)) == 4
    assert atomic_length0("C2_1", (1, -3)) == 40


def test_atomic_length_i_examples():
    t = lookup_type("A2_1")
    omega1 = dynkin.fundamental_weights(t)[0]
    assert atomic_length_i(t, 1, omega1) == 2
    c2 = lookup_type("C2_1")
    for b1, b2 in itertools.product(range(-5, 6), repeat=2):
        assert atomic_length_i(c2, 1, (b1, b2)) == 4 * b1 * b1 + 4 * b2 * b2 + b1 - b2
    for n in (2, 3, 4):
        cn = lookup_type(f"C{n}_1")
        omega_n = dynkin.fundamental_weights(cn)[n - 1]
        assert atomic_length_i(cn, n, omega_n) == n * n
    with pytest.raises(BadIndex):
        atomic_length_i(c2, 3, (0, 0))


def test_extended_atomic_length_examples():
    t = lookup_type("A2_1")
    omegas = dynkin.fundamental_weights(t)
    zero_level = atomic.DominantWeight("A2_1", (F(0),) * 3, F(0))
    assert extended_atomic_length(t, zero_level, (1, 0, -1)) == 0
    for n in (1, 2, 3):
        tn = lookup_type(f"A{n}_1")
        for omega in dynkin.fundamental_weights(tn):
            assert extended_atomic_length(tn, weight_Lambda0(tn), omega) == 0
    assert extended_atomic_length(t, weight_Lambda(t, 2), omegas[0]) == 1
    # agreement with the translation-part formulas
    for q in ball(t, 2):
        assert extended_atomic_length(t, weight_Lambda0(t), q) == atomic_length0(t, q)
        assert extended_atomic_length(t, weight_Lambda(t, 1), q) == atomic_length_i(t, 1, q)


def test_defect_examples():
    t = lookup_type("A2_1")
    w0 = weight_Lambda0(t)
    alpha1 = (1, -1, 0)
    assert defect(t, w0, alpha1, alpha1) == 6
    # orthogonal vectors have zero defect
    assert defect("C2_1", weight_Lambda0("C2_1"), (1, 0), (0, 1)) == 0


def test_additivity_random():
    rng = random.Random(20240)
    ids = dynkin.all_type_ids(4)
    for _ in range(200):
        t = lookup_type(rng.choice(ids))
        basis = t.m_basis
        def rand_vec():
            m = [rng.randint(-4, 4) for _ in basis]
            return tuple(
                sum(m[i] * basis[i][d] for i in range(len(basis)))
                for d in range(t.ambient_dim)
            )
        x, y = rand_vec(), rand_vec()
        w = weight_Lambda(t, rng.randint(0, t.n))
        lhs = extended_atomic_length(t, w, tuple(a + b for a, b in zip(x, y)))
        rhs = (extended_atomic_length(t, w, x) + extended_atomic_length(t, w, y)
               + defect(t, w, x, y))
        assert lhs == rhs


def test_rank2_square_identities():
    for b1, b2 in itertools.product(range(-8, 9), repeat=2):
        L = atomic_length0("A2_1", (b1, b2, -b1 - b2))
        assert 12 * L + 4 == (6 * b2 + 3 * b1 - 1) ** 2 + 3 * (3 * b1 - 1) ** 2
        L = atomic_length0("C2_1", (b1, b2))
        p, m = b1 + b2, b1 - b2
        assert 8 * L + 5 == (4 * p - 2) ** 2 + (4 * m - 1) ** 2
        assert L == 2 * p * p + 2 * m * m - 2 * p - m  # rotated-coordinate form
        L1 = atomic_length_i("C2_1", 1, (b1, b2))
        assert 8 * L1 + 1 == (4 * p) ** 2 + (4 * m + 1) ** 2
        L = atomic_length0("D3_2", (b1, b2))
        assert 12 * L + 5 == (6 * b1 - 2) ** 2 + (6 * b2 - 1) ** 2
        L = atomic_length0("A4_2", (b1, b2))
        assert 40 * L + 10 == (10 * b1 - 3) ** 2 + (10 * b2 - 1) ** 2
        L = atomic_length0("G2_1", (b1, b2, -b1 - b2))
        assert 6 * L + 7 == (6 * b1 + 3 * b2 + 2) ** 2 + 3 * (3 * b2 + 1) ** 2
        L = atomic_length0("D4_3", (b1, b2, -b1 - b2))
        assert 12 * L + 7 == (6 * b2 + 2) ** 2 + 3 * (4 * b1 + 2 * b2 + 1) ** 2


def test_a3_square_identity():
    for m in itertools.product(range(-3, 4), repeat=3):
        q = m + (-sum(m),)
        L = atomic_length0("A3_1", q)
        assert 48 * L + 30 == ((12 * q[1] + 4 * q[2] - 1) ** 2
                               + 2 * (8 * q[2] + 1) ** 2
                               + 3 * (8 * q[0] + 4 * q[1] + 4 * q[2] - 3) ** 2)
        # the alternative reduction with the other variable roles
        assert 48 * L + 30 == ((4 * q[0] + 12 * q[1] - 3) ** 2
                               + 2 * (8 * q[0] - 3) ** 2
                               + 3 * (4 * q[0] + 4 * q[1] + 8 * q[2] - 1) ** 2)


@pytest.mark.parametrize("fam,lin", [
    ("B", lambda n, i: F(n - i + 1)),
    ("C", lambda n, i: F(2 * (n - i) + 1)),
])
def test_hyperoctahedral_square_identities(fam, lin):
    # per-coordinate completed squares for the B/C-flavoured families, n <= 5
    for n in range(2 if fam == "C" else 3, 6):
        t = lookup_type(f"{fam}{n}_1")
        for q in itertools.product(range(-2, 3), repeat=n):
            if fam == "B" and sum(q) % 2:
                continue
            L = atomic_length0(t, q)
            if fam == "B":
                assert 4 * n * L + n * (n + 1) * (2 * n + 1) // 6 == \
                    sum((2 * n * q[i] - (n - i)) ** 2 for i in range(n))
            else:
                assert 8 * n * L + n * (2 * n + 1) * (2 * n - 1) // 3 == \
                    sum((4 * n * q[i] - (2 * (n - 1 - i) + 1)) ** 2 for i in range(n))


def test_twisted_square_identities():
    # the three twisted families, n <= 5
    for n in range(2, 6):
        dt = lookup_type(f"D{n + 1}_2")
        ae = lookup_type(f"A{2 * n}_2")
        for q in itertools.product(range(-2, 3), repeat=n):
            L = atomic_length0(dt, q)
            assert 4 * (n + 1) * L + n * (n + 1) * (2 * n + 1) // 6 == \
                sum((2 * (n + 1) * q[i] - (n - i)) ** 2 for i in range(n))
            L = atomic_length0(ae, q)
            assert (16 * n + 8) * L + n * (2 * n + 1) * (2 * n - 1) // 3 == \
                sum(((4 * n + 2) * q[i] - (2 * (n - 1 - i) + 1)) ** 2 for i in range(n))
        if n >= 3:
            ao = lookup_type(f"A{2 * n - 1}_2")
            for q in itertools.product(range(-2, 3), repeat=n):
                if sum(q) % 2:
                    continue
                L = atomic_length0(ao, q)
                assert (16 * n - 8) * L + n * (2 * n + 1) * (2 * n - 1) // 3 == \
                    sum(((4 * n - 2) * q[i] - (2 * (n - 1 - i) + 1)) ** 2 for i in range(n))


def test_gks_formula_type_a():
    for n in range(1, 5):
        t = lookup_type(f"A{n}_1")
        for m in itertools.product(range(-2, 3), repeat=n):
            q = m + (-sum(m),)
            gks = (n + 1) * (sum(x * x for x in m)
                             + sum(m[i] * m[j] for i in range(n) for j in range(i + 1, n))) \
                + sum(i * q[i] for i in range(n + 1))
            assert atomic_length0(t, q) == gks


def test_enumerate_examples():
    assert [v.coords for v in enumerate_atomic("A2_1", 0, 0)] == [(0, 0, 0)]
    six = [v.coords for v in enumerate_atomic("A2_1", 0, 6)]
    assert six == [(1, 1, -2), (2, -1, -1)]    # a1+2a2 and 2a1+a2
    assert enumerate_atomic("D4_3", 0, 4) == []
    forty = [v.coords for v in enumerate_atomic("C2_1", 0, 40)]
    assert forty == [(-2, -2), (-1, 3), (1, -3)]


def test_enumerate_is_sorted_closed_and_complete():
    t = lookup_type("C2_1")
    buckets = enumerate_atomic_upto(t, 0, 25)
    seen = set()
    for value, vectors in buckets.items():
        coords = [v.coords for v in vectors]
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)
        for q in coords:
            assert atomic_length0(t, q) == value
            seen.add(q)
    # complete against a plain box scan
    for q in itertools.product(range(-6, 7), repeat=2):
        if atomic_length0(t, q) <= 25:
            assert q in seen


def test_enumerate_lattice_l():
    # level-1 statistic over the weight lattice: half-integer pairs allowed
    pts = [v.coords for v in enumerate_atomic("C2_1", 1, 2, "L")]
    assert pts == [(F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2))]
    with pytest.raises(UnsupportedLattice):
        enumerate_atomic("D3_2", 0, 1, "L")
    with pytest.raises(ValueError):
        enumerate_atomic("A2_1", 0, -1)


def test_a_level_beyond_the_search_cap_is_refused():
    # the cap is read off the outermost coordinate before any search runs;
    # rank 1 solves its one coordinate, so A1_1 has no such level
    with pytest.raises(ValueError, match="more than"):
        enumerate_atomic("A2_1", 0, 10 ** 4000)
    assert len(enumerate_atomic("A1_1", 0, 10 ** 4000 // 4 * 4)) <= 2


@pytest.mark.parametrize("type_id", ["D50_1", "E8_1"])
def test_a_missing_lattice_is_refused_before_the_weight_is_built(type_id):
    before = dynkin.fundamental_weights.cache_info()
    with pytest.raises(UnsupportedLattice):
        atomic.length_form(type_id, 1, "L")
    with pytest.raises(UnsupportedLattice):
        enumerate_atomic(type_id, 1, 1, "L")
    assert dynkin.fundamental_weights.cache_info() == before


def test_enumerate_l_matches_extended_images():
    # L-lattice fibres coincide with the layer images of the M-lattice fibres
    for name, n_values in (("A2_1", range(8)), ("C2_1", range(8))):
        t = lookup_type(name)
        for target in n_values:
            direct = {v.coords for v in enumerate_atomic(t, 0, target, "L")}
            via_layers = {
                weyl.extended_image(t, e).coords
                for e in weyl.enumerate_extended(t, target)
            }
            assert direct == via_layers


def test_not_in_root_span_error():
    with pytest.raises(NotInRootSpan):
        atomic_length0("A2_1", (1, 1, 1))


def test_in_lattice_membership():
    t = lookup_type("C2_1")
    assert atomic.in_lattice(t, (1, -3), "M")
    assert not atomic.in_lattice(t, (F(1, 2), F(1, 2)), "M")
    assert atomic.in_lattice(t, (F(1, 2), F(1, 2)), "L")
    assert not atomic.in_lattice(t, (F(1, 2), F(1, 4)), "L")
    a2 = lookup_type("A2_1")
    assert atomic.in_lattice(a2, (1, 0, -1), "M")
    assert not atomic.in_lattice(a2, (F(2, 3), F(-1, 3), F(-1, 3)), "M")
    assert atomic.in_lattice(a2, (F(2, 3), F(-1, 3), F(-1, 3)), "L")


def test_lattice_vector_and_weight_records():
    v = atomic.LatticeVector("C2_1", (F(1), F(-3)))
    assert len(v) == 2 and v[1] == -3 and list(v) == [1, -3]
    w = atomic.weight_Lambda("C2_1", 1)
    assert w.level == 1 and w.finite_part == (F(1, 2), F(0))
    w0 = atomic.weight_Lambda0("A4_2")
    assert w0.level == 1 and set(w0.finite_part) == {F(0)}
    with pytest.raises(BadIndex):
        atomic.weight_Lambda("C2_1", 5)


def test_enumerate_with_fundamental_weight_on_m():
    # level-1 fibre at 8: 4q1^2+4q2^2+q1-q2 = 8 has the two diagonal points
    t = lookup_type("C2_1")
    pts = [v.coords for v in enumerate_atomic(t, 1, 8, "M")]
    assert pts == [(-1, -1), (1, 1)]
    for q in pts:
        assert atomic.atomic_length_i(t, 1, q) == 8


@pytest.mark.parametrize("name", dynkin.all_type_ids(4) + ["B6_1", "E6_1", "E8_1", "D7_2", "A10_2"])
def test_statistic_is_integral_on_m(name):
    # the basic statistic takes integer values on the whole lattice M
    t = lookup_type(name)
    basis = t.m_basis
    radius = 2 if len(basis) <= 4 else 1
    for m in itertools.product(range(-radius, radius + 1), repeat=len(basis)):
        q = tuple(
            sum(m[i] * basis[i][d] for i in range(len(basis)))
            for d in range(t.ambient_dim)
        )
        assert atomic_length0(t, q).denominator == 1


@pytest.mark.parametrize("type_id", dynkin.all_type_ids(6) + ["E7_1", "E8_1"])
def test_grassmannian_walk_matches_the_closed_form(type_id):
    # the affine Grassmannian elements W.Lambda_0, walked up from their
    # definition, are the level sets of (h/2)|x|^2 - ht(x) on M
    walk = oracles.grassmannian_levels(type_id, 12)
    for n, points in enumerate(walk):
        assert points == [v.coords for v in enumerate_atomic(type_id, 0, n, "M")], (type_id, n)


@pytest.mark.parametrize("type_id,d", [("A50_1", 51), ("C50_1", 100)])
def test_grassmannian_walk_at_rank_50_lists_the_small_cores(type_id, d):
    # the ball takes seconds a level at rank 50, so the walk's levels N <= 5
    # are checked against the partitions they model instead: every partition
    # of N < d is a d-core, listed by its charge, and for C50_1 the charges
    # (m, -reversed m) give the self-conjugate ones
    for n, points in enumerate(oracles.grassmannian_levels(type_id, 5)):
        assert all(atomic_length0(type_id, x) == n and atomic.in_lattice(type_id, x) for x in points)
        if type_id == "C50_1":
            points = [x + tuple(-c for c in reversed(x)) for x in points]
            want = [p for p in cores.partitions_of(n) if oracles.is_self_conjugate(p)]
        else:
            want = cores.partitions_of(n)
        assert sorted(cores.core_from_charge(d, x) for x in points) == sorted(want), (type_id, n)
