import dataclasses
import string
from fractions import Fraction as F

import pytest

from corelat import dynkin
from corelat.dynkin import (
    AffineTypeId,
    NotInRootSpan,
    UnknownType,
    fundamental_weights,
    lookup_type,
    simple_root_coefficients,
)
from golden_data import COMARKS
from oracles import affine_cartan_matrix, det, theta


ALL_IDS = dynkin.all_type_ids(4)


def test_id_grammar_round_trip():
    for name in ALL_IDS:
        tid = AffineTypeId.parse(name)
        assert str(tid) == name
        assert lookup_type(name).name == name


@pytest.mark.parametrize("max_rank", range(1, 9))
def test_all_type_ids_are_the_registry_types_up_to_the_rank(max_rank):
    # probe every family letter, twist and rank label up to 2 max_rank + 1,
    # past the largest label of a rank-max_rank type (A_{2n}^{(2)})
    accepted = set()
    for family in string.ascii_uppercase:
        for twist in (1, 2, 3):
            for label in range(1, 2 * max_rank + 2):
                try:
                    t = lookup_type(f"{family}{label}_{twist}")
                except UnknownType:
                    continue
                if t.n <= max_rank:
                    accepted.add(t.name)
    ids = dynkin.all_type_ids(max_rank)
    assert len(ids) == len(set(ids))
    assert set(ids) == accepted


def test_all_type_ids_order():
    # the bench draws its random points type by type in this order
    assert dynkin.all_type_ids(4) == [
        "A1_1", "A2_1", "A3_1", "A4_1", "B3_1", "B4_1", "C2_1", "C3_1", "C4_1", "D4_1",
        "F4_1", "G2_1", "A2_2", "A4_2", "A6_2", "A8_2", "A5_2", "A7_2", "D3_2", "D4_2",
        "D5_2", "E6_2", "D4_3"]


def test_all_type_ids_lists_only_accepted_ids():
    # the rank-label cap holds: no A51_2 or A52_2 among the rank-26 types
    for name in dynkin.all_type_ids(30):
        assert lookup_type(name).name == name


def test_rank_is_read_off_the_label():
    for name in dynkin.all_type_ids(8):
        assert AffineTypeId.parse(name).rank == lookup_type(name).n, name


def test_derived_comarks_match_the_golden():
    assert {name: lookup_type(name).comarks for name in COMARKS} == COMARKS


def test_a_comark_that_is_not_an_integer_is_refused():
    # C2_1 at half its squared scale makes a_1 |alpha_1|^2 / 2 a half
    halved = dataclasses.replace(lookup_type("C2_1"), scale_sq=1)
    with pytest.raises(ValueError, match=r"^a comark of C2_1 is not an integer$"):
        halved.comarks


CARTAN_TYPES = dynkin.all_type_ids(8) + ["A50_1", "B50_1", "C50_1", "D50_1", "A49_2",
                                          "A50_2", "D50_2"]


@pytest.mark.parametrize("type_id", CARTAN_TYPES)
def test_affine_cartan_matrix_of_the_registry(type_id):
    # a generalised Cartan matrix from the hand-typed marks, with the marks
    # a null vector of A and the comarks one of A^T; the comarks' a_0^v = 1
    # fixes |alpha_0|^2 against the scale of the others
    t = lookup_type(type_id)
    A, n = affine_cartan_matrix(t), len(t.marks)
    assert all(type(x) is int for row in A for x in row)
    assert all(A[i][i] == 2 for i in range(n))
    assert all(A[i][j] <= 0 and (A[i][j] == 0) == (A[j][i] == 0)
               for i in range(n) for j in range(n) if i != j)
    assert all(sum(x * a for x, a in zip(row, t.marks)) == 0 for row in A)
    assert all(sum(c * row[j] for c, row in zip(t.comarks, A)) == 0 for j in range(n))


def test_rank_label_cap():
    cap = dynkin.MAX_RANK_LABEL
    assert lookup_type(f"A{cap}_1").n == cap
    for bad in (f"A{cap + 1}_1", f"C{cap + 1}_1", "A100000_1", f"A{2 * cap + 1}_2"):
        with pytest.raises(UnknownType):
            AffineTypeId.parse(bad)


def test_type_data_hashes_as_its_id():
    t = lookup_type("E8_1")
    assert hash(t) == hash(AffineTypeId.parse("E8_1"))
    assert lookup_type(AffineTypeId.parse("E8_1")) == t


def test_lookup_a2():
    t = lookup_type("A2_1")
    assert t.h == 3
    assert t.marks == (1, 1, 1)
    assert t.comarks == (1, 1, 1)
    assert t.simple_roots == ((F(1), F(-1), F(0)), (F(0), F(1), F(-1)))
    assert t.scale_sq == 1


def test_lookup_c2():
    t = lookup_type("C2_1")
    assert t.h == 4
    assert t.marks == (1, 2, 1)
    assert t.comarks == (1, 1, 1)
    assert t.simple_roots == ((F(1, 2), F(-1, 2)), (F(0), F(1)))
    assert t.scale_sq == 2
    assert t.J == (2,)


def test_j_lists_the_marks_equal_to_one():
    assert lookup_type("A3_1").J == (1, 2, 3)
    assert lookup_type("B4_1").J == (1,)
    assert lookup_type("D5_1").J == (1, 4, 5)
    assert lookup_type("E7_1").J == (1,)
    # a twisted type's special nodes have its mark and comark 1: one in
    # A_{2n-1}^(2) and in D_{n+1}^(2), none in A_{2n}^(2), E6^(2) and D4^(3)
    for name in ("A5_2", "A7_2", "A9_2"):
        assert lookup_type(name).J == (1,)
    for n in range(2, 6):
        assert lookup_type(f"D{n + 1}_2").J == (n,)
    for name in ("A2_2", "A4_2", "A6_2", "A8_2", "A10_2", "E6_2", "D4_3"):
        assert lookup_type(name).J == ()


def test_lookup_d43():
    t = lookup_type("D4_3")
    assert t.h == 4
    assert t.marks == (1, 2, 1)
    assert t.comarks == (1, 2, 3)
    assert t.simple_roots == ((F(1), F(-1), F(0)), (F(-2), F(1), F(1)))


@pytest.mark.parametrize("bad", ["B2_1", "D3_1", "A0_1", "H2_1", "C1_1",
                                 "A3_2", "D2_2", "E7_2", "D5_3", "G2_3", "x", "A2",
                                 # int() reads these as A2_1; a type has one spelling
                                 "A02_1", "A+2_1", "A 2_1", "A2_ 1", "A\u0662_1", "A2_1\n",
                                 "A2_01", " A2_1"])
def test_unknown_types(bad):
    with pytest.raises(UnknownType):
        lookup_type(bad)


@pytest.mark.parametrize("name", ALL_IDS)
def test_marks_sum_to_coxeter_number(name):
    t = lookup_type(name)
    assert sum(t.marks) == t.h
    assert len(t.marks) == len(t.comarks) == t.n + 1
    assert t.comarks[0] == 1


@pytest.mark.parametrize("name", ALL_IDS)
def test_simple_root_norms(name):
    # |alpha_i|^2 = 2 a_i^vee / a_i for every i >= 1
    t = lookup_type(name)
    for i, alpha in enumerate(t.simple_roots, start=1):
        assert t.inner(alpha, alpha) == F(2 * t.comarks[i], t.marks[i])


@pytest.mark.parametrize("name", ALL_IDS)
def test_marked_root_height(name):
    t = lookup_type(name)
    coeffs = simple_root_coefficients(t, theta(t))
    assert coeffs == tuple(F(a) for a in t.marks[1:])
    assert sum(coeffs) == t.h - t.marks[0]


@pytest.mark.parametrize("name", ALL_IDS)
def test_fundamental_weights_dual_basis(name):
    t = lookup_type(name)
    weights = fundamental_weights(t)
    for i, omega in enumerate(weights):
        for j, alpha in enumerate(t.simple_roots):
            expected = F(1) if i == j else F(0)
            assert 2 * t.inner(omega, alpha) / t.inner(alpha, alpha) == expected
        # round trip through simple-root coefficients
        coeffs = simple_root_coefficients(t, omega)
        rebuilt = tuple(
            sum(coeffs[k] * t.simple_roots[k][d] for k in range(t.n))
            for d in range(t.ambient_dim)
        )
        assert rebuilt == omega


def test_simple_root_coefficients_examples():
    assert simple_root_coefficients(lookup_type("A2_1"), (1, 0, -1)) == (F(1), F(1))
    assert simple_root_coefficients(lookup_type("C2_1"), (1, 0)) == (F(2), F(1))
    assert simple_root_coefficients(lookup_type("A4_2"), (1, 0)) == (F(1), F(1, 2))


def test_not_in_root_span():
    with pytest.raises(NotInRootSpan):
        simple_root_coefficients(lookup_type("A2_1"), (1, 0, 0))


def test_fundamental_weight_examples():
    a2 = fundamental_weights(lookup_type("A2_1"))
    assert a2[0] == (F(2, 3), F(-1, 3), F(-1, 3))  # (2/3)a1 + (1/3)a2
    a3 = fundamental_weights(lookup_type("A3_1"))
    t3 = lookup_type("A3_1")
    assert simple_root_coefficients(t3, a3[1]) == (F(1, 2), F(1), F(1, 2))
    for n in (2, 3, 4):
        cn = fundamental_weights(lookup_type(f"C{n}_1"))
        for i in range(1, n + 1):
            want = tuple(F(1, 2) if d < i else F(0) for d in range(n))
            assert cn[i - 1] == want


@pytest.mark.parametrize("name,index", [("A1_1", 2), ("A2_1", 3), ("A3_1", 4),
                                        ("C2_1", 2), ("C3_1", 2)])
def test_weight_lattice_index(name, index):
    # |L/M| is the order of the fundamental group: n+1 in type A, 2 in type C
    t = lookup_type(name)
    gram_m = [[t.inner(u, v) for v in t.m_basis] for u in t.m_basis]
    gram_l = [[t.inner(u, v) for v in t.l_basis] for u in t.l_basis]
    ratio = det(gram_m) / det(gram_l)
    assert ratio == index * index


@pytest.mark.parametrize("name,h", [("E6_1", 12), ("E7_1", 18), ("E8_1", 30),
                                    ("F4_1", 12), ("E6_2", 9), ("B6_1", 12),
                                    ("C6_1", 12), ("D6_1", 10), ("A11_2", 11),
                                    ("D7_2", 7), ("A12_2", 13)])
def test_high_rank_rows(name, h):
    t = lookup_type(name)
    assert t.h == h == sum(t.marks)
    for i, alpha in enumerate(t.simple_roots, start=1):
        assert t.inner(alpha, alpha) == F(2 * t.comarks[i], t.marks[i])
    coeffs = simple_root_coefficients(t, theta(t))
    assert sum(coeffs) == t.h - t.marks[0]
    weights = fundamental_weights(t)
    for i, omega in enumerate(weights):
        for j, alpha in enumerate(t.simple_roots):
            got = 2 * t.inner(omega, alpha) / t.inner(alpha, alpha)
            assert got == (F(1) if i == j else F(0))
