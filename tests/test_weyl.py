import itertools
from fractions import Fraction as F

import pytest

from corelat import atomic, cores, dynkin, linalg, weyl
from corelat.dynkin import lookup_type
from corelat.weyl import (
    ExtGrassElement,
    enumerate_extended,
    extended_image,
    lascoux_orbit,
    matrix_Mj,
    sigma_indices,
)

import oracles


def mball(t, radius):
    Q, basis = linalg.scaled_basis(t.m_basis)
    for m in itertools.product(range(-radius, radius + 1), repeat=len(basis)):
        yield tuple(F(linalg.dot(m, column), Q) for column in zip(*basis))


def test_matrix_examples():
    a2 = matrix_Mj("A2_1", 1)
    assert oracles.apply_matrix(a2, (1, 2, 3)) == (3, 1, 2)
    for n in (2, 3, 4):
        cn = matrix_Mj(f"C{n}_1", n)
        q = tuple(range(1, n + 1))
        assert oracles.apply_matrix(cn, q) == tuple(-x for x in reversed(q))
    ident = matrix_Mj("C2_1", 0)
    assert oracles.apply_matrix(ident, (5, 7)) == (5, 7)


# every untwisted type of rank at most 4, and E6 and E7 with their
# fractional M_j; E8 adds a type whose only layer is j = 0
UNTWISTED = [name for name in dynkin.all_type_ids(4) if name.endswith("_1")] + ["E6_1", "E7_1"]
# every registry type of rank at most 5, twisted or not, and E6 to E8
ALL_TYPES = dynkin.all_type_ids(5) + ["E6_1", "E7_1", "E8_1"]


def cartan_det(t):
    """det of the Cartan matrix 2 (alpha_i | alpha_k) / |alpha_k|^2, |P/Q|."""
    roots = t.simple_roots
    return int(oracles.det([[2 * t.inner(a, b) / t.inner(b, b) for b in roots] for a in roots]))


def test_matrix_errors():
    with pytest.raises(ValueError):
        matrix_Mj("D3_2", 1)   # only j in {0, 2} in D3_2
    with pytest.raises(ValueError):
        matrix_Mj("C3_1", 1)   # only j in {0, n} in type C


def test_matrix_is_cached_per_type_however_spelled():
    # param.LayerMap passes a name and weyl.extended_image a TypeData: one walk
    weyl._matrix_Mj.cache_clear()
    by_name = matrix_Mj("E7_1", 1)
    assert weyl._matrix_Mj.cache_info()[:2] == (0, 1)
    assert matrix_Mj(lookup_type("E7_1"), 1) is by_name
    assert weyl._matrix_Mj.cache_info()[:2] == (1, 1)
    with pytest.raises(ValueError, match="^layer index 2 invalid for E7_1$"):
        matrix_Mj(lookup_type("E7_1"), 2)


@pytest.mark.parametrize("name", [f"A{n}_1" for n in range(1, 9)]
                         + [f"C{n}_1" for n in range(2, 9)])
def test_derived_matrices_match_the_hand_typed_oracle(name):
    for j in sigma_indices(name):
        derived = matrix_Mj(name, j)
        assert derived == oracles.matrix_Mj(name, j), (name, j)
        assert all(type(x) is int for row in derived for x in row), (name, j)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_layer_maps_form_a_group_of_order_det_cartan(name):
    # x -> omega_j + M_j x: each fixes rho / h, the centre of the length
    # ((rho | alpha_k) = 1), and the maps are closed under composition.  In
    # an untwisted type there are det(Cartan) = |P/Q| of them, a count that
    # does not read t.J; in a twisted one the |J| + 1 maps are distinct
    t = lookup_type(name)
    weights = ((0,) * t.ambient_dim,) + dynkin.fundamental_weights(t)
    maps = {(weights[j], matrix_Mj(t, j)) for j in sigma_indices(t)}
    # rho pairs to 1 with every simple root; in type A the solver's total
    # has a component off the root span, which these pairings do not see
    centre = [F(x, t.root_solver.D * t.scale_sq * t.h) for x in t.root_solver.total]
    for w, M in maps:
        image = [x + y for x, y in zip(w, oracles.apply_matrix(M, centre))]
        assert [t.inner(a, image) for a in t.simple_roots] == [F(1, t.h)] * t.n

    def compose(f, g):
        (w, M), (v, N) = f, g
        return (tuple(x + y for x, y in zip(w, oracles.apply_matrix(M, v))),
                tuple(map(tuple, linalg.matmul(M, N))))
    assert all(compose(f, g) in maps for f in maps for g in maps)
    assert len(maps) == (cartan_det(t) if t.id.twist == 1 else len(t.J) + 1)


def test_matrix_group_relations():
    # M_1 has order n+1 in type A; M_n is an involution in type C
    m1 = matrix_Mj("A3_1", 1)
    v = (1, 2, 3, 4)
    w = v
    for _ in range(4):
        w = oracles.apply_matrix(m1, w)
    assert w == v
    assert matrix_Mj("A3_1", 2) == tuple(
        tuple(int((r - c) % 4 == 2) for c in range(4)) for r in range(4))
    mn = matrix_Mj("C2_1", 2)
    assert oracles.apply_matrix(mn, oracles.apply_matrix(mn, (3, -5))) == (3, -5)


def test_extended_image_examples():
    img = extended_image("A2_1", ExtGrassElement("A2_1", 1, (0, 0, 0)))
    assert img.coords == (F(2, 3), F(-1, 3), F(-1, 3))
    img = extended_image("A2_1", ExtGrassElement("A2_1", 1, (1, 0, -1)))
    assert img.coords == (F(-1, 3), F(2, 3), F(-1, 3))
    img = extended_image("C2_1", ExtGrassElement("C2_1", 2, (0, 0)))
    assert img.coords == (F(1, 2), F(1, 2))


def test_enumerate_extended_sizes():
    elems = enumerate_extended("A2_1", 0)
    assert [(e.j, e.q) for e in elems] == [(0, (0, 0, 0)), (1, (0, 0, 0)), (2, (0, 0, 0))]
    # oracle: re-evaluate the statistic on every image
    for target in (1, 6):
        elems = enumerate_extended("A2_1", target)
        assert len(elems) == 3 * len(atomic.enumerate_atomic("A2_1", 0, target))
        for e in elems:
            img = extended_image("A2_1", e)
            assert atomic.atomic_length0("A2_1", img.coords) == target
    assert len(enumerate_extended("C2_1", 40)) == 6


@pytest.mark.parametrize("name", ["B3_1", "D4_1", "E6_1", "D3_2", "A5_2"])
def test_enumerate_extended_beyond_types_a_and_c(name):
    # |Omega| elements per point of the level, each of whose images
    # re-evaluates to the target; |Omega| = 2 in D_{n+1}^(2) and A_{2n-1}^(2)
    t = lookup_type(name)
    order = cartan_det(t) if t.id.twist == 1 else 2
    for target in range(6):
        elems = enumerate_extended(t, target)
        assert len(elems) == order * len(atomic.enumerate_atomic(t, 0, target))
        for e in elems:
            assert atomic.atomic_length0(t, extended_image(t, e).coords) == target
    bad = min(set(range(1, t.n + 1)) - set(t.J))
    with pytest.raises(ValueError):
        extended_image(t, ExtGrassElement(name, bad, (0,) * t.ambient_dim))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_every_weyl_function_accepts_every_registry_type(name):
    # no type is refused: the layers, their matrices, the extended elements
    # of a level and their images, by name and by TypeData alike
    t = lookup_type(name)
    for ref in (name, t):
        assert sigma_indices(ref) == (0,) + t.J
        assert all(len(matrix_Mj(ref, j)) == t.ambient_dim for j in sigma_indices(ref))
        elems = enumerate_extended(ref, 1)
        assert len(elems) == len(sigma_indices(t)) * len(atomic.enumerate_atomic(t, 0, 1))
        for e in elems:
            assert atomic.atomic_length0(t, extended_image(ref, e).coords) == 1


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sigma_invariance_on_ball(name):
    t = lookup_type(name)
    radius = 2 if t.n <= 3 else 1
    for q in mball(t, radius):
        base = atomic.atomic_length0(t, q)
        for j in sigma_indices(t):
            img = extended_image(t, ExtGrassElement(name, j, q))
            assert atomic.atomic_length0(t, img.coords) == base


# untwisted types only: the modulus det(Cartan) = |P/Q| equals |Omega| there,
# and not in a twisted type (D3_2 has det(Cartan) 2 and |Omega| 2, A4_2 has 2
# and 1, E6_2 has 1 and 1)
@pytest.mark.parametrize("name,modulus", [(name, cartan_det(lookup_type(name)))
                                          for name in UNTWISTED])
def test_divisibility(name, modulus):
    t = lookup_type(name)
    bound = 200 if t.n <= 3 else 100 if t.n == 4 else 40
    buckets = oracles.enumerate_atomic_upto(t, 0, bound)
    for target in range(bound + 1):
        base = buckets.get(F(target), [])
        assert (len(sigma_indices(t)) * len(base)) % modulus == 0


def test_layer_rotation_power():
    # the layer-1 image is R^4 of the base image, the layer-2 image R^2
    from corelat.param import get_case, layer_image, map_p_a2
    case = get_case("A2ext")
    for q12 in itertools.product(range(-4, 5), repeat=2):
        q = q12 + (-sum(q12),)
        base = map_p_a2(q)
        rotated = {k: oracles.act("C6", k, base) for k in range(6)}
        assert layer_image(case, 1, q) == rotated[4]
        assert layer_image(case, 1, q) == (-rotated[1][0], -rotated[1][1])
        assert layer_image(case, 2, q) == rotated[2]


def test_lascoux_examples():
    assert lascoux_orbit(2, (0,)) == (1,)
    assert lascoux_orbit(2, (2, 1, 0)) == (3, 1)
    assert lascoux_orbit(2, ()) == ()
    # letters act as involutions
    assert lascoux_orbit(2, (0, 0)) == ()
    assert lascoux_orbit(3, (2, 1, 0, 0, 1, 2)) == ()


def test_lascoux_rejects_rank_below_one_and_bad_letters():
    for n, word in ((0, (0,)), (0, ()), (-1, ())):
        with pytest.raises(ValueError):
            lascoux_orbit(n, word)
    with pytest.raises(ValueError):
        lascoux_orbit(2, (3,))


def test_lascoux_charge_action_matches_cell_toggling_oracle():
    # every word of length <= 6 over the letters 0..n, for n = 1..4
    words = 0
    for n in range(1, 5):
        for length in range(7):
            for word in itertools.product(range(n + 1), repeat=length):
                assert lascoux_orbit(n, word) == oracles.lascoux_orbit(n, word)
                words += 1
    assert words == 26212


def test_lascoux_consistency_with_charges():
    # every atomic-length fibre consists of cores of that size
    for n in (2, 3):
        t = lookup_type(f"A{n}_1")
        buckets = oracles.enumerate_atomic_upto(t, 0, 30)
        for value, vectors in buckets.items():
            if value < 0:
                continue
            for v in vectors:
                charge = tuple(int(x) for x in v.coords)
                core = cores.core_from_charge(n + 1, charge)
                assert sum(core) == value
                assert cores.is_d_core(core, n + 1)


def test_lascoux_reaches_fibres():
    # greedy words from the alcove walk reproduce small cores: spot checks
    got = {lascoux_orbit(2, w) for w in itertools.product(range(3), repeat=4)}
    cores_up_to_4 = {c for n in range(5) for c in cores.enumerate_partitions(n, "core", 3)}
    assert cores_up_to_4 <= got
