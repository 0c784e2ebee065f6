import hashlib
import itertools
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from corelat import atomic, cores, dynkin, linalg
from corelat.cores import (
    BadCharge,
    NotACore,
    bar_core_from_lattice,
    charge_of_core,
    conjugate,
    core_from_charge,
    d4flat_from_lattice,
    diagonal_length,
    doubled_distinct,
    enumerate_partitions,
    format_partition,
    hook_lengths,
    is_d_core,
    parse_partition,
    residue_count,
    weighted_size,
)
from corelat.diophantine import solve_diagonal, solve_diagonal_meet

import oracles
from golden_data import D4FLAT_SMALL, D6_35, D6_SMALL, ENUMERATE_PARTITIONS_SHA256, SCC4_40
from oracles import (charge_symmetric, core_counts, enumerate_atomic_upto, is_self_conjugate,
                     size_form)


partitions_strategy = st.lists(st.integers(1, 12), min_size=0, max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True)))
SMALL_PARTITIONS = [p for n in range(16) for p in enumerate_partitions(n)]


def test_is_d_core_examples():
    assert is_d_core((8, 5, 5, 2, 2, 1), 5)
    assert not is_d_core((2,), 2)
    assert is_d_core((3, 1), 3)


def _check_hooks(parts, d):
    hooks = [h for row in hook_lengths(parts) for h in row]
    assert is_d_core(parts, d) == all(h != d for h in hooks), (parts, d)
    assert is_d_core(parts, d) == all(h % d != 0 for h in hooks), (parts, d)


@given(partitions_strategy, st.integers(2, 9))
@settings(max_examples=300, deadline=None, derandomize=True)
def _check_random_hooks(parts, d):
    _check_hooks(parts, d)


def test_no_hook_d_iff_no_hook_multiple_of_d():
    # every partition of n <= 15 at d = 2..7, then larger random ones
    for parts in SMALL_PARTITIONS:
        for d in range(2, 8):
            _check_hooks(parts, d)
    _check_random_hooks()


def test_charge_examples():
    assert charge_of_core(5, (8, 5, 5, 2, 2, 1)) == (0, -1, 2, 1, -2)
    assert charge_of_core(3, (3, 1)) == (0, -1, 1)
    for d in (2, 3, 5, 8):
        assert charge_of_core(d, ()) == (0,) * d
    with pytest.raises(NotACore):
        charge_of_core(2, (2,))


def test_core_from_charge_examples():
    assert core_from_charge(5, (0, -1, 2, 1, -2)) == (8, 5, 5, 2, 2, 1)
    assert core_from_charge(3, (0, -1, 1)) == (3, 1)
    assert core_from_charge(4, (0, 0, 0, 0)) == ()
    assert core_from_charge(1, (0,)) == ()
    for d, charge, message in ((3, (1, 0, 0), "sum to 0"), (0, (), "got 0")):
        with pytest.raises(BadCharge, match=message):
            core_from_charge(d, charge)


def test_round_trip_small():
    for d in range(2, 9):
        for n in range(0, 31):
            for lam in enumerate_partitions(n, "core", d):
                assert core_from_charge(d, charge_of_core(d, lam)) == lam
    # every charge with entries in [-3, 3] at d <= 5, and every non-core of
    # size at most 15 at d = 2..7
    for d in range(2, 6):
        for half in itertools.product(range(-3, 4), repeat=d - 1):
            if abs(sum(half)) <= 3:
                charge = half + (-sum(half),)
                assert charge_of_core(d, core_from_charge(d, charge)) == charge
    for parts in SMALL_PARTITIONS:
        for d in range(2, 8):
            if not is_d_core(parts, d):
                with pytest.raises(NotACore):
                    charge_of_core(d, parts)


@given(st.integers(2, 7), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_round_trip_random_charges(d, data):
    half = data.draw(st.lists(st.integers(-5, 5), min_size=d - 1, max_size=d - 1))
    charge = tuple(half) + (-sum(half),)
    lam = core_from_charge(d, charge)
    assert is_d_core(lam, d)
    assert charge_of_core(d, lam) == charge


def test_type_a_size_law():
    # |core(charge)| equals the atomic length of the charge as a lattice point
    for n in range(1, 5):
        t = f"A{n}_1"
        for m in itertools.product(range(-2, 3), repeat=n):
            charge = m + (-sum(m),)
            lam = core_from_charge(n + 1, charge)
            assert sum(lam) == atomic.atomic_length0(t, charge)


def test_enumerate_partitions_examples():
    assert enumerate_partitions(40, "scc", 4) == sorted(SCC4_40)
    assert len(enumerate_partitions(6, "core", 3)) == 2
    for kind, d in (("all", None), ("core", 3), ("scc", 4), ("scc-plus", 4)):
        assert enumerate_partitions(0, kind, d) == [()]


def test_enumerate_partitions_against_filtered_bruteforce():
    for n in range(0, 16):
        everything = enumerate_partitions(n)
        assert len(set(everything)) == len(everything) == len(list(everything))
        for d in (2, 3, 4):
            assert enumerate_partitions(n, "core", d) == \
                [p for p in everything if is_d_core(p, d)]
        for d in range(2, 8):
            assert enumerate_partitions(n, "scc", d) == \
                [p for p in everything if is_self_conjugate(p) and is_d_core(p, d)]
            assert enumerate_partitions(n, "scc-plus", d) == \
                [p for p in everything if is_self_conjugate(p) and is_d_core(p, d)
                 and diagonal_length(p) % 2 == 0]


def registry_size_form(d, self_conjugate):
    """The registry form cores reads the size of a d-core off, and the
    integer matrix T taking its coefficients to those of size_form."""
    k = d // 2
    if not self_conjugate or d == 2:
        form = atomic.length_form(f"A{d - 1}_1", 0, "M")
        # a sum-zero charge c is sum_j c_j (e_j - e_{d-1})
        return form, [[v[j] for v in form.basis] for j in range(d - 1)]
    if d % 2 == 0:     # charge (m, -reversed m)
        return atomic.length_form(f"C{k}_1", 0, "M"), [[int(i == j) for i in range(k)]
                                                       for j in range(k)]
    # charge (-reversed m, 0, m)
    return (atomic.length_form(f"A{d - 1}_2", k, "M"),
            [[-int(i == k - 1 - j) for i in range(k)] for j in range(k)])


@pytest.mark.parametrize("d", range(2, 21))
def test_core_size_is_the_registry_atomic_length(d):
    # the oracle's form becomes the registry's exactly under the unimodular
    # T: T^t a T = a' and b T = b'
    for self_conjugate in (False, True):
        form, T = registry_size_form(d, self_conjugate)
        oracle = size_form(d, self_conjugate)
        columns = list(zip(*T))
        aT = [[linalg.dot(row, col) for col in columns] for row in oracle.a]
        assert abs(oracles.det(T)) == 1
        assert form.a == tuple(tuple(linalg.dot(col, aT_col) for aT_col in zip(*aT))
                               for col in columns)
        assert form.b == tuple(linalg.dot(oracle.b, col) for col in columns)


def test_cores_of_size_match_the_charge_space_oracle():
    for d in range(2, 13):
        for self_conjugate in (False, True):
            oracle = size_form(d, self_conjugate)
            for n in range(31):
                assert cores._cores_of_size(n, d, self_conjugate) == sorted(
                    core_from_charge(d, charge) for charge in oracle.level(n))


def test_core_counts_are_the_garvan_kim_stanton_coefficients():
    for d in range(2, 9):
        assert [len(enumerate_partitions(n, "core", d)) for n in range(41)] == core_counts(d, 40)


def test_enumerate_partitions_is_byte_identical():
    data = [(d, kind, n, enumerate_partitions(n, kind, d))
            for d in range(2, 11) for kind in ("core", "scc", "scc-plus") for n in range(41)]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == ENUMERATE_PARTITIONS_SHA256


@pytest.mark.parametrize("kind, d", [
    ("core", 60),
    ("core", dynkin.MAX_RANK_LABEL + 2),             # A51_1
    ("scc", dynkin.MAX_RANK_LABEL + 3),              # A52_2
    ("scc-plus", 2 * dynkin.MAX_RANK_LABEL + 2),     # C51_1
])
def test_d_above_the_registry_cap_is_refused(kind, d):
    # refused as the type id is parsed, before any type data is built
    with pytest.raises(dynkin.UnknownType, match="above the largest supported"):
        enumerate_partitions(10, kind, d)


@pytest.mark.parametrize("kind, d, cap", [
    ("core", 60, 51), ("scc", 53, 51), ("scc-plus", 102, 100)])
def test_d_is_refused_in_the_callers_words(kind, d, cap):
    with pytest.raises(dynkin.UnknownType) as refused:
        enumerate_partitions(10, kind, d)
    assert f"d = {d}" in str(refused.value) and f", {cap}" in str(refused.value)
    with pytest.raises(ValueError, match="not an integer"):
        enumerate_partitions(10, kind, 2.5)


@pytest.mark.parametrize("kind, d", [("all", None), ("core", 2), ("core", 3), ("scc", 3),
                                     ("scc-plus", 4)])
def test_size_is_read_as_an_integer(kind, d):
    # n is read as d is: an integral float is its int, a fraction is refused
    assert enumerate_partitions(3.0, kind, d) == enumerate_partitions(3, kind, d)
    for n in (2.5, F(5, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            enumerate_partitions(n, kind, d)


def test_residue_count():
    assert residue_count((), 4, 0) == 0
    assert residue_count((1,), 5, 0) == 1
    assert residue_count((3, 1), 3, 0) == 1
    assert residue_count((3, 1), 3, 1) == 1
    assert residue_count((3, 1), 3, 2) == 2
    assert sum(residue_count((6, 4, 2, 1), 4, i) for i in range(4)) == 13


def test_weighted_size_values():
    assert weighted_size("C", (5, 3, 1), 2) == 9
    assert weighted_size("Dt", (), 2) == 0
    assert weighted_size("Aeven", (1,), 2) == 1     # (|l| + |l|_0) / 2
    assert weighted_size("Dt", (1,), 2) == 1        # (|l| + |l|_0 + |l|_n) / 2
    assert weighted_size("B", (1,), 3) == 0
    assert weighted_size("Aodd", (1,), 3) == 0
    assert weighted_size("D", (1,), 4) == 0


def scc_by_charge(d, radius, plus=False):
    for half in itertools.product(range(-radius, radius + 1), repeat=d // 2):
        lam = core_from_charge(d, charge_symmetric(d, half))
        if plus and diagonal_length(lam) % 2:
            continue
        yield lam


def test_symmetric_charges_are_self_conjugate():
    for d in (4, 6):
        for lam in scc_by_charge(d, 3):
            assert is_self_conjugate(lam)
            assert is_d_core(lam, d)
    # and conversely on diagram-enumerated cores
    for d in (4, 6):
        for n in range(0, 21):
            for lam in enumerate_partitions(n, "core", d):
                ch = charge_of_core(d, lam)
                symmetric = all(ch[j] == -ch[d - 1 - j] for j in range(d))
                assert symmetric == is_self_conjugate(lam)


def _length_counter(type_id, bound):
    counter = Counter()
    for value, vs in enumerate_atomic_upto(type_id, 0, bound).items():
        if value >= 0:
            counter[F(value)] += len(vs)
    return counter


@pytest.mark.parametrize("rule,type_id,n,plus,radius", [
    ("Dt", "D3_2", 2, False, 6),
    ("Dt", "D4_2", 3, False, 4),
    ("Aeven", "A4_2", 2, False, 6),
    ("Aeven", "A6_2", 3, False, 4),
    ("B", "B3_1", 3, True, 4),
    ("Aodd", "A5_2", 3, True, 4),
    ("D", "D4_1", 4, True, 3),
])
def test_weighted_size_multisets_match_lengths(rule, type_id, n, plus, radius):
    bound = 25
    target = _length_counter(type_id, bound)
    for r in (radius, radius + 1):       # stabilisation guard for completeness
        got = Counter()
        for lam in scc_by_charge(2 * n, r, plus):
            w = weighted_size(rule, lam, n)
            if 0 <= w <= bound:
                got[w] += 1
        if r == radius:
            first = got
    assert first == got
    for target_n in range(bound + 1):
        assert got.get(F(target_n), 0) == target.get(F(target_n), 0)


def scc6_flat(radius):
    for c1, c2 in itertools.product(range(-radius, radius + 1), repeat=2):
        yield core_from_charge(6, (c1, c2, c1 - c2, c2 - c1, -c2, -c1))


@pytest.mark.parametrize("rule,type_id", [("G2", "G2_1"), ("D43", "D4_3")])
def test_flat_model_multisets(rule, type_id):
    bound = 25
    target = _length_counter(type_id, bound)
    for r in (6, 7):
        got = Counter()
        for lam in scc6_flat(r):
            assert is_self_conjugate(lam)
            w = weighted_size(rule, lam, 2)
            if 0 <= w <= bound:
                got[w] += 1
        if r == 6:
            first = got
    assert first == got
    for target_n in range(bound + 1):
        assert got.get(F(target_n), 0) == target.get(F(target_n), 0)


def test_doubled_distinct_shape():
    assert doubled_distinct((4, 2, 1)) == (5, 4, 4, 1)
    assert doubled_distinct(()) == ()
    # Frobenius arms exceed legs by one
    dd = doubled_distinct((7, 3, 2))
    conj = conjugate(dd)
    r = diagonal_length(dd)
    for i in range(r):
        assert (dd[i] - (i + 1)) == (conj[i] - (i + 1)) + 1


def test_bar_core_examples():
    assert bar_core_from_lattice(2, (-3, 1)) == (17, 11, 5, 2)
    assert bar_core_from_lattice(2, (3, -2)) == (13, 10, 7, 4, 1)
    assert bar_core_from_lattice(2, (0, 0)) == ()


def test_bar_core_tables():
    for target, expected in D6_SMALL.items():
        got = sorted(bar_core_from_lattice(2, v.coords)
                     for v in atomic.enumerate_atomic("D3_2", 0, target))
        assert got == sorted(expected)
    got35 = sorted(bar_core_from_lattice(2, v.coords)
                   for v in atomic.enumerate_atomic("D3_2", 0, 35))
    assert got35 == sorted(D6_35)


def test_bar_core_size_law_and_membership():
    for target in range(0, 41):
        for v in atomic.enumerate_atomic("D3_2", 0, target):
            lam = bar_core_from_lattice(2, v.coords)
            assert sum(lam) == target
            assert cores.is_strict(lam)
            assert 3 not in lam                      # no part n+1
            assert is_d_core(doubled_distinct(lam), 6)


def test_d4flat_examples():
    assert d4flat_from_lattice((-3, 1)) == (10, 6, 4, 3, 2)
    assert d4flat_from_lattice((0, 0)) == ()
    assert d4flat_from_lattice((-1, -1)) == (4, 2, 1)


def test_d4flat_table():
    for target, expected in D4FLAT_SMALL.items():
        got = sorted(d4flat_from_lattice(v.coords)
                     for v in atomic.enumerate_atomic("D4_3", 0, target))
        assert got == sorted(expected)


def test_d4flat_size_law_and_intrinsic_conditions():
    for target in range(0, 41):
        for v in atomic.enumerate_atomic("D4_3", 0, target):
            lam = d4flat_from_lattice(v.coords)
            assert sum(lam) == target
            assert cores.is_strict(lam)
            # intrinsic description: no 4-hook below the diagonal of the
            # doubled diagram, and the residue-class part counts are related
            dd = doubled_distinct(lam)
            conj = conjugate(dd)
            for r in range(len(dd)):
                for c in range(1, dd[r] + 1):
                    if r + 1 > c:   # strictly below the diagonal
                        hook = dd[r] - c + conj[c - 1] - r
                        assert hook != 4
            m = Counter(p % 4 for p in lam)
            signed = m[1] + m[3]    # at most one of the two classes is occupied
            assert any(m[0] == s1 * signed + s2 * m[2] - d
                       for s1 in (1, -1) for s2 in (1, -1) for d in (0, 1))


def test_partition_serialisation():
    assert format_partition((17, 11, 5, 2)) == "17,11,5,2"
    assert format_partition(()) == "-"
    assert parse_partition("17,11,5,2") == (17, 11, 5, 2)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()


def test_bar_from_doubled_rejects_non_doubled_shapes():
    assert cores.bar_from_doubled((2, 2)) is None
    assert cores.bar_from_doubled((1,)) is None
    assert cores.bar_from_doubled((2, 1)) is None
    assert cores.bar_from_doubled((3, 1)) == (2,)   # the double of a single row
    assert cores.bar_from_doubled(doubled_distinct((4, 2, 1))) == (4, 2, 1)


# Inputs on which the bead-set constructions are checked against the
# original row-and-part-list ones kept in the oracles.
REFERENCE_INPUTS = {
    "doubled_distinct": lambda: [(p,) for p in SMALL_PARTITIONS if cores.is_strict(p)],
    "bar_from_doubled": lambda: [(p,) for p in SMALL_PARTITIONS],
    "bar_core_from_lattice": lambda: [(n, q) for n in range(1, 5)
                                      for q in itertools.product(range(-3, 4), repeat=n)],
    "d4flat_from_lattice": lambda: [(q,) for q in itertools.product(range(-6, 7), repeat=2)],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
def test_bead_models_match_the_row_constructions(name):
    for args in REFERENCE_INPUTS[name]():
        assert getattr(cores, name)(*args) == getattr(oracles, name)(*args), args


# (call, arguments with a non-integral entry, arguments with integral
# Fractions and floats)
NON_INTEGRAL_CALLS = [
    (solve_diagonal, ((F(3, 2), 1), 2), ((F(2), 1.0), 8)),
    (solve_diagonal_meet, ((F(3, 2), 1), 2), ((F(2), 1.0), 8)),
    (bar_core_from_lattice, (2, (F(1, 2), 0)), (2, (F(-3), 1.0))),
    (core_from_charge, (3, (F(1, 2), F(-1, 2), 0)), (3, (F(0), -1.0, 1))),
    (d4flat_from_lattice, ((F(1, 2), 0),), ((F(-3), 1.0),)),
    (cores.validate_partition, ((2.5, 1),), ((F(2), 1.0),)),
    # the right-hand side k is read as the form is
    (solve_diagonal, ((1, 1), F(5, 2)), ((1, 1), F(5))),
    (solve_diagonal, ((1, 1), 2.5), ((1, 1), 5.0)),
    (solve_diagonal, ((1, 1), 2.5, "D8"), ((1, 1), 5.0, "D8")),
    (solve_diagonal_meet, ((1, 1), F(5, 2)), ((1, 1), F(5))),
    (solve_diagonal_meet, ((1, 1), 2.5), ((1, 1), 5.0)),
    # a string is refused as a fraction is, not formatted by %
    (solve_diagonal, (("1", "3"), 4), ((F(1), 3.0), 4)),
]


def _plain(arg):
    """An integral argument as ints: a tuple entry by entry, a number itself."""
    if isinstance(arg, tuple):
        return tuple(map(int, arg))
    return int(arg) if isinstance(arg, (F, float)) else arg


def _row_id(call, args):
    """The call's name, then each non-integral scalar argument, the group and
    a tuple that holds a string."""
    return "-".join([call.__name__] + [str(a) for a in args if isinstance(a, (F, float, str)) or
                                       isinstance(a, tuple) and any(isinstance(x, str) for x in a)])


NON_PARTITION_CALLS = [
    # increasing parts: each once read them as a partition they are not
    (charge_of_core, (3, (1, 2))),          # a charge whose core is (4, 2)
    (is_d_core, ((1, 2), 3)),
    (hook_lengths, ((1, 2),)),              # an IndexError
    (conjugate, ((1, 2),)),
    (residue_count, ((1, 2), 3, 0)),
    # a zero part, and a part that is not an integer (a TypeError)
    (is_d_core, ((2, 0), 3)),
    (charge_of_core, (3, (2.5,))),
    # a string or None part, which no arithmetic reads as a number
    (cores.validate_partition, (("2",),)),
    (charge_of_core, (3, ("2",))),
    (cores.validate_partition, ((None,),)),
]


@pytest.mark.parametrize("call,args", NON_PARTITION_CALLS,
                         ids=[f"{call.__name__}-{args}" for call, args in NON_PARTITION_CALLS])
def test_a_non_partition_is_refused(call, args):
    with pytest.raises(ValueError, match="^partition parts must be|is not an integer$"):
        call(*args)


@pytest.mark.parametrize("call,args,integral_args", NON_INTEGRAL_CALLS,
                         ids=[_row_id(call, args) for call, args, _ in NON_INTEGRAL_CALLS])
def test_non_integral_input_is_refused(call, args, integral_args):
    with pytest.raises(ValueError, match="is not an integer"):
        call(*args)
    # integral Fractions and floats are the integers they equal
    plain = [_plain(a) for a in integral_args]
    assert call(*integral_args) == call(*plain)


def _form_search(a, b, basis):
    """The compiled level search of a form, which factors its quadratic part."""
    return linalg.QuadraticForm(a, b, basis).ball


# input outside each function's domain: the call, its arguments, and the
# exception it raises with its whole message
OUT_OF_DOMAIN_CALLS = [
    (atomic.length_form, ("A2_1", 0, "X"), ValueError, "unknown lattice 'X'"),
    (atomic.length_form, ("A2_1", 9, "M"), atomic.BadIndex, "index 9 outside 0..2 for A2_1"),
    (is_d_core, ((2, 1), 1), ValueError, "d must be at least 2"),
    (residue_count, ((2, 1), 3, 3), ValueError, "residue outside 0..d-1"),
    (core_from_charge, (3, (1, -1)), BadCharge, "expected 3 entries, got 2"),
    (enumerate_partitions, (-1,), ValueError, "size must be non-negative"),
    (enumerate_partitions, (3, "core"), ValueError, "kind 'core' needs d >= 2"),
    (enumerate_partitions, (3, "nope", 3), ValueError, "unknown filter 'nope'"),
    (weighted_size, ("nope", (1,), 2), ValueError, "unknown rule 'nope'"),
    (doubled_distinct, ((2, 2),), ValueError, "doubled diagram needs distinct parts"),
    (bar_core_from_lattice, (2, (1,)), ValueError, "expected 2 coordinates"),
    (_form_search, (((1, 0), (0, 0)), (0, 0), ((1, 0), (0, 1))), ValueError,
     "form is not positive definite"),
]


@pytest.mark.parametrize("call,args,error,message", OUT_OF_DOMAIN_CALLS,
                         ids=[_row_id(call, args) for call, args, *_ in OUT_OF_DOMAIN_CALLS])
def test_input_outside_the_domain_is_refused(call, args, error, message):
    with pytest.raises(error) as raised:
        call(*args)
    assert type(raised.value) is error and str(raised.value) == message
