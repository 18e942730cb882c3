"""Table-based finite fields and the perfect-difference-set generator."""

from __future__ import annotations

import itertools
import re

import pytest

from bigraphds import singer
from bigraphds.diffsets import PERFECT, CandidateSet, classify_set
from bigraphds.errors import CapacityError, ValidationError
from bigraphds.groups import build_cyclic
from bigraphds.singer import (
    PUBLISHED_PERFECT_SETS,
    build_field,
    prime_power_decompose,
    singer_set,
)

# (poly_used, exponents_raw, set elements) of singer_set(q) for every prime
# power q <= 31, as produced by the earlier implementation that built GF(q)
# and GF(q^3) as field classes; the table fields must reproduce them exactly.
PINNED = {
    2: (
        (1, 0, 1, 1),
        (0, 1, 5),
        (0, 1, 5),
    ),
    3: (
        (1, 0, 2, 1),
        (0, 1, 18, 24),
        (0, 1, 5, 11),
    ),
    4: (
        (2, 1, 1, 1),
        (0, 1, 37, 46, 56),
        (0, 1, 4, 14, 16),
    ),
    5: (
        (2, 0, 1, 1),
        (0, 1, 6, 22, 29, 49),
        (0, 1, 6, 18, 22, 29),
    ),
    7: (
        (2, 1, 1, 1),
        (0, 1, 14, 69, 118, 144, 265, 280),
        (0, 1, 4, 12, 14, 30, 37, 52),
    ),
    8: (
        (2, 0, 2, 1),
        (0, 1, 43, 205, 376, 432, 458, 476, 509),
        (0, 1, 11, 20, 38, 43, 59, 67, 71),
    ),
    9: (
        (3, 0, 3, 1),
        (0, 1, 43, 122, 338, 362, 379, 491, 648, 720),
        (0, 1, 11, 15, 31, 36, 43, 65, 83, 89),
    ),
    11: (
        (3, 0, 1, 1),
        (0, 1, 21, 131, 339, 438, 708, 846, 903, 1118, 1181, 1205),
        (0, 1, 8, 21, 39, 43, 48, 54, 73, 105, 117, 131),
    ),
    13: (
        (2, 0, 1, 1),
        (0, 1, 8, 107, 181, 519, 952, 1054, 1122, 1322, 1340, 1775, 2132, 2147),
        (0, 1, 8, 24, 37, 41, 59, 107, 119, 128, 134, 139, 153, 181),
    ),
    16: (
        (2, 0, 1, 1),
        (0, 1, 271, 639, 889, 1608, 1632, 1718, 2225, 2604, 3039, 3161, 3187, 3760, 3841, 3960, 4081),
        (0, 1, 19, 36, 41, 70, 80, 93, 138, 147, 158, 184, 211, 243, 259, 267, 271),
    ),
    17: (
        (3, 0, 2, 1),
        (0, 1, 7, 56, 681, 721, 919, 1155, 1437, 1509, 1612, 1620, 1781, 2853, 2934, 4419, 4564, 4867),
        (0, 1, 7, 56, 67, 77, 85, 90, 107, 121, 171, 209, 234, 246, 262, 266, 281, 305),
    ),
    19: (
        (4, 0, 4, 1),
        (0, 1, 502, 805, 837, 2046, 2236, 2293, 2467, 2967, 3365, 3427, 3707, 4080, 4926, 5190, 5249, 5885, 6261, 6465),
        (0, 1, 7, 43, 75, 121, 141, 165, 170, 181, 237, 270, 278, 296, 300, 317, 331, 354, 369, 379),
    ),
    23: (
        (2, 0, 2, 1),
        (0, 1, 197, 217, 1043, 1927, 2620, 3965, 4665, 4793, 4947, 4964, 5052, 5077, 5583, 6081, 7368, 7752, 7975, 8187, 9137, 9342, 9469, 10357),
        (0, 1, 10, 53, 68, 75, 94, 100, 179, 197, 217, 233, 241, 268, 289, 369, 403, 408, 445, 490, 494, 523, 540, 551),
    ),
    25: (
        (5, 0, 4, 1),
        (0, 1, 544, 1615, 2303, 4044, 4279, 4444, 5353, 6330, 6453, 8461, 8996, 10646, 10797, 11315, 11397, 11872, 12002, 12163, 12203, 12976, 13639, 14194, 14243, 15327),
        (0, 1, 138, 145, 154, 230, 248, 284, 313, 330, 350, 354, 373, 381, 445, 471, 485, 523, 533, 538, 544, 572, 594, 607, 619, 649),
    ),
    27: (
        (4, 0, 2, 1),
        (0, 1, 1550, 1645, 2460, 2786, 3020, 3577, 4221, 5025, 5478, 5989, 7348, 8412, 8881, 10106, 10518, 10596, 12958, 15246, 15531, 16150, 16970, 17557, 17825, 17976, 18954, 19656),
        (0, 1, 29, 36, 85, 89, 106, 131, 146, 179, 189, 253, 265, 316, 391, 414, 436, 483, 515, 535, 549, 554, 565, 677, 690, 731, 749, 755),
    ),
    29: (
        (2, 0, 3, 1),
        (0, 1, 70, 921, 3180, 6278, 6781, 6869, 7853, 8632, 8708, 8954, 9497, 10097, 10212, 11597, 14408, 14442, 14812, 15141, 17719, 18078, 18184, 19286, 19868, 22684, 22991, 23022, 23371, 23834),
        (0, 1, 5, 14, 38, 50, 70, 124, 181, 244, 274, 299, 317, 334, 345, 376, 472, 506, 516, 567, 631, 658, 684, 706, 725, 764, 772, 787, 793, 869),
    ),
    31: (
        (7, 0, 6, 1),
        (0, 1, 299, 930, 1306, 5956, 6190, 6839, 7241, 7636, 12023, 12401, 15103, 15244, 15755, 17725, 17737, 18504, 20081, 20669, 21395, 21751, 22579, 23144, 23306, 25845, 26405, 26622, 27268, 27771, 27870, 28817),
        (0, 1, 20, 27, 66, 107, 208, 221, 232, 290, 299, 305, 313, 349, 457, 467, 485, 542, 587, 630, 685, 733, 804, 809, 844, 856, 860, 881, 898, 930, 960, 991),
    ),
}


# --- general polynomial arithmetic over a table field, the oracle of the power walk ---------


def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def mul_mod(field, a: tuple[int, ...], b: tuple[int, ...], modulus) -> tuple[int, ...]:
    """a*b in field[x]/(modulus) for a monic modulus; a, b hold deg(modulus) coefficients."""
    add, mul, sub = field
    deg = len(modulus) - 1
    prod = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                prod[i + j] = add[prod[i + j]][row[bj]]
    for top in range(2 * deg - 2, deg - 1, -1):
        if prod[top]:
            row = mul[prod[top]]
            for i in range(deg):
                prod[top - deg + i] = sub[prod[top - deg + i]][row[modulus[i]]]
    return tuple(prod[:deg])


def pow_mod(field, a: tuple[int, ...], e: int, modulus) -> tuple[int, ...]:
    """a^e in field[x]/(modulus) by square-and-multiply."""
    acc = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = mul_mod(field, acc, a, modulus)
        a = mul_mod(field, a, a, modulus)
        e >>= 1
    return acc


def has_root(field, poly) -> bool:
    add, mul, _ = field
    for a in range(len(add)):
        acc = 0
        for c in reversed(poly):
            acc = add[mul[acc][a]][c]
        if acc == 0:
            return True
    return False


def oracle_is_primitive(field, poly) -> bool:
    """Primitivity by square-and-multiply: no root in F, x^r = 1 and x^(r/l) != 1 for each
    prime l | r, with r = |F|^deg - 1."""
    deg = len(poly) - 1
    if deg < 2 or has_root(field, poly):
        return False
    r = len(field[0]) ** deg - 1
    x, one = (0, 1) + (0,) * (deg - 2), (1,) + (0,) * (deg - 1)
    if pow_mod(field, x, r, poly) != one:
        return False
    return all(pow_mod(field, x, r // ell, poly) != one for ell in prime_factors(r))


def oracle_power_walk(p: int, modulus: tuple[int, ...]) -> int:
    """Order of x modulo a monic polynomial over GF(p), by plain list arithmetic."""
    deg = len(modulus) - 1
    elem = [1] + [0] * (deg - 1)
    for step in range(1, p**deg):
        elem = [0] + elem  # multiply by x
        while len(elem) > deg:
            lead = elem.pop()
            for i in range(deg):
                elem[i] = (elem[i] - lead * modulus[i]) % p
        if elem == [1] + [0] * (deg - 1):
            return step
    raise AssertionError("x is not invertible modulo the given polynomial")


def oracle_reducible_cubics(p: int) -> set[tuple[int, ...]]:
    """All reducible monic cubics over GF(p) as products linear * quadratic."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    linears = [(c, 1) for c in range(p)]
    quads = [(c0, c1, 1) for c0 in range(p) for c1 in range(p)]
    return {mul(l, q) for l in linears for q in quads}


def walk_is_primitive(field, poly) -> bool:
    """build_field's test of a monic poly of degree >= 2 with f0 != 0: its power walk first
    returns to 1 at step |F|^deg - 1."""
    return len(singer._power_walk(field, poly)) == len(field[0]) ** (len(poly) - 1) - 1


def cubic_is_primitive(field, poly) -> bool:
    """singer_set's test of a monic cubic: _singer_logs walks it to the end."""
    return singer._singer_logs(field, poly) is not None


def order_of_x(field, modulus) -> int:
    deg = len(modulus) - 1
    x, one = (0, 1) + (0,) * (deg - 2), (1,) + (0,) * (deg - 1)
    return next(e for e in range(1, len(field[0]) ** deg) if pow_mod(field, x, e, modulus) == one)


def test_prime_power_decompose():
    assert prime_power_decompose(2) == (2, 1)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(11) == (11, 1)
    assert prime_power_decompose(6) is None
    assert prime_power_decompose(1) is None


def test_prime_field_basics():
    add, mul, sub = build_field(3)
    assert add[2][2] == 1 and mul[2][2] == 1 and sub[0][1] == 2 and sub[1][2] == 2
    for q in (1, 6, 12):
        with pytest.raises(ValidationError):
            build_field(q)


def test_gf4_uses_the_unique_irreducible_quadratic():
    f2 = build_field(2)
    assert walk_is_primitive(f2, (1, 1, 1)) and not walk_is_primitive(f2, (1, 0, 1))  # x^2 + x + 1
    add, mul, _ = build_field(4)
    assert mul[2][2] == 3  # x * x = x + 1, digits (1, 1)
    assert add[2][3] == 1  # x + (x + 1) = 1
    assert order_of_x(build_field(2), (1, 1, 1)) == 3


def test_published_cubic_over_gf3_is_primitive():
    f3 = build_field(3)
    assert walk_is_primitive(f3, (1, 1, 2, 1)) and cubic_is_primitive(f3, (1, 1, 2, 1))
    assert order_of_x(f3, (1, 1, 2, 1)) == 26
    assert oracle_power_walk(3, (1, 1, 2, 1)) == 26


def test_gf2_cubic_x3_x_1_is_primitive():
    assert singer_set(2, (1, 1, 0, 1)).poly_used == (1, 1, 0, 1)
    assert oracle_power_walk(2, (1, 1, 0, 1)) == 7


def test_irreducibility_matches_bruteforce_over_gf3():
    """For a cubic, having no root is irreducibility; primitive implies both."""
    f3 = build_field(3)
    reducible = oracle_reducible_cubics(3)
    for coeffs in itertools.product(range(3), repeat=3):
        poly = (*coeffs, 1)
        assert has_root(f3, poly) == (poly in reducible), poly
        assert not (cubic_is_primitive(f3, poly) and poly in reducible), poly
    # the spec's spot check: x^3 + 2x + 1 against the brute-force factorization
    assert has_root(f3, (1, 2, 0, 1)) == ((1, 2, 0, 1) in reducible)


@pytest.mark.parametrize(
    "p, degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (3,))], ids=["GF2", "GF3", "GF5"]
)
def test_is_primitive_matches_the_power_walk_oracle(p, degrees):
    """The table walks against plain list arithmetic.  x is no unit for f0 = 0, where only
    the cubic walk is defined, and it must reject."""
    field = build_field(p)
    for deg in degrees:
        primitive = 0
        for coeffs in itertools.product(range(p), repeat=deg):
            poly = (*coeffs, 1)
            want = coeffs[0] != 0 and oracle_power_walk(p, poly) == p**deg - 1
            if coeffs[0]:
                assert walk_is_primitive(field, poly) == want, poly
            if deg == 3:
                assert cubic_is_primitive(field, poly) == want, poly
            primitive += want
        assert primitive > 0


def test_find_primitive_cubic_is_lexicographically_first():
    f3 = build_field(3)
    chosen = singer_set(3).poly_used
    assert oracle_is_primitive(f3, chosen) and cubic_is_primitive(f3, chosen)
    for coeffs in itertools.product(range(3), repeat=3):
        poly = (*coeffs, 1)
        if poly == chosen:
            break
        assert not oracle_is_primitive(f3, poly) and not cubic_is_primitive(f3, poly), poly


def test_extension_x_satisfies_the_first_primitive_polynomial():
    """In every GF(p^k), q <= 31, x (index p) is a root of the lexicographically first monic
    degree-k polynomial over GF(p) that square-and-multiply calls primitive: x^k, read from
    the table, is -(f0 + f1 x + ... + f_(k-1) x^(k-1))."""
    for q in (4, 8, 9, 16, 25, 27):
        p, k = prime_power_decompose(q)
        add, mul, sub = build_field(q)
        poly = oracle_find_primitive_poly(build_field(p), k)
        lower, x_power = 0, 1  # f0 + ... + f_(i-1) x^(i-1), and x^i
        for f in poly[:-1]:  # f < p is the same element of GF(p) in both fields
            lower, x_power = add[lower][mul[f][x_power]], mul[x_power][p]
        assert x_power == sub[0][lower], (q, poly)


def test_extension_generator_orders():
    """x, index p, generates the units of every extension field GF(p^k), q <= 31."""
    for q in (4, 8, 9, 16, 25, 27):
        p, _ = prime_power_decompose(q)
        _, mul, _ = build_field(q)
        powers, elem = set(), 1
        for _ in range(q - 1):
            powers.add(elem)
            elem = mul[elem][p]
        assert elem == 1 and powers == set(range(1, q)), q


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_field_axioms(q):
    add, mul, sub = build_field(q)
    p, _ = prime_power_decompose(q)
    elems = range(q)
    for a in elems:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][sub[0][a]] == 0
        assert a == 0 or any(mul[a][b] == 1 for b in elems)
        multiple = 0
        for _ in range(p):
            multiple = add[multiple][a]
        assert multiple == 0  # characteristic p
        for b in elems:
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
            assert add[sub[a][b]][b] == a
            for c in elems:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_frobenius_identity():
    for q in (4, 8, 9, 16):
        add, mul, _ = build_field(q)
        p, k = prime_power_decompose(q)

        def frob(a):
            out = 1
            for _ in range(p):
                out = mul[out][a]
            return out

        images = [frob(a) for a in range(q)]
        assert sorted(images) == list(range(q))  # an automorphism
        for a in range(q):
            for b in range(q):
                assert frob(add[a][b]) == add[frob(a)][frob(b)]
                assert frob(mul[a][b]) == mul[frob(a)][frob(b)]
            fixed = a
            for _ in range(k):
                fixed = frob(fixed)
            assert fixed == a  # Frobenius has order dividing k
        assert sum(frob(a) == a for a in range(q)) == p  # its fixed field is GF(p)


def test_singer_q2_lies_in_bruteforce_perfect_family():
    z7 = build_cyclic(7)
    perfect = {
        elems
        for elems in itertools.combinations(range(7), 3)
        if classify_set(CandidateSet(z7, elems)).verdict == PERFECT
    }
    assert (0, 1, 3) in perfect
    assert singer_set(2).set.elements in perfect


def test_singer_q3_with_published_cubic():
    ss = singer_set(3, modulus=(1, 1, 2, 1))
    assert ss.exponents_raw == (0, 1, 17, 19)
    assert ss.set.elements == (0, 1, 4, 6)
    assert ss.poly_used == (1, 1, 2, 1)
    assert ss.n == 13


def test_singer_all_supported_q():
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        ss = singer_set(q)
        assert ss.n == q * q + q + 1
        assert ss.set.size == q + 1
        assert ss.classification.verdict == PERFECT
        # independence from the generator path: re-classify from scratch
        assert classify_set(CandidateSet(build_cyclic(ss.n), ss.set.elements)).verdict == PERFECT


@pytest.mark.parametrize("q", [q for q in range(2, 32) if prime_power_decompose(q)])
def test_singer_matches_pinned_outputs(q):
    ss = singer_set(q)
    assert (ss.poly_used, ss.exponents_raw, ss.set.elements) == PINNED[q]
    assert ss.classification.verdict == PERFECT


def test_singer_deterministic():
    first, second = singer_set(4), singer_set(4)
    assert first.set.elements == second.set.elements
    assert first.poly_used == second.poly_used


def test_singer_rejections():
    with pytest.raises(ValidationError):
        singer_set(6)
    with pytest.raises(ValidationError):
        singer_set(1)
    with pytest.raises(ValidationError, match="not primitive"):
        singer_set(3, modulus=(1, 0, 0, 1))  # x^3 + 1 is reducible
    with pytest.raises(ValidationError, match="not primitive"):
        singer_set(2, modulus=(1, 1, 1, 1))  # x^3+x^2+x+1 = (x+1)^3 over GF(2)
    with pytest.raises(ValidationError, match="out of range"):
        singer_set(4, modulus=(9, 1, 1, 1))
    with pytest.raises(ValidationError, match="out of range"):
        singer_set(3, modulus=(-1, 1, 0, 1))
    with pytest.raises(ValidationError, match="monic cubic"):
        singer_set(3, modulus=(1, 1, 2))
    with pytest.raises(ValidationError, match="monic cubic"):
        singer_set(3, modulus=(1, 1, 2, 2))
    # the group order q^2+q+1 is checked before any field is built
    for q in (32, 37, 1024, 10**12 + 39):
        with pytest.raises(CapacityError, match=str(q * q + q + 1)):
            singer_set(q)


def test_published_sets_fixture():
    for s, (n, elems) in PUBLISHED_PERFECT_SETS.items():
        cls = classify_set(CandidateSet(build_cyclic(n), elems))
        assert cls.verdict == PERFECT and cls.s == s and cls.n == n
        assert n == s * s - s + 1


@pytest.mark.parametrize(
    "q, degrees", [(2, (2, 3, 4)), (3, (2, 3)), (4, (2, 3)), (5, (2, 3)), (7, (2, 3)), (8, (2, 3)),
                   (9, (2, 3))], ids=lambda x: f"GF{x}" if isinstance(x, int) else None,
)
def test_is_primitive_equals_the_test_with_x_to_the_r(q, degrees):
    """The power walks give square-and-multiply's verdict on every monic polynomial: the
    general walk where f0 != 0, and the cubic walk on every cubic."""
    field = build_field(q)
    for deg in degrees:
        verdicts = set()
        for coeffs in itertools.product(range(q), repeat=deg):
            poly = (*coeffs, 1)
            verdict = oracle_is_primitive(field, poly)
            if coeffs[0]:
                assert walk_is_primitive(field, poly) == verdict, poly
            if deg == 3:
                assert cubic_is_primitive(field, poly) == verdict, poly
            verdicts.add(verdict)
        assert verdicts == {False, True}


def oracle_walk_exponents(field, modulus) -> tuple[int, ...]:
    """singer_set's raw exponents from the power walk by a general product modulo the cubic."""
    q = len(field[0])
    logs, x, elem = {}, (0, 1, 0), (1, 0, 0)
    for i in range(q**3 - 1):
        if elem[0] == 1 and elem[2] == 0 and elem[1]:
            logs[elem[1]] = i
        elem = mul_mod(field, elem, x, modulus)
    assert elem == (1, 0, 0)
    return tuple(sorted([0, 1, *logs.values()]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_shift_walk_matches_the_general_product_for_every_primitive_cubic(q):
    """Every monic cubic as a modulus: the set exactly when the oracle says primitive, with the
    general product's exponents, and the `not primitive` error otherwise."""
    field = build_field(q)
    primitive = 0
    for coeffs in itertools.product(range(q), repeat=3):
        poly = (*coeffs, 1)
        if oracle_is_primitive(field, poly):
            assert singer_set(q, poly).exponents_raw == oracle_walk_exponents(field, poly), poly
            primitive += 1
        else:
            rejection = f"modulus {re.escape(str(poly))} is not primitive"
            with pytest.raises(ValidationError, match=rejection):
                singer_set(q, poly)
    assert primitive


def test_gf31_rejections_need_no_walk_or_the_early_return():
    """x^3 + 7 is irreducible and its norm -7 generates GF(31)*, so the norm filter and the
    root test both pass it: only the walk's early return to 1 rejects it."""
    field = build_field(31)
    poly = (7, 0, 0, 1)
    assert not has_root(field, poly) and norm_generates(field, 7, 3)
    assert not oracle_is_primitive(field, poly)
    with pytest.raises(ValidationError, match=r"modulus \(7, 0, 0, 1\) is not primitive over GF\(31\)"):
        singer_set(31, poly)


class Untouchable:
    """A field table that fails on any read."""

    def __getitem__(self, index):
        raise AssertionError(f"read index {index}")

    def __len__(self):
        raise AssertionError("read the length")


def test_a_cubic_with_constant_term_zero_is_rejected_without_reading_the_field():
    # x divides such a cubic, so x is no unit and its walk could never close.
    field = (Untouchable(),) * 3
    for a, b in itertools.product(range(4), repeat=2):
        assert singer._singer_logs(field, (0, a, b, 1)) is None


def test_singer_cli_rejects_constant_term_zero_as_not_primitive(capsys):
    from bigraphds.cli import main

    assert main(["singer", "--q", "31", "--poly", "0,0,0,1"]) == 3
    assert "modulus (0, 0, 0, 1) is not primitive over GF(31)" in capsys.readouterr().err


# --- the norm-filtered walk of build_field against the unfiltered scan --------


def first_walked(field, degree):
    """build_field's choice of modulus: the first norm-filtered polynomial whose walk has
    |F|^degree - 1 steps."""
    return next(poly for poly in singer._norm_filtered(field, degree) if walk_is_primitive(field, poly))


def oracle_find_primitive_poly(field, degree):
    """first_walked without the norm filter or the walk: every monic polynomial in
    lexicographic order, tested by square-and-multiply."""
    for coeffs in itertools.product(range(len(field[0])), repeat=degree):
        if oracle_is_primitive(field, poly := (*coeffs, 1)):
            return poly
    raise AssertionError("no primitive polynomial")


def norm_generates(field, f0, degree) -> bool:
    """True when (-1)^degree * f0 has multiplicative order q - 1, found by walking its powers."""
    add, mul, sub = field
    q = len(add)
    norm = sub[0][f0] if degree % 2 else f0
    powers, x = set(), 1
    for _ in range(q - 1):
        x = mul[x][norm]
        powers.add(x)
    return powers == set(range(1, q))


PRIME_POWERS_TO_32 = [q for q in range(2, 33) if prime_power_decompose(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_find_primitive_poly_matches_the_unfiltered_scan(q):
    """Degrees 2 and 3 for every q <= 32; degree 4 up to q = 19, as beyond it the unfiltered
    scan costs seconds per field (10 s at q = 25 with Python 3.11 on a 2-vCPU machine).  The
    cubic is also singer_set's own choice wherever the group order allows one."""
    field = build_field(q)
    for degree in (2, 3, 4) if q <= 19 else (2, 3):
        assert first_walked(field, degree) == oracle_find_primitive_poly(field, degree), degree
    if q <= 31:
        assert singer_set(q).poly_used == oracle_find_primitive_poly(field, 3)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_32 if q <= 13])
def test_the_norm_filter_skips_exactly_the_constant_terms_without_a_primitive_polynomial(q):
    field = build_field(q)
    for degree in (2, 3, 4):
        for f0 in range(q):
            polys = ((f0, *rest, 1) for rest in itertools.product(range(q), repeat=degree - 1))
            has_primitive = any(oracle_is_primitive(field, poly) for poly in polys)
            assert has_primitive == (f0 != 0 and norm_generates(field, f0, degree)), (degree, f0)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_extension_addition_is_digitwise(q):
    """build_field takes GF(p^k)'s addition and subtraction from the direct product Z_p^k;
    they must be the digit-by-digit tables over GF(p), as first built."""
    p, k = prime_power_decompose(q)
    add, _, sub = build_field(q)
    digits = [tuple(i // p**j % p for j in range(k)) for i in range(q)]
    index = {d: i for i, d in enumerate(digits)}
    for op, table in (((lambda u, v: (u + v) % p), add), ((lambda u, v: (u - v) % p), sub)):
        want = tuple(tuple(index[tuple(map(op, digits[a], digits[b]))] for b in range(q))
                     for a in range(q))
        assert table == want
