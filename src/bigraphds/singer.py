"""Perfect difference sets from the multiplicative group of GF(q^3).

The construction (Singer, 1938) builds GF(q^3) as a cubic extension of GF(q)
using a primitive polynomial, so its multiplicative group is generated by the
class of x.  Walking the powers of x and recording the discrete logs of the
elements 1 + alpha*x for alpha in GF(q)* gives, together with the logs of 1
and x themselves, q+1 exponents whose residues modulo n = q^2 + q + 1 form a
perfect difference set in Z_n.

GF(q) is held as addition, multiplication and subtraction tables on the
indices 0..q-1: residues for a prime q, and for q = p^k the base-p digits
(constant term first) of a polynomial modulo the lexicographically least
primitive polynomial of degree k over GF(p), which is searched only over the
constant terms that pass the norm condition (see find_primitive_poly).
Polynomials over such a field are tuples of indices with the constant term
first, and an element of the quotient ring F[x]/(f) is the tuple of its deg f
coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diffsets import PERFECT, CandidateSet, SetClassification, classify_set
from .errors import CapacityError, InternalError, ValidationError
from .groups import MAX_ORDER, build_cyclic, build_direct_product

# (add, mul, sub) tables of a finite field on the indices 0..q-1.
Field = tuple[tuple[tuple[int, ...], ...], ...]

# Perfect difference sets as published for s = |S| in {3,...,12}, used as
# validation fixtures; the generator may produce different but equally
# perfect sets of the same parameters.
PUBLISHED_PERFECT_SETS: dict[int, tuple[int, tuple[int, ...]]] = {
    3: (7, (0, 1, 3)),
    4: (13, (0, 1, 3, 9)),
    5: (21, (0, 1, 4, 14, 16)),
    6: (31, (0, 1, 6, 18, 22, 29)),
    8: (57, (0, 1, 5, 7, 17, 35, 38, 49)),
    9: (73, (0, 1, 17, 39, 41, 44, 48, 54, 62)),
    10: (91, (0, 1, 3, 9, 27, 49, 56, 61, 77, 81)),
    12: (133, (0, 1, 3, 12, 20, 34, 38, 81, 88, 94, 104, 109)),
}


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k, rem = 0, q
            while rem % p == 0:
                rem //= p
                k += 1
            return (p, k) if rem == 1 else None
        p += 1
    return (q, 1)


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


def mul_mod(field: Field, a: tuple[int, ...], b: tuple[int, ...], modulus) -> tuple[int, ...]:
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


def pow_mod(field: Field, a: tuple[int, ...], e: int, modulus) -> tuple[int, ...]:
    acc = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            acc = mul_mod(field, acc, a, modulus)
        a = mul_mod(field, a, a, modulus)
        e >>= 1
    return acc


def has_root(field: Field, poly) -> bool:
    add, mul, _ = field
    for a in range(len(add)):
        acc = 0
        for c in reversed(poly):
            acc = add[mul[acc][a]][c]
        if acc == 0:
            return True
    return False


def is_primitive(field: Field, poly) -> bool:
    """True when the class of x has order |F|^deg - 1 modulo the monic poly.

    Checked as: no root in F, x^r = 1 and x^(r/l) != 1 for each prime l | r,
    with r = |F|^deg - 1.  A unit of that order leaves no nonzero non-unit in
    F[x]/(poly), so the quotient is a field and poly is irreducible.  For
    degree 2 and 3 the x^r = 1 test is skipped: such a poly with no root has
    no factor of degree 1, hence none at all, so F[x]/(poly) is already a
    field of r + 1 elements and x^r = 1 holds by Lagrange's theorem.
    """
    deg = len(poly) - 1
    if deg < 2 or has_root(field, poly):
        return False
    r = len(field[0]) ** deg - 1
    x, one = (0, 1) + (0,) * (deg - 2), (1,) + (0,) * (deg - 1)
    if deg > 3 and pow_mod(field, x, r, poly) != one:
        return False
    return all(pow_mod(field, x, r // ell, poly) != one for ell in prime_factors(r))


def find_primitive_poly(field: Field, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of the degree.  By the norm
    condition (Lidl & Niederreiter, *Finite Fields*, ch. 3) x^((q^k-1)/(q-1)) = (-1)^k f0
    must generate GF(q)* for x to be primitive, so no other constant term f0 is tried."""
    q, mul, neg = len(field[0]), field[1], field[2][0]
    for f0 in range(1, q):
        norm = neg[f0] if degree % 2 else f0
        # 1, norm, ..., norm^(q-1) take q-1 values exactly when norm generates GF(q)*
        if len(set(itertools.accumulate(range(q - 1), lambda x, _: mul[x][norm], initial=1))) == q - 1:
            for rest in itertools.product(range(q), repeat=degree - 1):
                if is_primitive(field, poly := (f0, *rest, 1)):
                    return poly
    raise InternalError(f"no primitive polynomial of degree {degree} over GF({len(field[0])})")


def build_field(q: int) -> Field:
    """(add, mul, sub) tables of GF(q) in the encoding of the module docstring."""
    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ValidationError(f"q must be a prime power >= 2, got {q}")
    p, k = decomp

    def table(op, size: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(op(a, b) for b in range(size)) for a in range(size))

    prime = (
        table(lambda a, b: (a + b) % p, p),
        table(lambda a, b: a * b % p, p),
        table(lambda a, b: (a - b) % p, p),
    )
    if k == 1:
        return prime
    modulus = find_primitive_poly(prime, k)
    digits = [tuple(i // p**j % p for j in range(k)) for i in range(q)]
    index = {d: i for i, d in enumerate(digits)}
    x, elem, exp = (0, 1) + (0,) * (k - 2), digits[1], []
    for _ in range(q - 1):
        exp.append(index[elem])
        elem = mul_mod(prime, elem, x, modulus)
    log = {e: i for i, e in enumerate(exp)}
    # the additive group is Z_p^k, and its digit encoding is build_direct_product's, top digit first
    additive = build_cyclic(p)
    for _ in range(k - 1):
        additive = build_direct_product(build_cyclic(p), additive)
    return (
        additive.mul,
        table(lambda a, b: exp[(log[a] + log[b]) % (q - 1)] if a and b else 0, q),
        tuple(tuple(map(row.__getitem__, additive.inv)) for row in additive.mul),
    )


@dataclass(frozen=True)
class SingerSet:
    q: int
    n: int
    exponents_raw: tuple[int, ...]
    set: CandidateSet
    poly_used: tuple[int, ...]
    classification: SetClassification


def singer_set(q: int, modulus=None) -> SingerSet:
    """Perfect (q^2+q+1, q+1, 1)-difference set in Z_{q^2+q+1}.

    ``modulus`` optionally fixes the primitive cubic over GF(q) (coefficient
    tuple, constant term first, monic); by default the lexicographically
    smallest one is used, which makes the output deterministic.  The group
    order q^2+q+1 is checked against the capacity before any field is built.

    The power walk multiplies by x as a shift plus one reduction: x * (a0 +
    a1 x + a2 x^2) = a2 x^3 + a0 x + a1 x^2, and x^3 = -(f0 + f1 x + f2 x^2)
    for the monic cubic f, so each step costs at most two table lookups per
    coefficient in place of a general product modulo f.
    """
    n = q * q + q + 1
    if q >= 2 and n > MAX_ORDER:
        raise CapacityError(f"q={q} needs group order {n}, above the supported maximum {MAX_ORDER}")
    field = build_field(q)
    if modulus is None:
        modulus = find_primitive_poly(field, 3)
    else:
        modulus = tuple(modulus)
        if len(modulus) != 4 or modulus[-1] != 1:
            raise ValidationError(f"modulus must be a monic cubic over GF({q}): {modulus}")
        if any(not isinstance(c, int) or not 0 <= c < q for c in modulus):
            raise ValidationError(f"modulus coefficients out of range 0..{q - 1}: {modulus}")
        if not is_primitive(field, modulus):
            raise ValidationError(f"modulus {modulus} is not primitive over GF({q})")

    add, mul, sub = field
    # reduce[k][c] = -c * f_k: what a top coefficient c adds to x^k
    reduce = [tuple(sub[0][mul[c][f]] for c in range(q)) for f in modulus[:3]]
    logs: dict[int, int] = {}   # alpha -> log of 1 + alpha*x, alpha != 0
    a0, a1, a2 = 1, 0, 0
    for i in range(q**3 - 1):
        if a0 == 1 and a2 == 0 and a1:
            logs[a1] = i
        a0, a1, a2 = reduce[0][a2], add[a0][reduce[1][a2]], add[a1][reduce[2][a2]]
    if (a0, a1, a2) != (1, 0, 0) or len(logs) != q - 1:
        raise InternalError(f"power walk over GF({q}^3) did not close as expected")

    raw = tuple(sorted([0, 1, *logs.values()]))
    reduced = sorted({e % n for e in raw})
    if len(reduced) != q + 1:
        raise InternalError(f"reduced exponents collided modulo {n}: {raw}")
    cand = CandidateSet(build_cyclic(n), tuple(reduced))
    cls = classify_set(cand)
    if cls.verdict != PERFECT:
        raise InternalError(
            f"singer construction for q={q} produced a non-perfect set {reduced}"
        )
    return SingerSet(q, n, raw, cand, modulus, cls)
