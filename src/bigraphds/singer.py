"""Perfect difference sets from the multiplicative group of GF(q^3).

The construction (Singer, 1938) builds GF(q^3) as a cubic extension of GF(q)
using a primitive polynomial, so its multiplicative group is generated by the
class of x.  Walking the powers of x and recording the discrete logs of the
elements 1 + alpha*x for alpha in GF(q)* gives, together with the logs of 1
and x themselves, q+1 exponents whose residues modulo n = q^2 + q + 1 form a
perfect difference set in Z_n.

The same walk decides primitivity: x is primitive modulo a monic f of degree
k exactly when its powers first return to 1 at step q^k - 1.  No root test or
factorization of q^k - 1 is needed, because F[x]/(f) has fewer units than that
when f is reducible.  Only the constant terms that pass the norm condition
are walked (see _norm_filtered).

GF(q) is held as addition, multiplication and subtraction tables on the
indices 0..q-1: residues for a prime q, and for q = p^k the base-p digits
(constant term first) of a polynomial modulo the lexicographically least
primitive polynomial of degree k over GF(p).  Polynomials over such a field
are tuples of indices with the constant term first, and an element of the
quotient ring F[x]/(f) is the tuple of its deg f coefficients.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

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


def _norm_filtered(field: Field, degree: int):
    """Monic polynomials of the degree in lexicographic order, constant terms f0 restricted by
    the norm condition (Lidl & Niederreiter, *Finite Fields*, ch. 3): x^((q^k-1)/(q-1)) =
    (-1)^k f0 must generate GF(q)* for x to be primitive, so no other f0 is tried."""
    q, mul, neg = len(field[0]), field[1], field[2][0]
    for f0 in range(1, q):
        norm = neg[f0] if degree % 2 else f0
        # 1, norm, ..., norm^(q-1) take q-1 values exactly when norm generates GF(q)*
        if len(set(itertools.accumulate(range(q - 1), lambda x, _: mul[x][norm], initial=1))) == q - 1:
            for rest in itertools.product(range(q), repeat=degree - 1):
                yield (f0, *rest, 1)


def _power_walk(field: Field, poly) -> list[tuple[int, ...]]:
    """1, x, x^2, ... modulo the monic poly up to the first return to 1, for poly[0] != 0:
    x is then a unit, so the walk closes within |F|^deg - 1 steps.  Each step is a shift
    plus one reduction by x^deg = -(f0 + f1 x + ... + f_(deg-1) x^(deg-1))."""
    add, mul, sub = field
    # reduce[k][c] = -c * f_k: what a top coefficient c adds to x^k
    reduce = [tuple(sub[0][mul[c][f]] for c in range(len(add))) for f in poly[:-1]]
    one = (1,) + (0,) * (len(poly) - 2)
    powers, elem = [], one
    while not powers or elem != one:
        powers.append(elem)
        elem = tuple(add[a][r[elem[-1]]] for a, r in zip((0, *elem[:-1]), reduce))
    return powers


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
    # the first norm-filtered poly whose walk has q - 1 steps is primitive, and that walk
    # lists x^i: exp[i] is its index, whose base-p digits are its coefficients
    for poly in _norm_filtered(prime, k):
        if len(powers := _power_walk(prime, poly)) == q - 1:
            break
    else:
        raise InternalError(f"no primitive polynomial of degree {k} over GF({p})")
    exp = [sum(c * p**j for j, c in enumerate(e)) for e in powers]
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


class SingerSet(NamedTuple):
    q: int
    n: int
    exponents_raw: tuple[int, ...]
    set: CandidateSet
    poly_used: tuple[int, ...]
    classification: SetClassification


def _singer_logs(field: Field, modulus) -> dict[int, int] | None:
    """alpha -> log of 1 + alpha*x for alpha != 0 if the power walk modulo the monic cubic first
    returns to 1 at step q^3 - 1, else None.  A step is _power_walk's on three locals:
    x * (a0 + a1 x + a2 x^2) = a2 x^3 + a0 x + a1 x^2 with x^3 = -(f0 + f1 x + f2 x^2).
    For f0 = 0, x divides f and is no unit, so the walk could never close: None at once."""
    if modulus[0] == 0:
        return None
    add, mul, sub = field
    q = len(add)
    # reduce[k][c] = -c * f_k: what a top coefficient c adds to x^k
    reduce = [tuple(sub[0][mul[c][f]] for c in range(q)) for f in modulus[:3]]
    logs: dict[int, int] = {}
    a0, a1, a2 = 0, 1, 0  # x
    for i in range(1, q**3 - 1):
        if a0 == 1 and a2 == 0:
            if not a1:
                return None  # x^i = 1 before step q^3 - 1
            logs[a1] = i
        a0, a1, a2 = reduce[0][a2], add[a0][reduce[1][a2]], add[a1][reduce[2][a2]]
    return logs if (a0, a1, a2) == (1, 0, 0) else None


def singer_set(q: int, modulus=None) -> SingerSet:
    """Perfect (q^2+q+1, q+1, 1)-difference set in Z_{q^2+q+1}.

    ``modulus`` optionally fixes the primitive cubic over GF(q) (coefficient
    tuple, constant term first, monic); by default the power walk runs over the
    norm-filtered cubics in lexicographic order and keeps the first that is
    primitive, which makes the output deterministic.  The group order q^2+q+1
    is checked against the capacity before any field is built.
    """
    n = q * q + q + 1
    if q >= 2 and n > MAX_ORDER:
        raise CapacityError(f"q={q} needs group order {n}, above the supported maximum {MAX_ORDER}")
    field = build_field(q)
    if modulus is None:
        candidates = _norm_filtered(field, 3)
    else:
        modulus = tuple(modulus)
        if len(modulus) != 4 or modulus[-1] != 1:
            raise ValidationError(f"modulus must be a monic cubic over GF({q}): {modulus}")
        if any(not isinstance(c, int) or not 0 <= c < q for c in modulus):
            raise ValidationError(f"modulus coefficients out of range 0..{q - 1}: {modulus}")
        candidates = (modulus,)
    for poly in candidates:
        if (logs := _singer_logs(field, poly)) is not None:
            break
    else:
        if modulus is None:
            raise InternalError(f"no primitive cubic over GF({q})")
        raise ValidationError(f"modulus {modulus} is not primitive over GF({q})")

    raw = tuple(sorted([0, 1, *logs.values()]))
    reduced = sorted({e % n for e in raw})
    if len(reduced) != q + 1:
        raise InternalError(f"reduced exponents collided modulo {n}: {raw}")
    cand = CandidateSet(build_cyclic(n), tuple(reduced))
    cls = classify_set(cand)
    if cls.verdict != PERFECT:
        raise InternalError(f"singer construction for q={q} produced a non-perfect set {reduced}")
    return SingerSet(q, n, raw, cand, poly, cls)
