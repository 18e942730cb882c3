"""Perfect difference sets from the multiplicative group of GF(q^3).

The construction builds GF(q^3) as a cubic extension of GF(q) using a
primitive polynomial, so its multiplicative group is generated by the class
of x.  Walking the powers of x and recording the discrete logs of the
elements 1 + alpha*x for alpha in GF(q)* gives, together with the logs of 1
and x themselves, q+1 exponents whose residues modulo n = q^2 + q + 1 form a
perfect difference set in Z_n.

Field elements are integer indices: a prime field uses 0..p-1 directly, an
extension encodes the coefficient vector (constant term first) in base
|base field|.  Polynomials over a field are tuples of element indices with
the constant term first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diffsets import PERFECT, CandidateSet, SetClassification, classify_set
from .errors import InternalError, ValidationError
from .groups import build_cyclic

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.cardinality = p
        self.degree = 1
        self.zero = 0
        self.one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(field, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == field.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _trim(out)


def poly_mod(field, a: list[int], m: list[int]) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    deg_m = len(m) - 1
    while len(r) - 1 >= deg_m and r:
        lead = r[-1]
        shift = len(r) - 1 - deg_m
        if lead != field.zero:
            for i, mi in enumerate(m):
                r[shift + i] = field.add(r[shift + i], field.neg(field.mul(lead, mi)))
        _trim(r)
    return r


def poly_eval(field, poly, alpha: int) -> int:
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, alpha), c)
    return acc


def is_irreducible(field, poly) -> bool:
    """Irreducibility over the field; root test suffices up to degree 3."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        return all(poly_eval(field, poly, a) != field.zero for a in field.elements())
    for d in range(1, deg // 2 + 1):
        for coeffs in itertools.product(field.elements(), repeat=d):
            divisor = [*coeffs, field.one]
            if not poly_mod(field, list(poly), divisor):
                return False
    return True


class ExtensionField:
    """GF(|base|^k) as polynomials over the base field modulo a monic irreducible."""

    def __init__(self, base, modulus):
        modulus = list(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValidationError(f"modulus must be monic of degree >= 1: {modulus}")
        if any(not 0 <= c < base.cardinality for c in modulus):
            raise ValidationError(f"modulus coefficients out of range: {modulus}")
        if not is_irreducible(base, modulus):
            raise ValidationError(f"modulus {modulus} is reducible over {base!r}")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.cardinality = base.cardinality ** self.degree
        self.zero = 0
        self.one = self.encode((base.one,))
        self.x = self.encode((base.zero, base.one)) if self.degree >= 2 else None

    def encode(self, coeffs) -> int:
        idx = 0
        for c in reversed(tuple(coeffs)):
            idx = idx * self.base.cardinality + c
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            idx, c = divmod(idx, self.base.cardinality)
            out.append(c)
        return tuple(out)

    def add(self, a: int, b: int) -> int:
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(tuple(self.base.add(x, y) for x, y in zip(ca, cb)))

    def neg(self, a: int) -> int:
        return self.encode(tuple(self.base.neg(c) for c in self.decode(a)))

    def mul(self, a: int, b: int) -> int:
        prod = poly_mul(self.base, list(self.decode(a)), list(self.decode(b)))
        rem = poly_mod(self.base, prod, list(self.modulus))
        rem += [self.base.zero] * (self.degree - len(rem))
        return self.encode(rem)

    def pow(self, a: int, e: int) -> int:
        acc = self.one
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self) -> range:
        return range(self.cardinality)

    def __repr__(self) -> str:
        return f"GF({self.base.cardinality}^{self.degree})"


def multiplicative_order(field, a: int) -> int:
    """Exact order of a in the field's multiplicative group."""
    r = field.cardinality - 1
    order = r
    for ell in prime_factors(r):
        while order % ell == 0 and field.pow(a, order // ell) == field.one:
            order //= ell
    return order


def is_primitive(field, poly) -> bool:
    """True when poly is irreducible and its root generates the extension's units."""
    if not is_irreducible(field, poly):
        return False
    ext = ExtensionField(field, poly)
    r = ext.cardinality - 1
    return all(ext.pow(ext.x, r // ell) != ext.one for ell in prime_factors(r))


def find_primitive_poly(field, degree: int):
    """Lexicographically smallest monic primitive polynomial of the degree."""
    for coeffs in itertools.product(field.elements(), repeat=degree):
        poly = (*coeffs, field.one)
        if is_primitive(field, poly):
            return poly
    raise InternalError(f"no primitive polynomial of degree {degree} over {field!r}")


def find_primitive_cubic(field):
    return find_primitive_poly(field, 3)


def build_field(p: int, k: int):
    """GF(p^k); for k >= 2 the modulus is the smallest primitive polynomial."""
    if k < 1:
        raise ValidationError(f"extension degree must be >= 1, got {k}")
    base = PrimeField(p)
    if k == 1:
        return base
    return ExtensionField(base, find_primitive_poly(base, k))


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
    smallest one is used, which makes the output deterministic.
    """
    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ValidationError(f"q must be a prime power >= 2, got {q}")
    p, k = decomp
    base = build_field(p, k)
    if modulus is not None:
        modulus = tuple(modulus)
        if len(modulus) != 4 or modulus[-1] != base.one:
            raise ValidationError(f"modulus must be a monic cubic over GF({q}): {modulus}")
        if not is_primitive(base, modulus):
            raise ValidationError(f"modulus {modulus} is not primitive over GF({q})")
    else:
        modulus = find_primitive_cubic(base)
    ext = ExtensionField(base, modulus)

    n = q * q + q + 1
    targets = {
        ext.encode((base.one, alpha, base.zero)): alpha
        for alpha in base.elements()
        if alpha != base.zero
    }
    logs: dict[int, int] = {}
    elem = ext.one
    for i in range(ext.cardinality - 1):
        if elem in targets:
            logs[targets[elem]] = i
        elem = ext.mul(elem, ext.x)
    if elem != ext.one or len(logs) != q - 1:
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
    return SingerSet(q, n, raw, cand, tuple(modulus), cls)
