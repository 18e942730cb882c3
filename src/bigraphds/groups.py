"""Finite groups as dense index-based multiplication tables.

Elements are always the indices 0..n-1 with the identity at index 0, so every
higher layer (difference profiles, graph builders, searches) works uniformly
for Abelian and non-Abelian groups.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .errors import CapacityError, UsageError, ValidationError

# Table-cell budget of 10**6 caps the order at 1000.
MAX_ORDER = 1000


@dataclass(frozen=True)
class Group:
    """A finite group on elements 0..order-1, identity at index 0.

    ``mul[i][j]`` is the index of the product of elements i and j, ``inv[g]``
    the index of the inverse of g.  ``generators`` names distinguished
    elements (set by :func:`build_semidirect` for the word syntax); being a
    dict, it is left out of the hash, so equal groups still hash equal.
    ``_associative`` is set only by :func:`parse_cayley_table`, on a table that
    passed Light's test; the constructor and ``dataclasses.replace`` leave it
    False, and it takes no part in equality, hash or repr.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    abelian: bool
    element_orders: tuple[int, ...]
    name: str
    generators: dict[str, int] | None = field(default=None, hash=False)
    _associative: bool = field(default=False, init=False, compare=False, repr=False)

    def involutions(self) -> tuple[int, ...]:
        return tuple(g for g in range(self.order) if self.element_orders[g] == 2)

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv[a], -e
        acc = 0
        for _ in range(e % _order_of(self.mul, a)):
            acc = self.mul[acc][a]
        return acc


class GroupReport(NamedTuple):
    """Re-checked axioms plus the structural summary used by the search layer."""

    name: str
    order: int
    ok: bool
    axioms: dict[str, bool]
    abelian: bool
    order_histogram: dict[int, int]
    involutions: tuple[int, ...]
    first_failure: str | None


def _order_of(mul: Sequence[Sequence[int]], g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = mul[x][g]
        k += 1
    return k


def _element_orders(mul: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(_order_of(mul, g) for g in range(len(mul)))


def _is_abelian(mul: Sequence[Sequence[int]]) -> bool:
    return all(map(operator.eq, map(tuple, mul), zip(*mul)))  # each row equals its column


def _inverses(mul: Sequence[Sequence[int]]) -> tuple[int, ...]:
    inv = [0] * len(mul)
    for g in range(len(mul)):
        h = mul[g].index(0)
        if mul[h][g] != 0:
            raise ValidationError(f"element {g} has no two-sided inverse")
        inv[g] = h
    return tuple(inv)


def _check_order(n: int) -> None:
    if n < 1:
        raise ValidationError(f"group order must be at least 1, got {n}")
    if n > MAX_ORDER:
        raise CapacityError(f"group order {n} exceeds the supported maximum {MAX_ORDER}")


def build_cyclic(n: int) -> Group:
    """Additive cyclic group Z_n."""
    _check_order(n)
    twice = tuple(range(n)) * 2
    mul = tuple(twice[i : i + n] for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    orders = tuple(n // math.gcd(n, i) if i else 1 for i in range(n))
    return Group(n, mul, inv, True, orders, f"Z{n}")


def build_direct_product(g: Group, h: Group) -> Group:
    """Direct product with element (x, y) encoded as x*|h| + y."""
    n = g.order * h.order
    _check_order(n)
    hn = h.order
    # row (x1, y1) joins, for each x2, the row of y1 in h shifted into block x1*x2
    blocks = [[tuple(x * hn + y for y in hrow) for x in range(g.order)] for hrow in h.mul]
    mul_t = tuple(
        tuple(chain.from_iterable(map(blocks[y1].__getitem__, grow)))
        for grow in g.mul for y1 in range(hn)
    )
    inv = tuple(g.inv[x] * hn + h.inv[y] for x in range(g.order) for y in range(hn))
    orders = tuple(
        (g.element_orders[x] * h.element_orders[y])
        // math.gcd(g.element_orders[x], h.element_orders[y])
        for x in range(g.order)
        for y in range(hn)
    )
    return Group(n, mul_t, inv, g.abelian and h.abelian, orders, f"{g.name}x{h.name}")


def build_semidirect(m: int, n: int, k: int) -> Group:
    """Z_m semidirect Z_n where the Z_n generator acts by x -> k*x on Z_m.

    Elements are pairs (i, j) for a^i b^j, encoded as i*n + j; the product is
    (i1, j1)(i2, j2) = (i1 + i2*k^j1 mod m, j1 + j2 mod n).
    """
    _check_order(m)
    _check_order(n)
    if m * n > MAX_ORDER:
        raise CapacityError(f"order {m * n} exceeds the supported maximum {MAX_ORDER}")
    if k < 1 or math.gcd(k, m) != 1 or pow(k, n, m) != 1 % m:
        raise ValidationError(
            f"invalid action: need gcd(k,m)=1 and k^n = 1 (mod m), got m={m}, n={n}, k={k}"
        )
    kpow = [1 % m]
    for _ in range(n - 1):
        kpow.append(kpow[-1] * k % m)
    order = m * n
    # row (i1, j1) joins, for each i2, the row of j1 in Z_n shifted into block i1 + i2*k^j1
    blocks = [[tuple(i * n + (j1 + j2) % n for j2 in range(n)) for i in range(m)] for j1 in range(n)]
    mul_t = tuple(
        tuple(chain.from_iterable(blocks[j1][(i1 + i2 * kpow[j1]) % m] for i2 in range(m)))
        for i1 in range(m) for j1 in range(n)
    )
    inv = _inverses(mul_t)
    abelian = k % m == 1 % m
    name = f"Z{m}:Z{n}(k={k})"
    gens = {"a": (1 % m) * n, "b": 1 % n}
    return Group(order, mul_t, inv, abelian, _element_orders(mul_t), name, generators=gens)


def format_cayley_table(g: Group) -> str:
    """Serialize a group in the Cayley-table file format."""
    lines = [f"# {g.name}", str(g.order)]
    labels = [str(x) for x in range(g.order)]
    lines.extend(" ".join([labels[x] for x in row]) for row in g.mul)
    return "\n".join(lines) + "\n"


def _find_latin_violation(mul: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """First cell that repeats a value earlier in its row; failing that, in its column."""
    for i, row in enumerate(mul):
        if len(set(row)) < len(row):
            return (i, next(j for j, v in enumerate(row) if v in row[:j]))
    for j, col in enumerate(zip(*mul)):
        if len(set(col)) < len(col):
            return (next(i for i, v in enumerate(col) if v in col[:i]), j)
    return None


def _greedy_generators(mul: Sequence[Sequence[int]], identity: int | None = None) -> list[int]:
    """Each the least element not reached by right products of those before (0 in a group).
    A known two-sided identity starts reached: as a generator it would reach nothing."""
    n = len(mul)
    reached = [identity == x for x in range(n)]
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        stack = [x for x in range(n) if reached[x]]
        while stack:
            row = mul[stack.pop()]
            for y in (row[a] for a in gens):
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    return gens


def _find_associativity_violation(
    mul: Sequence[Sequence[int]], identity: int | None = None
) -> tuple[int, int, int] | None:
    """A triple (x, a, y) with (x*a)*y != x*(a*y), or None, by Light's test.

    The elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    products (Clifford & Preston, 1961), so checking the greedy generators
    suffices: their walk reaches only products of checked elements.  Each
    (a, x) compares x's row taken at a's row, x*(a*y) for all y, with (x*a)'s.
    A known two-sided identity passes trivially and is not checked.
    """
    n = len(mul)
    if n == 1:  # [[0]]; itemgetter of one index would return a scalar
        return None
    for a in _greedy_generators(mul, identity):
        arow, x_times_a_row = mul[a], operator.itemgetter(*mul[a])
        for x, row in enumerate(mul):
            xa_row = mul[row[a]]
            if x_times_a_row(row) != tuple(xa_row):
                return (x, a, next(y for y in range(n) if xa_row[y] != row[arow[y]]))
    return None


def _spread(mul: Sequence[Sequence[int]], gens: list[int], phi: list[int]) -> bool:
    """Set phi (-1 where unset) by phi(h*a) = phi(h)*phi(a); False unless one-to-one."""
    stack = [h for h, v in enumerate(phi) if v >= 0]
    while stack:
        h = stack.pop()
        for a in gens:
            y, img = mul[h][a], mul[phi[h]][phi[a]]
            if phi[y] < 0:
                phi[y] = img
                stack.append(y)
            elif phi[y] != img:
                return False
    return phi.count(0) == 1  # a homomorphism with a trivial kernel


def automorphisms(group: Group, transversal: bool = False) -> Iterator[tuple[int, ...]]:
    """Every automorphism as an image tuple, phi[x] = phi(x), generated lazily by
    backtracking on the images of the greedy generators, in lexicographic order.
    The first generator is 1, so Stab(1) comes first; with transversal, each other
    image c of 1 yields only its first r_c, and Aut = union of the r_c Stab(1)."""
    mul, n, orders = group.mul, group.order, group.element_orders
    gens = _greedy_generators(mul, 0)

    def extend(i: int, phi: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(gens):
            yield tuple(phi)
            return
        for c in range(1, n):
            if orders[c] == orders[gens[i]] and c not in phi:
                image = phi[:]
                image[gens[i]] = c
                if _spread(mul, gens[: i + 1], image):
                    found = extend(i + 1, image)
                    yield from islice(found, 1) if transversal and i == 0 and c != 1 else found

    return extend(0, [0] + [-1] * (n - 1))


def _find_identity(mul: Sequence[tuple[int, ...]]) -> int | None:
    ident = tuple(range(len(mul)))
    for e, row in enumerate(mul):
        if row == ident and tuple(r[e] for r in mul) == ident:
            return e
    return None


def parse_cayley_table(text: str, name: str = "loaded") -> Group:
    """Parse and fully validate a Cayley table; relabel so the identity is 0.

    Neither rows nor columns are scanned once the identity e, a right inverse for each x
    (e in every row) and Light's test hold: a finite monoid with right inverses is a group,
    whose table is Latin.  On any failure the Latin scan runs first, so the error is
    unchanged, and a table whose rows lack e is rejected before Light's test runs."""
    # Data lines are split one at a time, so only one row of tokens is alive.
    lines = [s for line in text.splitlines() if (s := line.strip()) and not s.startswith("#")]
    if not lines:
        raise ValidationError("empty Cayley-table file")
    head = lines[0].split()
    if len(head) != 1 or not head[0].isdecimal():
        raise ValidationError(f"first data line must be the order, got {' '.join(head)!r}")
    n = int(head[0])
    _check_order(n)
    if len(lines) - 1 != n:
        raise ValidationError(f"expected {n} table rows, found {len(lines) - 1}")
    index = {str(v): v for v in range(n)}
    mul: list[tuple[int, ...]] = []
    for i, row in enumerate(map(str.split, lines[1:])):
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        try:
            cells = operator.itemgetter(*row)(index)  # a scalar when n == 1
            mul.append(cells if n > 1 else (cells,))
            continue
        except KeyError:  # '01', another script's digits, or a bad cell to name
            pass
        for j, tok in enumerate(row):
            if not tok.isdecimal():
                raise ValidationError(f"row {i}, column {j}: {tok!r} is not an integer")
            if (v := int(tok)) >= n:
                raise ValidationError(f"row {i}, column {j}: entry {v} out of range 0..{n - 1}")
        mul.append(tuple(map(int, row)))

    e, triple = _find_identity(mul), None
    if (e is None or not all(map(operator.contains, mul, repeat(e)))
            or (triple := _find_associativity_violation(mul, e)) is not None):
        # a row without e repeats a value, so only a missing e or a triple passes the scan
        if (cell := _find_latin_violation(mul)) is not None:
            raise ValidationError(
                f"not a Latin square: duplicate value in row/column at cell ({cell[0]}, {cell[1]})"
            )
        if e is None:
            raise ValidationError("table has no two-sided identity element")
        i, j, k = triple
        raise ValidationError(f"not associative: ({i}*{j})*{k} != {i}*({j}*{k})")

    if e != 0:  # conjugate by the transposition of 0 and e: swap rows, columns, values
        mul[0], mul[e] = mul[e], mul[0]
        for i, row in enumerate(mul):
            new = list(row)
            new[0], new[e] = row[e], row[0]
            at_0, at_e = new.index(0), new.index(e)
            new[at_0], new[at_e] = e, 0
            mul[i] = tuple(new)
    mul_t = tuple(mul)
    group = Group(n, mul_t, _inverses(mul_t), _is_abelian(mul_t), _element_orders(mul_t), name)
    object.__setattr__(group, "_associative", True)
    return group


def load_cayley_table(path: str | Path) -> Group:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read Cayley table {p}: {exc}") from exc
    return parse_cayley_table(text, name=p.stem)


def validate_group(g: Group) -> GroupReport:
    """Re-check the Group axioms from the raw table and summarize structure.  As in
    parse_cayley_table, neither rows nor columns are scanned once the identity,
    associativity and inverses hold: such a table is a group's, and Latin.  A group
    that parse_cayley_table returned passed Light's test there, on the same immutable
    table: its associativity and ``abelian`` flag are taken from the reader's checks."""
    axioms: dict[str, bool] = {}
    first_failure: str | None = None

    def record(axiom: str, ok: bool, detail: str) -> None:
        nonlocal first_failure
        axioms[axiom] = ok
        if not ok and first_failure is None:
            first_failure = detail

    ident_ok = g.order > 0 and all(g.mul[0][x] == x and g.mul[x][0] == x for x in range(g.order))
    triple = None if g._associative else _find_associativity_violation(g.mul, 0 if ident_ok else None)
    inv_ok = all(g.mul[x][g.inv[x]] == 0 and g.mul[g.inv[x]][x] == 0 for x in range(g.order))
    cell = None if ident_ok and triple is None and inv_ok else _find_latin_violation(g.mul)
    record("latin_square", cell is None, f"duplicate at cell {cell}" if cell else "")
    record("identity", ident_ok, "index 0 is not a two-sided identity")
    record("associativity", triple is None, f"violated at triple {triple}" if triple else "")
    record("inverses", inv_ok, "inv table does not give two-sided inverses")

    return GroupReport(
        name=g.name,
        order=g.order,
        ok=all(axioms.values()),
        axioms=axioms,
        abelian=g.abelian if g._associative else _is_abelian(g.mul),
        order_histogram=dict(sorted(Counter(g.element_orders).items())),
        involutions=g.involutions(),
        first_failure=first_failure,
    )


def _parse_int_prefix(s: str, what: str) -> tuple[int, str]:
    i = 0
    while i < len(s) and s[i].isdecimal():
        i += 1
    if i == 0:
        raise UsageError(f"expected an integer for {what} in group spec, got {s!r}")
    return int(s[:i]), s[i:]


def _parse_spec(s: str) -> tuple[Group, str]:
    if s.startswith("cyclic:"):
        n, rest = _parse_int_prefix(s[len("cyclic:") :], "cyclic order")
        return build_cyclic(n), rest
    if s.startswith("product:"):
        left, rest = _parse_spec(s[len("product:") :])
        if not rest.startswith(","):
            raise UsageError("product spec needs two comma-separated factors")
        right, rest = _parse_spec(rest[1:])
        return build_direct_product(left, right), rest
    if s.startswith("semidirect:"):
        vals = []
        rest = s[len("semidirect:") :]
        for label in ("m", "n", "k"):
            if label != "m":
                if not rest.startswith(","):
                    raise UsageError("semidirect spec needs three comma-separated integers")
                rest = rest[1:]
            val, rest = _parse_int_prefix(rest, f"semidirect {label}")
            vals.append(val)
        return build_semidirect(*vals), rest
    if s.startswith("file:"):
        body = s[len("file:") :]
        comma = body.find(",")
        path, rest = (body, "") if comma < 0 else (body[:comma], body[comma:])
        if not path:
            raise UsageError("file spec needs a path")
        return load_cayley_table(path), rest
    raise UsageError(
        f"unrecognized group spec {s!r} (expected cyclic:n, product:a,b, "
        "semidirect:m,n,k, or file:path)"
    )


def parse_group_spec(spec: str) -> Group:
    """Build a Group from the spec grammar cyclic:n | product:a,b | semidirect:m,n,k | file:path."""
    group, rest = _parse_spec(spec.strip())
    if rest:
        raise UsageError(f"trailing text {rest!r} after group spec")
    return group

