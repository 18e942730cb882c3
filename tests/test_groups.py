"""Group construction, validation, and Cayley-table file handling."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bigraphds
from bigraphds import groups, ledger
from bigraphds.errors import CapacityError, UsageError, ValidationError
from bigraphds.groups import (
    Group,
    _find_associativity_violation,
    automorphisms,
    build_cyclic,
    build_direct_product,
    build_semidirect,
    format_cayley_table,
    load_cayley_table,
    parse_cayley_table,
    parse_group_spec,
    validate_group,
)


# an order-5 loop: a Latin square with a two-sided identity, not associative
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))


def oracle_associativity_violation(mul):
    """The full n^3 scan: the first (i, j, k) with (i*j)*k != i*(j*k)."""
    n = len(mul)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    return (i, j, k)
    return None


def fails_associativity(mul, triple) -> bool:
    x, y, z = triple
    return mul[mul[x][y]][z] != mul[x][mul[y][z]]


def small_group_zoo():
    return [
        build_cyclic(1),
        build_cyclic(2),
        build_cyclic(7),
        build_cyclic(13),
        build_cyclic(39),
        build_cyclic(42),
        build_direct_product(build_cyclic(2), build_cyclic(20)),
        build_direct_product(
            build_direct_product(build_cyclic(2), build_cyclic(2)), build_cyclic(10)
        ),
        build_semidirect(5, 8, 2),
        build_semidirect(7, 6, 3),
        build_semidirect(21, 2, 20),
        build_semidirect(3, 2, 2),
    ]


def test_cyclic_examples():
    z7 = build_cyclic(7)
    assert z7.inv[3] == 4
    assert z7.element_orders[1] == 7
    z13 = build_cyclic(13)
    assert z13.order == 13 and z13.abelian
    z1 = build_cyclic(1)
    assert z1.order == 1 and z1.inv[0] == 0 and z1.element_orders == (1,)


def test_cyclic_invalid_order():
    with pytest.raises(ValidationError):
        build_cyclic(0)


def test_axioms_exhaustive_small_orders():
    for g in small_group_zoo():
        assert g.order <= 64
        report = validate_group(g)
        assert report.ok, (g.name, report.first_failure)


def test_lagrange_and_inverse_involution():
    for g in small_group_zoo():
        assert all(g.order % k == 0 for k in g.element_orders)
        assert all(g.inv[g.inv[x]] == x for x in range(g.order))


def test_direct_product_encoding():
    g = build_direct_product(build_cyclic(2), build_cyclic(20))
    assert g.order == 40 and g.abelian
    for x1 in range(2):
        for y1 in range(20):
            for x2 in range(2):
                for y2 in range(20):
                    got = g.mul[x1 * 20 + y1][x2 * 20 + y2]
                    assert got == ((x1 + x2) % 2) * 20 + (y1 + y2) % 20


def test_nested_product_involution_count():
    g = build_direct_product(
        build_direct_product(build_cyclic(2), build_cyclic(2)), build_cyclic(10)
    )
    assert g.order == 40 and g.abelian
    # brute force over the table, independent of element_orders
    brute = [x for x in range(1, g.order) if g.mul[x][x] == 0]
    assert len(brute) == 7
    assert set(brute) == set(g.involutions())


def test_product_with_trivial_factor():
    g = build_direct_product(build_cyclic(1), build_cyclic(7))
    assert g.mul == build_cyclic(7).mul


def test_product_capacity():
    with pytest.raises(CapacityError):
        build_direct_product(build_cyclic(50), build_cyclic(50))


def test_semidirect_gamma1_relation():
    g = build_semidirect(5, 8, 2)
    assert g.order == 40 and not g.abelian
    a, b = g.generators["a"], g.generators["b"]
    bab_inv = g.mul[g.mul[b][a]][g.inv[b]]
    assert bab_inv == g.mul[a][a]
    assert g.element_orders[a] == 5 and g.element_orders[b] == 8
    # b^4 is the unique involution
    b4 = g.power(b, 4)
    assert g.involutions() == (b4,)


def test_groups_with_generators_are_hashable():
    g = build_semidirect(5, 8, 2)
    assert hash(g) == hash(build_semidirect(5, 8, 2))
    assert len({g, build_semidirect(5, 8, 2), build_cyclic(40)}) == 2


def test_semidirect_trivial_action_is_direct_product():
    semi = build_semidirect(5, 8, 1)
    prod = build_direct_product(build_cyclic(5), build_cyclic(8))
    assert semi.abelian
    assert semi.mul == prod.mul


def test_semidirect_frobenius42():
    g = build_semidirect(7, 6, 3)
    assert g.order == 42
    assert validate_group(g).ok
    # non-abelian witnessed by a brute-force non-commuting pair
    assert any(
        g.mul[x][y] != g.mul[y][x] for x in range(g.order) for y in range(g.order)
    )


def test_semidirect_invalid_action():
    with pytest.raises(ValidationError):
        build_semidirect(5, 3, 2)  # 2^3 = 3 (mod 5), not 1
    with pytest.raises(ValidationError):
        build_semidirect(6, 2, 3)  # gcd(3, 6) != 1


def test_validate_group_involutions():
    assert validate_group(build_cyclic(42)).involutions == (21,)
    assert validate_group(build_cyclic(39)).involutions == ()
    report = validate_group(build_semidirect(5, 8, 2))
    assert not report.abelian and len(report.involutions) == 1


@pytest.mark.parametrize(
    "specs,count,order,abelian",
    [(ledger.NONABELIAN_ORDER42, 5, 42, False), (ledger.ABELIAN_ORDER40, 3, 40, True)],
    ids=["nonabelian-42", "abelian-40"],
)
def test_ledger_families_name_distinct_groups(specs, count, order, abelian):
    reports = [validate_group(parse_group_spec(spec)) for spec in specs]
    assert len(reports) == count
    assert all(r.ok and r.order == order and r.abelian == abelian for r in reports)
    # Isomorphic groups share their element-order histogram.
    histograms = [r.order_histogram for r in reports]
    assert all(a != b for a, b in itertools.combinations(histograms, 2))


def test_cayley_roundtrip_gamma1():
    g = build_semidirect(5, 8, 2)
    loaded = parse_cayley_table(format_cayley_table(g), name="gamma1")
    assert loaded.mul == g.mul
    assert loaded.inv == g.inv
    assert loaded.element_orders == g.element_orders
    assert not loaded.abelian


def test_cayley_file_roundtrip(tmp_path):
    g = build_semidirect(5, 8, 2)
    path = tmp_path / "gamma1.tbl"
    path.write_text(format_cayley_table(g), encoding="utf-8")
    loaded = load_cayley_table(path)
    assert loaded.mul == g.mul


def test_cayley_duplicate_row_rejected():
    z6 = build_cyclic(6)
    rows = [list(r) for r in z6.mul]
    rows[3] = rows[2][:]
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in rows)
    with pytest.raises(ValidationError, match=r"cell \("):
        parse_cayley_table(text)


def test_cayley_latin_violation_names_the_first_repeated_cell():
    rows = [list(r) for r in build_cyclic(6).mul]
    rows[1][4] = rows[1][2]  # row 1 repeats a value at column 4
    rows[5][3] = rows[5][0]
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in rows)
    with pytest.raises(ValidationError, match=r"at cell \(1, 4\)$"):
        parse_cayley_table(text)
    rows = [list(r) for r in build_cyclic(6).mul]
    rows[4], rows[5] = rows[5], rows[4][:]
    rows[5][0], rows[5][1] = rows[5][1], rows[5][0]  # rows stay permutations
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in rows)
    with pytest.raises(ValidationError, match=r"at cell \(5, 0\)$"):
        parse_cayley_table(text)


def test_cayley_identity_relabeled():
    # permute Z_6 by the transposition 0 <-> 4 so the identity lands at index 4
    z6 = build_cyclic(6)
    perm = [4, 1, 2, 3, 0, 5]
    n = 6
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[z6.mul[i][j]]
    assert table[0][1] != 1  # index 0 is no longer the identity
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in table)
    loaded = parse_cayley_table(text)
    assert loaded.mul[0] == tuple(range(n))
    assert loaded.mul[0][3] == 3 and loaded.mul[3][0] == 3
    assert loaded.abelian
    assert sorted(loaded.element_orders) == sorted(z6.element_orders)


def test_cayley_non_associative_rejected():
    # an order-5 loop with two-sided identity that is not a group
    text = """
    # non-associative loop
    5
    0 1 2 3 4
    1 0 3 4 2
    2 3 4 0 1
    3 4 1 2 0
    4 2 0 1 3
    """
    with pytest.raises(ValidationError, match="associative"):
        parse_cayley_table(text)


def test_cayley_no_identity_rejected():
    # subtraction mod 3 is a Latin square without a two-sided identity
    text = "3\n0 2 1\n1 0 2\n2 1 0\n"
    with pytest.raises(ValidationError, match="identity"):
        parse_cayley_table(text)


def test_cayley_malformed_inputs():
    with pytest.raises(ValidationError, match="row 0, column 1"):
        parse_cayley_table("2\n0 x\n1 0\n")
    with pytest.raises(ValidationError, match="out of range"):
        parse_cayley_table("2\n0 5\n1 0\n")
    with pytest.raises(ValidationError, match="expected 2 table rows"):
        parse_cayley_table("2\n0 1\n")
    with pytest.raises(ValidationError):
        parse_cayley_table("")
    # cells are plain decimal indices: no sign, underscore or non-decimal digit
    for cell in ("+1", "0_1", "1.0", "\u00b9"):
        with pytest.raises(ValidationError, match="is not an integer"):
            parse_cayley_table(f"2\n0 {cell}\n1 0\n")
    with pytest.raises(ValidationError, match="row 1, column 0"):
        parse_cayley_table("2\n0 1\n+1 0_1\n")


def test_group_spec_grammar(tmp_path):
    assert parse_group_spec("cyclic:7").order == 7
    prod = parse_group_spec("product:cyclic:2,cyclic:20")
    assert prod.order == 40 and prod.abelian
    nested = parse_group_spec("product:product:cyclic:2,cyclic:2,cyclic:10")
    assert nested.order == 40
    semi = parse_group_spec("semidirect:5,8,2")
    assert semi.order == 40 and not semi.abelian
    path = tmp_path / "z5.tbl"
    path.write_text(format_cayley_table(build_cyclic(5)), encoding="utf-8")
    assert parse_group_spec(f"file:{path}").mul == build_cyclic(5).mul
    with pytest.raises(UsageError):
        parse_group_spec("cyclic:7,cyclic:3")
    with pytest.raises(UsageError):
        parse_group_spec("dihedral:5")
    with pytest.raises(UsageError):
        parse_group_spec("product:cyclic:2")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=32))
def test_cyclic_axioms_random(n):
    assert validate_group(build_cyclic(n)).ok


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_product_axioms_random(a, b):
    g = build_direct_product(build_cyclic(a), build_cyclic(b))
    report = validate_group(g)
    assert report.ok and report.abelian


@st.composite
def relabeled_tables(draw):
    """A zoo group, maybe with one intercalate swapped, under a random relabeling.

    For an involution t, rows x, x*t and columns y, t*y hold an intercalate
    (x*y twice, x*t*y twice).  With x, y outside {e, t} the swap keeps a
    Latin square with identity 0 that is usually not associative.
    """
    g = draw(st.sampled_from(small_group_zoo()))
    rows = [list(r) for r in g.mul]
    if g.involutions() and g.order > 4 and draw(st.booleans()):
        t = draw(st.sampled_from(g.involutions()))
        others = [a for a in range(g.order) if a not in (0, t)]
        x, y = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        xt, ty = g.mul[x][t], g.mul[t][y]
        u, v = rows[x][y], rows[x][ty]
        rows[x][y] = rows[xt][ty] = v
        rows[x][ty] = rows[xt][y] = u
    perm = draw(st.permutations(range(g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            table[perm[i]][perm[j]] = perm[rows[i][j]]
    return tuple(tuple(r) for r in table)


@settings(max_examples=100, deadline=None)
@given(relabeled_tables())
def test_light_test_agrees_with_the_cubic_scan(table):
    triple = _find_associativity_violation(table)
    assert (triple is None) == (oracle_associativity_violation(table) is None)
    if triple is not None:
        assert fails_associativity(table, triple)


def test_light_test_agrees_on_every_table_of_order_3():
    # every 3x3 table, most with no identity or Latin property, as validate_group may get
    for cells in itertools.product(range(3), repeat=9):
        table = (cells[0:3], cells[3:6], cells[6:9])
        triple = _find_associativity_violation(table)
        assert (triple is None) == (oracle_associativity_violation(table) is None), table
        assert triple is None or fails_associativity(table, triple)


def _report_triple(report) -> tuple[int, int, int]:
    match = re.fullmatch(r"violated at triple \((\d+), (\d+), (\d+)\)", report.first_failure)
    assert match, report.first_failure
    return tuple(map(int, match.groups()))


def test_validate_group_reports_a_non_associative_loop():
    loop = Group(5, LOOP5, (0, 1, 3, 4, 2), False, (1, 2, 3, 3, 3), "loop5")
    report = validate_group(loop)
    assert not report.ok
    assert report.axioms["latin_square"] and report.axioms["identity"]
    assert not report.axioms["associativity"]
    assert fails_associativity(LOOP5, _report_triple(report))


def test_validate_group_without_an_identity():
    # subtraction mod 3: a Latin square whose index 0 is only a right identity
    mul = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    report = validate_group(Group(3, mul, (0, 1, 2), False, (1, 2, 2), "sub3"))
    assert not report.ok
    assert not report.axioms["identity"] and not report.axioms["associativity"]
    assert report.first_failure == "index 0 is not a two-sided identity"
    assert fails_associativity(mul, _find_associativity_violation(mul))


def test_import_does_not_load_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(bigraphds.__file__).parents[1])}
    code = "import sys, bigraphds; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def shuffled_table(g, seed):
    """The Cayley table of g under a seeded relabeling."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    old = [0] * g.order
    for x, y in enumerate(perm):
        old[y] = x
    rows = (" ".join(str(perm[g.mul[a][b]]) for b in old) for a in old)
    return f"{g.order}\n" + "\n".join(rows) + "\n"


Z2 = build_cyclic(2)
AUTOMORPHISM_COUNTS = [(build_cyclic(n), euler_phi(n)) for n in (1, 2, 6, 7, 12, 13, 39)] + [
    (build_direct_product(Z2, Z2), 6),
    (build_semidirect(3, 2, 2), 6),                                 # S3
    (build_direct_product(build_direct_product(Z2, Z2), Z2), 168),  # GL(3, 2)
    (build_semidirect(4, 2, 3), 8),                                 # D4
    (build_semidirect(7, 3, 2), 42),                                # Z7 x| Z3
    (build_direct_product(build_cyclic(4), build_cyclic(4)), 96),   # GL(2, Z4)
]


@pytest.mark.parametrize(
    "group,count", AUTOMORPHISM_COUNTS, ids=[g.name for g, _ in AUTOMORPHISM_COUNTS]
)
def test_automorphism_counts(group, count):
    n, mul = group.order, group.mul
    auts = list(automorphisms(group))
    assert len(auts) == len(set(auts)) == count
    for phi in auts:
        assert sorted(phi) == list(range(n))
        assert all(phi[mul[x][y]] == mul[phi[x]][phi[y]] for x in range(n) for y in range(n))
    closed = set(auts)
    assert all(tuple(a[b[x]] for x in range(n)) in closed for a in auts for b in auts)
    loaded = parse_cayley_table(shuffled_table(group, n), name="relabeled")
    assert len(list(automorphisms(loaded))) == count


@pytest.mark.parametrize(
    "group,count", AUTOMORPHISM_COUNTS, ids=[g.name for g, _ in AUTOMORPHISM_COUNTS]
)
def test_transversal_factorizes_the_automorphisms(group, count):
    # The full lexicographic listing is the oracle: the maps r psi, psi in
    # Stab(1) and r the identity or one r_c per image c of 1, are each automorphism once.
    for g in (group, parse_cayley_table(shuffled_table(group, count), name="relabeled")):
        n, full = g.order, list(automorphisms(g))
        listed = list(automorphisms(g, transversal=True))
        if n == 1:
            assert listed == full == [(0,)]
            continue
        stab = [phi for phi in listed if phi[1] == 1]
        reps = [tuple(range(n))] + listed[len(stab):]
        assert listed[: len(stab)] == stab == full[: len(stab)]  # the stabilizer comes first
        orbit = [r[1] for r in reps]
        assert len(set(orbit)) == len(orbit) and set(orbit) == {phi[1] for phi in full}
        assert len(stab) * len(orbit) == count
        assert {tuple(r[psi[x]] for x in range(n)) for r in reps for psi in stab} == set(full)


# --- the table reader, Light's test and validate_group against their first,
# per-cell versions: same Group, same report, same error text ----------------


def oracle_light_test(mul):
    """Light's test as first written: one list comprehension per (generator, x)."""
    n = len(mul)
    for a, x in itertools.product(groups._greedy_generators(mul), range(n)):
        arow, row, xa_row = mul[a], mul[x], mul[mul[x][a]]
        if [row[v] for v in arow] != list(xa_row):
            return (x, a, next(y for y in range(n) if xa_row[y] != row[arow[y]]))
    return None


def oracle_is_abelian(mul):
    n = len(mul)
    return all(mul[i][j] == mul[j][i] for i in range(n) for j in range(i + 1, n))


def oracle_parse_cayley_table(text, name="loaded"):
    """parse_cayley_table as first written: int() per cell, a relabeling per cell."""
    rows = [ln.strip().split() for ln in text.splitlines()]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    if not rows:
        raise ValidationError("empty Cayley-table file")
    if len(rows[0]) != 1 or not rows[0][0].isdecimal():
        raise ValidationError(f"first data line must be the order, got {' '.join(rows[0])!r}")
    n = int(rows[0][0])
    groups._check_order(n)
    if len(rows) - 1 != n:
        raise ValidationError(f"expected {n} table rows, found {len(rows) - 1}")
    mul = []
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        for j, tok in enumerate(row):
            if not tok.isdecimal():
                raise ValidationError(f"row {i}, column {j}: {tok!r} is not an integer")
            if (v := int(tok)) >= n:
                raise ValidationError(f"row {i}, column {j}: entry {v} out of range 0..{n - 1}")
        mul.append(tuple(int(tok) for tok in row))
    cell = groups._find_latin_violation(mul)
    if cell is not None:
        raise ValidationError(
            f"not a Latin square: duplicate value in row/column at cell ({cell[0]}, {cell[1]})"
        )
    ident = (e for e in range(n) if all(mul[e][g] == g and mul[g][e] == g for g in range(n)))
    e = next(ident, None)
    if e is None:
        raise ValidationError("table has no two-sided identity element")
    triple = oracle_light_test(mul)
    if triple is not None:
        i, j, k = triple
        raise ValidationError(f"not associative: ({i}*{j})*{k} != {i}*({j}*{k})")
    if e != 0:
        relabel = list(range(n))
        relabel[0], relabel[e] = e, 0
        mul = [tuple(relabel[mul[relabel[i]][relabel[j]]] for j in range(n)) for i in range(n)]
    mul = tuple(mul)
    return Group(n, mul, groups._inverses(mul), oracle_is_abelian(mul),
                 groups._element_orders(mul), name)


def oracle_validate_group(g):
    """validate_group as first written, with the per-cell scans above."""
    mul, n = g.mul, g.order
    cell, triple = groups._find_latin_violation(mul), oracle_light_test(mul)
    checks = [
        ("latin_square", cell is None, f"duplicate at cell {cell}"),
        ("identity", n > 0 and all(mul[0][x] == x and mul[x][0] == x for x in range(n)),
         "index 0 is not a two-sided identity"),
        ("associativity", triple is None, f"violated at triple {triple}"),
        ("inverses", all(mul[x][g.inv[x]] == 0 and mul[g.inv[x]][x] == 0 for x in range(n)),
         "inv table does not give two-sided inverses"),
    ]
    histogram = {}
    for k in g.element_orders:
        histogram[k] = histogram.get(k, 0) + 1
    return groups.GroupReport(
        name=g.name, order=n, ok=all(ok for _, ok, _ in checks),
        axioms={axiom: ok for axiom, ok, _ in checks}, abelian=oracle_is_abelian(mul),
        order_histogram=dict(sorted(histogram.items())), involutions=g.involutions(),
        first_failure=next((detail for _, ok, detail in checks if not ok), None),
    )


def parse_outcome(parse, text):
    """(Group, None) or (None, error text), for comparing two readers."""
    try:
        return parse(text, name="t"), None
    except (ValidationError, CapacityError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def assert_readers_agree(text):
    got, want = parse_outcome(parse_cayley_table, text), parse_outcome(oracle_parse_cayley_table, text)
    assert got == want
    if got[0] is not None:
        assert all(type(row) is tuple for row in got[0].mul)
        assert repr(validate_group(got[0])) == repr(oracle_validate_group(got[0]))
    return got


def relabeled_rows(g, rng, keep_identity=False):
    """Rows of g's table under a random relabeling, as lists of ints."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    if keep_identity:
        perm[perm.index(0)], perm[0] = perm[0], 0
    old = [0] * g.order
    for x, y in enumerate(perm):
        old[y] = x
    return [[perm[g.mul[a][b]] for b in old] for a in old]


def table_text(rows, cell=str):
    return f"# a comment\n{len(rows)}\n\n" + "\n".join(" ".join(map(cell, r)) for r in rows) + "\n"


READER_GROUPS = [
    build_cyclic(1), build_cyclic(2), build_cyclic(3),
    build_cyclic(12), build_semidirect(3, 4, 2), build_semidirect(6, 2, 5),
    build_direct_product(build_cyclic(2), build_cyclic(6)),
    parse_group_spec("product:cyclic:4,cyclic:100"), build_semidirect(100, 4, 7),
]


@pytest.mark.parametrize("g", READER_GROUPS, ids=lambda g: g.name)
def test_reader_matches_the_per_cell_oracle_on_relabelings(g):
    rng = random.Random(g.name)
    for trial in range(3 if g.order < 100 else 1):
        rows = relabeled_rows(g, rng, keep_identity=trial == 2)
        loaded, error = assert_readers_agree(table_text(rows))
        assert error is None and loaded.order == g.order
        assert loaded.abelian == g.abelian
        assert sorted(loaded.element_orders) == sorted(g.element_orders)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@pytest.mark.parametrize("g", [build_cyclic(1), build_cyclic(3), build_semidirect(3, 4, 2),
                               parse_group_spec("product:cyclic:4,cyclic:100")], ids=lambda g: g.name)
def test_reader_accepts_leading_zeros_and_other_decimal_digits_as_before(g):
    rng = random.Random(7)
    rows = relabeled_rows(g, rng)
    spellings = [
        lambda v: f"0{v}",
        lambda v: str(v).translate(ARABIC_INDIC),
        lambda v: f"00{v}" if v % 3 == 0 else str(v),
        lambda v: str(v).translate(ARABIC_INDIC) if v % 2 else str(v),
    ]
    plain = parse_cayley_table(table_text(rows), name="t")
    for spell in spellings:
        loaded, error = assert_readers_agree(table_text(rows, spell))
        assert error is None and loaded == plain
    # one row spelled otherwise, the rest plain
    mixed = table_text([*rows[:-1], [f"0{v}" for v in rows[-1]]])
    assert assert_readers_agree(mixed) == (plain, None)


@pytest.mark.parametrize("cell", ["+1", "0_1", "-1", "1.0", "x", "¹", "٠_١", "12", "012", "١٢"])
def test_reader_names_the_same_bad_cell(cell):
    rows = relabeled_rows(build_semidirect(3, 4, 2), random.Random(3))
    for r, c in ((0, 0), (5, 11), (11, 3)):
        bad = [list(map(str, row)) for row in rows]
        bad[r][c] = cell
        if r == 5:
            bad[5][2] = "013"     # an earlier cell of the row out of range, with a leading zero
        _, error = assert_readers_agree(table_text(bad))
        assert error is not None and f"row {r}, column " in error


def test_reader_rejections_match_the_oracle():
    rows = relabeled_rows(build_semidirect(3, 4, 2), random.Random(4))
    cases = [
        "", "# only a comment\n", "x\n", "2 2\n0 1\n1 0\n", "2\n0 1\n", "2\n0 1\n1 0\n1 0\n",
        "2\n0 1\n1\n", "1001\n", "0\n", "1\n1\n", "1\n0 0\n", "3\n0 2 1\n1 0 2\n2 1 0\n",
        "2\n0 1\n+1 0_1\n", "2\n0 x\n1 0\n", "2\n0 5\n1 0\n",
        table_text(rows[:6] + rows[5:11]),              # a repeated row
        table_text([list(reversed(r)) for r in rows]),  # no two-sided identity
    ]
    for text in cases:
        assert_readers_agree(text)
    # LOOP5 under every relabeling that moves the identity: the same triple each time
    for perm in itertools.permutations(range(5)):
        table = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                table[perm[i]][perm[j]] = perm[LOOP5[i][j]]
        _, error = assert_readers_agree(table_text(table))
        assert "not associative" in error


def benchmark_loop_rows(rng, order=400):
    """Z400 with the intercalate at rows i, i+200 and columns j, j+200 swapped, relabeled
    so the identity leaves index 0: the non-associative loop of the certify benchmark."""
    half = order // 2
    rows = [list(r) for r in build_cyclic(order).mul]
    i, j = rng.randrange(1, half), rng.randrange(1, half)
    for r, c in ((i, j), (i, j + half), (i + half, j), (i + half, j + half)):
        rows[r][c] = (rows[r][c] + half) % order
    perm = list(range(order))
    rng.shuffle(perm)
    if perm[0] == 0:
        k = rng.randrange(1, order)
        perm[0], perm[k] = perm[k], perm[0]
    old = [0] * order
    for x, y in enumerate(perm):
        old[y] = x
    return [[perm[rows[a][b]] for b in old] for a in old]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reader_reports_the_same_triple_on_the_benchmark_loop(seed):
    rows = benchmark_loop_rows(random.Random(seed))
    _, error = assert_readers_agree(table_text(rows))
    i, j, k = map(int, re.search(r"\((\d+)\*(\d+)\)\*(\d+)", error).groups())
    assert rows[rows[i][j]][k] != rows[i][rows[j][k]]


@settings(max_examples=100, deadline=None)
@given(relabeled_tables())
def test_light_test_reports_the_oracle_triple(table):
    assert _find_associativity_violation(table) == oracle_light_test(table)
    n = len(table)
    report = Group(n, table, tuple(range(n)), False, (1,) * n, "t")
    assert repr(validate_group(report)) == repr(oracle_validate_group(report))


def test_light_test_reports_the_oracle_triple_on_every_small_table():
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            table = tuple(cells[i * n : (i + 1) * n] for i in range(n))
            assert _find_associativity_violation(table) == oracle_light_test(table), table
            g = Group(n, table, tuple(range(n)), False, (1,) * n, "t")
            assert repr(validate_group(g)) == repr(oracle_validate_group(g)), table


@pytest.mark.parametrize("g", small_group_zoo() + READER_GROUPS, ids=lambda g: g.name)
def test_validate_group_matches_the_oracle_report(g):
    assert repr(validate_group(g)) == repr(oracle_validate_group(g))
    assert validate_group(g).ok


def test_cyclic_table_is_the_table_of_residues():
    for n in (1, 2, 3, 12, 400, 1000):
        assert build_cyclic(n).mul == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def test_product_and_semidirect_tables_match_the_per_cell_formulas():
    def product_cells(g, h):
        hn = h.order
        return tuple(
            tuple(g.mul[x1][x2] * hn + h.mul[y1][y2] for x2 in range(g.order) for y2 in range(hn))
            for x1 in range(g.order) for y1 in range(hn)
        )

    def semidirect_cells(m, n, k):
        return tuple(
            tuple(((i1 + i2 * pow(k, j1, m)) % m) * n + (j1 + j2) % n
                  for i2 in range(m) for j2 in range(n))
            for i1 in range(m) for j1 in range(n)
        )

    factors = [build_cyclic(1), build_cyclic(2), build_cyclic(5), build_semidirect(3, 2, 2),
               build_semidirect(5, 4, 2)]
    for g, h in itertools.product(factors, repeat=2):
        assert build_direct_product(g, h).mul == product_cells(g, h), (g.name, h.name)
    assert build_direct_product(build_cyclic(4), build_cyclic(100)).mul == product_cells(
        build_cyclic(4), build_cyclic(100))
    for m, n, k in [(1, 1, 1), (1, 5, 1), (5, 1, 1), (7, 3, 2), (5, 8, 2), (20, 2, 19),
                    (21, 2, 20), (101, 5, 36), (1, 40, 1)]:
        assert build_semidirect(m, n, k).mul == semidirect_cells(m, n, k), (m, n, k)


# --- the Latin scan runs only when the identity, a right inverse for each x or
# Light's test fails (in validate_group: the identity, associativity or the inv
# table): the reader and validate_group against the old order (full Latin scan,
# identity, Light's test), which the oracles above keep ----------------------


def assert_same_verdicts_as_the_full_scan_first(table):
    assert_readers_agree(table_text(table))
    n = len(table)
    g = Group(n, tuple(map(tuple, table)), tuple(range(n)), False, (1,) * n, "t")
    assert repr(validate_group(g)) == repr(oracle_validate_group(g))


def test_latin_shortcut_on_every_table_of_order_at_most_3():
    # validate_group on these tables: test_light_test_reports_the_oracle_triple_on_every_small_table
    for n in (1, 2, 3):
        for cells in itertools.product(range(n), repeat=n * n):
            assert_readers_agree(table_text([cells[i * n : (i + 1) * n] for i in range(n)]))


def test_a_group_table_is_accepted_without_a_latin_scan(monkeypatch):
    g = build_semidirect(5, 8, 2)
    text = table_text(relabeled_rows(g, random.Random(5)))

    def latin_scan(mul):
        raise AssertionError("the Latin scan ran on a group table")

    monkeypatch.setattr(groups, "_find_latin_violation", latin_scan)
    assert parse_cayley_table(text).order == 40
    assert validate_group(g).ok


@pytest.mark.parametrize("n", [6, 8, 12])
def test_a_monoid_whose_rows_lack_the_identity_is_rejected_before_lights_test(n, monkeypatch):
    """The multiplicative monoid of Z_n: an identity, associative, not Latin (row 0 is all 0)."""
    monoid = tuple(tuple(x * y % n for y in range(n)) for x in range(n))
    assert oracle_associativity_violation(monoid) is None and groups._find_identity(monoid) == 1
    rows = relabeled_rows(Group(n, monoid, tuple(range(n)), True, (1,) * n, "t"), random.Random(n))

    def light_test(mul):
        raise AssertionError("Light's test ran on a table whose rows lack the identity")

    monkeypatch.setattr(groups, "_find_associativity_violation", light_test)
    _, error = assert_readers_agree(table_text(rows))
    assert error.startswith("ValidationError: not a Latin square: duplicate value in row/column")


def test_a_group_with_a_wrong_inverse_table_is_still_a_latin_square():
    g = build_semidirect(5, 8, 2)
    bad = Group(g.order, g.mul, tuple(range(g.order)), False, g.element_orders, "t")
    report = validate_group(bad)
    assert report.axioms == {"latin_square": True, "identity": True, "associativity": True,
                             "inverses": False}
    assert report.first_failure == "inv table does not give two-sided inverses"
    assert repr(report) == repr(oracle_validate_group(bad))


def test_latin_rows_with_an_identity_and_a_repeated_column_are_not_a_latin_square():
    rows = [list(r) for r in build_cyclic(5).mul]
    rows[2][1], rows[2][3] = rows[2][3], rows[2][1]     # row 2 stays a permutation
    assert all(len(set(row)) == len(row) for row in rows)
    assert groups._find_identity(tuple(map(tuple, rows))) == 0
    with pytest.raises(ValidationError, match=re.escape("Latin square: duplicate value in row/column "
                                                        "at cell (4, 1)")):
        parse_cayley_table(table_text(rows))
    report = validate_group(Group(5, tuple(map(tuple, rows)), (0, 4, 3, 2, 1), True, (1, 5, 5, 5, 5), "t"))
    assert report.axioms == {"latin_square": False, "identity": True, "associativity": False,
                             "inverses": False}
    assert report.first_failure == "duplicate at cell (4, 1)"
    assert_same_verdicts_as_the_full_scan_first(rows)


ORDERS_4_TO_8 = [g for g in small_group_zoo() + [
    build_cyclic(4), build_direct_product(build_cyclic(2), build_cyclic(2)), build_cyclic(5),
    build_cyclic(6), build_cyclic(8), build_direct_product(build_cyclic(2), build_cyclic(4)),
    parse_group_spec("product:product:cyclic:2,cyclic:2,cyclic:2"), build_semidirect(4, 2, 3),
] if 4 <= g.order <= 8]


@st.composite
def broken_group_tables(draw):
    """A group table of order 4-8 with its rows kept Latin, then one of: two cells of a row
    swapped (a column-only duplicate), the rows permuted (an identity that is lost or moved),
    or an intercalate swapped; and a random relabeling."""
    g = draw(st.sampled_from(ORDERS_4_TO_8))
    n, rows = g.order, [list(r) for r in g.mul]
    kind = draw(st.sampled_from(["row-swap", "row-permutation", "intercalate", "none"]))
    if kind == "row-swap":
        r = draw(st.integers(0, n - 1))
        j, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[r][j], rows[r][k] = rows[r][k], rows[r][j]
    elif kind == "row-permutation":
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    elif kind == "intercalate" and g.involutions():
        t = draw(st.sampled_from(g.involutions()))
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        xt, ty = g.mul[x][t], g.mul[t][y]
        rows[x][y], rows[x][ty] = rows[x][ty], rows[x][y]
        rows[xt][y], rows[xt][ty] = rows[xt][ty], rows[xt][y]
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[rows[i][j]]
    return table


@settings(max_examples=300, deadline=None)
@given(broken_group_tables())
def test_column_shortcut_matches_the_full_scan_first_on_broken_group_tables(table):
    assert all(len(set(row)) == len(row) for row in table)
    assert_same_verdicts_as_the_full_scan_first(table)


# --- the reader's certificate: a table it accepted is tested for associativity
# once; every other group, edited copies included, gets the full test ------------


def oracle_format_cayley_table(g):
    """format_cayley_table as first written: str() per cell."""
    lines = [f"# {g.name}", str(g.order)]
    lines.extend(" ".join(str(x) for x in row) for row in g.mul)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("g", [build_cyclic(1), build_cyclic(2), build_semidirect(3, 4, 2),
                               build_semidirect(100, 4, 7)], ids=lambda g: g.name)
def test_format_cayley_table_matches_the_per_cell_oracle(g):
    assert format_cayley_table(g) == oracle_format_cayley_table(g)


def parsed_with_the_identity_moved(g, seed):
    rng = random.Random(seed)
    while True:
        rows = relabeled_rows(g, rng)
        if rows[0] != list(range(g.order)):     # the identity has left index 0
            return parse_cayley_table(table_text(rows), name="t")


@pytest.mark.parametrize("g", [build_cyclic(2), build_cyclic(12), build_semidirect(5, 8, 2),
                               build_semidirect(100, 4, 7)], ids=lambda g: g.name)
def test_an_accepted_table_is_not_tested_for_associativity_again(g, monkeypatch):
    parsed = parsed_with_the_identity_moved(g, 11)

    def rescan(*args):
        raise AssertionError("an accepted table was re-checked")

    monkeypatch.setattr(groups, "_find_associativity_violation", rescan)
    monkeypatch.setattr(groups, "_is_abelian", rescan)
    report = validate_group(parsed)
    assert report.ok and report.abelian == g.abelian
    assert repr(report) == repr(oracle_validate_group(parsed))


def swapped_intercalate(mul, i=1, j=1):
    """Z_n's table with the intercalate at rows i, i+n/2 and columns j, j+n/2 swapped:
    still Latin with identity 0, and not associative."""
    n, rows = len(mul), [list(r) for r in mul]
    for r, c in ((i, j), (i, j + n // 2), (i + n // 2, j), (i + n // 2, j + n // 2)):
        rows[r][c] = (rows[r][c] + n // 2) % n
    return tuple(map(tuple, rows))


def test_edited_and_rebuilt_copies_of_a_parsed_group_get_the_full_test(monkeypatch):
    parsed = parse_cayley_table(format_cayley_table(build_cyclic(12)), name="t")
    broken = swapped_intercalate(parsed.mul)
    fields = {f.name: getattr(parsed, f.name) for f in dataclasses.fields(Group) if f.init}
    copies = [dataclasses.replace(parsed, mul=broken), Group(**{**fields, "mul": broken}),
              Group(**fields)]
    calls = []
    real = groups._find_associativity_violation
    monkeypatch.setattr(groups, "_find_associativity_violation",
                        lambda *args: calls.append(args) or real(*args))
    for copy in copies:
        assert not copy._associative
        report = validate_group(copy)
        assert repr(report) == repr(oracle_validate_group(copy))
        if copy.mul is broken:
            assert report.axioms["associativity"] is False
            assert report.first_failure == f"violated at triple {oracle_light_test(broken)}"
    assert len(calls) == len(copies)
    assert validate_group(copies[2]).ok


def test_a_parsed_group_equals_and_hashes_as_the_same_group_built_by_hand():
    for g in (build_cyclic(1), build_semidirect(5, 8, 2)):
        parsed = parsed_with_the_identity_moved(g, 3) if g.order > 1 else \
            parse_cayley_table("1\n0\n", name="t")
        plain = Group(parsed.order, parsed.mul, parsed.inv, parsed.abelian,
                      parsed.element_orders, parsed.name)
        assert parsed._associative and not plain._associative
        assert parsed == plain and hash(parsed) == hash(plain) and repr(parsed) == repr(plain)
