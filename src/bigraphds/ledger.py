"""The reproduction ledger: one executable check per published result.

``CHECKS`` lists every check as ``(name, check, full_only)`` in the order
``bigraphds repro`` prints them.  A check takes no argument and returns
``(ok, detail)``; the full-only checks are the exhaustive searches.
The CLI and the acceptance tests both run these checks, so each fact about
the paper is stated once, here.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from . import bigraph, bounds, diffsets, groups, search, singer
from .errors import InternalError, UsageError

Z39_WITNESS = (0, 1, 2, 4, 13, 18, 33)
# The five non-Abelian groups of order 42: the Frobenius group Z7 x| Z6, the
# dihedral group, S3 x Z7, D14 x Z3 and (Z7 x| Z3) x Z2.
NONABELIAN_ORDER42 = (
    "semidirect:7,6,3",
    "semidirect:21,2,20",
    "product:semidirect:3,2,2,cyclic:7",
    "product:semidirect:7,2,6,cyclic:3",
    "product:semidirect:7,3,2,cyclic:2",
)
# The three Abelian groups of order 40: Z40, Z2 x Z20 and Z2 x Z2 x Z10.
ABELIAN_ORDER40 = ("cyclic:40", "product:cyclic:2,cyclic:20", "product:product:cyclic:2,cyclic:2,cyclic:10")
SEARCH_BUDGET_MS = 15 * 60 * 1000  # each order-39..42 search must finish within 15 minutes


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _table1() -> tuple[bool, str]:
    published = {(4, 3): 14, (5, 3): 16, (6, 3): 24, (8, 4): 42, (10, 5): 69, (10, 6): 88}
    diagonal = [6, 14, 26, 42, 62, 86, 114, 146, 182, 222, 266]
    published.update({(r, r): want for r, want in enumerate(diagonal, start=2)})
    for (r, s), want in published.items():
        if bounds.bound_report(r, s).moore != want:
            return False, f"cell ({r},{s}) != {want}"
    csv = bounds.render_table("moore", 12, 12, "csv").strip().splitlines()[1:]
    rows = {row.split(",")[0]: row.split(",") for row in csv}
    for r in range(2, 13):
        for s in range(2, r + 1):
            g = math.gcd(r, s)
            rho, sigma = r // g, s // g
            want = (1 + s * (r - 1)) // rho * (rho + sigma)  # eq. (5), transcribed directly
            if bounds.bound_report(r, s).moore != want or rows[str(r)][s - 1] != str(want):
                return False, f"cell ({r},{s}) disagrees with eq. (5) = {want}"
    return True, f"{len(published)} published cells match; the r,s <= 12 grid and its CSV match eq. (5)"


def _table2() -> tuple[bool, str]:
    expected = {
        (3, 6): 21,
        (3, 9): 28,
        (4, 12): 56,
        (4, 16): 70,
        (4, 20): 84,
        (4, 24): 98,
        (4, 28): 112,
        (4, 32): 126,
        (4, 36): 140,
        (5, 20): 115,
        (5, 25): 138,
        (5, 30): 161,
        (5, 35): 184,
    }
    csv = [line.split(",") for line in bounds.render_table("improved", 36, 5, "csv").splitlines()]
    axes = csv[0] == ["s\\r", *map(str, range(2, 37))] and [row[0] for row in csv[1:]] == list("2345")
    if not axes or {len(row) for row in csv} != {36}:
        return False, "table 2 is not laid out as s = 2..5 by r = 2..36"
    for row in csv[1:]:
        for r, got in enumerate(row[1:], start=2):
            want = str(expected.get((int(row[0]), r), "-"))
            if got != want:
                return False, f"cell (s={row[0]},r={r}): got {got!r}, want {want!r}"
    return True, "13 improved cells match, all other cells dash"


def _table3() -> tuple[bool, str]:
    published = singer.PUBLISHED_PERFECT_SETS
    if len(published) != 8:
        return False, f"{len(published)} published sets, expected 8"
    for s, (n, elems) in published.items():
        cls = diffsets.classify_set(diffsets.CandidateSet(groups.build_cyclic(n), elems))
        if cls.verdict != diffsets.PERFECT or (cls.n, cls.s, cls.lam) != (n, s, 1):
            return False, f"published set for s={s} classified {cls.verdict}{cls.params()}"
    return True, "8 published sets all classify Perfect(n,s,1)"


def _singer() -> tuple[bool, str]:
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        ss = singer.singer_set(q)
        if (
            ss.n != q * q + q + 1
            or ss.set.size != q + 1
            or ss.classification.verdict != diffsets.PERFECT
        ):
            return False, f"q={q} produced {ss.classification.verdict}{ss.classification.params()}"
    published = singer.singer_set(3, modulus=(1, 1, 2, 1))
    if published.set.elements != (0, 1, 4, 6):
        return False, f"q=3 with the published cubic gave {published.set.elements}"
    return True, "q in {2,3,4,5,7,8,9,11} all perfect; published cubic reproduces {0,1,4,6}"


def _graph(n, elems, m, vertices, degrees) -> tuple[bool, str]:
    cand = diffsets.CandidateSet(groups.build_cyclic(n), elems)
    graph = bigraph.build_difference_graph(cand, m)
    check = bigraph.verify_biregular(graph)
    diam = bigraph.diameter(graph).diameter
    ok = graph.vertex_count == vertices and check.ok and check.degrees == degrees and diam == 3
    return ok, f"{graph.vertex_count} vertices, degrees {check.degrees}, diameter {diam}"


def _pg22() -> tuple[bool, str]:
    ok, detail = _graph(7, (0, 1, 3), 1, 14, (3, 3))
    if not ok:
        return False, detail
    cand = diffsets.CandidateSet(groups.build_cyclic(7), (0, 1, 3))
    repeats = bigraph.find_repeats(bigraph.build_difference_graph(cand, 1), 0)
    if any(repeats.repeats.values()):
        return False, "projective-plane incidence graph has a repeated pair"
    return True, detail + ", no same-part pair shares 2 neighbors"


def _bimoore() -> tuple[bool, str]:
    details = []
    for m in (2, 3):
        cand = diffsets.CandidateSet(groups.build_cyclic(7), (0, 1, 3))
        graph = bigraph.build_difference_graph(cand, m)
        improved = bounds.improved_moore_bound(m, 3)
        if improved is None or not graph.vertex_count == 7 * (m + 1) == improved.value:
            return False, f"m={m}: order {graph.vertex_count} != improved bound"
        details.append(f"m={m}: order {graph.vertex_count} = M*")
    return True, "; ".join(details)


def _z6_prop5() -> tuple[bool, str]:
    out = search.enumerate_covering_sets(search.SearchConfig(groups.build_cyclic(6), 3))
    if not out.found:
        return False, "no covering 3-sets found in Z6"
    for f in out.found:
        cls = f.classification
        if cls.histogram != {1: 4, 2: 1} or cls.repeated != (3,):
            return False, f"{f.elements} has histogram {cls.histogram}, doubled {cls.repeated}"
    return True, f"{len(out.found)} covering sets, each doubling only the involution 3"


def _z39_witness() -> tuple[bool, str]:
    cls = diffsets.classify_set(diffsets.CandidateSet(groups.build_cyclic(39), Z39_WITNESS))
    ok = cls.verdict == diffsets.ADS and (cls.n, cls.s, cls.lam, cls.t) == (39, 7, 1, 34)
    return ok, f"witness classifies {cls.verdict}{cls.params()}"


def _gamma1() -> tuple[bool, str]:
    group = groups.build_semidirect(5, 8, 2)
    words = ["1", "b", "b^4", "b*a", "b*a^-1*b^2", "a*b^-1", "b*a*b^2"]
    cand = diffsets.CandidateSet(group, tuple(diffsets.parse_word(group, w) for w in words))
    cls = diffsets.classify_set(cand)
    if cls.verdict != diffsets.ADS or (cls.n, cls.s, cls.lam, cls.t) != (40, 7, 1, 36):
        return False, f"published set classifies {cls.verdict}{cls.params()}"
    doubled = cls.repeated
    involutions = [g for g in doubled if group.element_orders[g] == 2]
    others = [g for g in doubled if group.element_orders[g] != 2]
    b4 = group.power(group.generators["b"], 4)
    if len(doubled) != 3 or involutions != [b4] or len(others) != 2 or group.inv[others[0]] != others[1]:
        return False, f"doubled elements {doubled} are not b^4 plus an inverse pair"
    if not diffsets.classify_set(diffsets.inverse_set(cand)).is_covering:
        return False, "inverse set is not covering"
    graph = bigraph.build_difference_graph(cand, 2)
    check = bigraph.verify_biregular(graph)
    diam = bigraph.diameter(graph).diameter
    if graph.vertex_count != 120 or check.degrees != (14, 7) or diam != 3:
        return False, f"G_2: {graph.vertex_count} vertices, {check.degrees}, diameter {diam}"
    return True, "ADS(40,7,1,36); doubled = b^4 + inverse pair; G_2 has 120 vertices, (14,7), diameter 3"


def _abelian_searches() -> tuple[bool, str]:
    for group in map(groups.parse_group_spec, ("cyclic:42", "cyclic:41", *ABELIAN_ORDER40)):
        out = search.enumerate_covering_sets(search.SearchConfig(group, 7))
        if out.found or not out.exhausted or out.wall_time_ms >= SEARCH_BUDGET_MS:
            return False, (
                f"{group.name}: found {len(out.found)}, exhausted={out.exhausted}, {out.wall_time_ms} ms"
            )
    return True, "orders 42, 41, 40 (all Abelian groups) exhausted with zero finds, each within budget"


def _z39_enumeration() -> tuple[bool, str]:
    group = groups.build_cyclic(39)
    out = search.enumerate_covering_sets(search.SearchConfig(group, 7))
    if out.wall_time_ms >= SEARCH_BUDGET_MS:
        return False, f"Z39 enumeration took {out.wall_time_ms} ms"
    if not out.exhausted or Z39_WITNESS not in [f.elements for f in out.found]:
        return False, f"exhausted={out.exhausted}; published Z39 set missing from the enumeration"
    if not diffsets.classify_set(diffsets.CandidateSet(group, Z39_WITNESS)).is_covering:
        return False, "published Z39 set does not re-classify as covering"
    return True, f"{len(out.found)} covering sets found, including the published one"


def _nonabelian_sweep() -> tuple[bool, str]:
    rows = search.sweep_family(NONABELIAN_ORDER42, 7)
    bad = [row.spec for row in rows if row.found is not False or row.wall_time_ms >= SEARCH_BUDGET_MS]
    if bad:
        return False, f"unexpected outcome for {bad}"
    return True, "all five non-Abelian order-42 groups have no covering 7-set"


def _gamma1_search() -> tuple[bool, str]:
    out = search.exists_covering_set(
        search.SearchConfig(groups.build_semidirect(5, 8, 2), 7, require_inverse_covering=True)
    )
    if not out.found or out.wall_time_ms >= SEARCH_BUDGET_MS:
        return False, f"no covering set with covering inverse found within budget ({out.wall_time_ms} ms)"
    return True, f"witness {list(out.found[0].elements)}"


CHECKS = (
    ("table1-moore-values", _table1, False),
    ("table2-improved-values", _table2, False),
    ("table3-published-perfect-sets", _table3, False),
    ("singer-generation", _singer, False),
    ("figure2-graph-over-z7", partial(_graph, 7, (0, 1, 3), 2, 21, (6, 3)), False),
    ("figure3-graph-over-z13", partial(_graph, 13, (0, 1, 3, 9), 2, 39, (8, 4)), False),
    ("pg22-incidence-graph", _pg22, False),
    ("bimoore-orders-match-improved-bound", _bimoore, False),
    ("z6-doubled-element-is-the-involution", _z6_prop5, False),
    ("z39-ads-witness", _z39_witness, False),
    ("gamma1-ads-and-graph", _gamma1, False),
    ("abelian-40-41-42-searches", _abelian_searches, True),
    ("z39-enumeration", _z39_enumeration, True),
    ("nonabelian-42-sweep", _nonabelian_sweep, True),
    ("gamma1-inverse-covering-search", _gamma1_search, True),
)


def run_check(name: str) -> CheckResult:
    """Run one named check; a crash counts as a failed check, an InternalError propagates."""
    check = next((c for n, c, _ in CHECKS if n == name), None)
    if check is None:
        raise UsageError(f"unknown check {name!r}")
    try:
        ok, detail = check()
    except InternalError:
        raise
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        ok, detail = False, f"crashed: {exc}"
    return CheckResult(name, ok, detail)


def run(full: bool = False) -> list[CheckResult]:
    """Every check in ledger order; the full-only searches only when ``full``."""
    return [run_check(name) for name, _, full_only in CHECKS if full or not full_only]
