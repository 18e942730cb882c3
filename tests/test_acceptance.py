"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
ledger.  Budgets are asserted at the values stated in the criteria.  The
paper's facts live in `bigraphds.ledger`; criteria 1-8 and 11 run the ledger
checks they cover, and criteria 9 and 10 are oracle sweeps of their own; the
brute force of criterion 9 is also the search tests' oracle.
"""

from __future__ import annotations

import itertools
import time

from bigraphds import ledger
from bigraphds.bigraph import build_difference_graph, diameter
from bigraphds.diffsets import CandidateSet, classify_set
from bigraphds.groups import build_cyclic
from bigraphds.search import SearchConfig, enumerate_covering_sets


def _record(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def _ledger_criterion(num: int, names: list[str], budget: float, check_budgets=None) -> None:
    """Run ledger checks; ``check_budgets`` maps a check name to its own limit in seconds.

    The searches' 15-minute limit per search is asserted inside the ledger.
    """
    t0 = time.perf_counter()
    ok, details = True, []
    for name in names:
        t_check = time.perf_counter()
        result = ledger.run_check(name)
        elapsed = time.perf_counter() - t_check
        limit = (check_budgets or {}).get(name)
        within = limit is None or elapsed < limit
        ok = ok and result.ok and within
        details.append(f"{name}: {result.detail}" + ("" if within else f" (took {elapsed:.2f}s, budget {limit}s)"))
    _record(num, ok, "; ".join(details), time.perf_counter() - t0, budget)


def test_criterion_1_table1_reproduction():
    _ledger_criterion(1, ["table1-moore-values"], 1.0)


def test_criterion_2_table2_reproduction():
    _ledger_criterion(2, ["table2-improved-values"], 1.0)


def test_criterion_3_table3_validation():
    _ledger_criterion(3, ["table3-published-perfect-sets"], 1.0)


def test_criterion_4_singer_generation():
    _ledger_criterion(4, ["singer-generation"], 5.0)


def test_criterion_5_graph_checks():
    names = ["figure2-graph-over-z7", "figure3-graph-over-z13", "pg22-incidence-graph"]
    _ledger_criterion(5, names, 5.0)


def test_criterion_6_bimoore_confirmation():
    _ledger_criterion(6, ["bimoore-orders-match-improved-bound"], 1.0)


def test_criterion_7_abelian_search_reproduction():
    names = ["abelian-40-41-42-searches", "z39-enumeration", "z39-ads-witness"]
    _ledger_criterion(7, names, 6 * 15 * 60.0, {"z39-ads-witness": 1.0})


def test_criterion_8_nonabelian_search_reproduction():
    names = ["nonabelian-42-sweep", "gamma1-inverse-covering-search", "gamma1-ads-and-graph"]
    _ledger_criterion(8, names, 6 * 15 * 60.0, {"gamma1-ads-and-graph": 1.0})


def canonical_covering_sets(group, size):
    """Brute force over every canonical set: the covering size-sets containing 0."""
    n, mul, inv = group.order, group.mul, group.inv
    out = []
    for rest in itertools.combinations(range(1, n), size - 1):
        elems = (0, *rest)
        if len({mul[x][inv[y]] for x in elems for y in elems if x != y}) == n - 1:
            out.append(elems)
    return out


def test_criterion_9_pruning_safety():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 22):
        group = build_cyclic(n)
        for s in range(2, min(5, n) + 1):
            found = enumerate_covering_sets(SearchConfig(group, s)).found
            ok = ok and [f.elements for f in found] == canonical_covering_sets(group, s)
    _record(9, ok, "the search matches brute force over canonical sets for all cyclic n <= 21, s <= 5",
            time.perf_counter() - t0, 120.0)


def test_criterion_10_diameter_covering_equivalence():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for n in range(2, 14):
        group = build_cyclic(n)
        for s in range(1, min(4, n - 1) + 1):
            for rest in itertools.combinations(range(1, n), s - 1):
                cand = CandidateSet(group, (0, *rest))
                covering = classify_set(cand).is_covering
                for m in (1, 2):
                    got = diameter(build_difference_graph(cand, m)).diameter
                    ok = ok and (got == 3) == covering
                    cases += 1
    _record(10, ok, f"diameter 3 iff covering across {cases} oracle cases", time.perf_counter() - t0, 120.0)


def test_criterion_11_prop5_law():
    _ledger_criterion(11, ["z6-doubled-element-is-the-involution"], 1.0)
