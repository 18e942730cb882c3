"""Moore bounds, the diameter-3 improvement, and table rendering."""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigraphds.bounds import (
    bound_report,
    improved_moore_bound,
    improvement_margin,
    moore_bound_odd,
    render_table,
    tree_counts,
)
from bigraphds.errors import CapacityError, UsageError, ValidationError


def oracle_tree_counts(r: int, s: int, m: int) -> tuple[int, int]:
    """Level-by-level tree sums, written out independently of the closed form."""
    n1 = 1
    width = r  # vertices entering the opposite part at the current odd level
    for _ in range(m):
        width *= s - 1
        n1 += width
        width *= r - 1
    n2 = 1
    width = s
    for _ in range(m):
        width *= r - 1
        n2 += width
        width *= s - 1
    return n1, n2


def test_tree_counts_published_values():
    # the published pair for degrees (4,3) is (9,10); (5,3) gives (11,13)
    assert tree_counts(4, 3, 1) == (9, 10)
    assert tree_counts(5, 3, 1) == (11, 13)
    assert tree_counts(3, 3, 1) == (7, 7)


def test_tree_counts_degenerate_inputs():
    with pytest.raises(ValidationError):
        tree_counts(1, 3, 1)
    with pytest.raises(ValidationError):
        tree_counts(4, 3, 0)
    # (r-1)(s-1) = 1 stays exact through the level-sum evaluation
    assert tree_counts(2, 2, 1) == (3, 3)
    assert tree_counts(2, 2, 2) == (5, 5)


def test_tree_counts_match_levelwise_oracle():
    for r in range(2, 51):
        for s in range(2, r + 1):
            for m in (1, 2, 3):
                assert tree_counts(r, s, m) == oracle_tree_counts(r, s, m)


def test_moore_bound_examples():
    rep = moore_bound_odd(4, 3)
    assert (rep.moore, rep.n1, rep.n2) == (14, 6, 8)
    rep = moore_bound_odd(5, 3)
    assert (rep.moore, rep.n1, rep.n2) == (16, 6, 10)
    assert moore_bound_odd(6, 3).moore == 24
    assert moore_bound_odd(8, 4).moore == 42
    assert moore_bound_odd(10, 5).moore == 69
    assert moore_bound_odd(12, 12).moore == 266
    # swap convention
    assert moore_bound_odd(3, 4).moore == moore_bound_odd(4, 3).moore


def test_edge_count_constraint_holds():
    for r in range(2, 30):
        for s in range(2, r + 1):
            rep = bound_report(r, s)
            assert rep.r * rep.n1 == rep.s * rep.n2
            if rep.improved:
                assert rep.r * rep.improved.n1 == rep.s * rep.improved.n2


def test_improved_bound_window():
    assert improved_moore_bound(3, 3).value == 28
    assert improved_moore_bound(3, 4).value == 56
    assert improved_moore_bound(2, 5) is None  # below the window
    for s in range(3, 7):
        assert improved_moore_bound(s, s).value == (s * s - 2) * (s + 1)
        assert improved_moore_bound(s - 2, s) is None
        assert improved_moore_bound(s - 1, s) is not None
        assert improved_moore_bound(s * s - s - 3, s) is not None
        assert improved_moore_bound(s * s - s - 2, s) is None
    assert improved_moore_bound(2, 2) is None  # s < 3 never applies


def test_margin_values_and_pole():
    assert improvement_margin(2, 3) == Fraction(4)
    with pytest.raises(ValidationError):
        improvement_margin(1, 3)  # the pole sits at multiplier = s - 2
    assert improvement_margin(0, 3) < 0
    for s in (3, 4, 5):
        upper = s * s - s - 2
        assert improvement_margin(upper, s) == 0
        assert improvement_margin(upper - 1, s) > 0
        assert improvement_margin(upper + 1, s) < 0


def test_margin_positive_across_window():
    for s in (3, 4, 5, 6):
        for rho in range(s - 1, s * s - s - 2):
            assert improvement_margin(rho, s) > 0


def test_bound_report_dispatch():
    rep = bound_report(6, 3)
    assert (rep.moore, rep.improved.value, rep.best) == (24, 21, 21)
    rep = bound_report(12, 4)
    assert (rep.moore, rep.improved.value) == (60, 56)
    rep = bound_report(4, 3)
    assert rep.improved is None and rep.best == 14
    with pytest.raises(ValidationError):
        bound_report(3, 4)


def test_improved_strictly_below_classical_in_window():
    for s in range(3, 7):
        for m in range(s - 1, s * s - s - 2):
            rep = bound_report(m * s, s)
            assert rep.improved is not None
            assert rep.improved.value < rep.moore


def test_classical_bound_for_large_multiplier_and_ratio():
    for s in range(3, 13):
        for m in range(s + 1, s + 4):
            rep = bound_report(m * s, s)
            assert rep.moore == (s * s - 1) * (m + 1)
            order = (s * s - s + 1) * (m + 1)
            assert Fraction(order, rep.moore) == Fraction(s * s - s + 1, s * s - 1)


def test_render_moore_table_cells():
    text = render_table("moore", 12, 12, "csv")
    rows = {line.split(",")[0]: line.split(",") for line in text.strip().splitlines()[1:]}
    assert rows["4"][2] == "14"    # (r=4, s=3)
    assert rows["10"][4] == "69"   # (r=10, s=5)
    assert rows["12"][11] == "266"
    assert rows["3"][2] == "14" and rows["3"][3] == ""  # upper triangle blank
    assert rows["2"][1] == "6"


def test_render_improved_table_cells():
    text = render_table("improved", 36, 5, "csv")
    rows = {line.split(",")[0]: line.split(",") for line in text.strip().splitlines()[1:]}
    s3 = rows["3"]
    assert s3[5] == "21" and s3[8] == "28"
    assert all(cell == "-" for i, cell in enumerate(s3[1:], start=2) if i not in (6, 9))
    s5 = rows["5"]
    assert [s5[19], s5[24], s5[29], s5[34]] == ["115", "138", "161", "184"]


def test_render_table_json_and_md():
    payload = json.loads(render_table("improved", 12, 4, "json"))
    assert {"r": 6, "s": 3, "value": 21} in payload["cells"]
    assert all(cell["value"] is not None for cell in payload["cells"])
    md = render_table("moore", 6, 6, "md")
    assert md.startswith("| r\\s") and "| 24" in md


def test_render_table_rejections():
    with pytest.raises(UsageError):
        render_table("fancy", 5, 5)
    with pytest.raises(UsageError):
        render_table("moore", 5, 5, "yaml")
    with pytest.raises(ValidationError):
        render_table("moore", 1, 5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=3),
)
def test_closed_form_matches_sum(r, s, m):
    n1, n2 = tree_counts(r, s, m)
    t = (r - 1) * (s - 1)
    if t > 1:
        assert n1 == 1 + r * (s - 1) * (t**m - 1) // (t - 1)
        assert n2 == 1 + s * (r - 1) * (t**m - 1) // (t - 1)
    rep = moore_bound_odd(r, s, m)
    big, small = max(r, s), min(r, s)
    g = math.gcd(big, small)
    if big != small:
        assert rep.moore == (rep.n2_raw // (big // g)) * ((big + small) // g)
    else:
        assert rep.moore == rep.n1_raw + rep.n2_raw


def test_tree_counts_refuse_a_huge_m_before_forming_the_power():
    start = time.perf_counter()
    for r, s, m in ((3, 3, 200000), (12, 12, 3000), (30, 2, 10**12)):
        with pytest.raises(CapacityError):
            tree_counts(r, s, m)
    assert time.perf_counter() - start < 1.0
    # (r-1)(s-1) = 1: the closed form is m itself, so any m is cheap
    assert tree_counts(2, 2, 10**12) == (2 * 10**12 + 1, 2 * 10**12 + 1)


@pytest.mark.parametrize("r, s", [(12, 12), (12, 5), (7, 3), (9, 6), (2, 3)])
def test_moore_bound_stops_exactly_at_the_digit_limit(r, s):
    r, s = max(r, s), min(r, s)
    g = math.gcd(r, s)
    rho, sigma = r // g, s // g

    def oracle_moore(m: int) -> int:
        return oracle_tree_counts(r, s, m)[1] // rho * (rho + sigma)

    # bisect on the level-sum oracle for the first m whose bound passes 4300 digits
    lo, hi = 1, 20000
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if oracle_moore(mid) < 10**4300 else (lo, mid)
    rep = moore_bound_odd(r, s, lo - 1)
    assert rep.moore == oracle_moore(lo - 1) and len(str(rep.moore)) <= 4300
    with pytest.raises(CapacityError):
        moore_bound_odd(r, s, lo)
