"""Exact Moore-type bounds for bipartite biregular graphs of odd diameter.

Everything is integer or rational arithmetic: the floor in the classical
bound and the sign of the improvement margin must be exact.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CapacityError, UsageError, ValidationError

TABLE_KINDS = ("moore", "improved")
TABLE_FORMATS = ("md", "csv", "json")
MAX_DIGITS = 4300  # CPython's default limit on converting an int to decimal
_DIGIT_LIMIT = 10**MAX_DIGITS
MAX_TABLE_CELLS = 10_000  # cells of a rendered grid, (r_max - 1) * (s_max - 1)
# per kind: the corner label "row axis\\column axis", the cell value and the blank marker
_TABLES = {
    "moore": ("r\\s", lambda report: report.moore, ""),
    "improved": ("s\\r", lambda report: report.improved and report.improved.value, "-"),
}


class ImprovedBound(NamedTuple):
    """The diameter-3 improvement for degrees (multiplier*s, s)."""

    multiplier: int
    s: int
    value: int
    n1: int
    n2: int


class BoundReport(NamedTuple):
    r: int
    s: int
    d: int
    n1_raw: int
    n2_raw: int
    rho: int
    sigma: int
    moore: int
    n1: int
    n2: int
    improved: ImprovedBound | None
    best: int


def tree_counts(r: int, s: int, half_diameter: int = 1) -> tuple[int, int]:
    """Vertex counts of the two distance trees truncated at depth d-1 = 2m.

    The first count bounds the part whose vertices have degree r, the second
    the degree-s part.  With t = (r-1)(s-1), the level sum 1 + t + ... + t^(m-1)
    is m when t = 1 and (t^m - 1) // (t - 1) otherwise.  CapacityError, before
    t^m is formed, if m * (t.bit_length() - 1) > 4 * MAX_DIGITS (t^m > 16^MAX_DIGITS).
    """
    if r < 2 or s < 2:
        raise ValidationError(f"degrees must be >= 2, got r={r}, s={s}")
    if half_diameter < 1:
        raise ValidationError(f"half-diameter must be >= 1, got {half_diameter}")
    t = (r - 1) * (s - 1)
    if half_diameter * (t.bit_length() - 1) > 4 * MAX_DIGITS:
        raise CapacityError(f"tree counts for m={half_diameter} exceed {MAX_DIGITS} digits")
    geo = half_diameter if t == 1 else (t**half_diameter - 1) // (t - 1)
    return 1 + r * (s - 1) * geo, 1 + s * (r - 1) * geo


def moore_bound_odd(r: int, s: int, half_diameter: int = 1) -> BoundReport:
    """Moore bound for diameter 2*half_diameter + 1 (degrees swapped so r >= s)."""
    if r < s:
        r, s = s, r
    n1_raw, n2_raw = tree_counts(r, s, half_diameter)
    g = math.gcd(r, s)
    rho, sigma = r // g, s // g
    scale = n2_raw // rho
    moore = scale * (rho + sigma)
    if moore >= _DIGIT_LIMIT:
        raise CapacityError(f"M({r},{s};{2 * half_diameter + 1}) exceeds {MAX_DIGITS} digits")
    return BoundReport(
        r=r,
        s=s,
        d=2 * half_diameter + 1,
        n1_raw=n1_raw,
        n2_raw=n2_raw,
        rho=rho,
        sigma=sigma,
        moore=moore,
        n1=scale * sigma,
        n2=scale * rho,
        improved=None,
        best=moore,
    )


def improved_moore_bound(multiplier: int, s: int) -> ImprovedBound | None:
    """(s^2-2)(multiplier+1) for degrees (multiplier*s, s) inside the window.

    Applicable exactly when s >= 3 and s-1 <= multiplier <= s^2-s-3;
    returns None otherwise.
    """
    if s < 3 or multiplier < s - 1 or multiplier > s * s - s - 3:
        return None
    n1 = s * s - 2
    return ImprovedBound(multiplier, s, n1 * (multiplier + 1), n1, multiplier * n1)


def improvement_margin(multiplier: int, s: int) -> Fraction:
    """Exact multiplier*s*(s-1)/(multiplier-s+2) - (s^2-1), whose positivity justifies the
    improved bound."""
    if multiplier - s + 2 == 0:
        raise ValidationError(f"margin has a pole at multiplier = s - 2 (s={s})")
    return Fraction(multiplier * s * (s - 1), multiplier - s + 2) - (s * s - 1)


def bound_report(r: int, s: int) -> BoundReport:
    """Diameter-3 report: classical bound plus the improvement when it applies."""
    if s < 2 or r < s:
        raise ValidationError(f"need r >= s >= 2, got r={r}, s={s}")
    base = moore_bound_odd(r, s, 1)
    improved = improved_moore_bound(r // s, s) if r % s == 0 else None
    best = min(base.moore, improved.value) if improved else base.moore
    return base._replace(improved=improved, best=best)


def render_table(kind: str, r_max: int, s_max: int, fmt: str = "md") -> str:
    """Table 1 (kind "moore") or Table 2 (kind "improved"), every format from one grid."""
    if kind not in TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    if fmt not in TABLE_FORMATS:
        raise UsageError(f"unknown table format {fmt!r}; expected one of {TABLE_FORMATS}")
    if r_max < 2 or s_max < 2:
        raise ValidationError("table bounds must be >= 2")
    if (r_max - 1) * (s_max - 1) > MAX_TABLE_CELLS:
        raise CapacityError(f"a {r_max} x {s_max} table exceeds {MAX_TABLE_CELLS} cells")
    corner, value, blank = _TABLES[kind]
    row_axis, col_axis = corner.split("\\")
    span = {"r": range(2, r_max + 1), "s": range(2, s_max + 1)}
    grid = [[{row_axis: a, col_axis: b} for b in span[col_axis]] for a in span[row_axis]]
    for c in (c for row in grid for c in row):
        c["value"] = value(bound_report(c["r"], c["s"])) if c["s"] <= c["r"] else None
    if fmt == "json":
        cells = [c for row in grid for c in row if c["value"] is not None]
        return json.dumps({"kind": kind, "d": 3, "cells": cells}, indent=2, sort_keys=True) + "\n"
    table = [[corner, *map(str, span[col_axis])]] + [
        [str(row[0][row_axis]), *(blank if c["value"] is None else str(c["value"]) for c in row)]
        for row in grid
    ]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in table)
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(line, widths)) + " |" for line in table]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
