"""Exact Moore-type bounds for bipartite biregular graphs of odd diameter.

Everything is integer or rational arithmetic: the floor in the classical
bound and the sign of the improvement margin must be exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import UsageError, ValidationError

TABLE_KINDS = ("moore", "improved")
TABLE_FORMATS = ("md", "csv", "json")


@dataclass(frozen=True)
class ImprovedBound:
    """The diameter-3 improvement for degrees (multiplier*s, s)."""

    multiplier: int
    s: int
    value: int
    n1: int
    n2: int


@dataclass(frozen=True)
class BoundReport:
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


@dataclass(frozen=True)
class ImprovementMargin:
    """Exact value of multiplier*s*(s-1)/(multiplier-s+2) - (s^2-1)."""

    multiplier: int
    s: int
    value: Fraction


def tree_counts(r: int, s: int, half_diameter: int = 1) -> tuple[int, int]:
    """Vertex counts of the two distance trees truncated at depth d-1 = 2m.

    The first count bounds the part whose vertices have degree r, the second
    the degree-s part.  Evaluated as an explicit level sum, which stays exact
    when (r-1)(s-1) = 1.
    """
    if r < 2 or s < 2:
        raise ValidationError(f"degrees must be >= 2, got r={r}, s={s}")
    if half_diameter < 1:
        raise ValidationError(f"half-diameter must be >= 1, got {half_diameter}")
    t = (r - 1) * (s - 1)
    geo = sum(t**i for i in range(half_diameter))
    return 1 + r * (s - 1) * geo, 1 + s * (r - 1) * geo


def moore_bound_odd(r: int, s: int, half_diameter: int = 1) -> BoundReport:
    """Moore bound for diameter 2*half_diameter + 1 (degrees swapped so r >= s)."""
    if r < s:
        r, s = s, r
    n1_raw, n2_raw = tree_counts(r, s, half_diameter)
    g = math.gcd(r, s)
    rho, sigma = r // g, s // g
    if r == s:
        moore, n1, n2 = n1_raw + n2_raw, n1_raw, n2_raw
    else:
        scale = n2_raw // rho
        moore = scale * (rho + sigma)
        n1, n2 = scale * sigma, scale * rho
    return BoundReport(
        r=r,
        s=s,
        d=2 * half_diameter + 1,
        n1_raw=n1_raw,
        n2_raw=n2_raw,
        rho=rho,
        sigma=sigma,
        moore=moore,
        n1=n1,
        n2=n2,
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


def improvement_margin(multiplier: int, s: int) -> ImprovementMargin:
    """Margin whose positivity justifies the improved bound; exact rational."""
    if multiplier - s + 2 == 0:
        raise ValidationError(f"margin has a pole at multiplier = s - 2 (s={s})")
    value = Fraction(multiplier * s * (s - 1), multiplier - s + 2) - (s * s - 1)
    return ImprovementMargin(multiplier, s, value)


def bound_report(r: int, s: int) -> BoundReport:
    """Diameter-3 report: classical bound plus the improvement when it applies."""
    if s < 2 or r < s:
        raise ValidationError(f"need r >= s >= 2, got r={r}, s={s}")
    base = moore_bound_odd(r, s, 1)
    improved = improved_moore_bound(r // s, s) if r % s == 0 else None
    best = min(base.moore, improved.value) if improved else base.moore
    return replace(base, improved=improved, best=best)


def _table_cells(kind: str, r_max: int, s_max: int) -> list[tuple[int, int, int | None]]:
    cells = []
    if kind == "moore":
        for r in range(2, r_max + 1):
            for s in range(2, s_max + 1):
                cells.append((r, s, bound_report(r, s).moore if s <= r else None))
    else:
        for s in range(2, s_max + 1):
            for r in range(2, r_max + 1):
                improved = improved_moore_bound(r // s, s) if r % s == 0 else None
                cells.append((r, s, improved.value if improved else None))
    return cells


def render_table(kind: str, r_max: int, s_max: int, fmt: str = "md") -> str:
    """Grid of diameter-3 bounds; inapplicable cells render as '-'."""
    if kind not in TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    if fmt not in TABLE_FORMATS:
        raise UsageError(f"unknown table format {fmt!r}; expected one of {TABLE_FORMATS}")
    if r_max < 2 or s_max < 2:
        raise ValidationError("table bounds must be >= 2")
    cells = _table_cells(kind, r_max, s_max)
    if fmt == "json":
        import json

        payload = {
            "kind": kind,
            "d": 3,
            "cells": [
                {"r": r, "s": s, "value": v} for r, s, v in cells if v is not None
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    lookup = {(r, s): v for r, s, v in cells}
    if kind == "moore":
        header = ["r\\s"] + [str(s) for s in range(2, s_max + 1)]
        rows = [
            [str(r)]
            + [
                "" if s > r else str(lookup[(r, s)])
                for s in range(2, s_max + 1)
            ]
            for r in range(2, r_max + 1)
        ]
    else:
        header = ["s\\r"] + [str(r) for r in range(2, r_max + 1)]
        rows = [
            [str(s)]
            + [
                str(lookup[(r, s)]) if lookup[(r, s)] is not None else "-"
                for r in range(2, r_max + 1)
            ]
            for s in range(2, s_max + 1)
        ]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    lines = [
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(header, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    lines.extend(
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |"
        for row in rows
    )
    return "\n".join(lines) + "\n"
