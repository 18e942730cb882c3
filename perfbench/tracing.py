"""In-memory spans recorded around the benchmark's calls into bigraphds.

A span is named ``<layer>.<function>`` for a call into a package layer
(``search.exists_covering_set``), ``check`` for the benchmark's own oracle
work, and ``pass``, ``item`` or ``setup`` for benchmark glue.  Spans are kept
in memory and written out once, when the run ends.  A layer's self time is
the duration of its spans minus the part of each covered by child spans.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

GLUE = ("pass", "item", "setup")


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (the search pool)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Span:
    __slots__ = ("id", "name", "item", "parent", "start", "end", "cpu", "attrs")

    def __init__(self, sid: int, name: str, item: str | None, parent: int | None):
        self.id, self.name, self.item, self.parent = sid, name, item, parent
        self.attrs: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def note(self, **attrs) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    def note(self, **attrs) -> None:
        pass


class NullTracer:
    """Tracing off: the same call sites, nothing recorded."""

    _span = _NullSpan()

    @contextmanager
    def span(self, name: str, item: str | None = None):
        yield self._span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(next(self._ids), name,
                  item if item is not None else (parent.item if parent else None),
                  parent.id if parent else None)
        self._stack.append(sp)
        cpu0 = _cpu_s()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu = _cpu_s() - cpu0
            self._stack.pop()
            self.spans.append(sp)

    def dump(self, path) -> None:
        rows = [
            {"id": s.id, "name": s.name, "item": s.item, "parent": s.parent,
             "start": s.start, "end": s.end, "cpu_s": s.cpu, **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_cost_s() -> float:
    """Median time one empty span takes over five batches of 2,000.

    The difference between a traced and an untraced pass is far below the
    pass-to-pass noise of a shared machine, so the tracing overhead is this
    cost times the number of spans in a pass.
    """
    costs = []
    for _ in range(5):
        tr = Tracer()
        t0 = time.perf_counter()
        for _ in range(2000):
            with tr.span("calibrate"):
                pass
        costs.append((time.perf_counter() - t0) / 2000)
    return median(costs)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus set-up and tracing figures.

    Times and counts are totals over the traced passes divided by their
    number; ``groups.build_s`` is the groups layer's self time in set-up.
    """
    own = self_times(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}

    def root(s: Span) -> Span:
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    passes = [s for s in tracer.spans if s.parent is None and s.name == "pass"]
    p = len(passes)
    in_pass = [s for s in tracer.spans if root(s).name == "pass"]
    in_setup = [s for s in tracer.spans if root(s).name == "setup"]

    def busy(prefix: str, spans=in_pass) -> float:
        return sum(own[s.id] for s in spans if s.name.startswith(prefix))

    def total(prefix: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in in_pass if s.name.startswith(prefix))

    def count(prefix: str) -> int:
        return sum(1 for s in in_pass if s.name.startswith(prefix))

    search = [s for s in in_pass if s.layer == "search"]
    pool = [s for s in search if s.attrs["workers"] > 1]
    examined = total("search.", "examined")
    pruned = total("search.", "pruned")
    found = total("search.", "found")
    search_s = busy("search.")
    parse_s = busy("groups.parse_cayley_table")
    validate_s = busy("groups.validate_group")
    cells = total("groups.parse_cayley_table", "cells")
    diameter_s = busy("bigraph.diameter")
    attributed = sum(own[s.id] for s in in_pass if s.layer not in GLUE)
    traced_walls = [s.duration for s in passes]

    per_pass = {
        "search.busy_s": search_s,
        "search.enumerate_s": busy("search.enumerate_covering_sets"),
        "search.exists_s": busy("search.exists_covering_set"),
        "search.calls": count("search."),
        "search.examined": examined,
        "search.pruned": pruned,
        "search.found": found,
        "groups.parse_s": parse_s,
        "groups.validate_s": validate_s,
        "groups.table_cells": cells,
        "groups.rejected": total("groups.parse_cayley_table", "rejected"),
        "singer.prime_s": sum(own[s.id] for s in in_pass
                              if s.name == "singer.singer_set" and not s.attrs["prime_power"]),
        "singer.prime_power_s": sum(own[s.id] for s in in_pass
                                    if s.name == "singer.singer_set" and s.attrs["prime_power"]),
        "singer.calls": count("singer."),
        "bigraph.build_s": busy("bigraph.build_difference_graph"),
        "bigraph.biregular_s": busy("bigraph.verify_biregular"),
        "bigraph.diameter_s": diameter_s,
        "bigraph.repeats_s": busy("bigraph.find_repeats"),
        "bigraph.export_s": busy("bigraph.export_graph") + busy("bigraph.load_graph_json"),
        "bigraph.vertices": total("bigraph.build_difference_graph", "vertices"),
        "bigraph.edges": total("bigraph.build_difference_graph", "edges"),
        "diffsets.classify_s": busy("diffsets."),
        "diffsets.calls": count("diffsets."),
        "check.busy_s": busy("check"),
    }
    metrics = {k: _ratio(v, p) for k, v in per_pass.items()}
    metrics.update({
        "search.prune_ratio": _ratio(pruned, examined),
        "search.yield": _ratio(found, examined),
        "search.nodes_per_s": _ratio(examined, search_s),
        "search.slowest_call_s": max((s.duration for s in search), default=0.0),
        "search.parallel_eff": _ratio(sum(s.cpu for s in pool),
                                      sum(s.duration * s.attrs["workers"] for s in pool)),
        "groups.build_s": busy("groups.", in_setup),
        "groups.cells_per_s": _ratio(cells, parse_s + validate_s),
        "bigraph.diameter_vertices_per_s": _ratio(total("bigraph.diameter", "vertices"),
                                                  diameter_s),
        "trace.wall_s": _ratio(sum(traced_walls), p),
        "trace.overhead_s": _ratio(len(in_pass), p) * span_cost_s(),
        "trace.attributed_share": _ratio(attributed, sum(traced_walls)),
    })
    return metrics
