"""Bipartite graphs joining one group copy to m translated copies.

Part 0 holds the n group elements; part 1 holds m further copies, and copy
vertex (l, v) is adjacent to (0, v*sigma) for every sigma in the chosen set.
Part-0 vertices therefore have degree m*s and part-1 vertices degree s.
Left multiplication by any group element, and any permutation of the copies,
is an automorphism, so such a graph has two vertex orbits: part 0 and part 1.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .diffsets import CandidateSet
from .errors import CapacityError, UsageError, ValidationError

EXPORT_FORMATS = ("edge-list", "dot", "json")
# Size limits of G_m(S), checked before its adjacency is allocated; every
# m = 1 graph over a group of order at most groups.MAX_ORDER fits.
MAX_VERTICES = 100_000
MAX_EDGES = 1_000_000


@dataclass
class BiGraph:
    """Vertices 0..n-1 are part 0; vertex n + (l-1)*n + v is copy l's v.

    ``source`` is the set the adjacency was built from.  :func:`diameter` and
    :func:`find_repeats` certify by its group action, one vertex per orbit, and
    refuse a graph without it, such as one from :func:`load_graph_json`.  A
    caller that edits ``adjacency`` must set ``source`` to None.
    """

    n: int
    m: int
    s: int
    group_name: str
    adjacency: list[list[int]]
    source: CandidateSet | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.adjacency) != (self.m + 1) * self.n:
            raise ValidationError(
                f"adjacency has {len(self.adjacency)} vertices, expected {(self.m + 1) * self.n}"
            )
        self.adjacency = [sorted(neigh) for neigh in self.adjacency]

    @property
    def vertex_count(self) -> int:
        return (self.m + 1) * self.n

    @property
    def edge_count(self) -> int:
        return sum(len(neigh) for neigh in self.adjacency) // 2

    def part_of(self, v: int) -> int:
        return 0 if v < self.n else 1

    def part_vertices(self, part: int) -> range:
        return range(self.n) if part == 0 else range(self.n, self.vertex_count)

    def vertex_names(self) -> list[str]:
        """The name of each vertex: P0_v for part-0 vertex v, P1_l_u for copy l's u."""
        n, copies = self.n, range(1, self.m + 1)
        return [f"P0_{u}" for u in range(n)] + [f"P1_{l}_{u}" for l in copies for u in range(n)]

    def named_edges(self) -> list[tuple[str, str]]:
        """Each edge as its two vertex names in order, sorted: by the key r_lo*V + r_hi
        of the names' ranks, one int per edge."""
        names, count = self.vertex_names(), self.vertex_count
        by_rank, rank = sorted(names), [0] * count
        for r, v in enumerate(sorted(range(count), key=names.__getitem__)):
            rank[v] = r
        keys: list[int] = []
        for v, neigh in enumerate(self.adjacency):
            a = rank[v]
            keys += [a * count + b if a < b else b * count + a for b in [rank[w] for w in neigh if w > v]]
        return [(by_rank[a], by_rank[b]) for a, b in map(divmod, sorted(keys), repeat(count))]


class DiameterReport(NamedTuple):
    """diameter is None when the graph is disconnected (infinite)."""

    diameter: int | None
    eccentricities: tuple[int | None, ...]
    witness: tuple[int, int]


class BiregularCheck(NamedTuple):
    """(part-0 degree, part-1 degree) when biregular, else the first offending vertex."""

    degrees: tuple[int, int] | None
    offending_vertex: int | None

    @property
    def ok(self) -> bool:
        return self.degrees is not None


class RepeatReport(NamedTuple):
    """Same-part vertices sharing at least two neighbors, with the shared counts."""

    part: int
    repeats: dict[int, tuple[tuple[int, int], ...]]


def build_difference_graph(cand: CandidateSet, m: int) -> BiGraph:
    """The (m+1)-copy bipartite graph of the set inside its group."""
    group = cand.group
    n, s = group.order, cand.size
    if m < 1:
        raise ValidationError(f"copy count must be >= 1, got {m}")
    if s >= n:
        raise ValidationError(
            f"set of size {s} in a group of order {n} gives a degenerate graph"
        )
    vertices, edges = (m + 1) * n, m * n * s
    if vertices > MAX_VERTICES or edges > MAX_EDGES:
        raise CapacityError(
            f"G_{m}(S) would have {vertices} vertices and {edges} edges; "
            f"the limits are {MAX_VERTICES} and {MAX_EDGES}"
        )
    adjacency: list[list[int]] = [[] for _ in range(vertices)]
    mul = group.mul
    for l in range(1, m + 1):
        base = n + (l - 1) * n
        for v in range(n):
            copy_vertex = base + v
            row = mul[v]
            for sigma in cand.elements:
                u = row[sigma]
                adjacency[u].append(copy_vertex)
                adjacency[copy_vertex].append(u)
    return BiGraph(n=n, m=m, s=s, group_name=group.name, adjacency=adjacency, source=cand)


def _bfs_distances(adjacency: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def diameter(graph: BiGraph) -> DiameterReport:
    """Exact diameter of G_m(S), certified by its two vertex orbits; None when disconnected.

    BFS from vertex 0 and vertex n gives every eccentricity.  The witness is the
    first vertex of largest eccentricity and the first vertex farthest from it;
    in a disconnected graph, vertex 0 and the first vertex it cannot reach.
    """
    if graph.source is None:
        raise UsageError("diameter certifies only graphs from build_difference_graph (source is None)")
    n, count = graph.n, graph.vertex_count
    dists = [_bfs_distances(graph.adjacency, v) for v in (0, n)]
    if -1 in dists[0]:
        return DiameterReport(None, (None,) * count, (0, dists[0].index(-1)))
    eccs = [max(dist) for dist in dists]
    far = 0 if eccs[0] >= eccs[1] else 1
    witness = (far * n, dists[far].index(eccs[far]))
    return DiameterReport(eccs[far], (eccs[0],) * n + (eccs[1],) * (count - n), witness)


def verify_biregular(graph: BiGraph) -> BiregularCheck:
    """Check degree uniformity per part; report the first offending vertex."""
    degrees = (len(graph.adjacency[0]), len(graph.adjacency[graph.n]))  # each part's first vertex
    for v, neigh in enumerate(graph.adjacency):
        if len(neigh) != degrees[graph.part_of(v)]:
            return BiregularCheck(None, v)
    return BiregularCheck(degrees, None)


def _shared_neighbours(adjacency: list[list[int]], u: int) -> tuple[tuple[int, int], ...]:
    """The vertices sharing >= 2 neighbors with u, with the shared counts, sorted."""
    shared: dict[int, int] = {}
    for w in adjacency[u]:
        for v in adjacency[w]:
            if v != u:
                shared[v] = shared.get(v, 0) + 1
    return tuple(sorted((v, c) for v, c in shared.items() if c >= 2))


def find_repeats(graph: BiGraph, part: int) -> RepeatReport:
    """For each vertex of the part, the same-part vertices sharing >= 2 neighbors.

    Certified by the orbits of G_m(S): the row of the identity of part 0 (of
    each copy, for part 1) is computed, and left multiplication by g maps it to
    the row of g, which is built from (vertex, count) pairs shared by every row.
    """
    if part not in (0, 1):
        raise UsageError(f"part must be 0 or 1, got {part}")
    if graph.source is None:
        raise UsageError("find_repeats certifies only graphs from build_difference_graph (source is None)")
    adjacency, n, mul = graph.adjacency, graph.n, graph.source.group.mul
    # left multiplication by g maps vertex b + x (element x of the copy at b) to b + g*x
    bases = graph.part_vertices(part)[::n]
    rows = [_shared_neighbours(adjacency, base) for base in bases]
    pairs = {c: [(v, c) for v in range(graph.vertex_count)] for c in {c for row in rows for _, c in row}}
    repeats: dict[int, tuple[tuple[int, int], ...]] = {}
    for base, row in zip(bases, rows):
        tables, offsets = [pairs[c] for _, c in row], [v - v % n for v, _ in row]
        # two pads keep the gather a tuple for short rows; the map stops at offsets' end
        gather = operator.itemgetter(*[v % n for v, _ in row], 0, 0)
        for g in range(n):
            images = map(operator.add, offsets, gather(mul[g]))
            repeats[base + g] = tuple(sorted(map(list.__getitem__, tables, images)))
    return RepeatReport(part=part, repeats=repeats)


def export_graph(graph: BiGraph, fmt: str) -> str:
    """Deterministic text export; see EXPORT_FORMATS."""
    if fmt not in EXPORT_FORMATS:
        raise UsageError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    edges = graph.named_edges()
    if fmt == "edge-list":
        return "\n".join(f"{a} {b}" for a, b in edges) + "\n"
    if fmt == "dot":
        lines = ["graph G {"]
        lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
        lines.append("}")
        return "\n".join(lines) + "\n"
    # json.dumps(payload, indent=2, sort_keys=True) written out, as with an indent
    # json runs its pure-Python encoder.  Vertex names need no escaping.
    def array(items: list[str], depth: int, brackets: str = "[]") -> str:
        pad = "\n" + "  " * depth
        inner = f",{pad}".join(items)
        return f"{brackets[0]}{pad}{inner}{pad[:-2]}{brackets[1]}" if items else brackets

    names = graph.vertex_names()
    fields = {
        "edges": array([f'[\n      "{a}",\n      "{b}"\n    ]' for a, b in edges], 2),
        "group_name": json.dumps(graph.group_name),
        "m": json.dumps(graph.m),
        "n": json.dumps(graph.n),
        "part0": array([f'"{x}"' for x in names[: graph.n]], 2),
        "part1": array([f'"{x}"' for x in names[graph.n :]], 2),
        "s": json.dumps(graph.s),
    }
    return array([f'"{key}": {value}' for key, value in fields.items()], 1, "{}") + "\n"


def load_graph_json(text: str) -> BiGraph:
    """Inverse of the json export; every malformed payload is a ValidationError.

    The result compares equal to the exported graph but has no ``source``, so
    :func:`diameter` and :func:`find_repeats` do not certify it.

    The declared part lists are checked against n and m before the adjacency
    is sized, so the allocation never exceeds what the payload itself holds.
    """
    try:
        payload = json.loads(text)
        n, m, s, group_name = (payload[k] for k in ("n", "m", "s", "group_name"))
        names, edges = [*payload["part0"], *payload["part1"]], list(payload["edges"])
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph json: {exc}") from exc
    if any(type(v) is not int or v < 1 for v in (n, m, s)) or not isinstance(group_name, str):
        raise ValidationError("n, m and s must be positive integers and group_name a string")
    if len(names) != (m + 1) * n:
        raise ValidationError(f"part lists hold {len(names)} names, expected (m+1)*n for n={n}, m={m}")
    graph = BiGraph(n=n, m=m, s=s, group_name=group_name, adjacency=[[] for _ in names])
    if names != graph.vertex_names():
        raise ValidationError("part names do not match the declared n and m")
    count, adjacency, seen = len(names), graph.adjacency, set()
    name_id = dict(zip(names, range(count))).__getitem__
    for edge in edges:
        try:  # a non-list, a length other than 2, an unknown or unhashable name all raise
            va, vb = map(name_id, edge) if isinstance(edge, list) else ()
        except (KeyError, TypeError, ValueError):
            raise ValidationError(f"edge {edge!r} is not a pair of vertex names") from None
        if va > vb:
            va, vb = vb, va
        if va >= n or vb < n:
            raise ValidationError(f"edge {edge[0]} -- {edge[1]} is not cross-part")
        if (key := va * count + vb) in seen:
            raise ValidationError(f"duplicate edge {edge[0]} -- {edge[1]}")
        seen.add(key)
        adjacency[va].append(vb)
        adjacency[vb].append(va)
    graph.adjacency = [sorted(x) for x in graph.adjacency]
    return graph
