"""Graph construction, BFS diameter, repeats, and exports."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import time
from collections import Counter, deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigraphds.bigraph import (
    BiGraph,
    DiameterReport,
    RepeatReport,
    build_difference_graph,
    diameter,
    export_graph,
    find_repeats,
    load_graph_json,
    verify_biregular,
)
from bigraphds.diffsets import CandidateSet
from bigraphds.errors import UsageError, ValidationError
from bigraphds.groups import build_cyclic, build_semidirect, parse_cayley_table, parse_group_spec
from bigraphds.singer import singer_set


def graph_over_z(n, elems, m):
    return build_difference_graph(CandidateSet(build_cyclic(n), elems), m)


def to_networkx(graph: BiGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.vertex_count))
    for v, neigh in enumerate(graph.adjacency):
        g.add_edges_from((v, w) for w in neigh)
    return g


# --- the all-source oracles: diameter and find_repeats without the group action


def oracle_distances(graph, source):
    dist = [-1] * graph.vertex_count
    dist[source], queue = 0, deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def all_source_diameter(graph):
    """diameter by BFS from every vertex; any graph, with or without its source set."""
    eccs, best, witness, unreached = [], 0, (0, 0), None
    for v in range(graph.vertex_count):
        dist = oracle_distances(graph, v)
        if -1 in dist:
            eccs.append(None)
            unreached = unreached or (v, dist.index(-1))
        else:
            eccs.append(max(dist))
            if eccs[-1] > best:
                best, witness = eccs[-1], (v, dist.index(eccs[-1]))
    if unreached:
        return DiameterReport(None, tuple(eccs), unreached)
    return DiameterReport(best, tuple(eccs), witness)


def all_source_repeats(graph, part):
    """find_repeats by one shared-neighbour row per vertex; any graph."""
    rows = {}
    for u in graph.part_vertices(part):
        shared = Counter(v for w in graph.adjacency[u] for v in graph.adjacency[w] if v != u)
        rows[u] = tuple(sorted((v, c) for v, c in shared.items() if c >= 2))
    return RepeatReport(part=part, repeats=rows)


def networkx_repeats(graph, part):
    g = to_networkx(graph)
    return {
        u: tuple((v, c) for v in graph.part_vertices(part)
                 if v != u and (c := len(list(nx.common_neighbors(g, u, v)))) >= 2)
        for u in graph.part_vertices(part)
    }


def assert_certificate_matches_the_oracles(graph):
    assert diameter(graph) == all_source_diameter(graph), (graph.group_name, graph.source.elements, graph.m)
    for part in (0, 1):
        assert find_repeats(graph, part) == all_source_repeats(graph, part), (graph.group_name, part)


def test_fig2_g2_over_z7():
    graph = graph_over_z(7, (0, 1, 3), 2)
    assert graph.vertex_count == 21
    assert graph.edge_count == 2 * 7 * 3
    check = verify_biregular(graph)
    assert check.ok and check.degrees == (6, 3)
    assert diameter(graph).diameter == 3


def test_fig3_g2_over_z13():
    graph = graph_over_z(13, (0, 1, 3, 9), 2)
    assert graph.vertex_count == 39
    assert verify_biregular(graph).degrees == (8, 4)
    assert diameter(graph).diameter == 3


def test_g3_over_z13_degrees():
    graph = graph_over_z(13, (0, 1, 3, 9), 3)
    assert verify_biregular(graph).degrees == (12, 4)
    assert graph.vertex_count == 52 and graph.edge_count == 3 * 13 * 4


def test_pg22_incidence_graph():
    graph = graph_over_z(7, (0, 1, 3), 1)
    assert graph.vertex_count == 14
    assert verify_biregular(graph).degrees == (3, 3)
    assert diameter(graph).diameter == 3
    # two lines of a projective plane meet in exactly one point
    for part in (0, 1):
        assert all(not v for v in find_repeats(graph, part).repeats.values())


def test_degenerate_inputs():
    with pytest.raises(ValidationError):
        graph_over_z(2, (0, 1), 1)  # s >= n
    with pytest.raises(ValidationError):
        graph_over_z(7, (0, 1, 3), 0)


def test_single_identity_set_is_disconnected():
    graph = graph_over_z(2, (0,), 1)
    assert graph.vertex_count == 4 and graph.edge_count == 2
    assert export_graph(graph, "edge-list") == "P0_0 P1_1_0\nP0_1 P1_1_1\n"
    rep = diameter(graph)
    assert rep.diameter is None
    assert rep.eccentricities == (None, None, None, None)


def test_diameter_matches_networkx():
    cases = [
        graph_over_z(7, (0, 1, 3), 2),
        graph_over_z(8, (0, 1, 2), 1),
        graph_over_z(13, (0, 1, 3, 9), 3),
        graph_over_z(2, (0,), 1),
        graph_over_z(6, (0, 1, 3), 2),
    ]
    for graph in cases:
        assert_certificate_matches_the_oracles(graph)
        rep = diameter(graph)
        nx_graph = to_networkx(graph)
        if nx.is_connected(nx_graph):
            assert rep.diameter == nx.diameter(nx_graph)
            u, v = rep.witness
            assert nx.shortest_path_length(nx_graph, u, v) == rep.diameter
        else:
            assert rep.diameter is None


def test_noncovering_set_exceeds_diameter_three():
    graph = graph_over_z(8, (0, 1, 2), 1)
    rep = diameter(graph)
    assert rep.diameter is None or rep.diameter > 3


def test_biregular_failure_is_located():
    graph = graph_over_z(7, (0, 1, 3), 2)
    u = 3
    w = graph.adjacency[u][0]
    graph.adjacency[u].remove(w)
    graph.adjacency[w].remove(u)
    check = verify_biregular(graph)
    assert not check.ok and check.degrees is None
    assert check.offending_vertex == u  # part-0 scan hits the touched vertex first


def test_repeats_in_g2_over_z7():
    graph = graph_over_z(7, (0, 1, 3), 2)
    report = find_repeats(graph, 0)
    # oracle: common-neighbor counts by set intersection
    for u in graph.part_vertices(0):
        expected = []
        for v in graph.part_vertices(0):
            if v == u:
                continue
            shared = len(set(graph.adjacency[u]) & set(graph.adjacency[v]))
            if shared >= 2:
                expected.append((v, shared))
        assert report.repeats[u] == tuple(expected)
        assert expected  # every part-0 vertex has repeats once m >= 2
    # symmetry of the relation
    for u, partners in report.repeats.items():
        for v, c in partners:
            assert (u, c) in report.repeats[v]


def test_repeats_on_four_cycle():
    # C4 is no G_m(S) (S = Z2 is degenerate), so only the oracles take it; they agree with networkx
    c4 = BiGraph(n=2, m=1, s=2, group_name="C4", adjacency=[[2, 3], [2, 3], [0, 1], [0, 1]])
    eccs = nx.eccentricity(to_networkx(c4))
    assert all_source_diameter(c4) == DiameterReport(2, tuple(eccs[v] for v in range(4)), (0, 1))
    for part in (0, 1):
        report = all_source_repeats(c4, part)
        assert report.repeats == networkx_repeats(c4, part)
        for u, partners in report.repeats.items():
            assert len(partners) == 1 and partners[0][1] == 2
        with pytest.raises(UsageError):
            find_repeats(c4, part)


def test_export_edge_list_counts():
    graph = graph_over_z(7, (0, 1, 3), 2)
    lines = export_graph(graph, "edge-list").strip().splitlines()
    assert len(lines) == 42
    assert len(set(lines)) == 42
    assert lines == sorted(lines)


def test_export_dot():
    graph = graph_over_z(2, (0,), 1)
    dot = export_graph(graph, "dot")
    assert dot.startswith("graph G {")
    assert '"P0_0" -- "P1_1_0";' in dot


def test_json_roundtrip_byte_identical():
    graph = graph_over_z(7, (0, 1, 3), 2)
    text = export_graph(graph, "json")
    loaded = load_graph_json(text)
    assert loaded == graph
    assert export_graph(loaded, "json") == text


def test_json_loader_rejects_corruption():
    graph = graph_over_z(7, (0, 1, 3), 1)
    text = export_graph(graph, "json")
    with pytest.raises(ValidationError):
        load_graph_json(text.replace('"P0_1"', '"P9_1"'))
    with pytest.raises(ValidationError):
        load_graph_json("{not json")
    payload = json.loads(text)

    def corrupt(**changes):
        return json.dumps({**payload, **changes})

    edge = payload["edges"][0]
    bad_payloads = [
        corrupt(edges=[["P0_x", edge[1]]]),
        corrupt(edges=[[*edge, edge[0]]]),  # three names
        corrupt(edges=[[edge[0]]]),
        corrupt(edges=[[0, 7]]),  # non-string names
        corrupt(edges=[[["P0_0"], edge[1]]]),
        corrupt(edges=[{"a": 1}]),
        corrupt(edges=[edge[0] + edge[1]]),
        corrupt(edges=7),
        corrupt(edges=[[edge[0].replace("_", "_0"), edge[1]]]),  # P0_01
        corrupt(edges=[[edge[0].replace("_", "_+"), edge[1]]]),  # P0_+1
        corrupt(edges=[edge, edge]),  # duplicate
        corrupt(edges=[edge, edge[::-1]]),  # duplicate, reversed
        corrupt(edges=[["P0_0", "P0_1"]]),  # same part
        corrupt(part0=5),
        corrupt(part0=payload["part0"][::-1]),
        corrupt(part1="P1_1_0"),
        corrupt(n=1e999),
        corrupt(n="x"),
        corrupt(n="7"),
        corrupt(n=7.5),
        corrupt(m=True),
        corrupt(group_name=["Z7"]),
        corrupt(m=0),
        corrupt(n=-7),
        json.dumps([1, 2]),
        "[" * 100_000 + "]" * 100_000,  # nested past the decoder's recursion limit
        json.dumps({k: v for k, v in payload.items() if k != "part1"}),
    ]
    for bad in bad_payloads:
        with pytest.raises(ValidationError):
            load_graph_json(bad)
    # a huge declared n*m with the small payload's part lists is rejected on
    # the list lengths, before any adjacency of that size is allocated
    with pytest.raises(ValidationError, match="part lists"):
        load_graph_json(corrupt(n=10**9, m=10**9))


def test_unknown_export_format():
    graph = graph_over_z(7, (0, 1, 3), 1)
    with pytest.raises(UsageError):
        export_graph(graph, "gml")


def test_bipartite_distance_parity():
    graph = graph_over_z(7, (0, 1, 3), 2)
    from bigraphds.bigraph import _bfs_distances

    dist = _bfs_distances(graph.adjacency, 0)
    for v, d in enumerate(dist):
        assert d % 2 == (0 if graph.part_of(v) == 0 else 1)


def left_translation_is_automorphism(group, elems, m):
    graph = build_difference_graph(CandidateSet(group, elems), m)
    edges = {
        (v, w) for v, neigh in enumerate(graph.adjacency) for w in neigh
    }
    n = group.order
    for g in range(n):
        def relabel(v):
            if v < n:
                return group.mul[g][v]
            block, u = divmod(v - n, n)
            return n + block * n + group.mul[g][u]

        mapped = {(relabel(v), relabel(w)) for v, w in edges}
        if mapped != edges:
            return False
    return True


def test_group_translation_automorphisms():
    assert left_translation_is_automorphism(build_cyclic(7), (0, 1, 3), 2)
    gamma1 = build_semidirect(5, 8, 2)
    assert left_translation_is_automorphism(gamma1, (0, 1, 4, 15), 1)


def test_right_translation_automorphism_abelian():
    group = build_cyclic(9)
    graph = build_difference_graph(CandidateSet(group, (0, 1, 5)), 2)
    edges = {(v, w) for v, neigh in enumerate(graph.adjacency) for w in neigh}
    n = group.order
    for g in range(n):
        def relabel(v):
            if v < n:
                return group.mul[v][g]
            block, u = divmod(v - n, n)
            return n + block * n + group.mul[u][g]

        assert {(relabel(v), relabel(w)) for v, w in edges} == edges


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_vertex_and_edge_counts(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    s = data.draw(st.integers(min_value=1, max_value=n - 1))
    m = data.draw(st.integers(min_value=1, max_value=3))
    elems = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s))))
    graph = build_difference_graph(CandidateSet(build_cyclic(n), elems), m)
    assert graph.vertex_count == (m + 1) * n
    assert graph.edge_count == m * n * s
    check = verify_biregular(graph)
    assert check.ok and check.degrees == (m * s, s)


def relabeled(group, seed):
    """The group's table under a random relabeling, read back by parse_cayley_table."""
    n = group.order
    old = list(range(n))
    random.Random(seed).shuffle(old)  # new element i is old element old[i]
    new = {x: i for i, x in enumerate(old)}
    rows = (" ".join(str(new[group.mul[old[i]][old[j]]]) for j in range(n)) for i in range(n))
    return parse_cayley_table(f"{n}\n" + "\n".join(rows), name=f"relabeled {group.name}")


def orbit_grid():
    """Graphs of every set of size <= 3 in the small groups, and chosen sets in larger
    ones: the identity alone, a subgroup, sets without the identity and random sets."""
    small = [build_cyclic(6), build_cyclic(8), parse_group_spec("product:cyclic:2,cyclic:4"),
             build_semidirect(3, 2, 2)]
    large = [parse_group_spec("semidirect:7,3,2"), relabeled(parse_group_spec("semidirect:7,3,2"), 1),
             parse_group_spec("semidirect:5,4,2"), parse_group_spec("product:cyclic:2,cyclic:6")]
    rng = random.Random(0)
    for group in small:
        for size in (1, 2, 3):
            for elems in itertools.combinations(range(group.order), size):
                for m in (1, 2, 3):
                    yield build_difference_graph(CandidateSet(group, elems), m)
    for group in large:
        n = group.order
        subgroup = tuple(sorted({group.power(1, k) for k in range(group.element_orders[1])}))
        # in Z7:Z3, S = {0..5} has a covering inverse but is not covering, so
        # part 1 has the larger eccentricity (4 against 3) and holds the witness
        sets = [(0,), subgroup, (1, 2), tuple(range(1, 4)), tuple(range(6))]
        sets += [tuple(rng.sample(range(n), rng.randint(2, 4))) for _ in range(6)]
        for elems in sets:
            for m in (1, 2, 3):
                yield build_difference_graph(CandidateSet(group, elems), m)


def test_orbit_certification_matches_all_source_oracle():
    from_part1 = disconnected = 0
    for graph in orbit_grid():
        assert_certificate_matches_the_oracles(graph)
        report = diameter(graph)
        from_part1 += report.witness[0] == graph.n
        disconnected += report.diameter is None
    # the grid holds witnesses from either orbit and disconnected graphs
    assert from_part1 and disconnected


def test_orbit_certification_matches_networkx():
    z7z3 = parse_group_spec("semidirect:7,3,2")
    cases = [
        build_difference_graph(CandidateSet(relabeled(build_semidirect(5, 8, 2), 2), (0, 1, 4, 15)), 2),
        build_difference_graph(CandidateSet(z7z3, (3, 5, 8)), 3),
        build_difference_graph(CandidateSet(z7z3, tuple(range(6))), 2),  # witness in part 1
        build_difference_graph(CandidateSet(parse_group_spec("product:cyclic:2,cyclic:6"), (1, 4, 9)), 1),
        graph_over_z(9, (3, 6), 2),  # inside the subgroup {0, 3, 6}: disconnected
    ]
    for graph in cases:
        assert_certificate_matches_the_oracles(graph)
        rep = diameter(graph)
        nx_graph = to_networkx(graph)
        if nx.is_connected(nx_graph):
            eccs = nx.eccentricity(nx_graph)
            assert rep.eccentricities == tuple(eccs[v] for v in range(graph.vertex_count))
            assert rep.diameter == max(eccs.values())
            # the first vertex of largest eccentricity, the first vertex farthest from it
            u = min(v for v, e in eccs.items() if e == rep.diameter)
            far = nx.single_source_shortest_path_length(nx_graph, u)
            assert rep.witness == (u, min(v for v, d in far.items() if d == rep.diameter))
        else:
            assert rep.diameter is None and set(rep.eccentricities) == {None}
            reached = nx.node_connected_component(nx_graph, 0)
            assert rep.witness == (0, min(set(nx_graph) - reached))


def test_loaded_graph_round_trips_but_is_not_certified():
    group = relabeled(build_semidirect(7, 3, 2), 3)
    for elems, m in [((0, 1, 5), 2), ((2, 7), 3), ((0,), 1)]:
        graph = build_difference_graph(CandidateSet(group, elems), m)
        loaded = load_graph_json(export_graph(graph, "json"))
        assert loaded.source is None and loaded == graph
        assert all_source_diameter(loaded) == diameter(graph)
        with pytest.raises(UsageError, match="diameter certifies only graphs from build_difference_graph"):
            diameter(loaded)
        with pytest.raises(UsageError, match="part must be 0 or 1, got 2"):  # the part is checked first
            find_repeats(loaded, 2)
        for part in (0, 1):
            with pytest.raises(UsageError, match="find_repeats certifies only graphs"):
                find_repeats(loaded, part)


def test_edited_graph_is_refused_and_its_oracles_match_networkx():
    graph = graph_over_z(7, (0, 1, 3), 2)
    edited = dataclasses.replace(graph, source=None)
    w = edited.adjacency[3][0]
    edited.adjacency[3].remove(w)
    edited.adjacency[w].remove(3)
    assert len(graph.adjacency[3]) == 6  # the original keeps its edge
    eccs = nx.eccentricity(to_networkx(edited))
    rep = all_source_diameter(edited)
    assert rep.eccentricities == tuple(eccs[v] for v in range(edited.vertex_count))
    assert rep.eccentricities != diameter(graph).eccentricities
    with pytest.raises(UsageError):
        diameter(edited)
    for part in (0, 1):
        assert all_source_repeats(edited, part).repeats == networkx_repeats(edited, part)
        with pytest.raises(UsageError):
            find_repeats(edited, part)


def test_large_singer_graph_is_certified_quickly():
    graph = build_difference_graph(singer_set(11).set, 20)
    assert graph.vertex_count == 2793
    start = time.perf_counter()
    rep = diameter(graph)
    assert time.perf_counter() - start < 1.0
    assert rep.diameter == 3 and set(rep.eccentricities) == {3}


def test_adjacency_of_the_wrong_length_is_rejected():
    with pytest.raises(ValidationError, match="adjacency has 3 vertices, expected 4"):
        BiGraph(n=2, m=1, s=1, group_name="Z2", adjacency=[[2], [3], [0]])


def test_find_repeats_rejects_a_third_part():
    graph = build_difference_graph(CandidateSet(build_cyclic(7), (0, 1, 3)), 1)
    with pytest.raises(UsageError, match="part must be 0 or 1, got 2"):
        find_repeats(graph, 2)


# --- the export and the loader against their first, per-edge versions --------


def oracle_vertex_name(graph, v):
    if v < graph.n:
        return f"P0_{v}"
    l, u = divmod(v - graph.n, graph.n)
    return f"P1_{l + 1}_{u}"


def oracle_export(graph, fmt):
    """export_graph as first written: two names formatted per edge, json.dumps with an indent."""
    out = []
    for v, neigh in enumerate(graph.adjacency):
        for w in neigh:
            if v < w:
                pair = (oracle_vertex_name(graph, v), oracle_vertex_name(graph, w))
                out.append(pair if pair[0] < pair[1] else (pair[1], pair[0]))
    edges = sorted(out)
    if fmt == "edge-list":
        return "\n".join(f"{a} {b}" for a, b in edges) + "\n"
    if fmt == "dot":
        return "\n".join(["graph G {", *(f'  "{a}" -- "{b}";' for a, b in edges), "}"]) + "\n"
    payload = {
        "n": graph.n,
        "m": graph.m,
        "s": graph.s,
        "group_name": graph.group_name,
        "part0": [oracle_vertex_name(graph, v) for v in graph.part_vertices(0)],
        "part1": [oracle_vertex_name(graph, v) for v in graph.part_vertices(1)],
        "edges": [list(e) for e in edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def oracle_load_graph_json(text):
    """load_graph_json as first written, with a name-to-id dict and a check per name."""
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
    ids = {oracle_vertex_name(graph, v): v for v in range(graph.vertex_count)}
    if names != list(ids):
        raise ValidationError("part names do not match the declared n and m")
    seen = set()
    for edge in edges:
        pair = [ids.get(x) if isinstance(x, str) else None for x in edge] if isinstance(edge, list) else []
        if len(pair) != 2 or None in pair:
            raise ValidationError(f"edge {edge!r} is not a pair of vertex names")
        va, vb = sorted(pair)
        if graph.part_of(va) == graph.part_of(vb):
            raise ValidationError(f"edge {edge[0]} -- {edge[1]} is not cross-part")
        if (va, vb) in seen:
            raise ValidationError(f"duplicate edge {edge[0]} -- {edge[1]}")
        seen.add((va, vb))
        graph.adjacency[va].append(vb)
        graph.adjacency[vb].append(va)
    graph.adjacency = [sorted(x) for x in graph.adjacency]
    return graph


QUOTED_NAME = 'Z7:Z3 "relabeled" \\ ñ'


def export_grid():
    """Singer sets for q in {2, 3, 11}, a set in Z7 x| Z3, and the same set in a relabeled
    copy read back by parse_cayley_table under a name holding a quote, a backslash and ñ."""
    z7_z3 = build_semidirect(7, 3, 2)
    loaded = dataclasses.replace(relabeled(z7_z3, 5), name=QUOTED_NAME)
    cands = {f"singer-q{q}": singer_set(q).set for q in (2, 3, 11)}
    cands["Z7:Z3"] = CandidateSet(z7_z3, (0, 1, 4, 9, 13))
    cands["relabeled-Z7:Z3"] = CandidateSet(loaded, (0, 1, 4, 9, 13))
    return [pytest.param(cand, m, id=f"{label}-m{m}") for label, cand in cands.items() for m in (1, 2, 3)]


@pytest.mark.parametrize("cand,m", export_grid())
def test_export_is_byte_identical_to_the_json_dumps_oracle(cand, m):
    graph = build_difference_graph(cand, m)
    assert graph.vertex_names() == [oracle_vertex_name(graph, v) for v in range(graph.vertex_count)]
    for fmt in ("json", "edge-list", "dot"):
        assert export_graph(graph, fmt) == oracle_export(graph, fmt), fmt
    text = export_graph(graph, "json")
    loaded = load_graph_json(text)
    assert loaded == graph == oracle_load_graph_json(text)
    assert loaded.group_name == cand.group.name
    assert export_graph(loaded, "json") == text


def test_export_of_unusual_graphs_matches_the_oracle():
    # no edges (json writes []), a group name needing escapes, and an edited
    # adjacency with a one-sided entry and a self loop, which the export does not check
    bare = BiGraph(n=2, m=1, s=1, group_name=QUOTED_NAME, adjacency=[[], [], [], []])
    lopsided = BiGraph(n=2, m=2, s=1, group_name='"', adjacency=[[2, 0], [3, 5], [0], [1], [], []])
    for graph in (bare, lopsided):
        for fmt in ("json", "edge-list", "dot"):
            assert export_graph(graph, fmt) == oracle_export(graph, fmt), (graph, fmt)
    assert '"edges": []' in export_graph(bare, "json")
    assert load_graph_json(export_graph(bare, "json")) == bare


def test_loader_errors_match_the_oracle():
    graph = build_difference_graph(singer_set(3).set, 2)
    payload = json.loads(export_graph(graph, "json"))
    edge = payload["edges"][0]

    def corrupt(**changes):
        return json.dumps({**payload, **changes})

    cases = [
        corrupt(edges=[["P0_x", edge[1]]]),
        corrupt(edges=[edge[::-1], [*edge, edge[0]]]),
        corrupt(edges=[[edge[0]]]),
        corrupt(edges=[[*edge, ["x"]]]),
        corrupt(edges=[[edge[1], "P0_x"]]),
        corrupt(edges=[[]]),
        corrupt(edges=[[0, 7]]),
        corrupt(edges=[[None, None]]),
        corrupt(edges=[[None, edge[1]]]),
        corrupt(edges=[[["P0_0"], edge[1]]]),
        corrupt(edges=[[{"P0_0": 1}, edge[1]]]),
        corrupt(edges=[{edge[0]: 1, edge[1]: 2}]),
        corrupt(edges=[edge[0] + edge[1]]),
        corrupt(edges=[edge, "P0_1"]),
        corrupt(edges=7),
        corrupt(edges=[[edge[0], edge[0]]]),
        corrupt(edges=[["P1_1_0", "P1_2_0"]]),
        corrupt(edges=[["P0_0", "P0_1"]]),
        corrupt(edges=[edge, edge[::-1]]),
        corrupt(edges=[*payload["edges"][:5], payload["edges"][3]]),
        corrupt(part1=payload["part1"][:-1] + ["P1_9_0"]),
        corrupt(part0=payload["part0"][::-1]),
        corrupt(n=1e999),
        corrupt(m=True),
        json.dumps({k: v for k, v in payload.items() if k != "edges"}),
    ]
    for text in cases:
        with pytest.raises(ValidationError) as want:
            oracle_load_graph_json(text)
        with pytest.raises(ValidationError) as got:
            load_graph_json(text)
        assert str(got.value) == str(want.value), text
