"""The two workloads: seeded inputs, the items of one pass, and their oracles.

``search`` runs every search of ``repro --full`` plus Z56 at s=8: the
exhaustive enumerations single-threaded, the existence checks on the pool.
``certify`` builds Singer sets and certifies their graphs, then parses and
validates Cayley tables.  A change to the search layer is predicted to
move only ``search``; a change to the groups, singer, bigraph or diffsets
layers only ``certify`` (and set-up time, which loads groups for both).

Set-up turns the seed into inputs; the program receives only the resulting
``Group`` objects, Cayley-table text or Singer parameters.  Set-up takes the
package to run as ``bd``: ``bigraphds`` or its frozen copy ``bigraphds_ref``,
so the same items and oracles run on both.  Every check uses
isomorphism invariants (numbers of finds, existence, verdicts, diameters,
vertex counts), so it holds for any seed; seed 0 adds equality checks on two
published witnesses.  Each item calls the package's public functions inside
spans named after their layer, and does its checking inside ``check`` spans.
Search items add the nodes they examined to ``state["examined"]``, so an
untraced pass still reports how much search work the seed's labels gave it.
An item is ``(item_id, workers, run)``: ``workers`` is the number of
processes the item's calls run on, 1 for all but the pool searches.
"""

from __future__ import annotations

import math
import random
import re
from functools import partial

# (spec, set size, number of canonical covering sets)
EXHAUST = (
    ("cyclic:39", 7, 168),
    ("semidirect:5,8,2", 7, 560),
    ("cyclic:40", 7, 0),
    ("product:cyclic:2,cyclic:20", 7, 0),
    ("product:product:cyclic:2,cyclic:2,cyclic:10", 7, 0),
    ("cyclic:41", 7, 0),
    ("cyclic:42", 7, 0),
    ("cyclic:56", 8, 0),
)
Z39_PAPER_SET = (0, 1, 2, 4, 13, 18, 33)

# The 12 semidirect products Z_m x| Z_n of orders 39 and 40 with a
# non-trivial action, then the five non-Abelian groups of order 42.
EXISTS_SPECS = (
    "semidirect:13,3,3", "semidirect:13,3,9",
    "semidirect:5,8,2", "semidirect:5,8,3", "semidirect:5,8,4",
    "semidirect:10,4,3", "semidirect:10,4,7", "semidirect:10,4,9",
    "semidirect:4,10,3",
    "semidirect:20,2,9", "semidirect:20,2,11", "semidirect:20,2,19",
    "semidirect:7,6,3", "semidirect:21,2,20",
    "product:semidirect:3,2,2,cyclic:7",
    "product:semidirect:7,2,6,cyclic:3",
    "product:semidirect:7,3,2,cyclic:2",
)
EXISTS_COVERING = {"semidirect:5,8,2", "semidirect:5,8,3"}
GAMMA1 = "semidirect:5,8,2"
GAMMA1_INVERSE_WITNESS = (0, 1, 4, 9, 11, 21, 27)
EXISTS_WORKERS = 2

# (q, built through extension-field arithmetic).  q = 25 (about 8 s) is left
# out: a pass must be short enough to repeat several times within one run.
SINGER_Q = ((11, False), (19, False), (9, True), (16, True))
GRAPHS = ((11, 8), (19, 2), (16, 1))     # (q, m): 1197, 1143 and 546 vertices

# (spec, Abelian); the loop is Z400 with one intercalate swapped.
TABLES = (("product:cyclic:4,cyclic:100", True), ("semidirect:101,5,36", False))
LOOP_ORDER = 400
_ASSOC_MESSAGE = re.compile(r"not associative: \((\d+)\*(\d+)\)\*(\d+)")


class CheckFailed(Exception):
    """An output disagreed with the reference oracle."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- seeded inputs ---------------------------------------------------------


def _rows(text: str) -> list[list[int]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return [[int(x) for x in ln.split()] for ln in lines[1:]]


def _permutation(rng: random.Random, n: int, move_identity: bool) -> list[int]:
    """perm[old] = new label; with move_identity the identity never stays at 0."""
    perm = list(range(n))
    rng.shuffle(perm)
    if move_identity and perm[0] == 0:
        k = rng.randrange(1, n)
        perm[0], perm[k] = perm[k], perm[0]
    return perm


def _relabel(rows: list[list[int]], perm: list[int]) -> tuple[str, list[list[int]]]:
    n = len(rows)
    old = [0] * n
    for x, y in enumerate(perm):
        old[y] = x
    new_rows = [[perm[rows[a][b]] for b in old] for a in old]
    text = f"{n}\n" + "\n".join(" ".join(map(str, r)) for r in new_rows) + "\n"
    return text, new_rows


def _formatted(bd, tr, spec: str) -> str:
    with tr.span("groups.parse_group_spec", spec):
        group = bd.parse_group_spec(spec)
    with tr.span("groups.format_cayley_table", spec):
        return bd.format_cayley_table(group)


def _load_group(bd, tr, spec: str, seed: int):
    """Group for spec, loaded through parse_cayley_table, and its label map.

    Seed 0 keeps the spec grammar's labels.  The map sends each spec label to
    the loaded label: the seed's permutation, then the swap of the identity
    back to 0 that parse_cayley_table makes.
    """
    text = _formatted(bd, tr, spec)
    rows = _rows(text)
    perm = list(range(len(rows)))
    if seed != 0:
        perm = _permutation(random.Random(f"{seed}/{spec}"), len(rows), move_identity=False)
        text, _ = _relabel(rows, perm)
    with tr.span("groups.parse_cayley_table", spec):
        group = bd.parse_cayley_table(text, name=spec)
    e = perm[0]
    swap = {0: e, e: 0}
    return group, [swap.get(y, y) for y in perm]


# --- search: exhaustive enumeration ----------------------------------------


def _enumerate(bd, group, size: int, finds: int, paper_set, tr, state) -> None:
    with tr.span("search.enumerate_covering_sets") as sp:
        out = bd.enumerate_covering_sets(bd.SearchConfig(group, size, worker_count=1))
    sp.note(examined=out.candidates_examined, pruned=out.candidates_pruned,
            found=len(out.found), workers=1)
    state["examined"] += out.candidates_examined
    with tr.span("check"):
        sets = [f.elements for f in out.found]
        _expect(out.exhausted, "search did not exhaust")
        _expect(len(sets) == finds, f"{len(sets)} finds, expected {finds}")
        _expect(sets == sorted(sets), "finds are not in lexicographic order")
        for elems in sets:
            _expect(len(elems) == size and elems[0] == 0, f"{elems} is not a canonical {size}-set")
            _expect(bd.classify_set(bd.CandidateSet(group, elems)).is_covering,
                    f"{elems} re-classifies as non-covering")
        if paper_set is not None:
            _expect(paper_set in set(sets), f"paper set (as {paper_set}) missing")


def _exhaust_items(bd, seed: int, tr):
    items = []
    for spec, size, finds in EXHAUST:
        group, label = _load_group(bd, tr, spec, seed)
        paper = tuple(sorted(label[x] for x in Z39_PAPER_SET)) if spec == "cyclic:39" else None
        items.append((f"exhaust/{spec}/s{size}", 1,
                      partial(_enumerate, bd, group, size, finds, paper)))
    return items


# --- search: existence on the pool -----------------------------------------


def _exists(bd, group, expected: bool, inverse: bool, witness, tr, state) -> None:
    with tr.span("search.exists_covering_set") as sp:
        out = bd.exists_covering_set(bd.SearchConfig(
            group, 7, require_inverse_covering=inverse, worker_count=EXISTS_WORKERS))
    sp.note(examined=out.candidates_examined, pruned=out.candidates_pruned,
            found=len(out.found), workers=EXISTS_WORKERS)
    state["examined"] += out.candidates_examined
    with tr.span("check"):
        _expect(bool(out.found) == expected,
                f"covering set {'missing' if expected else 'reported'}")
        if not out.found:
            _expect(out.exhausted, "search stopped without a witness")
            return
        cand = bd.CandidateSet(group, out.found[0].elements)
        _expect(bd.classify_set(cand).is_covering, f"witness {cand.elements} is not covering")
        if inverse:
            _expect(bd.classify_set(bd.inverse_set(cand)).is_covering,
                    f"witness {cand.elements} has a non-covering inverse")
        if witness is not None:
            _expect(cand.elements == witness, f"witness {cand.elements}, expected {witness}")


def _exists_items(bd, seed: int, tr):
    groups = {spec: _load_group(bd, tr, spec, seed)[0] for spec in EXISTS_SPECS}
    items = [
        (f"exists/{spec}", EXISTS_WORKERS,
         partial(_exists, bd, groups[spec], spec in EXISTS_COVERING, False, None))
        for spec in EXISTS_SPECS
    ]
    witness = GAMMA1_INVERSE_WITNESS if seed == 0 else None
    items.append((f"exists/{GAMMA1}/inverse", EXISTS_WORKERS,
                  partial(_exists, bd, groups[GAMMA1], True, True, witness)))
    return items


# --- certify: Singer sets and their graphs ---------------------------------


def _singer(bd, q: int, prime_power: bool, tr, state) -> None:
    with tr.span("singer.singer_set") as sp:
        singer = bd.singer_set(q)
    sp.note(prime_power=prime_power)
    with tr.span("diffsets.classify_set"):
        cls = bd.classify_set(singer.set)
    with tr.span("check"):
        n = q * q + q + 1
        _expect(singer.n == n and singer.set.group.order == n, f"q={q}: group order {singer.n}")
        _expect(len(singer.set.elements) == q + 1, f"q={q}: {len(singer.set.elements)} elements")
        _expect(cls.verdict == bd.PERFECT, f"q={q}: classifies {cls.verdict}")
    state[q] = singer.set


def _expected_repeats(n: int, m: int, s: int):
    """Repeats of G_m(S) for a perfect S: pairs sharing m (part 0) or s (part 1) neighbours."""
    part0 = {u: tuple((v, m) for v in range(n) if v != u) if m >= 2 else () for u in range(n)}
    part1 = {}
    for x in range(n, (m + 1) * n):
        l, w = divmod(x - n, n)
        part1[x] = tuple((n + l2 * n + w, s) for l2 in range(m) if l2 != l)
    return part0, part1


def _certify(bd, q: int, m: int, u: int, t: int, tr, state) -> None:
    base = state.get(q)
    _expect(base is not None, f"no Singer set for q={q} in this pass")
    n, s = base.group.order, len(base.elements)
    # An affine image x -> u*x + t of a perfect difference set is perfect.
    cand = bd.CandidateSet(base.group, tuple((u * x + t) % n for x in base.elements))
    with tr.span("bigraph.build_difference_graph") as sp:
        graph = bd.build_difference_graph(cand, m)
    sp.note(vertices=graph.vertex_count, edges=graph.edge_count)
    with tr.span("bigraph.verify_biregular"):
        regular = bd.verify_biregular(graph)
    with tr.span("bigraph.diameter") as sp:
        report = bd.diameter(graph)
    sp.note(vertices=graph.vertex_count)
    with tr.span("bigraph.find_repeats"):
        repeats0 = bd.find_repeats(graph, 0)
    with tr.span("bigraph.find_repeats"):
        repeats1 = bd.find_repeats(graph, 1)
    with tr.span("bigraph.export_graph"):
        text = bd.export_graph(graph, "json")
    with tr.span("bigraph.load_graph_json"):
        back = bd.load_graph_json(text)
    with tr.span("check"):
        _expect(graph.vertex_count == (m + 1) * n, f"{graph.vertex_count} vertices")
        _expect(regular.degrees == (m * s, s), f"degrees {regular.degrees}")
        _expect(report.diameter == 3, f"diameter {report.diameter}")
        part0, part1 = _expected_repeats(n, m, s)
        _expect(repeats0.repeats == part0, "part-0 repeats differ from the perfect-set pattern")
        _expect(repeats1.repeats == part1, "part-1 repeats differ from the perfect-set pattern")
        _expect(back.adjacency == graph.adjacency and (back.n, back.m, back.s) == (n, m, s),
                "json round trip changed the graph")


def _unit(rng: random.Random, n: int) -> int:
    while True:
        u = rng.randrange(1, n)
        if math.gcd(u, n) == 1:
            return u


def _graph_items(bd, seed: int):
    items = [(f"singer/q{q}", 1, partial(_singer, bd, q, pp)) for q, pp in SINGER_Q]
    for q, m in GRAPHS:
        n = q * q + q + 1
        rng = random.Random(f"{seed}/G{m}/q{q}")
        u, t = (1, 0) if seed == 0 else (_unit(rng, n), rng.randrange(n))
        items.append((f"graph/q{q}/m{m}", 1, partial(_certify, bd, q, m, u, t)))
    return items


# --- certify: Cayley tables ------------------------------------------------


def _accept(bd, spec: str, text: str, order: int, abelian: bool, tr, state) -> None:
    with tr.span("groups.parse_cayley_table") as sp:
        group = bd.parse_cayley_table(text, name=spec)
    sp.note(cells=order * order, rejected=0)
    with tr.span("groups.validate_group"):
        report = bd.validate_group(group)
    with tr.span("check"):
        _expect(group.order == order, f"order {group.order}, expected {order}")
        _expect(report.ok, f"rejected: {report.first_failure}")
        _expect(report.abelian == abelian, f"abelian={report.abelian}")


def _reject(bd, text: str, rows: list[list[int]], tr, state) -> None:
    with tr.span("groups.parse_cayley_table") as sp:
        try:
            bd.parse_cayley_table(text, name="loop")
            error = None
        except bd.ValidationError as exc:
            error = exc
    sp.note(cells=len(rows) ** 2, rejected=int(error is not None))
    with tr.span("check"):
        _expect(error is not None, "non-associative loop was accepted")
        match = _ASSOC_MESSAGE.search(str(error))
        _expect(match, f"rejected for another reason: {error}")
        i, j, k = map(int, match.groups())
        _expect(rows[rows[i][j]][k] != rows[i][rows[j][k]], f"({i},{j},{k}) is associative")


def _loop_table(bd, tr, rng: random.Random) -> tuple[str, list[list[int]]]:
    """Z400 with the intercalate at rows i, i+200 and columns j, j+200 swapped.

    It stays a Latin square with identity 0 (i, j avoid 0 and 200) but is
    not associative; it is then relabeled so the identity leaves index 0.
    """
    half = LOOP_ORDER // 2
    rows = _rows(_formatted(bd, tr, f"cyclic:{LOOP_ORDER}"))
    i, j = rng.randrange(1, half), rng.randrange(1, half)
    for r, c in ((i, j), (i, j + half), (i + half, j), (i + half, j + half)):
        rows[r][c] = (rows[r][c] + half) % LOOP_ORDER
    return _relabel(rows, _permutation(rng, LOOP_ORDER, move_identity=True))


def _table_items(bd, seed: int, tr):
    items = []
    for spec, abelian in TABLES:
        rows = _rows(_formatted(bd, tr, spec))
        perm = _permutation(random.Random(f"{seed}/{spec}"), len(rows), move_identity=True)
        relabeled, _ = _relabel(rows, perm)
        items.append((f"table/{spec}", 1,
                      partial(_accept, bd, spec, relabeled, len(rows), abelian)))
    text, rows = _loop_table(bd, tr, random.Random(f"{seed}/loop"))
    items.append(("table/loop", 1, partial(_reject, bd, text, rows)))
    return items


def setup_search(bd, seed: int, tr):
    return _exhaust_items(bd, seed, tr) + _exists_items(bd, seed, tr)


def setup_certify(bd, seed: int, tr):
    return _graph_items(bd, seed) + _table_items(bd, seed, tr)


SETUP = {"search": setup_search, "certify": setup_certify}
