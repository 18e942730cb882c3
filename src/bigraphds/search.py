"""Exhaustive canonical search for covering difference sets.

Candidate sets are enumerated in the canonical form containing the identity;
this loses nothing because right-translating a set leaves its difference
profile unchanged, in any group.  A partial set is abandoned as soon as its
excess (total multiplicity surplus over the non-identity elements) exceeds
the slack s(s-1) - (n-1): excess only grows as elements are added, and for a
full-size set excess <= slack is exactly the covering condition.  Counting
the full profile automatically charges a doubled non-involution twice (its
inverse doubles with it), which is what rules out most candidates early when
the slack is small.

Coset-count bound (contracted difference sets: Baumert 1971, Lander 1983).
Let K be a normal subgroup of index d and a_c the number of elements of S in
coset c.  The ordered differences in coset c number N_c = sum_b a_b a_{c^-1 b}
(less s for c = K), and a covered involution u = t_i t_j^-1 is also t_j t_i^-1,
so a covering S has N_c >= |K| + inv(c) for c != K and N_K >= |K| - 1 + inv(K),
inv(c) the involutions in c.  The quotients are G/G and G/K for the normal
closures K of single elements, read off the table, up to QUOTIENT_VECTORS
count vectors; tried by index, the first with no feasible vector ends the
search at the root.  G/G is the involution bound: with more involutions than
slack no set covers.  The finest quotient prunes: a partial set dies when no
feasible vector lies above its own, one table lookup per node.

Pairs are counted by class {d, d^-1}: a pair's differences x t^-1 and t x^-1
are inverses and land together, so at every step the count of a class is the
multiplicity of d and of d^-1 (half of it for an involution), and each
collision charges 2.  Excess starts at the number of involutions: each one is
missed, or covered twice by its first pair.

Forward checking (Haralick & Elliott 1980): a frame scores its domain once,
and each survivor's child tries only the later survivors and the element
past the frame's bound.  Excess, coset state (a down-set) and triples only
grow: a dropped candidate fails below, and a kept one passes its older triples.

The search is anchored on the pair {0, 1}.  If S is covering, the element 1
is a difference t_i t_j^-1 of S, so the right translate S t_j^-1 contains
both the identity and 1.  Only the anchored sets (0, 1, ...) are searched.

Automorphism rule (orderly generation, McKay 1998).  The maps x -> phi(x g),
phi in Aut(G), keep covering sets and covering inverses (an inverse set
goes to a left translate, whose differences are conjugates).  An anchored S
in partition K survives only if no psi(x) = phi(x a^-1), with a, b in S and
phi(b a^-1) = 1, sends an element of S into 2..K; triples of S decide it,
so it prunes partial sets.  The enumeration expands the first find S of each
orbit into its canonical images phi(S t^-1), t in S, deduplicated and sorted,
each with S's verdict: they are all the orbit's canonical members, so a later
find of the orbit is only classified.  The least canonical covering set is
least in its orbit, so it survives and is the first find, where the existence
search stops.  Aut(G) is found as Stab(1) and one r_c per image c of 1 (Sims
1970); past AUTOMORPHISM_CELLS / n automorphisms, |Stab(1)| times the orbit of
1, a search expands by translations only.

Work is partitioned by the third element: partition K holds the anchored
sets whose third element is K + 1, for K = 1..n-s+1 (for size 2 the only
partition is (0, 1)).  Partitions are searched in order, in one process,
from partition 1 to the end or, for an existence search, to the first find.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

from .diffsets import CandidateSet, SetClassification, classify_set
from .errors import CapacityError, InternalError, UsageError, ValidationError
from .groups import Group, automorphisms, parse_group_spec


@dataclass(frozen=True)
class SearchConfig:
    """One search: a group, the set size, and whether the inverse set must cover too.

    No search reads ``worker_count``: each runs in the calling process.  It is
    still validated (>= 1) because the benchmark's workloads pass it; ROADMAP
    item 9d drops that last caller, and then the field goes.
    """

    group: Group
    size: int
    require_inverse_covering: bool = False
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValidationError(f"set size must be >= 2, got {self.size}")
        if self.size > self.group.order:
            raise ValidationError(
                f"set size {self.size} exceeds group order {self.group.order}"
            )
        if self.worker_count < 1:
            raise ValidationError(f"worker count must be >= 1, got {self.worker_count}")

    @property
    def partitions(self) -> int:
        """Number of partitions: one per third element, or just (0, 1) for size 2."""
        return self.group.order - self.size + 1 if self.size > 2 else 1


class FoundSet(NamedTuple):
    elements: tuple[int, ...]
    classification: SetClassification


class SearchOutcome(NamedTuple):
    group_name: str
    size: int
    slack: int
    found: tuple[FoundSet, ...]
    candidates_examined: int
    candidates_pruned: int
    exhausted: bool
    wall_time_ms: int
    # Indexed by the size of the candidate set; each sums to the total above.
    examined_by_depth: tuple[int, ...] = ()
    pruned_by_depth: tuple[int, ...] = ()
    # The automorphism rule's and the coset bound's shares of pruned_by_depth.
    orbit_pruned_by_depth: tuple[int, ...] = ()
    coset_pruned_by_depth: tuple[int, ...] = ()
    # The index of the quotient that decided the search at the root or pruned it.
    quotient_index: int | None = None
    # |Aut(G)| when the orbit rule ran; None past the cap or at the root.
    automorphisms: int | None = None


class SweepRow(NamedTuple):
    spec: str
    group_name: str | None
    found: bool | None
    witness: tuple[int, ...] | None
    error: str | None
    error_code: int | None
    wall_time_ms: int


# Past this many image cells (automorphisms times order) keep translations only.
AUTOMORPHISM_CELLS = 2_000_000
# Past this many count vectors, C(s + d - 1, d - 1), a quotient of index d is left out.
QUOTIENT_VECTORS = 3000


def _inverse_is_covering(elems: tuple[int, ...], dt, n: int) -> bool:
    inverse = [dt[0][t] for t in elems]
    covered = {dt[x][y] for x in inverse for y in inverse if x != y}
    return len(covered) == n - 1


def _search_partition(state: tuple, k: int) -> tuple:
    """Search the anchored sets (0, 1, k + 1, ...) of partition k; for size 2, the set (0, 1).

    state is _run's search state: (pair classes, differences dt[x][t] = x t^-1,
    n, s, slack, stop_after_first, require_inverse, excess0, orbit table or
    None, coset of each element, number of cosets, coset automaton).  Returns
    the finds in lexicographic order and the examined, pruned, orbit-pruned and
    coset-pruned counts indexed by the size of the candidate set.
    """
    (pair, dt, n, s, slack, stop_after_first, require_inverse, excess0, orbit,
     coset, d, step) = state
    examined, pruned, orbit_pruned, coset_pruned = tallies = [[0] * (s + 1) for _ in range(4)]
    finds: list[tuple[int, ...]] = []
    counts = [0] * n
    partial = [0]
    # The elements tried at each of these sizes are fixed: the anchor 1, this
    # partition's third element, then the fourth elements.
    fixed = (None, (1,), (k + 1,), range(k + 2, n - s + 4))[:s]

    def extend(excess: int, domain: list[int], q: int) -> bool:
        size = len(partial)
        last, base = n - s + size, q * d
        # Past the fourth element, the parent frame passed all but last on the older triples.
        newer = () if orbit is None else partial[-1:] if size > 3 else partial[1:]
        ex = pr = op = cp = 0
        live, stop = [], False
        for x in fixed[size] if size < len(fixed) else domain:
            ex += 1
            if step[base + coset[x]] < 0:  # no feasible count vector lies above
                cp += 1
                continue
            row, exc = pair[x], excess
            for t in partial:  # read only: the second pass writes the counts
                if counts[row[t]]:
                    exc += 2
                    if exc > slack:
                        pr += 1
                        break
            else:
                # The triples {t, u, x}, as {t x^-1, u x^-1, e}, in plain loops (a generator
                # frame per candidate cost a quarter of the pass); orbit[a][a] is n.
                for u in newer if x != last or orbit is None else partial[1:]:
                    near = orbit[dt[u][x]]
                    for t in partial:
                        if near[dt[t][x]] <= k:  # orbit is symmetric
                            break
                    else:
                        continue
                    op += 1
                    break
                else:
                    live.append(x)
        live.append(last + 1)  # the children also try the element past this bound
        for i, x in enumerate(live[:-1]):
            row, exc = pair[x], excess
            for t in partial:  # two new pairs may share a class, so count again
                u = row[t]
                if counts[u]:
                    exc += 2
                counts[u] += 1
            if exc > slack:
                pr += 1
            elif size + 1 < s:
                partial.append(x)
                stop = extend(exc, live[i + 1:], step[base + coset[x]])
                partial.pop()
            else:
                elems = (*partial, x)
                if not require_inverse or _inverse_is_covering(elems, dt, n):
                    finds.append(elems)
                    stop = stop_after_first
            for t in partial:
                counts[row[t]] -= 1
            if stop:
                break
        # Counted per frame: a list update per node would sit in the hottest loop.
        examined[size + 1] += ex
        pruned[size + 1] += pr + op + cp
        orbit_pruned[size + 1] += op
        coset_pruned[size + 1] += cp
        return stop

    extend(excess0, [], step[0])
    return finds, tallies


def _orbit_table(dt: list[list[int]], stab: list, reps: list) -> list[list[int]]:
    """orbit[d][u] <= K when a set holding e, d and u fails the rule in partition K:
    the least phi(u) with phi(d) = 1, over the six orders of the triple.  Those phi
    are psi r_d^-1, psi in Stab(1): least[d][u] = m1[r_d^-1(u)], m1[v] the least psi(v)."""
    n, inv = len(dt), dt[0]
    m1 = list(map(min, zip(*stab)))
    least: list = [(n,) * n] * n
    for r in reps:
        least[r[1]] = operator.itemgetter(*sorted(range(n), key=r.__getitem__))(m1)
    orbit = [[n] * n for _ in range(n)]
    for d, u in itertools.combinations(range(1, n), 2):  # the six orders: symmetric in d, u
        ud, du, di, ui = dt[u][d], dt[d][u], inv[d], inv[u]
        orbit[d][u] = orbit[u][d] = min(least[d][u], least[u][d], least[di][ud], least[ud][di],
                                        least[ui][du], least[du][ui])
    return orbit


def _quotients(group: Group, s: int):
    """G/G, then G/K by index for the normal closures K of single elements, up
    to QUOTIENT_VECTORS count vectors: (d, the coset of each element, div with
    x y^-1 in coset div[b][c] for x in coset b and y in coset c, and the
    differences each coset needs).  Coset 0 is K, and K contains 0."""
    n, mul, inv, orders = group.order, group.mul, group.inv, group.element_orders
    involutions = group.involutions()
    yield 1, [0] * n, [[0]], [n - 1 + len(involutions)]
    dmax = 1
    while math.comb(s + dmax, dmax) <= QUOTIENT_VECTORS:  # the count for index dmax + 1
        dmax += 1
    sizes = {n // d for d in range(2, dmax + 1) if n % d == 0}
    closures: dict[frozenset, list[int]] = {}
    seen = [False] * n
    for g in range(1, n):
        if seen[g] or not any(m % orders[g] == 0 for m in sizes):
            continue
        gens = [g] if group.abelian else {mul[mul[x][g]][inv[x]] for x in range(n)}
        closure, member = [0], [True] + [False] * (n - 1)
        for h in closure:
            for y in map(mul[h].__getitem__, gens):
                if not member[y]:
                    member[y] = True
                    closure.append(y)
        # Conjugates have one closure; so do the generators of a cyclic <g>.
        for y in [y for y in closure if orders[y] == orders[g]] if group.abelian else gens:
            seen[y] = True
        if len(closure) in sizes:
            closures.setdefault(frozenset(closure), closure)
    for sub in sorted(closures.values(), key=len, reverse=True):
        coset, reps = [-1] * n, []
        for x in range(n):
            if coset[x] < 0:
                for h in sub:
                    coset[mul[h][x]] = len(reps)
                reps.append(x)
        need = [len(sub)] * len(reps)
        need[0] -= 1
        for u in involutions:
            need[coset[u]] += 1
        yield len(reps), coset, [[coset[mul[x][inv[y]]] for y in reps] for x in reps], need


def _count_vectors(div, need, s: int, budget: int, first_only: bool = False) -> list:
    """The count vectors of covering s-sets: N_c >= need[c] for every coset c.

    The surplus, the sum of (N_c - need[c])^+, only grows as elements are
    placed and ends at most budget.  The N_c count the ordered pairs of distinct
    elements, so they sum to s(s - 1), and the need[c] sum to n - 1 + inv, inv
    the involutions: every feasible vector has surplus exactly slack - inv, the
    budget _coset_rule passes.  So the budget only prunes, and a negative budget
    means no vector exists.  Cosets are filled in order, coset 0 with
    a largest count; the translates a_{c t} of a feasible vector are feasible,
    so closing under them gives every vector.  N_0 gains k(k - 1) from each
    coset, least when the rest is spread evenly and most when it is packed.
    With first_only, stop at the first vector found, untranslated.
    """
    d = len(need)
    counts, diffs, found = [0] * d, [0] * d, []
    cells = [[(div[c][b], div[b][c]) for b in range(c)] for c in range(d)]

    def place(c: int, left: int, surplus: int, top: int) -> None:
        room = d - 1 - c  # cosets after c, each taking at most top
        pairs = [(x, y, counts[b]) for b, (x, y) in enumerate(cells[c]) if counts[b]]
        for k in range(min(left, top), -1, -1) if room else (left,):
            rest, most = left - k, top if c else k
            if rest > room * most:
                break
            adds = []
            if k:
                adds = [(0, k * (k - 1))] + [(cell, k * m) for x, y, m in pairs for cell in (x, y)]
            more = surplus
            for cell, delta in adds:
                over = diffs[cell] - need[cell]
                diffs[cell] += delta
                more += max(0, over + delta) - max(0, over)
            low = high = diffs[0]
            if room:
                q, e = divmod(rest, room)
                low += e * (q + 1) * q + (room - e) * q * (q - 1)
                q, e = divmod(rest, most)
                high += q * most * (most - 1) + e * (e - 1)
            # N_0 ends between low and high, so its surplus ends at least low's.
            least = more + max(0, low - need[0]) - max(0, diffs[0] - need[0])
            if high >= need[0] and least <= budget:
                counts[c] = k
                if room:
                    place(c + 1, rest, more, most)
                elif all(map(operator.ge, diffs, need)):
                    found.append(tuple(counts))
                counts[c] = 0
            for cell, delta in adds:
                diffs[cell] -= delta
            if first_only and found:
                return

    if budget >= 0:
        place(0, s, 0, s)
    if first_only:
        return found
    # div[c][div[0][t]] is c t.
    return sorted({tuple(a[row[t]] for row in div) for a in found for t in div[0]})


def _coset_automaton(vectors, d: int, s: int) -> list[int]:
    """step[q * d + c]: the state after adding an element of coset c in state
    q, or -1 when no vector lies above.  A state is a count vector below some
    vector given; state 0 is the empty set."""
    radix = [(s + 2) ** c for c in range(d)]  # a digit never carries
    below = {sum(map(operator.mul, a, radix)) for a in vectors}
    stack = list(below)
    while stack:
        code = stack.pop()
        for r in radix:
            if code // r % (s + 2) and code - r not in below:
                below.add(code - r)
                stack.append(code - r)
    codes = sorted(below)
    index = {code: q for q, code in enumerate(codes)}
    return [index.get(code + r, -1) for code in codes for r in radix]


def _coset_rule(group: Group, s: int, slack: int) -> tuple:
    """(d, the coset of each element, step) for the finest quotient, which prunes;
    or for the first with no feasible vector, which decides the search, with step
    None.  d is None when only G/G applies and it does not decide."""
    budget = slack - len(group.involutions())
    finest = None
    for d, coset, div, need in _quotients(group, s):
        if not _count_vectors(div, need, s, budget, first_only=True):
            return d, coset, None
        finest = d, coset, div, need
    d, coset, div, need = finest
    step = _coset_automaton(_count_vectors(div, need, s, budget), d, s)
    return (d if d > 1 else None), coset, step


def _run(config: SearchConfig, stop_on_find: bool) -> SearchOutcome:
    t0 = time.monotonic()
    group = config.group
    n, s = group.order, config.size
    slack = s * (s - 1) - (n - 1)
    quotient_index, coset, step = _coset_rule(group, s, slack)

    raw_finds: list[tuple[int, ...]] = []
    # Examined, pruned, orbit- and coset-pruned nodes, indexed by the candidate's size.
    totals = [[0] * (s + 1) for _ in range(4)]
    # Aut(G) as Stab(1) and the r_c, c in the orbit of 1, when the orbit rule runs.
    stab, reps, orbit = [range(n)], [range(n)], None
    if step is not None:  # else the root test decided the search
        # One gather per row; n >= 2, so every itemgetter returns a tuple.
        dt = list(map(operator.itemgetter(*group.inv), group.mul))
        # pair[x][t]: the class of x t^-1 and t x^-1, named by the lesser.
        classes = list(map(min, range(n), group.inv))
        pair = [operator.itemgetter(*row)(classes) for row in dt]
        cap, factors = AUTOMORPHISM_CELLS // n, ([], [range(n)])
        for phi in automorphisms(group, transversal=True):
            factors[phi[1] != 1].append(phi)
            if len(factors[0]) * len(factors[1]) > cap:  # |Aut| is past the cap
                break
        else:
            stab, reps = factors
            orbit = _orbit_table(dt, stab, reps)
        state = (pair, dt, n, s, slack, stop_on_find, config.require_inverse_covering,
                 len(group.involutions()), orbit, coset, max(coset) + 1, step)
        for k in range(1, config.partitions + 1):
            finds, tallies = _search_partition(state, k)
            for total, tally in zip(totals, tallies):
                total[:] = map(sum, zip(total, tally))
            raw_finds.extend(finds)
            if stop_on_find and raw_finds:
                break

    # An existence search that stopped at its witness left the rest unsearched.
    exhausted = not (stop_on_find and raw_finds)
    # An enumeration's find S stands for its images phi(S t^-1), t in S, phi = r psi,
    # with S's verdict: count'[phi(g)] = count[g] moves only its repeated elements.
    expand = not stop_on_find and bool(raw_finds)
    maps = [operator.itemgetter(*psi)(r) for r in reps for psi in stab] if expand else [range(n)]
    mul, inv, images = group.mul, group.inv, {}
    for elems in raw_finds if expand else raw_finds[:1]:
        cls = classify_set(CandidateSet(group, elems))
        if not cls.is_covering:
            raise InternalError(f"search reported a non-covering set {elems}")
        if elems in images:  # an earlier find of its orbit wrote every image
            continue
        for t in elems if expand else (0,):
            image_of = operator.itemgetter(*[mul[x][inv[t]] for x in elems])
            images.update(zip(map(tuple, map(sorted, map(image_of, maps))),
                              zip(itertools.repeat(cls), maps)))
    found = [
        FoundSet(elems, cls._replace(
            repeated=tuple(sorted(map(phi.__getitem__, cls.repeated))),
            histogram=dict(cls.histogram)))
        for elems, (cls, phi) in sorted(images.items())
    ]
    return SearchOutcome(
        group_name=group.name,
        size=s,
        slack=slack,
        found=tuple(found),
        candidates_examined=sum(totals[0]),
        candidates_pruned=sum(totals[1]),
        exhausted=exhausted,
        wall_time_ms=int((time.monotonic() - t0) * 1000),
        examined_by_depth=tuple(totals[0]),
        pruned_by_depth=tuple(totals[1]),
        orbit_pruned_by_depth=tuple(totals[2]),
        coset_pruned_by_depth=tuple(totals[3]),
        quotient_index=quotient_index,
        automorphisms=len(stab) * len(reps) if orbit is not None else None,
    )


def enumerate_covering_sets(config: SearchConfig) -> SearchOutcome:
    """All canonical covering sets of the configured size, in lexicographic order."""
    return _run(config, stop_on_find=False)


def exists_covering_set(config: SearchConfig) -> SearchOutcome:
    """Early-exit variant; the witness is the lexicographically least canonical set."""
    return _run(config, stop_on_find=True)


def _sweep_row(spec: str, size: int, config_kwargs: dict) -> SweepRow:
    """The existence search over one spec as a sweep row, or its error row."""
    t0 = time.monotonic()
    try:
        group = parse_group_spec(spec)
        outcome = exists_covering_set(SearchConfig(group, size, **config_kwargs))
        witness = outcome.found[0].elements if outcome.found else None
        return SweepRow(
            spec=spec,
            group_name=group.name,
            found=bool(outcome.found),
            witness=witness,
            error=None,
            error_code=None,
            wall_time_ms=outcome.wall_time_ms,
        )
    except (UsageError, ValidationError, CapacityError) as exc:
        return SweepRow(
            spec=spec,
            group_name=None,
            found=None,
            witness=None,
            error=str(exc),
            error_code=exc.exit_code,
            wall_time_ms=int((time.monotonic() - t0) * 1000),
        )


def sweep_family(specs, size: int, workers: int = 1, **config_kwargs) -> list[SweepRow]:
    """Run exists_covering_set over a family of group specs, in spec order.

    With workers > 1, up to that many processes each take whole specs.  A bad
    spec, invalid configuration or oversized group becomes an error row and
    the sweep goes on; any other error propagates, and a worker that dies is
    an InternalError.
    """
    specs = list(specs)
    row = functools.partial(_sweep_row, size=size, config_kwargs=config_kwargs)
    if workers < 2 or len(specs) < 2:
        return list(map(row, specs))
    # Only a parallel sweep pays for the import.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(min(workers, len(specs))) as pool:
            return list(pool.map(row, specs))
    except BrokenProcessPool as exc:
        raise InternalError(f"a sweep worker died: {exc}") from exc
