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

Involution bound.  A covered involution u = t_i t_j^-1 is also t_j t_i^-1,
so it costs at least 1 excess; with more involutions than slack the search
stops at the root.  Otherwise excess starts at the number of involutions,
and the search's table sends involutions above the diagonal to shadow
cells n + u: the first pair with difference u charges 0, each later one 2.

The search is anchored on the pair {0, 1}.  If S is covering, the element 1
is a difference t_i t_j^-1 of S, so the right translate S t_j^-1 contains
both the identity and 1.  Only the anchored sets (0, 1, ...) are searched.

Automorphism rule (orderly generation, McKay 1998).  The maps x -> phi(x g),
phi in Aut(G), keep covering sets and covering inverses (an inverse set
goes to a left translate, whose differences are conjugates).  An anchored S
in partition K survives only if no psi(x) = phi(x a^-1), with a, b in S and
phi(b a^-1) = 1, sends an element of S into 2..K; triples of S decide it,
so it prunes partial sets.  The enumeration expands each find S into its
canonical images phi(S t^-1), t in S, deduplicated and sorted.  The least
canonical covering set is least in its orbit, so it survives and is the
first find, where the existence search stops.  Past AUTOMORPHISM_CELLS / n
automorphisms a search expands by translations only.  prune=False runs the
plain search with neither rule.

Work is partitioned by the third element: partition K holds the anchored
sets whose third element is K + 1, for K = 1..n-s+1 (for size 2 the only
partition is (0, 1)).  Partitions are searched in order; with more workers,
past FAN_OUT_NODES nodes a pool gets every later partition and the rest of
the current one, split between fourth elements.  Results merge in partition
order, so output is deterministic for any worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass

from .diffsets import CandidateSet, SetClassification, classify_set
from .errors import CapacityError, InternalError, UsageError, ValidationError
from .groups import Group, automorphisms, parse_group_spec


@dataclass(frozen=True)
class SearchConfig:
    group: Group
    size: int
    require_inverse_covering: bool = False
    prune: bool = True
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


@dataclass(frozen=True)
class FoundSet:
    elements: tuple[int, ...]
    classification: SetClassification


@dataclass(frozen=True)
class SearchOutcome:
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
    # The automorphism rule's share of pruned_by_depth.
    orbit_pruned_by_depth: tuple[int, ...] = ()
    # The partition and first fourth element handed to the pool; None inline.
    fan_out: tuple[int, int] | None = None


@dataclass(frozen=True)
class SweepRow:
    spec: str
    group_name: str | None
    found: bool | None
    witness: tuple[int, ...] | None
    error: str | None
    error_code: int | None
    wall_time_ms: int


# Per-process search state, installed by the searching process and the pool
# initializer: (table, inv, n, s, slack, prune, stop_after_first, require_inverse,
# excess0, orbit table or None), and the pool's shared stop flag (None inline).
_STATE: tuple | None = None
_HALT = None

# Past this many image cells (automorphisms times order) keep translations only.
AUTOMORPHISM_CELLS = 2_000_000
# With more workers, a search starts its pool past this many nodes (5-10 pool start-ups).
FAN_OUT_NODES = 100_000


def _set_state(state: tuple, halt=None) -> None:
    global _STATE, _HALT
    _STATE, _HALT = state, halt


def _inverse_is_covering(elems: tuple[int, ...], table, inv, n: int) -> bool:
    inverse = [inv[t] for t in elems]
    covered = {table[x][y] % n for x in inverse for y in inverse if x != y}  # n + u is u
    return len(covered) == n - 1


def _search_partition(unit: tuple[int, int], budget: int | None = None) -> tuple:
    """Search the anchored sets (0, 1, k + 1, x, ...), x >= first, of the unit
    (k, first); for size 2, the set (0, 1).  A unit past k + 2 continues a
    partition, so it leaves out the counts of the forced prefix.

    Returns k, the finds in lexicographic order, the examined, pruned and
    orbit-pruned counts indexed by the size of the candidate set, and None,
    or the first fourth element left once budget nodes were examined.
    """
    k, first = unit
    table, inv, n, s, slack, prune, stop_after_first, require_inverse, excess0, orbit = _STATE
    halt = _HALT
    examined, pruned, orbit_pruned = tallies = [[0] * (s + 1) for _ in range(3)]
    finds: list[tuple[int, ...]] = []
    rest = None
    counts = [0] * (2 * n)
    partial = [0]
    # The elements tried at each of these sizes are fixed: the anchor 1, this
    # partition's third element, then the fourth elements from first on.
    fixed = (None, (1,), (k + 1,), range(first, n - s + 4))[:s]

    def pause(x: int) -> bool:
        """Stop once the pool is halted, or past the budget before fourth element x + 1."""
        nonlocal rest
        if halt is not None:
            return bool(halt.value)
        rest = x + 1 if budget is not None and sum(examined) >= budget else None
        return rest is not None

    if pause(first - 1):
        return k, finds, tallies, rest

    def extend(excess: int, start: int) -> bool:
        size = len(partial)
        xs = fixed[size] if size < len(fixed) else range(start, n - s + size + 1)
        ex = pr = op = 0
        stop = False
        for x in xs:
            ex += 1
            rowx = table[x]
            exc = excess
            added = []
            rejected = False
            for t in partial:
                d1 = rowx[t]
                c = counts[d1]
                if c:
                    exc += 1
                counts[d1] = c + 1
                added.append(d1)
                d2 = table[t][x]
                c = counts[d2]
                if c:
                    exc += 1
                counts[d2] = c + 1
                added.append(d2)
                if prune and exc > slack:
                    rejected = True
                    break
            if not rejected and orbit is not None and size > 1:
                # The new triples {t, t', x}, translated to {t x^-1, t' x^-1, e}.
                right = added[1::2]
                rejected = any(orbit[right[i]][right[j]] <= k
                               for i in range(1, size) for j in range(i))
                op += rejected
            if rejected:
                pr += 1
            elif size + 1 < s:
                partial.append(x)
                stop = extend(exc, x + 1) or (size == 3 and pause(x))
                partial.pop()
            elif exc <= slack:
                elems = (*partial, x)
                if not require_inverse or _inverse_is_covering(elems, table, inv, n):
                    finds.append(elems)
                    stop = stop_after_first
            for d in added:
                counts[d] -= 1
            if stop:
                break
        # Counted per frame: a list update per node would sit in the hottest loop.
        examined[size + 1] += ex
        pruned[size + 1] += pr
        orbit_pruned[size + 1] += op
        return stop

    extend(excess0, 1)
    if first > k + 2:
        for tally in tallies:
            tally[2] = tally[3] = 0
    return k, finds, tallies, rest


def _orbit_table(dt: list[list[int]], auts: list[tuple[int, ...]]) -> list[list[int]]:
    """orbit[d][u] <= K when a set holding e, d and u fails the rule in partition K:
    the least phi(u) with phi(d) = 1, over the six orders of the triple; n + u is u."""
    n, inv = len(dt), dt[0]
    least = [[n] * n for _ in range(n)]
    for phi in auts:
        row = least[phi.index(1)]
        row[:] = map(min, row, phi)

    def cell(d: int, u: int) -> int:
        ud, du = dt[u][d], dt[d][u]
        return min(least[d][u], least[u][d], least[inv[d]][ud], least[ud][inv[d]],
                   least[inv[u]][du], least[du][inv[u]])

    orbit = [[cell(d, u) if d and u and d != u else n for u in range(n)] * 2 for d in range(n)]
    return orbit * 2


def _run(config: SearchConfig, stop_on_find: bool) -> SearchOutcome:
    t0 = time.monotonic()
    group = config.group
    n, s = group.order, config.size
    slack = s * (s - 1) - (n - 1)
    involutions = len(group.involutions()) if config.prune else 0
    # Each covered involution costs at least 1 excess: past the slack, no set covers.
    todo = [] if involutions > slack else list(range(1, config.partitions + 1))

    raw_finds: list[tuple[int, ...]] = []
    # Examined, pruned and orbit-pruned nodes, indexed by the candidate's size.
    totals = [[0] * (s + 1) for _ in range(3)]
    maps: list = [range(n)]        # the automorphisms, or the identity alone
    fan_out = None                 # the first unit handed to the pool

    def consume(result: tuple) -> bool:
        _, finds, tallies, _ = result
        for total, tally in zip(totals, tallies):
            total[:] = map(sum, zip(total, tally))
        raw_finds.extend(finds)
        return stop_on_find and bool(raw_finds)

    if todo:
        dt = [[group.mul[x][group.inv[t]] for t in range(n)] for x in range(n)]
        table, orbit = dt, None
        if config.prune:  # shadow cells n + u for the involutions above the diagonal
            shadow = [d + n if group.element_orders[d] == 2 else d for d in range(n)]
            table = [row[: t + 1] + [shadow[d] for d in row[t + 1 :]] for t, row in enumerate(dt)]
            cap = AUTOMORPHISM_CELLS // n
            auts = list(itertools.islice(automorphisms(group), cap + 1))
            if len(auts) <= cap:
                maps, orbit = auts, _orbit_table(dt, auts)
        state = (table, tuple(group.inv), n, s, slack, config.prune, stop_on_find,
                 config.require_inverse_covering, involutions, orbit)
        # Search inline until FAN_OUT_NODES nodes, then hand the rest of the
        # current partition and every later one to the pool.
        _set_state(state)
        for i, k in enumerate(todo):
            parallel = config.worker_count > 1 and i + 1 < len(todo)
            budget = FAN_OUT_NODES - sum(totals[0]) if parallel else None
            result = _search_partition((k, k + 2), budget)
            if consume(result):
                break
            if result[3] is not None:
                fan_out = (k, result[3])
                break
        if fan_out:
            units = [fan_out] + [(j, j + 2) for j in todo[i + 1 :]]
            workers = min(config.worker_count, len(units))
            halt = multiprocessing.RawValue("b", 0)
            pool = multiprocessing.Pool(workers, initializer=_set_state, initargs=(state, halt))
            try:
                for result in pool.imap(_search_partition, units, chunksize=1):
                    if consume(result):
                        break
            finally:
                # Stop cooperatively and never terminate(): killing a worker
                # that holds the result queue's lock hangs the pool's shutdown.
                halt.value = 1
                pool.close()
                pool.join()

    # An existence search that stopped at its witness left the rest unsearched.
    exhausted = not (stop_on_find and raw_finds)
    if stop_on_find:
        sets = raw_finds[:1]
    else:
        # An anchored find S stands for its images phi(S t^-1), t in S.
        mul, inv = group.mul, group.inv
        images = {tuple(sorted(phi[mul[x][inv[t]]] for x in elems))
                  for elems in raw_finds for t in elems for phi in maps}
        sets = sorted(images)
    found = []
    for elems in sets:
        cls = classify_set(CandidateSet(group, elems))
        if not cls.is_covering:
            raise InternalError(f"search reported a non-covering set {elems}")
        found.append(FoundSet(elems, cls))
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
        fan_out=fan_out,
    )


def enumerate_covering_sets(config: SearchConfig) -> SearchOutcome:
    """All canonical covering sets of the configured size, in lexicographic order."""
    return _run(config, stop_on_find=False)


def exists_covering_set(config: SearchConfig) -> SearchOutcome:
    """Early-exit variant; the witness is the lexicographically least canonical set."""
    return _run(config, stop_on_find=True)


def sweep_family(specs, size: int, **config_kwargs) -> list[SweepRow]:
    """Run exists_covering_set over a family of group specs.

    A bad spec, invalid configuration or oversized group becomes an error row
    and the sweep goes on; any other error propagates.
    """
    rows = []
    for spec in specs:
        t0 = time.monotonic()
        try:
            group = parse_group_spec(spec)
            outcome = exists_covering_set(SearchConfig(group, size, **config_kwargs))
            witness = outcome.found[0].elements if outcome.found else None
            rows.append(
                SweepRow(
                    spec=spec,
                    group_name=group.name,
                    found=bool(outcome.found),
                    witness=witness,
                    error=None,
                    error_code=None,
                    wall_time_ms=outcome.wall_time_ms,
                )
            )
        except (UsageError, ValidationError, CapacityError) as exc:
            rows.append(
                SweepRow(
                    spec=spec,
                    group_name=None,
                    found=None,
                    witness=None,
                    error=str(exc),
                    error_code=exc.exit_code,
                    wall_time_ms=int((time.monotonic() - t0) * 1000),
                )
            )
    return rows

