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

Work is partitioned by the smallest non-identity element of the candidate,
each partition is searched independently (optionally in parallel), and
results are merged in partition order, so output is deterministic for any
worker count.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass

from .diffsets import CandidateSet, SetClassification, classify_set, inverse_set
from .errors import CapacityError, InternalError, UsageError, ValidationError
from .groups import Group


@dataclass(frozen=True)
class SearchConfig:
    group: Group
    size: int
    require_inverse_covering: bool = False
    limit: int | None = None
    prune: bool = True
    worker_count: int = 1
    report_interval: int = 0
    resume_from: int = 1

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValidationError(f"set size must be >= 2, got {self.size}")
        if self.size > self.group.order:
            raise ValidationError(
                f"set size {self.size} exceeds group order {self.group.order}"
            )
        if self.limit is not None and self.limit < 1:
            raise ValidationError(f"limit must be >= 1 when present, got {self.limit}")
        if self.worker_count < 1:
            raise ValidationError(f"worker count must be >= 1, got {self.worker_count}")
        last = self.group.order - self.size + 1
        if self.resume_from > last:
            raise ValidationError(
                f"resume point {self.resume_from} is past the last partition {last}"
            )


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


@dataclass(frozen=True)
class SweepRow:
    spec: str
    group_name: str | None
    found: bool | None
    witness: tuple[int, ...] | None
    error: str | None
    error_code: int | None
    wall_time_ms: int


# Per-process search state, installed by the pool initializer (or directly
# for inline runs): (diff_table, inv, n, s, slack, prune, stop_after_first,
# require_inverse_covering), and the pool's shared stop flag (None inline).
_STATE: tuple | None = None
_HALT = None


def _set_state(state: tuple, halt=None) -> None:
    global _STATE, _HALT
    _STATE, _HALT = state, halt


def _inverse_is_covering(elems: tuple[int, ...], dt, inv, n: int) -> bool:
    inverse = [inv[t] for t in elems]
    covered = {dt[x][y] for x in inverse for y in inverse if x != y}
    return len(covered) == n - 1


def _search_partition(first: int) -> tuple[int, list[tuple[int, ...]], int, int]:
    """Search all canonical sets whose smallest non-identity element is `first`."""
    dt, inv, n, s, slack, prune, stop_after_first, require_inverse = _STATE
    halt = _HALT
    if halt is not None and halt.value:
        return first, [], 0, 0
    counts = [0] * n
    finds: list[tuple[int, ...]] = []
    examined = 0
    pruned = 0
    partial = [0]

    def extend(excess: int, start: int) -> bool:
        nonlocal examined, pruned
        size = len(partial)
        need = s - size
        for x in range(start, n - need + 1):
            examined += 1
            rowx = dt[x]
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
                d2 = dt[t][x]
                c = counts[d2]
                if c:
                    exc += 1
                counts[d2] = c + 1
                added.append(d2)
                if prune and exc > slack:
                    rejected = True
                    break
            if not rejected:
                if size + 1 == s:
                    if exc <= slack:
                        elems = (*partial, x)
                        if not require_inverse or _inverse_is_covering(elems, dt, inv, n):
                            finds.append(elems)
                            if stop_after_first:
                                for d in added:
                                    counts[d] -= 1
                                return True
                else:
                    partial.append(x)
                    # Between second-level subtrees, give up once the pool is halted.
                    stop = extend(exc, x + 1) or (size == 2 and halt is not None and halt.value)
                    partial.pop()
                    if stop:
                        for d in added:
                            counts[d] -= 1
                        return True
            else:
                pruned += 1
            for d in added:
                counts[d] -= 1
        return False

    # Seed the partition with its first element.
    rowf = dt[first]
    excess = 0
    for d in (rowf[0], dt[0][first]):
        if counts[d]:
            excess += 1
        counts[d] += 1
    examined += 1
    if prune and excess > slack:
        pruned += 1
    elif s == 2:
        if excess <= slack:
            elems = (0, first)
            if not require_inverse or _inverse_is_covering(elems, dt, inv, n):
                finds.append(elems)
    else:
        partial.append(first)
        extend(excess, first + 1)
    return first, finds, examined, pruned


def _difference_table(group: Group) -> list[list[int]]:
    mul, inv = group.mul, group.inv
    return [[mul[x][inv[t]] for t in range(group.order)] for x in range(group.order)]


def _run(config: SearchConfig, stop_on_find: bool) -> SearchOutcome:
    t0 = time.monotonic()
    group = config.group
    n, s = group.order, config.size
    slack = s * (s - 1) - (n - 1)
    state = (
        _difference_table(group),
        tuple(group.inv),
        n,
        s,
        slack,
        config.prune,
        stop_on_find,
        config.require_inverse_covering,
    )
    firsts = list(range(max(1, config.resume_from), n - s + 2))
    target = 1 if stop_on_find else config.limit

    raw_finds: list[tuple[int, ...]] = []
    examined = pruned = done = 0

    def consume(result: tuple[int, list[tuple[int, ...]], int, int]) -> bool:
        nonlocal examined, pruned, done
        first, finds, ex, pr = result
        examined += ex
        pruned += pr
        raw_finds.extend(finds)
        done += 1
        if config.report_interval and (done % config.report_interval == 0 or done == len(firsts)):
            print(
                f"[search {group.name} s={s}] last completed partition {first} "
                f"({done}/{len(firsts)}), finds so far: {len(raw_finds)}",
                file=sys.stderr,
                flush=True,
            )
        return target is not None and len(raw_finds) >= target

    if firsts:
        if config.worker_count == 1 or len(firsts) == 1:
            _set_state(state)
            for f in firsts:
                if consume(_search_partition(f)):
                    break
        else:
            workers = min(config.worker_count, len(firsts))
            halt = multiprocessing.RawValue("b", 0)
            pool = multiprocessing.Pool(workers, initializer=_set_state, initargs=(state, halt))
            try:
                for result in pool.imap(_search_partition, firsts, chunksize=1):
                    if consume(result):
                        break
            finally:
                # Stop cooperatively and never terminate(): killing a worker
                # that holds the result queue's lock hangs the pool's shutdown.
                halt.value = 1
                pool.close()
                pool.join()

    exhausted = done == len(firsts) and config.resume_from <= 1
    if target is not None:
        raw_finds = raw_finds[:target]
    found = []
    for elems in raw_finds:
        cls = classify_set(CandidateSet(group, elems))
        if not cls.is_covering:
            raise InternalError(f"search reported a non-covering set {elems}")
        found.append(FoundSet(elems, cls))
    return SearchOutcome(
        group_name=group.name,
        size=s,
        slack=slack,
        found=tuple(found),
        candidates_examined=examined,
        candidates_pruned=pruned,
        exhausted=exhausted,
        wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


def enumerate_covering_sets(config: SearchConfig) -> SearchOutcome:
    """All canonical covering sets of the configured size, in lexicographic order."""
    return _run(config, stop_on_find=False)


def exists_covering_set(config: SearchConfig) -> SearchOutcome:
    """Early-exit variant; the witness is the lexicographically least canonical set."""
    return _run(config, stop_on_find=True)


def sweep_family(groups, size: int, **config_kwargs) -> list[SweepRow]:
    """Run exists_covering_set over a family.

    A bad spec, invalid configuration or oversized group becomes an error row
    and the sweep goes on; any other error propagates.
    """
    from .groups import parse_group_spec

    rows = []
    for item in groups:
        t0 = time.monotonic()
        spec = item if isinstance(item, str) else item.name
        try:
            group = parse_group_spec(item) if isinstance(item, str) else item
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


def verify_inverse_covering(group: Group, elements) -> bool:
    """True when the set of inverses is itself covering."""
    cand = CandidateSet(group, tuple(elements))
    return classify_set(inverse_set(cand)).is_covering
