"""Covering-set search: correctness, pruning safety, determinism, sweeps."""

from __future__ import annotations

import concurrent.futures.process
import itertools
import json
import operator
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigraphds.diffsets import NON_COVERING, PERFECT, CandidateSet, classify_set, inverse_set
from bigraphds import groups, search
from bigraphds.errors import InternalError, UsageError, ValidationError
from bigraphds.groups import (
    automorphisms,
    build_cyclic,
    build_direct_product,
    build_semidirect,
    parse_cayley_table,
    parse_group_spec,
)
from bigraphds.search import (
    FoundSet,
    SearchConfig,
    enumerate_covering_sets,
    exists_covering_set,
    sweep_family,
)
from test_acceptance import canonical_covering_sets
from test_groups import AUTOMORPHISM_COUNTS

# canonical covering 3-sets worked out by hand
Z7_PERFECT_TRIPLES = {(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 6), (0, 4, 5), (0, 4, 6)}
Z6_COVERING_TRIPLES = {(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 3, 5)}


def oracle_covering_sets(group, size):
    """All covering size-subsets by unrestricted brute force."""
    out = []
    for elems in itertools.combinations(range(group.order), size):
        if classify_set(CandidateSet(group, elems)).is_covering:
            out.append(elems)
    return out


def test_z7_size3_finds_all_perfect_triples():
    out = enumerate_covering_sets(SearchConfig(build_cyclic(7), 3))
    assert {f.elements for f in out.found} == Z7_PERFECT_TRIPLES
    assert all(f.classification.verdict == PERFECT for f in out.found)
    assert out.exhausted and out.slack == 0
    assert [f.elements for f in out.found] == sorted(f.elements for f in out.found)


def test_z6_size3_prop5_shape():
    out = enumerate_covering_sets(SearchConfig(build_cyclic(6), 3))
    assert {f.elements for f in out.found} == Z6_COVERING_TRIPLES
    assert out.slack == 1
    for f in out.found:
        assert f.classification.repeated == (3,)
        assert f.classification.histogram == {1: 4, 2: 1}


def test_prop5_law_in_z12():
    # n = s^2 - s for s = 4: the unique doubled difference must be the involution 6
    group = build_cyclic(12)
    out = enumerate_covering_sets(SearchConfig(group, 4))
    assert out.found and out.slack == 1
    for f in out.found:
        assert f.classification.histogram == {1: 10, 2: 1}
        doubled = f.classification.repeated
        assert len(doubled) == 1 and group.element_orders[doubled[0]] == 2


def test_exists_returns_lexicographically_least_witness():
    out = exists_covering_set(SearchConfig(build_cyclic(6), 3))
    assert len(out.found) == 1 and out.found[0].elements == (0, 1, 3)
    assert not out.exhausted


def test_exists_exhausts_when_nothing_found():
    out = exists_covering_set(SearchConfig(build_cyclic(12), 3))
    assert not out.found and out.exhausted  # 3*2 < 11, impossible by counting


def test_pruned_equals_unpruned_small_grid():
    from bigraphds.groups import build_direct_product

    groups = [build_cyclic(n) for n in range(4, 13)]
    groups += [
        build_semidirect(3, 2, 2),                             # S3
        build_semidirect(7, 3, 2),                             # order 21
        build_direct_product(build_cyclic(2), build_cyclic(6)),
    ]
    for group in groups:
        for s in (2, 3, 4):
            if s > group.order:
                continue
            pruned = enumerate_covering_sets(SearchConfig(group, s))
            assert [f.elements for f in pruned.found] == canonical_covering_sets(group, s)
            assert pruned.exhausted


def test_canonical_results_cover_unrestricted_search():
    for n in range(4, 17):
        group = build_cyclic(n)
        canonical = {
            f.elements
            for f in enumerate_covering_sets(SearchConfig(group, 3)).found
        }
        for elems in oracle_covering_sets(group, 3):
            t1 = elems[0]
            translated = tuple(sorted(group.mul[t][group.inv[t1]] for t in elems))
            assert translated in canonical


def test_require_inverse_covering_is_noop_for_abelian():
    base = enumerate_covering_sets(SearchConfig(build_cyclic(7), 3))
    flagged = enumerate_covering_sets(
        SearchConfig(build_cyclic(7), 3, require_inverse_covering=True)
    )
    assert [f.elements for f in base.found] == [f.elements for f in flagged.found]


def test_gamma1_inverse_covering_search():
    group = build_semidirect(5, 8, 2)
    out = exists_covering_set(SearchConfig(group, 7, require_inverse_covering=True))
    assert out.found
    witness = out.found[0]
    assert witness.classification.is_covering
    assert classify_set(inverse_set(CandidateSet(group, witness.elements))).is_covering
    plain = exists_covering_set(SearchConfig(group, 7))
    assert plain.found[0].elements == (0, 1, 4, 9, 11, 21, 27) and not plain.exhausted


def test_invalid_configs():
    with pytest.raises(ValidationError):
        SearchConfig(build_cyclic(7), 1)
    with pytest.raises(ValidationError):
        SearchConfig(build_cyclic(7), 8)
    with pytest.raises(ValidationError):
        SearchConfig(build_cyclic(7), 3, worker_count=0)


def test_whole_group_is_always_covering():
    out = enumerate_covering_sets(SearchConfig(build_cyclic(5), 5))
    assert [f.elements for f in out.found] == [(0, 1, 2, 3, 4)]


def test_sweep_family_mixed_specs_and_errors():
    rows = sweep_family(["cyclic:6", "cyclic:12", "cyclic:0"], 3)
    assert rows[0].found is True and rows[0].witness == (0, 1, 3)
    assert rows[1].found is False and rows[1].error is None  # 3*2 < 11
    assert rows[2].found is None and rows[2].error
    assert [r.spec for r in rows] == ["cyclic:6", "cyclic:12", "cyclic:0"]


def test_sweep_family_propagates_internal_errors(monkeypatch):
    def broken(config):
        raise InternalError("search invariant failed")

    monkeypatch.setattr(search, "exists_covering_set", broken)
    with pytest.raises(InternalError):
        sweep_family(["cyclic:6"], 3)


SWEEP_SPECS = ["cyclic:6", "cyclic:12", "cyclic:0", "bogus:3"]


def test_pooled_sweep_matches_the_inline_sweep():
    def rows(workers):
        return [row._replace(wall_time_ms=None) for row in sweep_family(SWEEP_SPECS, 3, workers=workers)]

    inline = rows(1)
    assert [row.error_code for row in inline] == [None, None, ValidationError.exit_code,
                                                  UsageError.exit_code]
    assert rows(2) == inline


def test_small_sweeps_start_no_executor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an executor was started")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
    assert sweep_family(["cyclic:6"], 3, workers=2)[0].witness == (0, 1, 3)
    assert [row.found for row in sweep_family(SWEEP_SPECS[:2], 3, workers=1)] == [True, False]
    with pytest.raises(AssertionError, match="executor"):
        sweep_family(SWEEP_SPECS[:2], 3, workers=2)


def test_sweep_family_non_utf8_table_is_an_error_row(tmp_path):
    table = tmp_path / "table.txt"
    table.write_bytes(b"0 1\n1 \xff\n")
    rows = sweep_family([f"file:{table}", "cyclic:6"], 3)
    assert rows[0].error_code == ValidationError.exit_code and "cannot read" in rows[0].error
    assert rows[1].found is True


def test_ledger_search_fails_past_its_time_budget(monkeypatch):
    from bigraphds import ledger

    slow = search.SearchOutcome("Z", 7, 0, (), 0, 0, True, ledger.SEARCH_BUDGET_MS)
    monkeypatch.setattr(search, "enumerate_covering_sets", lambda config: slow)
    result = ledger.run_check("abelian-40-41-42-searches")
    assert not result.ok and f"{ledger.SEARCH_BUDGET_MS} ms" in result.detail


def test_sweep_family_z39_witness():
    rows = sweep_family(["cyclic:39"], 7)
    assert rows[0].found is True and rows[0].witness == (0, 1, 2, 4, 13, 18, 33)


ORACLE_GROUPS = [build_cyclic(n) for n in range(3, 17)] + [
    build_semidirect(3, 2, 2),  # S3
    build_semidirect(7, 3, 2),  # Z7 x| Z3
    build_semidirect(5, 4, 2),  # Z5 x| Z4
    build_semidirect(5, 2, 4),  # D10
    build_semidirect(3, 4, 2),  # Z3 x| Z4
    build_direct_product(build_cyclic(2), build_cyclic(6)),
]


# Z7 x| Z3 at s = 6 has covering sets whose inverse set is not covering, so
# only there do right and left translates of the anchored finds differ.
ORACLE_CASES = [(g, range(2, min(5, g.order) + 1)) for g in ORACLE_GROUPS]
ORACLE_CASES.append((build_semidirect(7, 3, 2), (6,)))


@pytest.mark.parametrize(
    "group,sizes", ORACLE_CASES, ids=[f"{g.name}-s{sz[0]}-{sz[-1]}" for g, sz in ORACLE_CASES]
)
def test_anchored_search_matches_brute_force(group, sizes):
    # Brute force over every canonical set is the slow, obvious version of
    # the anchored search and its expansion by translates.
    for s in sizes:
        covering = [e for e in oracle_covering_sets(group, s) if e[0] == 0]
        for inverse in (False, True):
            want = [
                e for e in covering
                if not inverse or classify_set(inverse_set(CandidateSet(group, e))).is_covering
            ]
            config = SearchConfig(group, s, require_inverse_covering=inverse)
            out = enumerate_covering_sets(config)
            assert [f.elements for f in out.found] == want and out.exhausted
            witness = exists_covering_set(config)
            assert [f.elements for f in witness.found] == want[:1]
            assert witness.exhausted == (not want)


def test_per_depth_counts_sum_to_totals():
    out = enumerate_covering_sets(SearchConfig(build_cyclic(21), 5))
    assert sum(out.examined_by_depth) == out.candidates_examined
    assert sum(out.pruned_by_depth) == out.candidates_pruned
    # indexed by candidate size: the anchor 1 and the third element are
    # examined once in each of the 17 partitions
    assert len(out.examined_by_depth) == 6 and out.examined_by_depth[:4] == (0, 0, 17, 17)


def test_per_depth_counts_reach_the_json_payload(capsys):
    from bigraphds.cli import main

    assert main(["search", "--group", "cyclic:13", "--size", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert sum(payload["examined_by_depth"]) == payload["candidates_examined"]
    assert sum(payload["pruned_by_depth"]) == payload["candidates_pruned"]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=3, max_value=14),
    st.integers(min_value=2, max_value=4),
)
def test_pruning_safety_random(n, s):
    group = build_cyclic(n)
    s = min(s, n)
    pruned = enumerate_covering_sets(SearchConfig(group, s))
    assert [f.elements for f in pruned.found] == canonical_covering_sets(group, s)


def relabeled(group, rng):
    """The group loaded through parse_cayley_table after shuffling its labels."""
    n = group.order
    perm = list(range(n))      # perm[old label] = new label
    rng.shuffle(perm)
    old = [0] * n
    for x, y in enumerate(perm):
        old[y] = x
    rows = [" ".join(str(perm[group.mul[a][b]]) for b in old) for a in old]
    return parse_cayley_table(f"{n}\n" + "\n".join(rows) + "\n", name=f"{group.name}*")


SYMMETRY_GROUPS = [build_cyclic(n) for n in range(17, 22)] + [
    build_direct_product(build_cyclic(2), build_cyclic(2)),
    build_direct_product(build_cyclic(2), build_cyclic(4)),
    build_direct_product(build_direct_product(build_cyclic(2), build_cyclic(2)), build_cyclic(2)),
    build_direct_product(build_cyclic(3), build_cyclic(3)),
    build_direct_product(build_cyclic(3), build_cyclic(5)),
    build_direct_product(build_cyclic(2), build_cyclic(8)),
    build_direct_product(build_cyclic(4), build_cyclic(4)),
    build_semidirect(3, 2, 2),  # S3
    build_semidirect(4, 2, 3),  # D4
    build_semidirect(5, 4, 2),  # Z5 x| Z4
    build_semidirect(7, 3, 2),  # Z7 x| Z3
    build_semidirect(9, 2, 8),  # D9
]
RELABELED = [build_cyclic(13), build_cyclic(20), build_cyclic(21)] + SYMMETRY_GROUPS[-8:]
SYMMETRY_GROUPS += [relabeled(g, random.Random(seed)) for seed, g in enumerate(RELABELED)]


def test_a_known_identity_is_left_out_of_the_greedy_generators():
    # Light's test and automorphisms skip only the generator 0, which reaches nothing and never
    # yields a triple: every table of order <= 3 with identity 0, group or not, and the groups above
    tables = [((0,),)] + [
        (tuple(range(n)), *((i, *cells[(i - 1) * (n - 1): i * (n - 1)]) for i in range(1, n)))
        for n in (2, 3) for cells in itertools.product(range(n), repeat=(n - 1) ** 2)
    ]
    tables += [g.mul for g in SYMMETRY_GROUPS]
    assert len(tables) == 1 + 2 + 81 + len(SYMMETRY_GROUPS)
    for mul in tables:
        assert groups._greedy_generators(mul)[0] == 0
        assert groups._greedy_generators(mul, 0) == groups._greedy_generators(mul)[1:], mul
        violation = groups._find_associativity_violation
        assert violation(mul, 0) == violation(mul), mul


def symmetry_sizes(group):
    """The least size that can cover (by counting), the one below and the one above."""
    s0 = next(s for s in itertools.count(2) if s * (s - 1) >= group.order - 1)
    return [s for s in (s0 - 1, s0, s0 + 1) if 2 <= s <= group.order]


def expand_every_find(config, monkeypatch):
    """The oracle of the per-orbit expansion: an enumeration whose
    raw finds are each classified and expanded into their images phi(S t^-1),
    none skipped.

    Returns the outcome, the oracle's found sets, the raw finds and those whose
    images an earlier find had already written."""
    group, n = config.group, config.group.order
    raw, factors = [], [[range(n)], [range(n)]]  # past the cap: translations only
    search_partition, orbit_table = search._search_partition, search._orbit_table

    def record_finds(*args):
        result = search_partition(*args)
        raw.extend(result[0])
        return result

    def record_factors(dt, stab, reps):
        factors[:] = stab, reps
        return orbit_table(dt, stab, reps)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_search_partition", record_finds)
        patch.setattr(search, "_orbit_table", record_factors)
        out = enumerate_covering_sets(config)
    stab, reps = factors
    mul, inv = group.mul, group.inv
    maps = [operator.itemgetter(*psi)(r) for r in reps for psi in stab]
    images, repeats = {}, []
    for elems in raw:
        if elems in images:
            repeats.append(elems)
        cls = classify_set(CandidateSet(group, elems))
        for t in elems:
            image_of = operator.itemgetter(*[mul[x][inv[t]] for x in elems])
            images.update(zip(map(tuple, map(sorted, map(image_of, maps))),
                              zip(itertools.repeat(cls), maps)))
    found = tuple(
        FoundSet(elems, cls._replace(
            repeated=tuple(sorted(map(phi.__getitem__, cls.repeated))),
            histogram=dict(cls.histogram)))
        for elems, (cls, phi) in sorted(images.items())
    )
    return out, found, raw, repeats


@pytest.mark.parametrize("group", SYMMETRY_GROUPS, ids=[g.name for g in SYMMETRY_GROUPS])
def test_symmetry_rules_match_brute_force_and_the_plain_search(group, monkeypatch):
    # Brute force over the canonical sets is the oracle for both rules and
    # the expansion by automorphisms and translates; expanding every raw find
    # is the oracle for expanding each orbit once.
    for s in symmetry_sizes(group):
        covering = canonical_covering_sets(group, s)
        for inverse in (False, True):
            want = [
                e for e in covering
                if not inverse or classify_set(inverse_set(CandidateSet(group, e))).is_covering
            ]
            config = SearchConfig(group, s, require_inverse_covering=inverse)
            out, expanded, _, _ = expand_every_find(config, monkeypatch)
            assert out.found == expanded
            assert [f.elements for f in out.found] == want and out.exhausted
            assert sum(out.orbit_pruned_by_depth) <= out.candidates_pruned
            # Each image inherits its find's verdict, with the repeated elements moved.
            assert [f.classification for f in out.found] == [
                classify_set(CandidateSet(group, e)) for e in want]
            witness = exists_covering_set(config)
            assert [f.elements for f in witness.found] == want[:1]
            assert witness.exhausted == (not want)


@pytest.mark.parametrize("spec,raw_finds,repeats",
                         [("cyclic:39", 4, 3), ("semidirect:5,8,2", 40, 36)])
def test_each_orbit_is_expanded_once_and_every_find_is_classified(spec, raw_finds, repeats,
                                                                   monkeypatch):
    # Z39's 4 raw finds lie in one orbit and Gamma1's 40 in 4.
    config = SearchConfig(parse_group_spec(spec), 7)
    out, expanded, raw, repeated = expand_every_find(config, monkeypatch)
    assert out.found == expanded
    assert (len(raw), len(repeated)) == (raw_finds, repeats)
    classified = []

    def record(cand):
        classified.append(cand.elements)
        return classify_set(cand)

    monkeypatch.setattr(search, "classify_set", record)
    assert enumerate_covering_sets(config).found == out.found
    assert classified == raw

    # A find whose orbit was already expanded still has its verdict checked.
    def refute_last_repeat(cand):
        cls = classify_set(cand)
        refuted = cls._replace(verdict=NON_COVERING)
        return refuted if cand.elements == repeated[-1] else cls

    monkeypatch.setattr(search, "classify_set", refute_last_repeat)
    with pytest.raises(InternalError, match=re.escape(str(repeated[-1]))):
        enumerate_covering_sets(config)


RELABEL_CASES = [
    (build_cyclic(13), 4), (build_cyclic(21), 5), (build_cyclic(19), 5),
    (build_semidirect(7, 3, 2), 5), (build_semidirect(5, 4, 2), 5),
    (build_semidirect(9, 2, 8), 5), (build_direct_product(build_cyclic(4), build_cyclic(4)), 5),
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RELABEL_CASES), st.randoms(use_true_random=False))
def test_symmetry_rules_under_random_relabelings(case, rng):
    group, size = case
    loaded = relabeled(group, rng)
    out = enumerate_covering_sets(SearchConfig(loaded, size))
    assert [f.elements for f in out.found] == canonical_covering_sets(loaded, size)
    # The number of canonical covering sets does not depend on the labels.
    assert len(out.found) == len(enumerate_covering_sets(SearchConfig(group, size)).found)
    witness = exists_covering_set(SearchConfig(loaded, size))
    assert [f.elements for f in witness.found] == [f.elements for f in out.found][:1]


def test_involution_bound_stops_at_the_root(monkeypatch):
    # The dihedral group of order 42 has 21 involutions against a slack of 1.
    def refuse(*args, **kwargs):
        raise AssertionError("the search went past the root")

    monkeypatch.setattr(search, "automorphisms", refuse)
    group = parse_group_spec("semidirect:21,2,20")
    out = exists_covering_set(SearchConfig(group, 7))
    assert not out.found and out.exhausted and out.candidates_examined == 0


@pytest.mark.parametrize(
    "spec,size,finds,parent_nodes,bound",
    [
        ("cyclic:39", 7, 168, 154_397, 45_000),
        ("cyclic:56", 8, 0, 378_485, 100_000),
        ("product:cyclic:2,cyclic:20", 7, 0, 63_343, 10_000),
    ],
)
def test_symmetry_rules_cut_the_node_count(spec, size, finds, parent_nodes, bound):
    # Node counts are deterministic, unlike time.  With translations and the
    # excess bound alone the search examined parent_nodes.
    out = enumerate_covering_sets(SearchConfig(parse_group_spec(spec), size))
    assert len(out.found) == finds and out.exhausted
    assert out.candidates_examined < bound < parent_nodes


def test_orbit_pruned_counts_reach_the_outputs(capsys):
    from bigraphds.cli import main

    out = enumerate_covering_sets(SearchConfig(build_cyclic(39), 7))
    orbit = out.orbit_pruned_by_depth
    assert len(orbit) == 8 and sum(orbit) > 0
    assert all(o <= p for o, p in zip(orbit, out.pruned_by_depth))
    argv = ["search", "--group", "cyclic:21", "--size", "5"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert sum(payload["orbit_pruned_by_depth"]) > 0
    assert main(argv) == 0
    assert f"(orbit rule {sum(payload['orbit_pruned_by_depth'])})" in capsys.readouterr().out


def test_too_many_automorphisms_leave_the_translations(monkeypatch):
    # Z2 x Z8 has 16 automorphisms; past the cap the search runs without them.
    group = build_direct_product(build_cyclic(2), build_cyclic(8))
    full = enumerate_covering_sets(SearchConfig(group, 5))
    monkeypatch.setattr(search, "AUTOMORPHISM_CELLS", 15 * group.order)
    capped = enumerate_covering_sets(SearchConfig(group, 5))
    assert [f.elements for f in capped.found] == [f.elements for f in full.found]
    assert [f.classification for f in capped.found] == [f.classification for f in full.found]
    assert sum(full.orbit_pruned_by_depth) > 0 and sum(capped.orbit_pruned_by_depth) == 0
    assert full.automorphisms == 16 and capped.automorphisms is None


def listed_orbit_table(group):
    """The oracle: the orbit table with its least images taken over every
    automorphism, least[phi^-1(1)][u] the least phi(u)."""
    n, mul, inv = group.order, group.mul, group.inv
    dt = [[mul[x][inv[t]] for t in range(n)] for x in range(n)]
    least = [[n] * n for _ in range(n)]
    for phi in automorphisms(group):
        row = least[phi.index(1)]
        row[:] = map(min, row, phi)

    def cell(d, u):
        ud, du = dt[u][d], dt[d][u]
        return min(least[d][u], least[u][d], least[inv[d]][ud], least[ud][inv[d]],
                   least[inv[u]][du], least[du][inv[u]])

    return dt, [[cell(d, u) if d and u and d != u else n for u in range(n)] for d in range(n)]


FACTOR_GROUPS = SYMMETRY_GROUPS + [g for g, _ in AUTOMORPHISM_COUNTS if g.order > 1]


@pytest.mark.parametrize("group", FACTOR_GROUPS, ids=[g.name for g in FACTOR_GROUPS])
def test_factorized_orbit_table_and_cap_match_the_full_listing(group, monkeypatch):
    n, count = group.order, sum(1 for _ in automorphisms(group))
    listed = list(automorphisms(group, transversal=True))
    stab = [phi for phi in listed if phi[1] == 1]
    dt, table = listed_orbit_table(group)
    assert search._orbit_table(dt, stab, [range(n)] + listed[len(stab):]) == table
    # The whole group covers and no quotient decides it at the root.
    for cells, want in ((count * n, count), (count * n - 1, None)):
        monkeypatch.setattr(search, "AUTOMORPHISM_CELLS", cells)
        assert enumerate_covering_sets(SearchConfig(group, n)).automorphisms == want


def test_automorphism_count_reaches_the_json_payload(capsys):
    from bigraphds.cli import main

    assert main(["search", "--group", "cyclic:21", "--size", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["automorphisms"] == 12
    # Decided at the root, so the orbit rule never ran.
    assert main(["search", "--group", "cyclic:42", "--size", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["automorphisms"] is None


# --- forward checking -------------------------------------------------------


def plain_search_partition(state, k):
    """The oracle of forward checking: the single-pass search, whose every frame
    scans its whole range x + 1 .. n - s + size and tests each candidate afresh.
    Same state, arguments and results as search._search_partition."""
    (pair, dt, n, s, slack, stop_after_first, require_inverse, excess0, orbit,
     coset, d, step) = state
    examined, pruned, orbit_pruned, coset_pruned = tallies = [[0] * (s + 1) for _ in range(4)]
    finds, counts, partial = [], [0] * n, [0]
    fixed = (None, (1,), (k + 1,), range(k + 2, n - s + 4))[:s]

    def extend(excess, start, state):
        size = len(partial)
        xs = fixed[size] if size < len(fixed) else range(start, n - s + size + 1)
        stop = False
        for x in xs:
            examined[size + 1] += 1
            after = step[state * d + coset[x]]
            if after < 0:
                pruned[size + 1] += 1
                coset_pruned[size + 1] += 1
                continue
            exc = excess
            for t in partial:
                u = pair[x][t]
                if counts[u]:
                    exc += 2
                counts[u] += 1
            rejected = exc > slack
            if not rejected and orbit is not None:
                right = [dt[t][x] for t in partial]
                rejected = any(orbit[a][b] <= k for a, b in itertools.combinations(right, 2))
                orbit_pruned[size + 1] += rejected
            if rejected:
                pruned[size + 1] += 1
            elif size + 1 < s:
                partial.append(x)
                stop = extend(exc, x + 1, after)
                partial.pop()
            else:
                elems = (*partial, x)
                if not require_inverse or search._inverse_is_covering(elems, dt, n):
                    finds.append(elems)
                    stop = stop_after_first
            for t in partial:
                counts[pair[x][t]] -= 1
            if stop:
                break
        return stop

    extend(excess0, 1, step[0])
    return finds, tallies


def accepted(out):
    """The nodes a search accepted, by size: examined less pruned."""
    return tuple(map(operator.sub, out.examined_by_depth, out.pruned_by_depth))


def assert_matches_the_plain_search(out, run, config):
    """out, from run(config), against the single-pass oracle: the same
    finds with their classifications, and for an exhausted search the same accepted
    nodes and no more examined ones at every size.  Returns the oracle's outcome."""
    with mock.patch.object(search, "_search_partition", plain_search_partition):
        plain = run(config)
    assert out.found == plain.found and out.exhausted == plain.exhausted
    if out.exhausted:
        assert accepted(out) == accepted(plain)
        assert all(map(operator.le, out.examined_by_depth, plain.examined_by_depth))
    return plain


@pytest.mark.parametrize("group", SYMMETRY_GROUPS, ids=[g.name for g in SYMMETRY_GROUPS])
def test_forward_checking_matches_the_plain_search(group):
    for s in symmetry_sizes(group):
        for inverse in (False, True):
            config = SearchConfig(group, s, require_inverse_covering=inverse)
            for run in (enumerate_covering_sets, exists_covering_set):
                assert_matches_the_plain_search(run(config), run, config)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RELABEL_CASES), st.randoms(use_true_random=False), st.booleans())
def test_forward_checking_under_random_relabelings(case, rng, inverse):
    group, size = case
    config = SearchConfig(relabeled(group, rng), size, require_inverse_covering=inverse)
    for run in (enumerate_covering_sets, exists_covering_set):
        assert_matches_the_plain_search(run(config), run, config)


POOL_CASES = [
    (build_cyclic(21), 5),
    (build_semidirect(7, 3, 2), 6),
    (build_semidirect(5, 4, 2), 6),
    (relabeled(build_semidirect(7, 3, 2), random.Random(1)), 6),
]


# A count-vector budget for the coset bound: 0 and 1 leave G/G alone, 24 lets
# the quotients of index 2 (s = 6) or up to 3 (s = 5) prune as well.
@pytest.mark.parametrize("budget", [0, 1, 24])
@pytest.mark.parametrize("group,size", POOL_CASES, ids=[f"{g.name}-s{s}" for g, s in POOL_CASES])
def test_forced_pool_matches_one_worker_and_brute_force(group, size, budget, monkeypatch):
    covering = canonical_covering_sets(group, size)
    monkeypatch.setattr(search, "QUOTIENT_VECTORS", budget)
    for inverse in (False, True):
        want = [
            e for e in covering
            if not inverse or classify_set(inverse_set(CandidateSet(group, e))).is_covering
        ]
        config = SearchConfig(group, size, require_inverse_covering=inverse)
        out = enumerate_covering_sets(config)
        assert_matches_the_plain_search(out, enumerate_covering_sets, config)
        assert [f.elements for f in out.found] == want and out.exhausted
        witness = exists_covering_set(config)
        assert_matches_the_plain_search(witness, exists_covering_set, config)
        assert [f.elements for f in witness.found] == want[:1]


# --- coset-count bound ------------------------------------------------------


def count_vector(coset, elems):
    counts = [0] * (max(coset) + 1)
    for x in elems:
        counts[coset[x]] += 1
    return tuple(counts)


def quotient_table(group, coset):
    """The quotient's multiplication and inverses, read through one element per coset."""
    reps = {}
    for x in range(group.order):
        reps.setdefault(coset[x], x)
    d = len(reps)
    mul = [[coset[group.mul[reps[b]][reps[c]]] for c in range(d)] for b in range(d)]
    for x in range(group.order):  # the coset of a product depends on the cosets alone
        for y in range(group.order):
            assert coset[group.mul[x][y]] == mul[coset[x]][coset[y]]
    return mul, [row.index(0) for row in mul]


def brute_feasible(group, coset, s):
    """Every count vector over the cosets that meets N_c >= |K| + inv(c), less 1 in K."""
    mul, inv = quotient_table(group, coset)
    d, size = len(mul), group.order // len(mul)
    need = [size - (c == 0) for c in range(d)]
    for u in group.involutions():
        need[coset[u]] += 1
    feasible = []
    for vec in itertools.product(range(s + 1), repeat=d):
        if sum(vec) != s:
            continue
        diffs = [sum(vec[b] * vec[mul[inv[c]][b]] for b in range(d)) for c in range(d)]
        diffs[0] -= s
        if all(x >= y for x, y in zip(diffs, need)):
            feasible.append(vec)
    return feasible


def automaton_states(step, d):
    """The count vector of every state reached from state 0, by breadth-first search."""
    states, queue = {0: (0,) * d}, [0]
    for q in queue:
        for c in range(d):
            r = step[q * d + c]
            if r >= 0:
                vec = list(states[q])
                vec[c] += 1
                assert states.setdefault(r, tuple(vec)) == tuple(vec)
                if r not in queue:
                    queue.append(r)
    assert len(states) * d == len(step)  # every state is reachable
    return states


SMALL_QUOTIENTS = [
    build_cyclic(2), build_cyclic(3), build_cyclic(4),
    build_direct_product(build_cyclic(2), build_cyclic(2)), build_semidirect(3, 2, 2),
]


@pytest.mark.parametrize("quotient", SMALL_QUOTIENTS, ids=[q.name for q in SMALL_QUOTIENTS])
@pytest.mark.parametrize("kernel", [2, 3])
def test_coset_automaton_is_the_feasible_down_set(quotient, kernel, monkeypatch):
    # G = Q x Z_kernel has the normal subgroup 1 x Z_kernel with quotient Q;
    # the automaton's states must be the vectors below a feasible full vector.
    monkeypatch.setattr(search, "QUOTIENT_VECTORS", 10**6)
    group = build_direct_product(quotient, build_cyclic(kernel))
    d = quotient.order
    for s in range(2, min(group.order, 7) + 1):
        slack = s * (s - 1) - (group.order - 1)
        budget = slack - len(group.involutions())
        matches = [q for q in search._quotients(group, s)
                   if q[0] == d and all(q[1][x] == q[1][x - x % kernel] for x in range(group.order))]
        assert len(matches) == 1
        _, coset, div, need = matches[0]
        feasible = brute_feasible(group, coset, s)
        assert search._count_vectors(div, need, s, budget) == feasible
        assert bool(search._count_vectors(div, need, s, budget, first_only=True)) == bool(feasible)
        if not feasible:
            continue
        below = {vec for vec in itertools.product(range(s + 1), repeat=d)
                 if sum(vec) <= s and any(all(map(operator.le, vec, top)) for top in feasible)}
        states = automaton_states(search._coset_automaton(feasible, d, s), d)
        assert set(states.values()) == below


COSET_GROUPS = ORACLE_GROUPS + SYMMETRY_GROUPS


@pytest.mark.parametrize("group", COSET_GROUPS, ids=[g.name for g in COSET_GROUPS])
def test_covering_sets_have_feasible_count_vectors(group, monkeypatch):
    # Soundness of the bound itself: a covering set meets it in every quotient.
    monkeypatch.setattr(search, "QUOTIENT_VECTORS", 10**6)
    for s in symmetry_sizes(group):
        slack = s * (s - 1) - (group.order - 1)
        budget = slack - len(group.involutions())
        covering = canonical_covering_sets(group, s)
        for d, coset, div, need in search._quotients(group, s):
            assert group.order % d == 0 and coset[0] == 0
            quotient_table(group, coset)
            feasible = set(search._count_vectors(div, need, s, budget))
            assert {count_vector(coset, e) for e in covering} <= feasible


@pytest.mark.parametrize("cap", [0, 3000, 10**6])
@pytest.mark.parametrize("group", COSET_GROUPS, ids=[g.name for g in COSET_GROUPS])
def test_coset_bound_matches_brute_force_and_the_plain_search(group, cap, monkeypatch):
    # cap 0 leaves G/G alone; 10**6 lets quotients of every index prune.
    monkeypatch.setattr(search, "QUOTIENT_VECTORS", cap)
    for s in symmetry_sizes(group):
        want = canonical_covering_sets(group, s)
        out = enumerate_covering_sets(SearchConfig(group, s))
        assert [f.elements for f in out.found] == want and out.exhausted
        assert all(c <= p for c, p in zip(out.coset_pruned_by_depth, out.pruned_by_depth))
        assert out.quotient_index is None or group.order % out.quotient_index == 0
        if out.candidates_examined == 0:
            assert not want and out.quotient_index is not None
        witness = exists_covering_set(SearchConfig(group, s))
        assert [f.elements for f in witness.found] == want[:1]


COSET_CASES = [
    (build_cyclic(16), 5), (build_cyclic(21), 5), (build_cyclic(24), 6),
    (build_direct_product(build_cyclic(2), build_cyclic(8)), 5),
    (build_direct_product(build_cyclic(3), build_cyclic(6)), 5),
    (build_semidirect(7, 3, 2), 5), (build_semidirect(5, 4, 2), 5), (build_semidirect(3, 4, 2), 4),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COSET_CASES), st.randoms(use_true_random=False),
       st.sampled_from([0, 3000, 10**6]))
def test_coset_bound_under_random_relabelings(case, rng, cap):
    group, size = case
    loaded = relabeled(group, rng)
    want = canonical_covering_sets(loaded, size)
    old_cap = search.QUOTIENT_VECTORS
    search.QUOTIENT_VECTORS = cap
    try:
        out = enumerate_covering_sets(SearchConfig(loaded, size))
        witness = exists_covering_set(SearchConfig(loaded, size))
    finally:
        search.QUOTIENT_VECTORS = old_cap
    assert [f.elements for f in out.found] == want
    assert [f.elements for f in witness.found] == want[:1]


@pytest.mark.parametrize(
    "spec,size,index",
    [("cyclic:42", 7, 2), ("cyclic:52", 8, 4), ("cyclic:56", 8, 2), ("cyclic:111", 11, 3),
     ("product:cyclic:2,cyclic:20", 7, 2), ("semidirect:21,2,20", 7, 1)],
)
def test_coset_bound_decides_at_the_root(spec, size, index, monkeypatch):
    # No cyclic (111, 11, 1) difference set: its index-3 quotient has no
    # count vector (sum a_c = 11 with sum a_c^2 = 47 has no solution).
    def refuse(*args, **kwargs):
        raise AssertionError("the search went past the root")

    monkeypatch.setattr(search, "automorphisms", refuse)
    for run in (exists_covering_set, enumerate_covering_sets):
        out = run(SearchConfig(parse_group_spec(spec), size))
        assert not out.found and out.exhausted and out.candidates_examined == 0
        assert out.quotient_index == index


def test_without_quotients_the_search_is_unchanged(monkeypatch):
    full = enumerate_covering_sets(SearchConfig(build_cyclic(39), 7))
    assert full.quotient_index == 3 and sum(full.coset_pruned_by_depth) > 0
    monkeypatch.setattr(search, "QUOTIENT_VECTORS", 0)
    bare = enumerate_covering_sets(SearchConfig(build_cyclic(39), 7))
    assert [f.elements for f in bare.found] == [f.elements for f in full.found]
    assert bare.quotient_index is None and not any(bare.coset_pruned_by_depth)
    assert bare.candidates_examined > full.candidates_examined


def test_coset_counts_reach_the_outputs(capsys):
    from bigraphds.cli import main

    argv = ["search", "--group", "cyclic:21", "--size", "5"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    coset = sum(payload["coset_pruned_by_depth"])
    assert payload["quotient_index"] == 7 and coset > 0
    assert main(argv) == 0
    assert f"(coset bound {coset})" in capsys.readouterr().out
    assert main(["search", "--group", "cyclic:42", "--size", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["quotient_index"] == 2 and payload["candidates_examined"] == 0


# Each search tree with forward checking: the number of finds, then the
# examined, pruned, orbit-pruned and coset-pruned counts by candidate size;
# then the examined and pruned counts of the single-pass search, as the
# shadow-cell counters (see shadow_excess) gave them.  On an exhausted search
# both accept the same nodes at every size; a stopped one keeps its witness.
GOLDEN_TREES = [
    ("cyclic:39", 7, "enumerate", False, 168,
     (0, 0, 33, 33, 283, 1388, 7704, 6771), (0, 0, 0, 22, 162, 448, 5664, 6767),
     (0, 0, 0, 22, 161, 248, 293, 12), (0, 0, 0, 0, 0, 0, 1274, 2490),
     (0, 0, 33, 33, 283, 1934, 10324, 17073), (0, 0, 0, 22, 162, 994, 8284, 17069)),
    ("semidirect:5,8,2", 7, "enumerate", False, 560,
     (0, 0, 34, 34, 283, 2041, 7096, 728), (0, 0, 0, 24, 119, 974, 6726, 688),
     (0, 0, 0, 24, 107, 268, 149, 0), (0, 0, 0, 0, 0, 0, 3493, 285),
     (0, 0, 34, 34, 283, 2442, 10669, 2741), (0, 0, 0, 24, 119, 1375, 10299, 2701)),
    ("semidirect:5,8,2", 7, "exists", True, 1,
     (0, 0, 3, 3, 99, 927, 3794, 300), (0, 0, 0, 0, 12, 395, 3603, 299),
     (0, 0, 0, 0, 1, 64, 49, 0), (0, 0, 0, 0, 0, 0, 1852, 182),
     (0, 0, 3, 3, 72, 901, 5325, 1330), (0, 0, 0, 0, 12, 390, 5139, 1329)),
    ("cyclic:40", 7, "enumerate", False, 0,
     (0, 0, 34, 34, 393, 1853, 5222, 1304), (0, 0, 0, 19, 229, 1005, 4542, 1304),
     (0, 0, 0, 19, 201, 277, 189, 2), (0, 0, 0, 0, 0, 135, 1890, 970),
     (0, 0, 34, 34, 393, 2614, 9373, 6104), (0, 0, 0, 19, 229, 1766, 8693, 6104)),
    ("semidirect:13,3,3", 7, "exists", False, 0,
     (0, 0, 33, 33, 126, 1112, 7167, 5517), (0, 0, 0, 29, 52, 298, 5586, 5517),
     (0, 0, 0, 29, 52, 29, 20, 0), (0, 0, 0, 0, 0, 0, 1303, 1935),
     (0, 0, 33, 33, 126, 1240, 9452, 14607), (0, 0, 0, 29, 52, 426, 7871, 14607)),
    ("product:cyclic:3,cyclic:13", 7, "enumerate", False, 168,
     (0, 0, 33, 33, 223, 1687, 9960, 10358), (0, 0, 0, 23, 73, 438, 7314, 10346),
     (0, 0, 0, 23, 70, 205, 294, 3), (0, 0, 0, 0, 0, 31, 863, 3966),
     (0, 0, 33, 33, 223, 1797, 10547, 19258), (0, 0, 0, 23, 73, 548, 7901, 19246)),
    ("cyclic:57", 8, "exists", False, 1,
     (0, 0, 2, 2, 49, 294, 2920, 4030, 252), (0, 0, 0, 1, 4, 97, 2047, 3827, 251),
     (0, 0, 0, 0, 1, 7, 76, 62, 0), (0, 0, 0, 0, 0, 0, 292, 652, 139),
     (0, 0, 2, 2, 10, 280, 4099, 13534, 2577), (0, 0, 0, 1, 3, 97, 3231, 13332, 2576)),
    ("cyclic:31", 6, "enumerate", False, 60,
     (0, 0, 26, 26, 110, 212, 125), (0, 0, 0, 21, 84, 164, 123),
     (0, 0, 0, 20, 57, 21, 0), (0, 0, 0, 0, 0, 0, 0),
     (0, 0, 26, 26, 110, 294, 407), (0, 0, 0, 21, 84, 246, 405)),
    # Gamma1 under one shuffle of its labels, which moves the orbit rule's least images.
    ("relabeled:semidirect:5,8,2:13", 7, "enumerate", False, 560,
     (0, 0, 34, 34, 216, 1239, 3809, 277), (0, 0, 0, 24, 121, 683, 3642, 269),
     (0, 0, 0, 24, 113, 151, 22, 0), (0, 0, 0, 0, 0, 0, 1838, 139),
     (0, 0, 34, 34, 216, 1597, 6838, 1509), (0, 0, 0, 24, 121, 1041, 6671, 1501)),
]
GOLDEN_GROUPS = {
    "relabeled:semidirect:5,8,2:13": relabeled(build_semidirect(5, 8, 2), random.Random(13)),
}


@pytest.mark.parametrize(
    "spec,size,mode,inverse,finds,examined,pruned,orbit,coset,plain_examined,plain_pruned",
    GOLDEN_TREES,
    ids=[f"{c[0]}-s{c[1]}-{c[2]}{'-inverse' if c[3] else ''}" for c in GOLDEN_TREES],
)
def test_search_tree_is_golden(spec, size, mode, inverse, finds, examined, pruned, orbit, coset,
                               plain_examined, plain_pruned):
    run = enumerate_covering_sets if mode == "enumerate" else exists_covering_set
    group = GOLDEN_GROUPS[spec] if spec in GOLDEN_GROUPS else parse_group_spec(spec)
    config = SearchConfig(group, size, require_inverse_covering=inverse)
    out = run(config)
    assert len(out.found) == finds
    assert out.examined_by_depth == examined and out.pruned_by_depth == pruned
    assert out.orbit_pruned_by_depth == orbit and out.coset_pruned_by_depth == coset
    plain = assert_matches_the_plain_search(out, run, config)
    assert (plain.examined_by_depth, plain.pruned_by_depth) == (plain_examined, plain_pruned)
    if out.exhausted:
        assert accepted(out) == tuple(map(operator.sub, plain_examined, plain_pruned))


def shadow_excess(group, elems):
    """The oracle: the excess of an ascending set with one counter per difference,
    t x^-1 sent to the shadow cell n + u when it is an involution u."""
    n, mul, inv = group.order, group.mul, group.inv
    counts = [0] * (2 * n)
    excess = len(group.involutions())
    for i, x in enumerate(elems):
        for t in elems[:i]:
            u = mul[t][inv[x]]
            for cell in (mul[x][inv[t]], u + n * (group.element_orders[u] == 2)):
                excess += counts[cell] > 0
                counts[cell] += 1
    return excess


def path_search(group, elems, slack):
    """Search the sets of path elements elems = (0, 1, ...) at the given slack,
    without the orbit rule: one coset per element, with the automaton of the
    path's count vector, whose state is the set of path elements placed and which
    admits every path element not yet placed.  Returns the finds and the accepted
    counts (examined less pruned) by size."""
    n, m = group.order, len(elems)
    bit = {x: 1 << i for i, x in enumerate(elems)}
    step = [q | bit[x] if x in bit and not q & bit[x] else -1
            for q in range(1 << m) for x in range(n)]
    states = []

    def capture(state, k):
        states.append(state)
        return search_partition(state, k)

    search_partition, coset_rule, cells = (search._search_partition, search._coset_rule,
                                           search.AUTOMORPHISM_CELLS)
    search._search_partition, search.AUTOMORPHISM_CELLS = capture, 0
    search._coset_rule = lambda *args: (n, list(range(n)), step)
    try:
        enumerate_covering_sets(SearchConfig(group, m))
    finally:
        search._search_partition, search._coset_rule, search.AUTOMORPHISM_CELLS = (
            search_partition, coset_rule, cells)
    state = states[0][:4] + (slack,) + states[0][5:]  # the slack is the fifth entry
    finds, (examined, pruned, orbit, _) = search._search_partition(state, elems[2] - 1)
    assert not any(orbit)
    return finds, list(map(operator.sub, examined, pruned))


def accepted_subpaths(group, elems, slack):
    """The oracle of path_search: by size, the sets (0, 1, elems[2], ...) of path
    elements in order whose i-th element is at most n - m + i and whose
    shadow-cell excess is at most slack."""
    n, m = group.order, len(elems)
    counts = [0] * (m + 1)
    for size in range(2, m + 1):
        head = elems[:min(size, 3)]
        for tail in itertools.combinations(elems[3:], size - len(head)):
            sub = head + tail
            if (all(x <= n - m + i for i, x in enumerate(sub))
                    and shadow_excess(group, sub) <= slack):
                counts[size] += 1
    return counts


# Groups of order 40 with 7, 21, 1 and 1 involutions; the last is Gamma1.
PAIR_CLASS_GROUPS = {spec: parse_group_spec(spec) for spec in (
    "product:product:cyclic:2,cyclic:2,cyclic:10", "semidirect:20,2,19", "cyclic:40",
    "semidirect:5,8,2")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PAIR_CLASS_GROUPS)), st.randoms(use_true_random=False),
       st.integers(min_value=3, max_value=9))
def test_pair_class_excess_matches_the_shadow_cells(spec, rng, length):
    # Counting pairs by class {d, d^-1} charges exactly what the shadow cells
    # charged, after every prefix: a set of path elements is accepted exactly
    # when its oracle excess is within the slack, so the path is found at the
    # oracle's excess and pruned below it.
    group = PAIR_CLASS_GROUPS[spec]
    elems = (0, 1, *sorted(rng.sample(range(2, group.order), length - 2)))
    for m in range(3, length + 1):
        prefix = elems[:m]
        excess = shadow_excess(group, prefix)
        for slack, want in ((excess, [prefix]), (excess - 1, [])):
            finds, accepted_counts = path_search(group, prefix, slack)
            assert finds == want
            assert accepted_counts == accepted_subpaths(group, prefix, slack)
