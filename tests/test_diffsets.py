"""Difference profiles, classification verdicts, and set parsing."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigraphds.diffsets import (
    ADS,
    COVERING,
    NON_COVERING,
    PERFECT,
    CandidateSet,
    SetClassification,
    classify_profile,
    classify_set,
    difference_profile,
    inverse_set,
    parse_set_literal,
    parse_word,
)
from bigraphds.errors import UsageError, ValidationError
from bigraphds.groups import build_cyclic, build_direct_product, build_semidirect

GAMMA1_SET_WORDS = ["1", "b", "b^4", "b*a", "b*a^-1*b^2", "a*b^-1", "b*a*b^2"]


def gamma1_and_published_set():
    g = build_semidirect(5, 8, 2)
    cand = CandidateSet(g, tuple(parse_word(g, w) for w in GAMMA1_SET_WORDS))
    return g, cand


def brute_profile(group, elems):
    """Direct transcription of the definition, used as the test oracle."""
    counts = [0] * group.order
    for ti in elems:
        for tj in elems:
            counts[group.mul[ti][group.inv[tj]]] += 1
    return counts


def test_z13_perfect_profile():
    cand = CandidateSet(build_cyclic(13), (0, 1, 3, 9))
    counts = difference_profile(cand)
    assert counts[0] == 4
    assert all(counts[g] == 1 for g in range(1, 13))


def test_z39_profile_doubles():
    cand = CandidateSet(build_cyclic(39), (0, 1, 2, 4, 13, 18, 33))
    counts = difference_profile(cand)
    assert {g for g in range(1, 39) if counts[g] == 2} == {1, 2, 37, 38}
    assert all(counts[g] == 1 for g in range(1, 39) if g not in {1, 2, 37, 38})


def test_singleton_profile():
    for group in (build_cyclic(5), build_semidirect(5, 8, 2)):
        counts = difference_profile(CandidateSet(group, (0,)))
        assert counts[0] == 1 and sum(counts) == 1


def test_classify_z13_perfect():
    cls = classify_set(CandidateSet(build_cyclic(13), (0, 1, 3, 9)))
    assert cls.verdict == PERFECT and (cls.n, cls.s, cls.lam) == (13, 4, 1)
    assert cls.params() == "(13,4,1)"
    assert cls.n == cls.s * cls.s - cls.s + 1


def test_classify_z39_ads():
    cls = classify_set(CandidateSet(build_cyclic(39), (0, 1, 2, 4, 13, 18, 33)))
    assert cls.verdict == ADS
    assert (cls.n, cls.s, cls.lam, cls.t) == (39, 7, 1, 34)
    assert cls.repeated == (1, 2, 37, 38)


def test_classify_z8_noncovering():
    cls = classify_set(CandidateSet(build_cyclic(8), (0, 1, 2)))
    assert cls.verdict == NON_COVERING
    assert cls.missing == (3, 4, 5)
    assert not cls.is_covering


def test_classify_gamma1_ads():
    g, cand = gamma1_and_published_set()
    cls = classify_set(cand)
    assert cls.verdict == ADS
    assert (cls.n, cls.s, cls.lam, cls.t) == (40, 7, 1, 36)
    doubled = cls.repeated
    assert len(doubled) == 3
    involutions = [x for x in doubled if g.element_orders[x] == 2]
    pair = [x for x in doubled if g.element_orders[x] != 2]
    assert len(involutions) == 1 and involutions[0] == g.power(g.generators["b"], 4)
    assert g.inv[pair[0]] == pair[1]


def test_classify_uniform_lambda2_is_ads():
    # {0,1,2,4} in Z_7 hits every non-zero residue exactly twice
    cls = classify_set(CandidateSet(build_cyclic(7), (0, 1, 2, 4)))
    assert cls.verdict == ADS and (cls.lam, cls.t) == (2, 6)
    assert cls.histogram == {2: 6}


def test_classify_wide_spread_is_plain_covering():
    cls = classify_set(CandidateSet(build_cyclic(7), (0, 1, 2, 3)))
    assert cls.verdict == COVERING and cls.lam == 1
    assert cls.histogram == {1: 2, 2: 2, 3: 2}


def test_inverse_set_z7():
    cand = CandidateSet(build_cyclic(7), (0, 1, 3))
    assert inverse_set(cand).elements == (0, 4, 6)


def test_inverse_set_gamma1_matches_published_words():
    g, cand = gamma1_and_published_set()
    sbar = inverse_set(cand)
    published = ["1", "b^-1", "b^4", "a^-1*b^-1", "b^-2*a*b^-1", "b*a^-1", "b^-2*a^-1*b^-1"]
    assert sbar.elements == tuple(sorted(parse_word(g, w) for w in published))
    assert classify_set(sbar).is_covering


def test_abelian_inverse_preserves_verdict():
    for group in (build_cyclic(8), build_cyclic(13), build_cyclic(39)):
        for elems in [(0, 1, 2), (0, 1, 3), (0, 2, 5)]:
            cand = CandidateSet(group, elems)
            assert classify_set(cand).verdict == classify_set(inverse_set(cand)).verdict


def test_right_translation_invariance_exhaustive():
    cases = [
        (build_cyclic(13), (0, 1, 3, 9)),
        (build_cyclic(8), (0, 1, 2)),
        gamma1_and_published_set(),
    ]
    for group, item in cases:
        cand = item if isinstance(item, CandidateSet) else CandidateSet(group, item)
        base = difference_profile(cand)
        for g in range(group.order):
            shifted = CandidateSet(group, tuple(group.mul[t][g] for t in cand.elements))
            assert difference_profile(shifted) == base


def test_profile_matches_brute_oracle_and_sums():
    cases = [
        (build_cyclic(13), (0, 1, 3, 9)),
        (build_cyclic(8), (0, 1, 2)),
        (build_direct_product(build_cyclic(2), build_cyclic(5)), (0, 3, 7, 8)),
        gamma1_and_published_set(),
    ]
    for group, item in cases:
        cand = item if isinstance(item, CandidateSet) else CandidateSet(group, item)
        counts = difference_profile(cand)
        assert list(counts) == brute_profile(group, cand.elements)
        s = cand.size
        assert sum(counts) == s * s
        assert counts[0] == s  # t t^-1 = e once per element, and no other pair gives e
        assert sum(c for g, c in enumerate(counts) if g != 0) == s * (s - 1)


def test_abelian_mirror_symmetry():
    group = build_cyclic(12)
    cand = CandidateSet(group, (0, 1, 4, 6))
    counts = difference_profile(cand)
    assert all(counts[g] == counts[group.inv[g]] for g in range(group.order))


def test_classify_is_pure_function_of_profile():
    cand = CandidateSet(build_cyclic(13), (0, 1, 3, 9))
    assert classify_profile(difference_profile(cand)) == classify_set(cand)


def test_candidate_set_validation():
    z5 = build_cyclic(5)
    with pytest.raises(ValidationError):
        CandidateSet(z5, (0, 0, 1))
    with pytest.raises(ValidationError):
        CandidateSet(z5, (0, 9))
    with pytest.raises(ValidationError):
        CandidateSet(z5, ())
    cand = CandidateSet(z5, (3, 0, 1))
    assert cand.elements == (0, 1, 3)


def test_word_parsing():
    g = build_semidirect(5, 8, 2)
    a, b = g.generators["a"], g.generators["b"]
    assert parse_word(g, "1") == 0
    assert parse_word(g, "a") == a
    assert parse_word(g, "b*a*b^-1") == g.mul[a][a]
    assert parse_word(g, "a^-1") == g.inv[a]
    assert parse_word(g, "b^-2*a*b^-1") == g.mul[g.mul[g.power(b, -2)][a]][g.inv[b]]
    with pytest.raises(UsageError):
        parse_word(g, "c^2")
    with pytest.raises(ValidationError):
        parse_word(build_cyclic(6), "a^2")


def test_parse_set_literal():
    g = build_semidirect(5, 8, 2)
    cand = parse_set_literal(g, "0,b,b^4")
    assert cand.elements == tuple(sorted([0, g.generators["b"], g.power(g.generators["b"], 4)]))
    z39 = build_cyclic(39)
    assert parse_set_literal(z39, "0,1,2,4,13,18,33").elements == (0, 1, 2, 4, 13, 18, 33)
    with pytest.raises(UsageError):
        parse_set_literal(z39, " , ")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_sets_covering_bound_and_translation(data):
    n = data.draw(st.integers(min_value=2, max_value=20))
    group = build_cyclic(n)
    s = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
    elems = tuple(
        sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s)))
    )
    cand = CandidateSet(group, elems)
    cls = classify_set(cand)
    if cls.is_covering:
        assert n - 1 <= s * (s - 1) or n == 1
    g = data.draw(st.integers(min_value=0, max_value=n - 1))
    shifted = CandidateSet(group, tuple(group.mul[t][g] for t in elems))
    assert difference_profile(shifted) == difference_profile(cand)


def test_params_of_covering_and_non_covering_verdicts():
    covering = classify_set(CandidateSet(build_cyclic(6), (0, 1, 3, 4)))
    assert (covering.verdict, covering.params()) == (COVERING, "(6,4)")
    short = classify_set(CandidateSet(build_cyclic(7), (0, 1)))
    assert (short.verdict, short.params(), short.missing) == (NON_COVERING, "(7,2)", (2, 3, 4, 5))


def test_inner_identity_factor_is_skipped():
    g = build_semidirect(5, 8, 2)
    assert parse_word(g, "b*1*a") == parse_word(g, "b*a")
    assert parse_word(g, "1*b") == parse_word(g, "b") != 0


def per_element_classification(counts, s):
    """classify_profile as first written, one element at a time: the oracle for
    its C-level passes.  It needs an order of at least 2 (levels[0] below)."""
    n = len(counts)
    nonid = [(g, c) for g, c in enumerate(counts) if g]  # the identity is 0
    missing = tuple(g for g, c in nonid if c == 0)
    repeated = tuple(g for g, c in nonid if c >= 2)
    histogram = dict(sorted(Counter(c for _, c in nonid).items()))
    if missing:
        return SetClassification(NON_COVERING, n, s, None, None, missing, repeated, histogram)
    levels = sorted(histogram)
    if levels == [1]:
        return SetClassification(PERFECT, n, s, 1, None, (), repeated, histogram)
    if len(levels) == 1:
        return SetClassification(ADS, n, s, levels[0], n - 1, (), repeated, histogram)
    if len(levels) == 2 and levels[1] == levels[0] + 1:
        return SetClassification(
            ADS, n, s, levels[0], histogram[levels[0]], (), repeated, histogram
        )
    return SetClassification(COVERING, n, s, levels[0], None, (), repeated, histogram)


CLASSIFY_GROUPS = [build_cyclic(n) for n in (1, 2, 3, 6, 7, 13)] + [
    build_semidirect(3, 2, 2), build_direct_product(build_cyclic(2), build_cyclic(4)),
]
# Perfect, almost-difference (one level, two levels, and Gamma1's) and plain
# covering sets; random subsets add the non-covering ones.
KNOWN_SETS = [CandidateSet(build_cyclic(n), elems) for n, elems in (
    (7, (0, 1, 3)), (13, (0, 1, 3, 9)), (7, (0, 1, 2, 4)), (39, (0, 1, 2, 4, 13, 18, 33)),
    (7, (0, 1, 2, 3)), (2, (0, 1)),
)] + [gamma1_and_published_set()[1]]


@st.composite
def candidate_sets(draw):
    if draw(st.booleans()):
        cand = draw(st.sampled_from(KNOWN_SETS))
        group = cand.group
        t = draw(st.integers(0, group.order - 1))
        return CandidateSet(group, tuple(group.mul[x][t] for x in cand.elements))
    group = draw(st.sampled_from(CLASSIFY_GROUPS))
    return CandidateSet(group, tuple(draw(st.sets(st.integers(0, group.order - 1), min_size=1))))


def test_known_sets_reach_every_covering_verdict():
    assert {classify_set(cand).verdict for cand in KNOWN_SETS} == {PERFECT, ADS, COVERING}


@settings(max_examples=150, deadline=None)
@given(candidate_sets())
def test_classify_profile_matches_the_per_element_version(cand):
    counts = difference_profile(cand)
    assert counts[0] == cand.size  # the s that classify_profile reads
    if cand.group.order == 1:
        with pytest.raises(ValidationError, match="trivial group"):
            classify_profile(counts)
    else:
        assert classify_profile(counts) == per_element_classification(counts, cand.size)
