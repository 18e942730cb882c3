"""Difference profiles of group subsets and their covering classification.

For an s-subset S of a group, the profile counts how often each group element
occurs among the ordered products t_i * t_j^-1.  A set is covering when every
non-identity element occurs at least once, perfect when each occurs exactly
once, and an almost difference set when the counts take exactly the two
adjacent levels lambda and lambda+1.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .errors import UsageError, ValidationError
from .groups import Group

PERFECT = "perfect"
ADS = "ads"
COVERING = "covering"
NON_COVERING = "non-covering"


@dataclass(frozen=True)
class CandidateSet:
    """A set of distinct element indices inside a group, kept sorted."""

    group: Group
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(self.elements))
        if not elems:
            raise ValidationError("candidate set must be non-empty")
        if len(set(elems)) != len(elems):
            raise ValidationError(f"candidate set has repeated elements: {self.elements}")
        if elems[0] < 0 or elems[-1] >= self.group.order:
            raise ValidationError(
                f"set elements must lie in 0..{self.group.order - 1}, got {self.elements}"
            )
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)


class SetClassification(NamedTuple):
    verdict: str
    n: int
    s: int
    lam: int | None
    t: int | None
    missing: tuple[int, ...]
    repeated: tuple[int, ...]
    histogram: dict[int, int]

    @property
    def is_covering(self) -> bool:
        return self.verdict != NON_COVERING

    def params(self) -> str:
        if self.verdict == PERFECT:
            return f"({self.n},{self.s},1)"
        if self.verdict == ADS:
            return f"({self.n},{self.s},{self.lam},{self.t})"
        return f"({self.n},{self.s})"


def difference_profile(cand: CandidateSet) -> tuple[int, ...]:
    """counts[g] = multiplicity of g in the multiset of ordered differences."""
    group = cand.group
    counts = [0] * group.order
    mul, inv = group.mul, group.inv
    for ti in cand.elements:
        row = mul[ti]
        for tj in cand.elements:
            counts[row[inv[tj]]] += 1
    return tuple(counts)


def classify_profile(counts: tuple[int, ...]) -> SetClassification:
    """Classification is a pure function of the profile; s is counts[0], as t t^-1 = e."""
    n, s = len(counts), counts[0]
    if n < 2:
        raise ValidationError("the trivial group has no non-identity element to cover")
    nonid = counts[1:]  # the identity is 0
    histogram = dict(sorted(Counter(nonid).items()))
    missing = tuple(compress(range(1, n), map((0).__eq__, nonid))) if 0 in histogram else ()
    repeated = tuple(compress(range(1, n), map((1).__lt__, nonid)))
    if missing:
        return SetClassification(NON_COVERING, n, s, None, None, missing, repeated, histogram)
    levels = sorted(histogram)
    if levels == [1]:
        return SetClassification(PERFECT, n, s, 1, None, (), repeated, histogram)
    if len(levels) == 1:
        # Uniform multiplicity above 1: degenerate two-level pattern with t = n-1.
        return SetClassification(ADS, n, s, levels[0], n - 1, (), repeated, histogram)
    if len(levels) == 2 and levels[1] == levels[0] + 1:
        return SetClassification(
            ADS, n, s, levels[0], histogram[levels[0]], (), repeated, histogram
        )
    return SetClassification(COVERING, n, s, levels[0], None, (), repeated, histogram)


def classify_set(cand: CandidateSet) -> SetClassification:
    return classify_profile(difference_profile(cand))


def inverse_set(cand: CandidateSet) -> CandidateSet:
    return CandidateSet(cand.group, tuple(cand.group.inv[t] for t in cand.elements))


_WORD_FACTOR = re.compile(r"([ab])(?:\^(-?\d+))?$")


def parse_word(group: Group, word: str) -> int:
    """Resolve a generator word like ``b*a^-1*b^2`` to an element index."""
    word = word.strip()
    if word == "1":
        return 0
    if group.generators is None:
        raise ValidationError(
            f"group {group.name} has no named generators; word {word!r} cannot be resolved"
        )
    acc = 0
    for factor in word.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        m = _WORD_FACTOR.match(factor)
        if not m:
            raise UsageError(f"bad factor {factor!r} in word {word!r}")
        gen = group.generators[m.group(1)]
        exp = int(m.group(2)) if m.group(2) else 1
        acc = group.mul[acc][group.power(gen, exp)]
    return acc


def parse_set_literal(group: Group, text: str) -> CandidateSet:
    """CLI set literal: comma-separated element indices or generator words."""
    items = [item.strip() for item in text.split(",")]
    if not all(items):
        raise UsageError(f"set literal {text!r} has an empty item")
    elems = []
    for item in items:
        if item.startswith("+"):  # in every group, before the word parser sees it
            raise UsageError(f"set item {item!r} has a leading '+'; write the bare index")
        elems.append(int(item) if re.fullmatch(r"-?\d+", item) else parse_word(group, item))
    return CandidateSet(group, tuple(elems))
