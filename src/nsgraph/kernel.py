"""Three-valued decision kernel standing in for a free ultrafilter.

A free ultrafilter on the naturals contains every cofinite set and no finite
set; which of the remaining sets it contains is not constructible.  The kernel
therefore answers membership questions in three values:

* TRUE            - the truth set is cofinite (holds for every free ultrafilter)
* FALSE           - the truth set is finite (holds for no free ultrafilter)
* FILTER_DEPENDENT- neither (e.g. a parity split); the answer would depend on
                    which ultrafilter was chosen

Predicates whose truth set cannot be classified at all raise
IndeterminateError, which is deliberately distinct from FILTER_DEPENDENT: the
former is "we cannot tell", the latter is a definite "it depends".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

DEFAULT_HORIZON = 512


class Trivalent(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    FILTER_DEPENDENT = "filter-dependent"

    @property
    def is_filter_dependent(self) -> bool:
        return self is Trivalent.FILTER_DEPENDENT


class IndeterminateError(Exception):
    """The predicate's truth set is not classifiable from the evidence."""


class EvidenceError(ValueError):
    """Classification evidence contradicts the predicate on sampled indices."""


@dataclass(frozen=True)
class TruthSet:
    """Symbolic classification of {n : p(n)}.

    kind "cofinite": p(n) holds for all n >= threshold.
    kind "finite":   p(n) fails for all n >= threshold.
    kind "split":    beyond threshold, p(n) == even_true on evens and
                     (not even_true) on odds.
    """

    kind: str
    threshold: int = 0
    even_true: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "cofinite", "split"):
            raise ValueError(f"unknown truth-set kind: {self.kind!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be a natural")

    def complement(self) -> "TruthSet":
        if self.kind == "finite":
            return TruthSet("cofinite", self.threshold)
        if self.kind == "cofinite":
            return TruthSet("finite", self.threshold)
        return TruthSet("split", self.threshold, not self.even_true)

    def holds_at(self, n: int) -> bool:
        """Asserted value of p(n) for n >= threshold."""
        if self.kind == "cofinite":
            return True
        if self.kind == "finite":
            return False
        return self.even_true if n % 2 == 0 else not self.even_true


def cofinite_set(threshold: int = 0) -> TruthSet:
    return TruthSet("cofinite", threshold)


def finite_set(threshold: int = 0) -> TruthSet:
    return TruthSet("finite", threshold)


def parity_split(even_true: bool = True, threshold: int = 0) -> TruthSet:
    return TruthSet("split", threshold, even_true)


def verdict(evidence: TruthSet) -> Trivalent:
    if evidence.kind == "cofinite":
        return Trivalent.TRUE
    if evidence.kind == "finite":
        return Trivalent.FALSE
    return Trivalent.FILTER_DEPENDENT


def in_filter(predicate: Callable[[int], bool], evidence: TruthSet | None,
              horizon: int = DEFAULT_HORIZON) -> Trivalent:
    """Trivalent membership of {n : predicate(n)} in the (unnamed) filter.

    The evidence drives the verdict; the predicate is sampled on
    [threshold, horizon] to catch inconsistent evidence early.  evidence=None
    means nothing could be classified and raises IndeterminateError.
    """
    if evidence is None:
        raise IndeterminateError("truth set of the predicate is unclassifiable")
    expected = (evidence.holds_at(0), evidence.holds_at(1))  # by parity of n
    for n in sampled_indices(evidence, horizon):
        if bool(predicate(n)) != expected[n & 1]:
            raise EvidenceError(
                f"evidence {evidence.kind} (threshold {evidence.threshold}) "
                f"contradicts predicate at n={n}")
    return verdict(evidence)


def sampled_indices(evidence: TruthSet, horizon: int) -> range:
    """The indices at which `in_filter` samples the predicate, in order."""
    return range(evidence.threshold, max(evidence.threshold, horizon) + 1)


def intersect(a: TruthSet | None, b: TruthSet | None) -> TruthSet | None:
    """Classification of the intersection of two classified sets.

    Used when a compound predicate is a conjunction (e.g. node equality is
    the conjunction of coordinate equalities).  Returns None when the
    combination is outside the closed table.
    """
    if a is None or b is None:
        # finite wins over anything: subset of a finite set is finite
        for side in (a, b):
            if side is not None and side.kind == "finite":
                return side
        return None
    t = max(a.threshold, b.threshold)
    kinds = {a.kind, b.kind}
    if "finite" in kinds:
        return TruthSet("finite", t)
    if kinds == {"cofinite"}:
        return TruthSet("cofinite", t)
    if kinds == {"cofinite", "split"}:
        split = a if a.kind == "split" else b
        return TruthSet("split", t, split.even_true)
    # split & split: same parity -> that split; opposite parities -> finite
    if a.even_true == b.even_true:
        return TruthSet("split", t, a.even_true)
    return TruthSet("finite", t)
