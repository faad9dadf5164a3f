"""Brute-force references for small instances.

These are deliberately naive: exhaustive enumeration with an explicit
capacity guard. The test suite uses them as ground truth against the
incremental algorithms.
"""

from __future__ import annotations

from typing import Sequence

from circlematch.market import Market, Matching, is_stable
from circlematch.topology import SocialCircle

from refimpl import position

MAX_ORACLE_AGENTS = 12


class OracleViolation(RuntimeError):
    """A property guaranteed by matching theory failed to hold; signals a bug."""


def enumerate_stable_matchings(market: Market, circle: SocialCircle) -> list[Matching]:
    """Every stable matching, found by checking all partial in-circle matchings.

    Raises ValueError for markets above MAX_ORACLE_AGENTS agents: the search
    space grows factorially and larger inputs are a caller error.
    """
    if market.n > MAX_ORACLE_AGENTS:
        raise ValueError(
            f"exhaustive enumeration is capped at {MAX_ORACLE_AGENTS} agents, got {market.n}")
    men = market.men.tolist()
    women = market.women.tolist()
    recognized = {i: [j for j in men if circle.contains(i, j)] for i in women}
    stable: list[Matching] = []
    used: set[int] = set()
    pairs: list[tuple[int, int]] = []

    def extend(idx: int) -> None:
        if idx == len(women):
            candidate = Matching.from_pairs(pairs)
            if is_stable(market, circle, candidate):
                stable.append(candidate)
            return
        woman = women[idx]
        extend(idx + 1)  # leave this woman unmatched
        for man in recognized[woman]:
            if man not in used:
                used.add(man)
                pairs.append((woman, man))
                extend(idx + 1)
                pairs.pop()
                used.discard(man)

    extend(0)
    return stable


def man_optimal(candidates: Sequence[Matching], market: Market) -> Matching:
    """The candidate every man weakly prefers to all the others.

    Outcomes are compared by rank position, an unmatched man ranking below
    any partner. Raises OracleViolation when no candidate dominates, which
    cannot happen for the full set of stable matchings of one market.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    worst = market.half

    def outcome(matching: Matching) -> tuple[int, ...]:
        return tuple(
            position(market, j, matching.by_man[j]) if j in matching.by_man else worst
            for j in market.men.tolist())

    vectors = [outcome(c) for c in candidates]
    best = tuple(min(column) for column in zip(*vectors))
    for cand, vec in zip(candidates, vectors):
        if vec == best:
            return cand
    raise OracleViolation("no candidate is weakly preferred by every man")
