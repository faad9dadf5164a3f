"""Brute-force references for small instances.

These are deliberately naive: exhaustive enumeration with an explicit
capacity guard. The test suite uses them as ground truth against the
incremental algorithms.
"""

from __future__ import annotations

from typing import Sequence

from circlematch.market import Market, Matching
from circlematch.topology import SocialCircle

from refimpl import position, rank_positions

MAX_ORACLE_AGENTS = 12


class OracleViolation(RuntimeError):
    """A property guaranteed by matching theory failed to hold; signals a bug."""


def enumerate_stable_matchings(market: Market, circle: SocialCircle) -> list[Matching]:
    """Every stable matching, found by checking all partial in-circle matchings.

    The in-circle pairs and both sides' rank tables are read once per market;
    each candidate is then checked for a blocking in-circle pair in plain
    Python, so the oracle shares no code with the library's stability scan.
    Raises ValueError for markets above MAX_ORACLE_AGENTS agents: the search
    space grows factorially and larger inputs are a caller error.
    """
    if market.n > MAX_ORACLE_AGENTS:
        raise ValueError(
            f"exhaustive enumeration is capped at {MAX_ORACLE_AGENTS} agents, got {market.n}")
    men, women, h = market.men.tolist(), market.women.tolist(), market.half
    # her_rank[i][j] is woman i's rank of man j and his_rank[j][i] man j's
    # rank of woman i, side-local indices both
    her_rank = market.women_pos.tolist()
    his_rank = rank_positions(market.men_prefs).tolist()
    recognized = [[j for j in range(h) if circle.contains(women[i], men[j])] for i in range(h)]
    known = [(i, j) for i in range(h) for j in recognized[i]]
    husband, wife = [-1] * h, [-1] * h  # each agent's partner, -1 while unmatched
    stable: list[Matching] = []

    def blocked() -> bool:
        for i, j in known:
            mine, his = husband[i], wife[j]
            if mine != j and (mine < 0 or her_rank[i][j] < her_rank[i][mine]) and (
                    his < 0 or his_rank[j][i] < his_rank[j][his]):
                return True
        return False

    def extend(i: int) -> None:
        if i == h:
            if not blocked():
                stable.append(Matching.from_pairs(
                    (women[w], men[m]) for w, m in enumerate(husband) if m >= 0))
            return
        extend(i + 1)  # leave this woman unmatched
        for j in recognized[i]:
            if wife[j] < 0:
                husband[i], wife[j] = j, i
                extend(i + 1)
                husband[i], wife[j] = -1, -1

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
