"""Brute-force enumeration oracle and its agreement with deferred acceptance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlematch.harness import derive_seed
from circlematch.market import (
    Market,
    Matching,
    average_utility,
    build_market,
    classical_gs,
    is_stable,
    restricted_deferred_acceptance,
)

from oracle import MAX_ORACLE_AGENTS, OracleViolation, enumerate_stable_matchings, man_optimal
from refimpl import full_circle, random_instance

from test_market import PATH_CIRCLE, PATH_MARKET, UNANIMOUS


def test_enumeration_on_the_path_market_is_unique():
    found = enumerate_stable_matchings(PATH_MARKET, PATH_CIRCLE)
    assert [m.pairs for m in found] == [((2, 1),)]


def test_enumeration_finds_both_lattice_ends():
    """First random six-agent market with more than one stable matching
    under complete information: master seed 0 gives exactly two, and the
    proposing side's optimum coincides with the classical result."""
    market = build_market(6, random.Random(derive_seed(0, "market")), "v1")
    found = enumerate_stable_matchings(market, full_circle(6))
    assert sorted(m.pairs for m in found) == [
        ((3, 1), (4, 0), (5, 2)),
        ((3, 2), (4, 0), (5, 1)),
    ]
    for m in found:
        assert average_utility(market, m) == pytest.approx(7.0)
    assert man_optimal(found, market).pairs == ((3, 2), (4, 0), (5, 1))
    assert man_optimal(found, market).pairs == classical_gs(market).pairs


def test_enumeration_results_are_all_stable_and_distinct():
    market = build_market(8, random.Random(derive_seed(3, "market")))
    circle = full_circle(8)
    found = enumerate_stable_matchings(market, circle)
    assert len({m.pairs for m in found}) == len(found)
    for m in found:
        assert is_stable(market, circle, m)


@given(st.integers(0, 250))
@settings(max_examples=40)
def test_da_is_the_man_optimal_stable_matching(seed):
    inst = random_instance(seed, n_pool=(4, 6, 8))
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    stable = enumerate_stable_matchings(inst.market, inst.circle)
    assert matching.pairs in {m.pairs for m in stable}
    assert man_optimal(stable, inst.market).pairs == matching.pairs


def test_enumeration_size_cap():
    market = build_market(MAX_ORACLE_AGENTS + 2,
                          random.Random(derive_seed(1, "market")))
    with pytest.raises(ValueError):
        enumerate_stable_matchings(market, full_circle(market.n))


def test_man_optimal_requires_candidates():
    with pytest.raises(ValueError):
        man_optimal([], UNANIMOUS)


def test_man_optimal_detects_incomparable_sets():
    """Two hand-built partial matchings that each favor a different man
    have no common dominator, which the oracle must flag rather than
    silently pick a winner."""
    first = Matching.from_pairs([(0, 2)])
    second = Matching.from_pairs([(1, 3)])
    with pytest.raises(OracleViolation):
        man_optimal([first, second], UNANIMOUS)
