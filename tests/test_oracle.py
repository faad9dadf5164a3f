"""Brute-force enumeration oracle and its agreement with deferred acceptance."""

import itertools
import random

import numpy as np
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

from circlematch.topology import SocialCircle

from oracle import MAX_ORACLE_AGENTS, OracleViolation, enumerate_stable_matchings, man_optimal
from refimpl import full_circle, make_market, naive_blocking_pair, pack, position, random_instance

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


# ------------------------------------- restricted DA against complete information
#
# M_r is restricted deferred acceptance's matching and M* classical_gs's.
# Lemma A: when every pair of M* lies in the circle, every man weakly prefers
# M_r and every woman weakly prefers M*. Lemma B: M_r == M* exactly when
# every pair of M* lies in the circle and M_r matches everyone with no
# blocking pair under complete information.


def _circle(known: np.ndarray) -> SocialCircle:
    """The circle of symmetric boolean rows ``known``, diagonal set."""
    known = known | known.T | np.eye(len(known), dtype=bool)
    return SocialCircle(len(known), 1, pack(known))


def _ranked_above(market, man: int, woman: int) -> list[int]:
    """The women ``man`` ranks above ``woman``, best first."""
    ranked = market.women[market.men_prefs[market.men.tolist().index(man)]].tolist()
    return ranked[:ranked.index(woman)]


def _rotated(market, complete: Matching, rng: random.Random) -> Matching:
    """M* with a random cycle of men each moved to the next one's M* partner,
    whom he ranks above his own; M* itself when no such cycle exists. Men
    whom no cycle can reach are peeled first, so the walk that seeks the
    cycle never stops."""
    ahead = {m: {complete.by_woman[w] for w in _ranked_above(market, m, complete.by_man[m])}
             for m in market.men.tolist()}
    alive = set(ahead)
    while dead := {m for m in alive if not ahead[m] & alive}:
        alive -= dead
    if not alive:
        return complete
    walk = [rng.choice(sorted(alive))]
    while (man := rng.choice(sorted(ahead[walk[-1]] & alive))) not in walk:
        walk.append(man)
    cycle = walk[walk.index(man):]
    partner = dict(complete.by_man)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        partner[a] = complete.by_man[b]
    return Matching.from_pairs((w, m) for m, w in partner.items())


@st.composite
def lemma_instances(draw, classical_in_circle=None):
    """A drawn market of n = 4-16 agents, its M* and an arbitrary symmetric
    circle that holds M*'s pairs when ``classical_in_circle`` is True
    (drawn when None). Such a circle may also hold a rotation M' of M*
    (``_rotated``) and lose every pair that blocks M' under complete
    information, each one a pair its man ranks above his M* partner. Then M'
    is stable under the circle, and restricted DA gives the men of the
    rotation more than M* does. Only a market whose M* has a rotation can
    have M_r != M* under such a circle, so that draw takes the first of up
    to 30 markets that has one: none does at n=4, and about a third at n=16."""
    n = draw(st.sampled_from(range(4, 17, 2)))
    market = build_market(n, random.Random(draw(st.integers(0, 2 ** 32))))
    complete = classical_gs(market)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from((0.25, 0.5, 0.75, 0.9, 1.0)))
    known = np.triu([[rng.random() < density for _ in range(n)] for _ in range(n)], 1)
    if classical_in_circle is None:
        classical_in_circle = draw(st.booleans())
    if classical_in_circle:
        rotated = complete
        if draw(st.booleans()):
            rotated = _rotated(market, complete, rng)
            for _ in range(30):
                if rotated is not complete:
                    break
                market = build_market(n, random.Random(rng.getrandbits(32)))
                complete = classical_gs(market)
                rotated = _rotated(market, complete, rng)
        for w, m in complete.pairs + rotated.pairs:
            known[w, m] = True
        for w, m in itertools.product(market.women.tolist(), market.men.tolist()):
            if (position(market, m, w) < position(market, m, rotated.by_man[m])
                    and position(market, w, m) < position(market, w, rotated.by_woman[w])):
                known[w, m] = known[m, w] = False
    return market, _circle(known), complete


def _conditions(market, circle, restricted, complete) -> tuple[bool, bool]:
    """Lemma B's two conditions: every pair of M* lies in the circle; M_r
    matches everyone and has no blocking pair under complete information."""
    return (all(circle.contains(w, m) for w, m in complete.pairs),
            len(restricted.pairs) == market.half
            and naive_blocking_pair(market, full_circle(market.n), restricted) is None)


@given(lemma_instances())
@settings(max_examples=200)
def test_restricted_da_is_classical_exactly_when_both_conditions_hold(instance):
    market, circle, complete = instance
    restricted = restricted_deferred_acceptance(market, circle)
    assert (restricted.pairs == complete.pairs) == all(
        _conditions(market, circle, restricted, complete))


@given(lemma_instances(classical_in_circle=True))
def test_a_circle_holding_the_classical_pairs_favors_men(instance):
    """Lemma A; up to the oracle's cap, M* is also stable under the circle,
    and M_r is the men's optimum of the circle's stable set, which a circle
    holding a rotation of M* makes differ from M*."""
    market, circle, complete = instance
    restricted = restricted_deferred_acceptance(market, circle)
    assert len(restricted.pairs) == market.half
    for w, m in restricted.pairs:
        assert position(market, m, w) <= position(market, m, complete.by_man[m])
        assert position(market, w, complete.by_woman[w]) <= position(market, w, m)
    if market.n <= MAX_ORACLE_AGENTS:
        stable = enumerate_stable_matchings(market, circle)
        assert complete.pairs in {m.pairs for m in stable}
        assert man_optimal(stable, market).pairs == restricted.pairs


def _lemma_example(n: int, rank: dict, unknown: list) -> tuple:
    """Women at even ids, men at odd ones, rank lists ``rank``, and the circle
    of every pair but ``unknown``."""
    known = np.ones((n, n), dtype=bool)
    for a, b in unknown:
        known[a, b] = known[b, a] = False
    return make_market(range(0, n, 2), range(1, n, 2), rank), _circle(known)


def test_either_condition_alone_leaves_restricted_da_off_classical():
    # M*'s pairs lie in the circle, but M_r is blocked by (0, 3), which it lacks
    market, circle = _lemma_example(6, {0: [5, 3, 1], 1: [0, 4, 2], 2: [3, 5, 1],
                                        3: [0, 2, 4], 4: [1, 5, 3], 5: [4, 0, 2]},
                                    [(0, 3), (2, 1), (4, 3)])
    restricted, complete = restricted_deferred_acceptance(market, circle), classical_gs(market)
    assert complete.pairs == ((0, 5), (2, 3), (4, 1))
    assert restricted.pairs == ((0, 1), (2, 3), (4, 5))
    assert naive_blocking_pair(market, full_circle(6), restricted) == (0, 3)
    assert _conditions(market, circle, restricted, complete) == (True, False)
    # M_r is the women's optimum, stable under complete information, but the
    # circle lacks M*'s pair (2, 3)
    market, circle = _lemma_example(4, {0: [3, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0]},
                                    [(2, 3)])
    restricted, complete = restricted_deferred_acceptance(market, circle), classical_gs(market)
    assert complete.pairs == ((0, 1), (2, 3))
    assert restricted.pairs == ((0, 3), (2, 1))
    assert _conditions(market, circle, restricted, complete) == (False, True)
