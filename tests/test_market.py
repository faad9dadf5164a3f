"""Markets, social circles, deferred acceptance and stability checks."""

import contextlib
import dataclasses
import hashlib
import json
import math
import random
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from circlematch import market as market_module
from circlematch.harness import derive_seed, run_cell_full
from circlematch.market import (
    Market,
    Matching,
    average_utility,
    build_market,
    classical_gs,
    find_blocking_pair,
    is_stable,
    market_bytes,
    matching_to_dict,
    restricted_deferred_acceptance,
    _check_permutations,
    _positions_of,
    _rank_dtype,
)
from circlematch.netgen import MODELS, Graph, generate
from circlematch.topology import DistanceMatrix, all_pairs_shortest

from refimpl import (agent_utility, full_circle, local_indices, make_market, market_to_dict,
                     mask, naive_blocking_pair, naive_deferred_acceptance, pair_utility,
                     position, prefers, random_instance, rank_positions, ranking, score,
                     sorted_keys_market, stdlib_market, women_prefs)


# Four agents on a path 0-1-2-3; with dep=1 the ends cannot see each other.
PATH_MARKET = make_market(
    women=(0, 2), men=(1, 3),
    rank={0: (1, 3), 1: (2, 0), 2: (1, 3), 3: (2, 0)},
)
PATH_GRAPH = Graph(4, [(0, 1), (1, 2), (2, 3)])
PATH_DISTANCES = all_pairs_shortest(PATH_GRAPH, 1)
PATH_CIRCLE = PATH_DISTANCES.circle

# Two women, two men, everyone agrees on the ranking.
UNANIMOUS = make_market(
    women=(0, 1), men=(2, 3),
    rank={0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)},
)


# -------------------------------------------------------------------- market

def test_market_normalizes_input():
    m = make_market([1, 0], [3, 2], {0: [2, 3], 1: [3, 2], 2: [0, 1], 3: [1, 0]})
    assert m.women.tolist() == [0, 1]
    assert m.men.tolist() == [2, 3]
    assert women_prefs(m).tolist() == [[0, 1], [1, 0]]
    assert [[position(m, a, b) for b in (0, 1)] for a in (2, 3)] == \
        rank_positions(m.men_prefs).tolist() == [[0, 1], [1, 0]]
    assert ranking(m, 0) == [2, 3]
    assert m.n == 4 and m.half == 2


@pytest.mark.parametrize("women,men,rank", [
    ((0,), (1, 2), {0: (1, 2), 1: (0,), 2: (0,)}),      # unequal sides
    ((0, 1), (1, 2), {}),                               # overlap
    ((0, 1), (2, 4), {}),                               # not a partition
    ((0, 1), (2, 3), {0: (2,), 1: (2, 3), 2: (0, 1), 3: (0, 1)}),  # short list
    ((0, 1), (2, 3), {0: (2, 2), 1: (2, 3), 2: (0, 1), 3: (0, 1)}),  # repeat
    ((0, 1), (2, 3), {0: (2, 9), 1: (2, 3), 2: (0, 1), 3: (0, 1)}),  # unknown id
    ((0, 1), (2, 3), {0: (2, 1), 1: (2, 3), 2: (0, 1), 3: (0, 1)}),  # same side
    ((0, 1), (2, 3), {0: (2, 3), 1: (2, 3), 2: (0, 1)}),  # missing list
    ((0, 1), (2, 3), {0: (2, 3), 1: (2, 3), 2: (0, 1), "x": (0, 1)}),  # bad key
])
def test_market_rejects_malformed(women, men, rank):
    with pytest.raises(ValueError):
        make_market(women, men, rank)


@pytest.mark.parametrize("women,men,women_prefs,men_prefs", [
    ((1, 0), (2, 3), [[0, 1], [0, 1]], [[0, 1], [0, 1]]),  # sides not sorted
    ((0, 1), (2, 3), [[0, 2], [0, 1]], [[0, 1], [0, 1]]),  # entry out of range
    ((0, 1), (2, 3), [[0, -1], [0, 1]], [[0, 1], [0, 1]]),  # negative entry
    ((0, 1), (2, 3), [[0, 1], [0, 1]], [[1, 1], [0, 1]]),  # repeat
    ((0, 1), (2, 3), [[0, 1]], [[0, 1], [0, 1]]),          # missing row
    ((0, 1), (2, 3), [[0.0, 1.0], [0, 1]], [[0, 1], [0, 1]]),  # not integers
    ((0.5, 1), (2, 3), [[0, 1], [0, 1]], [[0, 1], [0, 1]]),  # id not an integer
])
def test_market_rejects_malformed_arrays(women, men, women_prefs, men_prefs):
    with pytest.raises(ValueError):
        Market(women, men, np.array(women_prefs), np.array(men_prefs))


@pytest.mark.parametrize("side", ["woman", "man"])
def test_non_permutation_names_the_first_bad_agent(side):
    # 218 rows to a sort block at h=300, so the bad rows sit in the second block
    h = 300
    rows = np.tile(np.arange(h), (h, 1))
    bad = rows.copy()
    bad[[250, 260], 1] = 0  # two repeats; the first names the agent
    women, men = np.arange(1, 2 * h, 2), np.arange(0, 2 * h, 2)
    prefs = (bad, rows) if side == "woman" else (rows, bad)
    ids = women if side == "woman" else men
    with pytest.raises(ValueError, match=rf"^rank list of {side} {ids[250]} is not a permutation"):
        Market(women, men, *prefs)


@pytest.mark.parametrize("stream", ["v1", "v2"])
@pytest.mark.parametrize("n", [2, 4, 600, 1000])
def test_drawn_rows_pass_the_permutation_check(monkeypatch, stream, n):
    """build_market hands both sides' drawn rows over without sorting them;
    they pass the check ``Market(...)`` runs, at h=300 and h=500 across a
    block boundary, and the market and the rng end state are those of the
    checked build."""
    handed = []
    drawn = Market._drawn.__func__

    def checked(cls, women, men, women_prefs, men_prefs):
        handed.append((women, men, women_prefs, men_prefs))
        return drawn(cls, women, men, women_prefs, men_prefs)

    monkeypatch.setattr(Market, "_drawn", classmethod(checked))
    rng = random.Random(n)
    market = build_market(n, rng, stream)
    [(women, men, drawn_women_prefs, men_prefs)] = handed
    _check_permutations("woman", women, drawn_women_prefs)
    _check_permutations("man", men, men_prefs)
    reference = random.Random(n)
    checked_market = Market(women, men, drawn_women_prefs, men_prefs)
    assert market == checked_market == build_market(n, reference, stream)
    assert rng.getstate() == reference.getstate()


def test_build_market_sorts_no_row_but_the_constructor_does(monkeypatch):
    sorted_sides = []
    monkeypatch.setattr(market_module, "_check_permutations",
                        lambda side, ids, prefs: sorted_sides.append(side))
    market = build_market(40, random.Random(0))
    assert sorted_sides == []
    Market(market.women, market.men, women_prefs(market), market.men_prefs)
    assert sorted_sides == ["woman", "man"]


def test_market_arrays_are_read_only():
    market = build_market(6, random.Random(0))
    with pytest.raises(ValueError):
        market.women_pos[0, 0] = 1
    # a writeable rank array is copied: changing it leaves the market as built
    rows = np.array([[0, 1], [1, 0]], dtype=np.int32)
    market = Market((0, 1), (2, 3), rows, np.array([[0, 1], [0, 1]]))
    rows[0] = (1, 0)
    assert women_prefs(market).tolist() == [[0, 1], [1, 0]]
    assert market.women_pos.tolist() == [[0, 1], [1, 0]]


def test_build_market_structure():
    market = build_market(12, random.Random(3))
    assert len(market.women) == 6 and len(market.men) == 6
    assert sorted(market.women.tolist() + market.men.tolist()) == list(range(12))
    for w in market.women.tolist():
        assert sorted(ranking(market, w)) == market.men.tolist()
    for m in market.men.tolist():
        assert sorted(ranking(market, m)) == market.women.tolist()
    assert np.array_equal(market.women_pos, rank_positions(women_prefs(market)))
    assert (rank_positions(market.men_prefs) >= 0).all()


def test_market_keeps_4h2_bytes_of_int16_ranks():
    market = build_market(2000, random.Random(0))
    h = market.half
    ranks = (market.men_prefs, market.women_pos)
    assert all(a.dtype == np.int16 and not a.flags.writeable for a in ranks)
    # the men's rows are build_market's own block, not a view of a larger buffer
    assert market.men_prefs.base is None
    stored = [getattr(market, f.name) for f in dataclasses.fields(market)]
    assert all(isinstance(a, np.ndarray) for a in stored)
    assert 4 * h * h <= sum(a.nbytes for a in stored) <= 4 * h * h + 32 * market.n


def test_live_bytes_stay_within_4h2_plus_the_circle():
    """After a market and a summary are built, tracemalloc's live bytes stay
    within the men's lists and the women's positions (4h²), the circle
    (n²/8) and 128 KiB for the id arrays; the market's construction peaks
    within 6h² plus 1 MiB, so the men's rows are not copied."""
    n, h = 2000, 1000
    graph = generate("er", n, 4, rng=random.Random(0))
    graph.csr  # the caller's graph, built before the trace
    tracemalloc.start()
    try:
        market = build_market(n, random.Random(0), "v1")
        peak = tracemalloc.get_traced_memory()[1]
        dm = all_pairs_shortest(graph, 3)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert market.half == h and dm.n == n
    assert peak <= market_bytes(n) + 2 ** 20 == 6 * h * h + 2 ** 20
    assert live <= 4 * h * h + n * n // 8 + 2 ** 17


def test_women_prefs_reads_back_the_given_rows():
    rng = np.random.default_rng(1)
    for h in (1, 5, 300):
        rows = np.array([rng.permutation(h) for _ in range(h)])
        given = rows.copy()  # int64 and writeable
        market = Market(np.arange(h), np.arange(h, 2 * h), given,
                        np.array([rng.permutation(h) for _ in range(h)]))
        given[:] = 0  # the market does not read the caller's array again
        assert np.array_equal(women_prefs(market), rows)
        assert market.women_pos.dtype == np.int16 and not market.women_pos.flags.writeable


def test_market_json_is_pinned():
    """The JSON form of a drawn market, women's lists included, hashes as it
    did when the library wrote that form: the draw and the women's inverse
    are unchanged."""
    for n, seed, digest in ((40, 7, "4afe183393d31160"), (2000, 0, "9c9112a89649b411")):
        text = json.dumps(market_to_dict(build_market(n, random.Random(seed), "v1")))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_equality_compares_all_four_lists():
    market = build_market(8, random.Random(2))
    rows = {"women": market.women, "men": market.men,
            "women_prefs": women_prefs(market), "men_prefs": market.men_prefs}
    assert Market(**{k: v.astype(np.int64) for k, v in rows.items()}) == market
    for side in ("women_prefs", "men_prefs"):
        swapped = rows[side].copy()
        swapped[3, [0, 1]] = swapped[3, [1, 0]]
        assert Market(**{**rows, side: swapped}) != market
    assert Market(market.men, market.women, rows["women_prefs"], market.men_prefs) != market


def test_positions_of_scatters_in_row_blocks():
    """Past one block of 2**16 entries the inverse is scattered block by
    block: the same inverse, and at h=3000 a traced peak within 1.1 times
    the h x h output plus 1 MiB, where one scatter of the whole array would
    need an 8h² byte index."""
    rng = np.random.default_rng(0)
    prefs = np.array([rng.permutation(300) for _ in range(300)], dtype=np.int16)  # 2 blocks
    assert np.array_equal(_positions_of(prefs), rank_positions(prefs))
    h = 3000
    prefs = np.add.outer(np.arange(h, dtype=np.int16), np.arange(h, dtype=np.int16)) % h
    tracemalloc.start()
    try:
        pos = _positions_of(prefs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pos.dtype == np.int16 and peak <= 1.1 * pos.nbytes + 2 ** 20
    for i in (0, 1, h - 1):  # row i is the cyclic shift by i
        assert (pos[i][prefs[i]] == np.arange(h)).all()


def test_rank_width_grows_past_int16():
    assert _rank_dtype(2 ** 15 - 1) == np.int16
    assert _rank_dtype(2 ** 15) == np.int32
    assert market_bytes(2 ** 16 - 2) == 3 * (2 ** 15 - 1) ** 2 * 2
    assert market_bytes(2 ** 16) == 3 * 2 ** 30 * 4


def test_build_market_deterministic():
    a = build_market(10, random.Random(77))
    b = build_market(10, random.Random(77))
    assert a == b
    assert a != build_market(10, random.Random(78))


def assert_draws_like_stdlib(n, seed):
    fast, reference = random.Random(seed), random.Random(seed)
    assert build_market(n, fast, "v1") == stdlib_market(n, reference)
    assert fast.getstate() == reference.getstate()


# h = n/2 on and beside powers of two, where getrandbits rejects the most draws
@pytest.mark.parametrize("n", [2, 4, 34, 64, 66, 130, 258])
def test_build_market_draws_the_stdlib_shuffle(n):
    assert_draws_like_stdlib(n, n)


@given(st.integers(1, 40), st.integers(0, 2 ** 64))
def test_build_market_draws_the_stdlib_shuffle_for_any_seed(half, seed):
    assert_draws_like_stdlib(2 * half, seed)


def test_build_market_draws_the_stdlib_shuffle_at_n2000():
    assert_draws_like_stdlib(2000, 6)


# ------------------------------------------------------------ stream v2

def test_v2_market_json_is_pinned():
    for n, seed, digest in ((40, 7, "f9b90718fed0e1c3"), (2000, 0, "7b251a6347c4617f")):
        text = json.dumps(market_to_dict(build_market(n, random.Random(seed))))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n", [2, 4, 40, 600, 1000, 2048, 2050])
def test_v2_draws_row_by_row_across_block_boundaries(n):
    """h=300 and h=500 do not divide a call of 2**16 words (109 and 65 rows
    a call); the draw reads the rng as the row-by-row reference does, to its
    end state. h=1024 and h=1025 lie on either side of the
    prefix pass's size rule."""
    fast, reference = random.Random(n), random.Random(n)
    assert build_market(n, fast) == sorted_keys_market(n, reference)
    assert fast.getstate() == reference.getstate()


@given(st.integers(1, 40), st.integers(0, 2 ** 64))
def test_v2_draws_row_by_row_for_any_seed(half, seed):
    """The genders included, which ``sorted_keys_market`` draws with
    ``rng.sample`` itself."""
    fast, reference = random.Random(seed), random.Random(seed)
    assert build_market(2 * half, fast) == sorted_keys_market(2 * half, reference)
    assert fast.getstate() == reference.getstate()


def test_streams_split_genders_alike():
    for n, seed in ((2, 0), (10, 3), (300, 5)):
        v1, v2 = (build_market(n, random.Random(seed), stream) for stream in ("v1", "v2"))
        assert np.array_equal(v1.women, v2.women) and np.array_equal(v1.men, v2.men)
        assert not np.array_equal(v1.men_prefs, v2.men_prefs) or n == 2


@pytest.mark.parametrize("h, markets, critical", [
    (3, 3000, 20.52),  # chi-square 0.999 quantiles: 5 and 23 degrees of freedom
    (4, 1500, 49.73),
])
def test_v2_rank_rows_are_uniform_permutations(h, markets, critical):
    counts = Counter()
    for seed in range(markets):
        market = build_market(2 * h, random.Random(seed))
        counts.update(map(tuple, market.men_prefs.tolist() + women_prefs(market).tolist()))
    cells = math.factorial(h)
    expected = 2 * h * markets / cells
    assert len(counts) == cells
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < critical


def test_v2_construction_peaks_within_6h2():
    h = 1000
    tracemalloc.start()
    try:
        market = build_market(2 * h, random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert market.men_prefs.base is None
    assert peak <= 6 * h * h + 2 ** 20


# ------------------------------------------- stream v2 through numpy's MT19937

def _started(seed, how):
    """A seeded rng with its twister index where ``how`` leaves it: at the
    end of its state (fresh), 4 words in with ``gauss_next`` set (gauss),
    or 1 word in (word)."""
    rng = random.Random(seed)
    if how == "gauss":
        rng.gauss(0.0, 1.0)
    elif how == "word":
        rng.getrandbits(32)
    return rng


def _randbytes_order(words: np.ndarray) -> bytes:
    """The twister's word pairs, each reversed: the bytes ``randbytes`` reads."""
    return words.reshape(-1, 2)[:, ::-1].tobytes()


# 624 words are one twist of the state; 2**16 + 2 crosses many of them, and
# from the "word" start every pair at a twist straddles it
@pytest.mark.parametrize("count", [2, 622, 624, 626, 2 ** 16 + 2])
@pytest.mark.parametrize("how", ["fresh", "gauss", "word"])
def test_twister_words_are_the_words_of_randbytes(count, how):
    """The twister's words are ``randbytes``' in pairs, each reversed: as
    ``next_uint64`` halves, the high word of each key first."""
    twister, reference = _started(count, how), _started(count, how)
    with market_module._twister_words(twister) as words:
        first, second = words(count), words(4)
    assert first.dtype == np.dtype("<u4") and len(first) == count
    assert _randbytes_order(first) == reference.randbytes(4 * count)
    assert _randbytes_order(second) == reference.randbytes(16)
    assert twister.getstate() == reference.getstate()


def test_the_shared_twister_carries_no_state_between_draws():
    """One MT19937 serves every draw of the process; generators taking turns
    on it each get their own words and end state."""
    rngs = [_started(5, "fresh"), _started(6, "gauss"), _started(5, "fresh")]
    references = [_started(5, "fresh"), _started(6, "gauss"), _started(5, "fresh")]
    for count in (8, 700, 2):
        for rng, reference in zip(rngs, references):
            with market_module._twister_words(rng) as words:
                assert _randbytes_order(words(count)) == reference.randbytes(4 * count)
            assert rng.getstate() == reference.getstate()
    assert market_module._twister()[0] is market_module._twister()[0]


@pytest.fixture
def twister_calls(monkeypatch):
    """The rngs whose draws went through ``_twister_words``, in order."""
    calls, real = [], market_module._twister_words
    monkeypatch.setattr(market_module, "_twister_words",
                        lambda rng: calls.append(rng) or real(rng))
    return calls


@pytest.mark.parametrize("h", [market_module._TWISTER_HALF - 1, market_module._TWISTER_HALF])
def test_v2_draws_row_by_row_on_both_sides_of_the_twister_threshold(h, twister_calls):
    fast, reference = _started(h, "gauss"), _started(h, "gauss")
    assert build_market(2 * h, fast) == sorted_keys_market(2 * h, reference)
    assert fast.getstate() == reference.getstate()
    assert len(twister_calls) == (h >= market_module._TWISTER_HALF)


def test_a_random_subclass_draws_through_its_own_randbytes(twister_calls):
    class Recording(random.Random):
        def randbytes(self, n):
            self.sizes.append(n)
            return super().randbytes(n)

    rng, reference = Recording(0), random.Random(0)
    rng.sizes = []
    assert build_market(2000, rng) == build_market(2000, reference)
    assert rng.getstate() == reference.getstate()
    assert sum(rng.sizes) == 2 * 8 * 1000 * 1000  # no row of either side tied
    assert twister_calls == [reference]


# ------------------------------------------- stream v2's tie rule

def _full_tie(row):
    """Key 1 of a row of words, in ``randbytes`` order, repeats key 0."""
    row[2:4] = row[0:2]


def _prefix_tie(row):
    """Keys 0 and 1 of a row of words, in ``randbytes`` order, share their
    high word; their low words order key 1 first."""
    row[3], row[0], row[2] = row[1], 0xFFFFFFFF, 0


def _crafted(words, read, h, rows, craft):
    """A copy of ``words``, the rng's 32-bit words in ``randbytes`` order from
    word ``read`` on, with ``craft`` applied to each stream row in ``rows``
    (2h words a row, counted across calls) that it holds."""
    words = words.copy()
    for row in rows:
        at = 2 * h * row - read
        if 0 <= at < len(words):
            craft(words[at:at + 2 * h])
    return words


class CraftedRandom(random.Random):
    """A seeded ``random.Random`` whose ``randbytes`` crafts the stream rows
    ``rows`` of h keys, counted from its first call; ``build_market`` reads a
    subclass through ``randbytes`` at every size."""

    def __init__(self, seed, h, rows, craft=_full_tie):
        super().__init__(seed)
        self.h, self.rows, self.craft, self.read = h, rows, craft, 0

    def randbytes(self, n):
        words = np.frombuffer(super().randbytes(n), "<u4")
        words = _crafted(words, self.read, self.h, self.rows, self.craft)
        self.read += len(words)
        return words.tobytes()


def _swapped(words):
    """The words with each pair reversed: the twister's order to ``randbytes``'
    and back."""
    return np.ascontiguousarray(words.reshape(-1, 2)[:, ::-1]).reshape(-1)


def crafted_twister(h, rows, craft=_full_tie):
    """``_twister_words`` with the stream rows ``rows`` crafted as
    ``CraftedRandom`` crafts them."""
    real = market_module._twister_words

    @contextlib.contextmanager
    def twister_words(rng):
        read = 0

        def words(count):
            nonlocal read
            crafted = _crafted(_swapped(real_words(count)), read, h, rows, craft)
            read += count
            return _swapped(crafted)
        with real(rng) as real_words:
            yield words
    return twister_words


@pytest.fixture
def draws(monkeypatch):
    """The blocks each ``_draw_sorted`` call filled."""
    calls, real = [], market_module._draw_sorted

    def recorded(words, blocks, high=1):
        real(words, blocks, high)
        calls.append(blocks)
    monkeypatch.setattr(market_module, "_draw_sorted", recorded)
    return calls


# stream rows to tie, at either end of each side, on both sides at once,
# past the 2h rows a market needs, and inside the rows that replace them
TIED_ROWS = {
    "first": lambda h: [0],
    "last_man": lambda h: [h - 1],
    "first_woman": lambda h: [h],
    "last": lambda h: [2 * h - 1],
    "both_sides": lambda h: [0, 1, h, h + 1],
    "past_the_end": lambda h: [2 * h, 2 * h + 1],
    "in_redraws": lambda h: [2 * h - 1, 2 * h, 2 * h + 1],
}


@pytest.mark.parametrize("tied", TIED_ROWS)
@pytest.mark.parametrize("h", [2, 50, 90, 91, 300, 1000])
def test_v2_drops_a_tied_row_in_stream_order(h, tied, monkeypatch, draws):
    """A row whose 64-bit keys tie is dropped and the next row of the stream
    takes its place, as the row-by-row reference draws it again at once:
    through ``randbytes`` and through the twister, the market, the rng end
    state and each call's blocks are the reference's at any tied rows."""
    rows = TIED_ROWS[tied](h)
    reference = CraftedRandom(h, h, rows)
    expected = sorted_keys_market(2 * h, reference)
    rng = CraftedRandom(h, h, rows)
    assert build_market(2 * h, rng) == expected
    assert rng.getstate() == reference.getstate()
    monkeypatch.setattr(market_module, "_TWISTER_HALF", 1)
    monkeypatch.setattr(market_module, "_twister_words", crafted_twister(h, rows))
    rng = random.Random(h)
    assert build_market(2 * h, rng) == expected
    assert rng.getstate() == reference.getstate()
    assert len(draws) == 2
    for blocks in draws:
        assert Market(expected.women, expected.men, blocks[1], blocks[0]) == expected


@pytest.mark.parametrize("h", [2, 50, 91, 300])
def test_the_call_size_is_not_part_of_the_stream(h, monkeypatch):
    """One row a call, three or the default bound, with ties at both ends of
    each side and in a redraw: the same blocks from the same number of
    words."""
    rows, default = [0, 1, h, 2 * h - 1, 2 * h], market_module._block_rows
    drawn = []
    for per_call in (lambda _: 1, lambda _: 3, default):
        monkeypatch.setattr(market_module, "_block_rows", per_call)
        rng = CraftedRandom(h, h, rows)
        blocks = [np.empty((h, h), dtype=np.int16) for _ in range(2)]
        market_module._draw_sorted(
            lambda count: np.frombuffer(rng.randbytes(4 * count), "<u4"), blocks)
        drawn.append(([block.tolist() for block in blocks], rng.read))
    assert drawn[0] == drawn[1] == drawn[2]
    assert drawn[0][1] == 2 * h * (2 * h + len(rows))


# ------------------------------------------- stream v2's 32-bit prefix pass

@pytest.mark.parametrize("h", [8, 300])
def test_prefix_pass_falls_back_to_the_64_bit_keys(h):
    """A tie of the 32-bit prefixes is ordered by the full 64-bit keys, as
    the pure-Python reference orders it, and no row is drawn again; at h=8
    both blocks are read in one call, at h=300 a few rows at a time."""
    assert market_module._prefix_pass(h)
    rng, reference = (CraftedRandom(h, h, [0], _prefix_tie) for _ in range(2))
    market = build_market(2 * h, rng)
    assert market == sorted_keys_market(2 * h, reference)
    assert rng.getstate() == reference.getstate()
    assert rng.read == 4 * h * h
    row = market.men_prefs[0].tolist()
    assert row.index(1) < row.index(0)


def test_prefix_pass_size_rule():
    """The pass runs while the birthday bound on tied prefixes is at most
    ``_PREFIX_TIE_BOUND``: up to h=1024, where b grows to 11 bits and the bound
    jumps from 0.125 to 0.25."""
    def bound(h):
        bits = max(1, (h - 1).bit_length())
        return h * (h - 1) / 2 ** (33 - bits)

    for h in (1, 2, 3, 50, 1000, 1024, 1025, 2000, 5000, 2 ** 40):
        assert market_module._prefix_pass(h) == (bound(h) <= market_module._PREFIX_TIE_BOUND)
    assert market_module._prefix_pass(1024) and not market_module._prefix_pass(1025)


# ------------------------------------------- stream v2 through either word source

# h=128 is the last size whose two blocks' words fit one call of 2**16 words;
# past it a call's rows straddle the two blocks, except at h=256, whose calls
# of 128 rows end where the women's block begins
SOURCE_SIZES = [1, 2, 50, 63, 64, 90, 91, 128, 129, 256, 257]


@pytest.mark.parametrize("source", ["randbytes", "twister"])
@pytest.mark.parametrize("h", SOURCE_SIZES)
def test_v2_draws_row_by_row_through_either_word_source(h, source, monkeypatch):
    """Whether both blocks are read in one call or a few rows at a time, from
    ``randbytes``' words or the twister's pairs, the market and the rng end
    state are the row-by-row reference's."""
    monkeypatch.setattr(market_module, "_TWISTER_HALF", 1 if source == "twister" else 2 ** 40)
    fast, reference = _started(h, "word"), _started(h, "word")
    assert build_market(2 * h, fast) == sorted_keys_market(2 * h, reference)
    assert fast.getstate() == reference.getstate()


def test_build_market_rejects_unknown_stream():
    with pytest.raises(ValueError, match="preference stream must be one of v1, v2, got 'v3'"):
        build_market(4, random.Random(0), "v3")


def test_build_market_rejects_odd():
    with pytest.raises(ValueError):
        build_market(7, random.Random(0))


def test_score_endpoints_and_midpoint():
    market = build_market(20, random.Random(1))
    w = market.women[0]
    ranked = ranking(market, w)
    assert score(market, w, ranked[0]) == pytest.approx(10.0)
    assert score(market, w, ranked[-1]) == pytest.approx(1.0)
    assert score(market, w, ranked[4]) == pytest.approx(6.0)


def test_score_single_candidate_gets_top_score():
    assert score(UNANIMOUS, 0, 2) == 10.0
    tiny = make_market(women=(0,), men=(1,), rank={0: (1,), 1: (0,)})
    assert score(tiny, 0, 1) == 10.0
    assert score(tiny, 1, 0) == 10.0


@given(st.integers(0, 200))
def test_score_strictly_decreasing_down_the_list(seed):
    market = build_market(8, random.Random(seed))
    agent = market.women[0]
    scores = [score(market, agent, other) for other in ranking(market, agent)]
    assert all(a > b for a, b in zip(scores, scores[1:]))
    assert scores[0] == 10.0 and scores[-1] == 1.0


def test_prefers_follows_rank():
    assert prefers(UNANIMOUS, 0, 2, 3)
    assert not prefers(UNANIMOUS, 0, 3, 2)
    assert not prefers(UNANIMOUS, 0, 2, 2)


# ----------------------------------------------------------------- matchings

def test_matching_rejects_double_booking():
    with pytest.raises(ValueError):
        Matching.from_pairs([(0, 2), (0, 3)])
    with pytest.raises(ValueError):
        Matching.from_pairs([(0, 2), (1, 2)])


def test_matching_lookups():
    m = Matching.from_pairs([(1, 4), (0, 5)])
    assert m.pairs == ((0, 5), (1, 4))
    assert m.by_woman == {0: 5, 1: 4}
    assert m.by_man == {5: 0, 4: 1}
    market = make_market((0, 1, 2), (3, 4, 5), {a: (3, 4, 5) if a < 3 else (0, 1, 2)
                                                for a in range(6)})
    assert m.unmatched_women(market) == [2]
    assert m.unmatched_men(market) == [3]


@pytest.mark.parametrize("check", [average_utility, find_blocking_pair])
def test_a_pair_off_the_market_is_refused(check):
    """A pair of two women, a (man, woman) pair, the last agent's id on the
    other side and an id past n are refused with their messages, by the
    utility and by the blocking-pair scan alike; the last woman paired with
    the last man is read."""
    market = build_market(10, random.Random(4))
    n, women, men = market.n, market.women.tolist(), market.men.tolist()
    circle = full_circle(n)

    def run(pairs):
        matching = Matching.from_pairs(pairs)
        return (average_utility(market, matching) if check is average_utility
                else find_blocking_pair(market, circle, matching))

    # n - 1 is the last woman or the last man: either way one of the last two
    # pairs searches for it past the end of the other side's ids
    for pairs in ([(women[0], women[1])], [(men[0], women[0])], [(women[0], women[-1])],
                  [(men[-1], women[-1])]):
        with pytest.raises(ValueError, match=r"^every matched pair must be a \(woman, man\) "
                                             r"pair of the market$"):
            run(pairs)
    for pairs in ([(women[0], n)], [(n, men[0])]):
        with pytest.raises(ValueError, match="^matching names an agent outside the market$"):
            run(pairs)
    last = [(women[-1], men[-1])]
    assert run(last) == (pair_utility(market, *last[0]) / market.half
                         if check is average_utility
                         else naive_blocking_pair(market, circle, Matching.from_pairs(last)))


# --------------------------------------------------- deferred acceptance, 2x2

def test_unanimous_market_gives_first_woman_the_best_man():
    matching = classical_gs(UNANIMOUS)
    assert matching.pairs == ((0, 2), (1, 3))
    assert is_stable(UNANIMOUS, full_circle(4), matching)


def test_swapped_assignment_is_blocked():
    swapped = Matching.from_pairs([(0, 3), (1, 2)])
    assert find_blocking_pair(UNANIMOUS, full_circle(4), swapped) == (0, 2)
    assert not is_stable(UNANIMOUS, full_circle(4), swapped)


# --------------------------------------------------- deferred acceptance, path

def test_path_market_leaves_far_ends_unmatched():
    matching = restricted_deferred_acceptance(PATH_MARKET, PATH_CIRCLE)
    assert matching.pairs == ((2, 1),)
    assert matching.unmatched_women(PATH_MARKET) == [0]
    assert matching.unmatched_men(PATH_MARKET) == [3]
    assert is_stable(PATH_MARKET, PATH_CIRCLE, matching)


def test_path_market_utilities():
    matching = restricted_deferred_acceptance(PATH_MARKET, PATH_CIRCLE)
    assert pair_utility(PATH_MARKET, 2, 1) == pytest.approx(10.0)
    assert average_utility(PATH_MARKET, matching) == pytest.approx(5.0)
    assert agent_utility(PATH_MARKET, matching, 0) == 0.0
    assert agent_utility(PATH_MARKET, matching, 2) == pytest.approx(10.0)


def test_path_market_json_payload():
    matching = restricted_deferred_acceptance(PATH_MARKET, PATH_CIRCLE)
    payload = matching_to_dict(PATH_MARKET, PATH_DISTANCES, matching)
    assert payload == {
        "pairs": [{"woman": 2, "man": 1, "distance": 1, "pair_utility": 10.0}],
        "unmatched_women": [0],
        "unmatched_men": [3],
        "average_utility": 5.0,
    }
    json.dumps(payload)  # must be serializable as-is


@pytest.mark.parametrize("circle_n", [40, 10])
def test_a_circle_of_another_size_is_refused(circle_n):
    """A 40-node circle once matched 10 pairs of a 20-agent market, and the
    scan found that matching stable."""
    market = build_market(20, random.Random(0))
    matching = restricted_deferred_acceptance(market, full_circle(20))
    message = f"^a social circle of {circle_n} nodes does not fit a market of 20 agents$"
    with pytest.raises(ValueError, match=message):
        restricted_deferred_acceptance(market, full_circle(circle_n))
    with pytest.raises(ValueError, match=message):
        find_blocking_pair(market, full_circle(circle_n), matching)
    with pytest.raises(ValueError, match=message):
        is_stable(market, full_circle(circle_n), matching)


def test_utility_error_cases():
    matching = restricted_deferred_acceptance(PATH_MARKET, PATH_CIRCLE)
    with pytest.raises(ValueError):
        agent_utility(PATH_MARKET, matching, 99)


# ----------------------------------------------------------------- properties

@given(st.integers(0, 400))
def test_da_output_is_stable(seed):
    inst = random_instance(seed)
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    assert is_stable(inst.market, inst.circle, matching)


@given(st.integers(0, 400))
def test_da_matches_only_recognized_pairs(seed):
    inst = random_instance(seed)
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    for w, m in matching.pairs:
        assert inst.circle.contains(w, m)


@given(st.integers(0, 10 ** 6), st.sampled_from(MODELS), st.sampled_from((1, 2, 3, 4)))
def test_da_matches_naive_reference(seed, model, dep):
    inst = random_instance(seed, models=(model,), dep_pool=(dep,))
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    assert matching.pairs == naive_deferred_acceptance(inst.market, inst.circle).pairs


@pytest.mark.parametrize("seed", range(4))
def test_da_matches_naive_reference_at_n200(seed):
    inst = random_instance(seed, n_pool=(200,), models=(MODELS[seed],))
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    assert matching.pairs == naive_deferred_acceptance(inst.market, inst.circle).pairs
    assert find_blocking_pair(inst.market, inst.circle, matching) is None


@pytest.mark.parametrize("model", ["er", "ba"])
def test_candidates_gather_across_row_blocks_at_n600(model):
    """h=300 takes two row blocks (218 rows, then 82): the candidate lists
    equal a dense per-row read of the mask, and DA the naive reference."""
    market = build_market(600, random.Random(6))
    circle = all_pairs_shortest(generate(model, 600, 4, rng=random.Random(7)), 3).circle
    known = mask(circle, market.men, market.women)
    assert 0 < known.sum() < known.size / 2
    bounds, women, her_rank, his_rank = market_module._candidates(market, circle)
    assert all(a.dtype == np.int16 for a in (women, her_rank, his_rank))
    assert bounds[0] == 0 and bounds[-1] == len(women) == known.sum()
    women_pos, known_rows = market.women_pos.tolist(), known.tolist()
    for j, row in enumerate(market.men_prefs.tolist()):
        entries = slice(bounds[j], bounds[j + 1])
        listed = [(r, i) for r, i in enumerate(row) if known_rows[j][i]]
        assert women[entries].tolist() == [i for _, i in listed]
        assert his_rank[entries].tolist() == [r for r, _ in listed]
        assert her_rank[entries].tolist() == [women_pos[i][j] for _, i in listed]
    matching = restricted_deferred_acceptance(market, circle)
    assert matching.pairs == naive_deferred_acceptance(market, circle).pairs


@pytest.mark.parametrize("n", [600, 2000])
def test_candidates_peak_within_the_kept_structure_and_one_block(n):
    """On a circle of every pair, the worst case, the candidate build's
    traced peak stays within ``candidates_bytes``: the three 2-byte rank
    entries a pair it keeps, the bounds and one row block's transients, with
    no transient of a byte or more a pair."""
    h = n // 2
    market, circle = build_market(n, random.Random(0)), full_circle(n)
    tracemalloc.start()
    try:
        bounds, *entries = market_module._candidates(market, circle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bounds[-1] == h * h and sum(a.nbytes for a in entries) == 6 * h * h
    assert peak <= market_module.candidates_bytes(n) <= 6 * h * h + 8 * (h + 1) + 2 ** 22


def _count_candidates(monkeypatch) -> list:
    """Patches ``market._candidates`` to record each build; returns the record."""
    calls, build = [], market_module._candidates
    monkeypatch.setattr(market_module, "_candidates",
                        lambda market, circle: calls.append(circle) or build(market, circle))
    return calls


@pytest.mark.parametrize("model", MODELS)
def test_a_cell_builds_its_candidates_once_gate_included(model, monkeypatch):
    calls = _count_candidates(monkeypatch)
    run = run_cell_full(model, 200, 4, seed=5)
    assert is_stable(run.market, run.circle, run.matching)
    assert find_blocking_pair(run.market, run.circle, run.matching) is None
    assert calls == [run.circle]


@pytest.mark.parametrize("seed", range(4))
def test_da_matching_checked_elsewhere_rebuilds_and_agrees_with_reference(seed, monkeypatch):
    """Against an equal circle of another object, a wider circle, or an equal
    twin market, the scan builds the structure anew and finds the
    reference's first blocking pair."""
    inst = random_instance(seed, n_pool=(40, 60), dep_pool=(1,), models=(MODELS[seed],))
    market, circle = inst.market, inst.circle
    matching = restricted_deferred_acceptance(market, circle)
    twin = Market(market.women, market.men, women_prefs(market), market.men_prefs)
    copy = dataclasses.replace(circle, bits=circle.bits.copy())
    wider = all_pairs_shortest(inst.graph, 3).circle
    calls = _count_candidates(monkeypatch)
    found = [find_blocking_pair(on, other, matching)
             for on, other in ((market, copy), (market, wider), (twin, circle), (twin, wider))]
    assert calls == [copy, wider, circle, wider]
    assert found[0] is found[2] is None and found[1] == found[3] is not None
    assert found[1] == naive_blocking_pair(market, wider, matching)
    assert found[3] == naive_blocking_pair(twin, wider, matching)


@given(st.integers(0, 200))
def test_full_circle_reduces_to_classical(seed):
    market = build_market(random.Random(seed).choice((4, 6, 8, 10)),
                          random.Random(derive_seed(seed, "market")))
    restricted = restricted_deferred_acceptance(market, full_circle(market.n))
    assert restricted.pairs == classical_gs(market).pairs


@given(st.integers(0, 150))
def test_da_result_ignores_proposal_order(seed):
    """The reference, with free men queued in any order, gives the
    library's matching."""
    inst = random_instance(seed, n_pool=(4, 6, 8, 10, 12))
    baseline = restricted_deferred_acceptance(inst.market, inst.circle)
    order_rng = random.Random(seed)
    for _ in range(3):
        order = inst.market.men.tolist()
        order_rng.shuffle(order)
        shuffled = naive_deferred_acceptance(inst.market, inst.circle, order)
        assert shuffled.pairs == baseline.pairs


@given(st.integers(0, 300))
def test_average_utility_equals_mean_agent_utility(seed):
    inst = random_instance(seed)
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    per_agent = statistics.fmean(
        agent_utility(inst.market, matching, a) for a in range(inst.market.n))
    assert average_utility(inst.market, matching) == pytest.approx(per_agent)
    # bit for bit the sum of pair utilities in pair order
    total = sum(pair_utility(inst.market, w, m) for w, m in matching.pairs)
    assert average_utility(inst.market, matching) == total / inst.market.half
    # and the sum of scores of ranks read off both sides' inverses
    market, h = inst.market, inst.market.half
    women_pos, men_pos = rank_positions(women_prefs(market)), rank_positions(market.men_prefs)
    local = local_indices(market)

    def score_of(r):
        return 10.0 if h == 1 else 1.0 + 9.0 * (h - 1 - r) / (h - 1)

    total = sum((score_of(int(women_pos[local[w], local[m]]))
                 + score_of(int(men_pos[local[m], local[w]]))) / 2.0 for w, m in matching.pairs)
    assert average_utility(market, matching) == total / h


@pytest.mark.parametrize("n", [20, 40, 60, 80, 100, 2000])
@pytest.mark.parametrize("model", MODELS)
def test_utility_read_off_da_is_the_same_float(model, n):
    """A cell's utility, read at the entries DA left on its matching, is the
    float the rank search gives for the same pairs, and so is the ``match``
    JSON's."""
    k = 2 if model in ("ncn", "ws") else 4
    run = run_cell_full(model, n, k, seed=n)
    market, matching = run.market, run.matching
    assert matching._da[0] is market and matching._da[1] is run.circle
    searched = Matching(matching.pairs)
    assert searched._da is None and searched == matching
    assert run.result.average_utility == average_utility(market, searched)
    assert average_utility(market, matching) == average_utility(market, searched)
    assert json.dumps(matching_to_dict(market, run.dm, matching)) == \
        json.dumps(matching_to_dict(market, run.dm, searched))
    # another market, though equal, is searched and not read off DA
    twin = Market(market.women, market.men, women_prefs(market), market.men_prefs)
    assert twin == market
    poisoned = Matching(matching.pairs)
    object.__setattr__(poisoned, "_da", (market, run.circle, None, None))
    with pytest.raises(TypeError):
        average_utility(market, poisoned)
    assert average_utility(twin, poisoned) == average_utility(market, searched)
    assert average_utility(twin, matching) == average_utility(market, searched)


@given(st.integers(1, 20), st.integers(0, 2 ** 32))
def test_position_reads_both_sides_inverse(half, seed):
    market = build_market(2 * half, random.Random(seed))
    women, men = market.women.tolist(), market.men.tolist()
    for ids, other, prefs in ((women, men, women_prefs(market)), (men, women, market.men_prefs)):
        assert [[position(market, a, b) for b in other] for a in ids] == \
            rank_positions(prefs).tolist()


# Seed 4 draws k=226 and dep=1 at n=400: each circle holds about half of the
# 200 x 200 pairs, so a scrambled matching leaves many pairs blocking.
@given(st.integers(0, 200), st.just((4, 6, 8)), st.just(MODELS), st.just(False))
@example(4, (400,), ("er",), False)
@example(4, (400,), ("er",), True)
@example(4, (400,), ("ba",), False)
@example(4, (400,), ("ba",), True)
def test_blocking_pair_reports_mutual_gain(seed, n_pool, models, deferred):
    """Whenever a blocking pair is reported against an arbitrary matching (a
    scrambled partial one, or DA's), both members must strictly gain and it
    is the reference's first; whenever none is reported the stability
    predicate must agree."""
    inst = random_instance(seed, n_pool=n_pool, models=models)
    scrambled_rng = random.Random(seed)
    women = list(inst.market.women)
    men = list(inst.market.men)
    scrambled_rng.shuffle(men)
    keep = scrambled_rng.randrange(len(women) + 1)
    arbitrary = (restricted_deferred_acceptance(inst.market, inst.circle) if deferred
                 else Matching.from_pairs(list(zip(women, men))[:keep]))
    witness = find_blocking_pair(inst.market, inst.circle, arbitrary)
    assert witness == naive_blocking_pair(inst.market, inst.circle, arbitrary)
    if witness is None:
        assert is_stable(inst.market, inst.circle, arbitrary)
    else:
        w, m = witness
        assert inst.circle.contains(w, m)
        current_w = arbitrary.by_woman.get(w)
        current_m = arbitrary.by_man.get(m)
        assert current_w is None or prefers(inst.market, w, m, current_w)
        assert current_m is None or prefers(inst.market, m, w, current_m)


# -------------------------------------------------------------- serialization

def test_matching_to_dict_reads_distances_without_a_dense_matrix(monkeypatch):
    inst = random_instance(4, n_pool=(40,), dep_pool=(3,), models=("er",))
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    expected = [inst.dm.dist[w, m] for w, m in matching.pairs]

    def refuse(summary):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(DistanceMatrix, "dist", property(refuse))
    payload = matching_to_dict(inst.market, inst.dm, matching)
    assert payload["pairs"]
    assert [p["distance"] for p in payload["pairs"]] == expected
    assert [p["pair_utility"] for p in payload["pairs"]] == [
        pair_utility(inst.market, w, m) for w, m in matching.pairs]


@given(st.integers(0, 200))
def test_matching_to_dict_average_is_average_utility(seed):
    """One pass of pair utilities gives the per-pair fields and, summed in
    pair order over h, the float ``average_utility`` returns."""
    inst = random_instance(seed)
    matching = restricted_deferred_acceptance(inst.market, inst.circle)
    payload = matching_to_dict(inst.market, inst.dm, matching)
    assert payload["average_utility"] == average_utility(inst.market, matching)
    assert [p["distance"] for p in payload["pairs"]] == [
        inst.dm.dist[w, m] for w, m in matching.pairs]


def test_circle_rejects_bad_depth():
    with pytest.raises(ValueError):
        all_pairs_shortest(PATH_GRAPH, 0)
