"""Two-sided matching market with network-restricted acquaintance.

Agents sit on the nodes of a graph and are split into equal sets of women
and men. Each agent holds a strict ranking over the entire opposite side;
a score in [1, 10] is a fixed decreasing function of rank position and does
not depend on any network. A ``topology.SocialCircle`` limits who can
actually be proposed to: only pairs within graph distance ``dep`` recognize
each other, so deferred acceptance may leave agents unmatched even in a
balanced market.

Preferences are held in side-local form: an agent's local index is its
position in the sorted id array of its side. A market keeps two h x h
arrays, 2-byte entries while h < 2**15: the men's rank lists over the
women's local indices, and the women's rank position of every man, the
inverse of their rank lists. Agent ids appear only at the boundary: in the
constructor's id arrays and in matchings.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np

from .netgen import sample_range
from .topology import DistanceMatrix, SocialCircle, _unpack

def _rank_dtype(h: int) -> np.dtype:
    """Rank entries among h candidates take 2 bytes while h fits in int16, else 4."""
    return np.dtype("<i2" if h < 2 ** 15 else "<i4")


def market_bytes(n: int) -> int:
    """Peak bytes of the rank arrays while ``build_market(n)`` builds a market:
    the two drawn (h, h) blocks plus the women's positions inverted from one."""
    h = n // 2
    return 3 * h * h * _rank_dtype(h).itemsize


def candidates_bytes(n: int) -> int:
    """Peak bytes of ``_candidates`` on a circle of all h² pairs, its worst
    case: the structure it keeps, three rank entries a pair and the row
    bounds, plus one row block's transients at 40 bytes an entry (33 traced
    at h=1000 and h=3000). The count before them holds about h²/2 bytes."""
    h = n // 2
    return 3 * _rank_dtype(h).itemsize * h * h + 8 * (h + 1) + 40 * h * _block_rows(h)


def _block_rows(h: int) -> int:
    """Rows of h entries in a row block: as many as fit 2**16 entries, so that
    a block's temporaries stay small at any size, and at least one."""
    return max(1, 2 ** 16 // (h or 1))


def _row_blocks(prefs: np.ndarray):
    """(first row, block) over the rows of h x h ``prefs``, ``_block_rows(h)``
    rows a block."""
    rows = _block_rows(len(prefs))
    return ((start, prefs[start:start + rows]) for start in range(0, len(prefs), rows))


def _positions_of(prefs: np.ndarray) -> np.ndarray:
    """Inverse of h x h rank lists, each a permutation of 0..h-1, scattered
    one row block at a time."""
    h = len(prefs)
    pos, ranks = np.empty(h * h, dtype=prefs.dtype), np.arange(h, dtype=prefs.dtype)
    for start, block in _row_blocks(prefs):
        pos[np.arange(start * h, start * h + block.size, h)[:, None] + block] = ranks
    return pos.reshape(h, h)


def _check_permutations(side: str, ids: np.ndarray, prefs: np.ndarray) -> None:
    """Raises ValueError naming the first agent of ``ids`` whose row of h x h
    ``prefs`` (entries in 0..h-1) is not a permutation of 0..h-1; sorts one
    row block at a time."""
    ranks = np.arange(len(prefs), dtype=prefs.dtype)
    for start, block in _row_blocks(prefs):
        wrong = np.sort(block, axis=1) != ranks
        if wrong.any():
            raise ValueError(f"rank list of {side} {ids[start + wrong.any(axis=1).argmax()]} "
                             "is not a permutation of the other side")


def _score(h: int, r):
    """Score of rank position ``r`` (a number or an array) among h candidates:
    10 for the favorite down to 1 for the last, linear in r."""
    if h == 1:
        return 10.0 + 0 * r  # the one candidate is the favorite
    return 1.0 + 9.0 * (h - 1 - r) / (h - 1)


def _validated(women, men, women_prefs, men_prefs) -> tuple[np.ndarray, ...]:
    """The arguments of ``Market(...)``, checked: the id arrays as ``intp``
    copies, the rank lists at rank width, the men's copied unless read-only,
    so that no caller can change a validated market.

    Raises:
        ValueError: unless the sides are equally many integer ids, sorted,
            that partition 0..n-1, and every rank list is a permutation of
            the other side's local indices.
    """
    women, men = np.asarray(women), np.asarray(men)
    if women.ndim != 1 or women.shape != men.shape:
        raise ValueError("women and men must be equally many")
    h = len(women)
    sides = np.stack((women, men))
    if h and sides.dtype.kind not in "iu":
        raise ValueError("agent ids must be integers")
    sides = sides.astype(np.intp)
    if not np.array_equal(np.sort(sides, axis=None), np.arange(2 * h)):
        raise ValueError("women and men must partition ids 0..n-1")
    if (np.diff(sides, axis=1) < 0).any():
        raise ValueError("women and men must be listed in increasing id order")
    women_prefs, men_prefs = np.asarray(women_prefs), np.asarray(men_prefs)
    if women_prefs.shape != (h, h) or men_prefs.shape != (h, h):
        raise ValueError(f"every agent must rank all {h} agents of the other side")
    for prefs in (women_prefs, men_prefs):
        if prefs.dtype.kind not in "iu" or (h and (prefs.min() < 0 or prefs.max() >= h)):
            raise ValueError("a rank list names an agent outside the other side")
    # The women's lists are read only to invert them.
    women_prefs = women_prefs.astype(_rank_dtype(h), copy=False)
    men_prefs = np.array(men_prefs, dtype=_rank_dtype(h),
                         copy=True if men_prefs.flags.writeable else None)
    _check_permutations("woman", sides[0], women_prefs)
    _check_permutations("man", sides[1], men_prefs)
    return sides[0], sides[1], women_prefs, men_prefs


@dataclass(frozen=True, eq=False, init=False)
class Market:
    """Balanced bipartition of agents 0..n-1 with strict mutual rankings.

    ``Market(women, men, women_prefs, men_prefs)``: ``women`` and ``men``
    are the sorted ids of each side. Row i of ``women_prefs`` is the i-th
    woman's rank list, best first, as local indices into ``men``;
    ``men_prefs`` likewise. Construction validates that the sides are equal,
    sorted and partition the id space, and that every rank list is a
    permutation of the other side. A market is its ids, ``men_prefs`` and
    the women's position array ``women_pos`` (``women_pos[i, j]`` is woman
    i's rank of man j), which both constructors invert from the women's
    lists and which replaces them. ``build_market`` assembles the market it
    drew without the checks, which its draw meets by construction.
    """

    women: np.ndarray
    men: np.ndarray
    men_prefs: np.ndarray
    women_pos: np.ndarray = field(repr=False)

    def __init__(self, women, men, women_prefs, men_prefs):
        self._assemble(*_validated(women, men, women_prefs, men_prefs))

    @classmethod
    def _drawn(cls, women, men, women_prefs, men_prefs) -> Market:
        """The market of the rank lists ``build_market`` drew, which meet
        every check of ``Market(...)`` by construction: sorted ``intp`` id
        arrays that partition 0..n-1 and each side's h x h block, of rank
        width, whose rows are permutations. Assembled unchecked."""
        market = cls.__new__(cls)
        market._assemble(women, men, women_prefs, men_prefs)
        return market

    def _assemble(self, women, men, women_prefs, men_prefs) -> None:
        """Sets the fields, inverting the women's lists into ``women_pos``;
        every field is read-only."""
        women_pos = _positions_of(women_prefs)
        for array in (women, men, men_prefs, women_pos):
            array.flags.writeable = False
        for name, value in (("women", women), ("men", men),
                            ("men_prefs", men_prefs), ("women_pos", women_pos)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Market):
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a))
                   for a in ("women", "men", "women_pos", "men_prefs"))

    @property
    def n(self) -> int:
        return 2 * len(self.women)

    @property
    def half(self) -> int:
        return len(self.women)


STREAMS = ("v1", "v2")  # how build_market draws rank lists from its rng
DEFAULT_STREAM = "v2"
# From this many agents a side, v2 reads its words through numpy's MT19937
# (``_twister_words``), whose fixed cost of about 0.08 ms (moving the state
# both ways) the faster words repay from about n=116 on (``build_market``
# through either source, interleaved medians of 15 runs, 2-core VM: twister
# over ``randbytes`` 1.14 at n=100, 1.02 at n=112, 0.95-0.99 at n=116, 0.88
# at n=128); the paper's sizes (n <= 100) never load ``numpy.random``.
_TWISTER_HALF = 58
# ``_draw_sorted`` sorts on 32-bit prefixes first while the birthday bound on
# a row's chance of tied prefixes is at most this. Against the 64-bit sort
# alone (best of 7, 2-core VM) the pass saved 16% at h=1000 (bound 0.12) and
# 5% at h=1100 (0.29), and cost 1-13% from h=1400 (0.47) to h=2048 (1.0).
_PREFIX_TIE_BOUND = 0.25
_NO_ROWS = np.empty(0, dtype=np.intp)


def check_stream(stream: str) -> None:
    """Raise ValueError unless ``stream`` names a preference stream."""
    if stream not in STREAMS:
        raise ValueError(f"preference stream must be one of {', '.join(STREAMS)}, got {stream!r}")


def _draw_shuffled(rng: random.Random, blocks: list[np.ndarray], is_woman: np.ndarray) -> None:
    """Stream v1: one shuffle per agent in id order, into its row of its side's
    block (``blocks[1]`` for women), bit for bit as ``rng.shuffle`` would,
    through ``rng.getrandbits``, the primitive ``Random.shuffle`` uses."""
    h = len(blocks[0])
    itemsize = blocks[0].itemsize
    width = itemsize * h  # bytes in a rank row
    offsets = np.empty(len(is_woman), dtype=np.intp)  # byte offset of each agent's row
    offsets[is_woman] = offsets[~is_woman] = np.arange(0, h * width, width)
    # A shuffle's permutation does not depend on what the list holds, so the
    # little-endian local indices it permutes give the rank lists ids would,
    # and a joined row is its rank row.
    outs, getrandbits = [memoryview(block).cast("B") for block in blocks], rng.getrandbits
    base = [j.to_bytes(itemsize, "little") for j in range(h)]
    steps = [(i, (i + 1).bit_length()) for i in range(h - 1, 0, -1)]
    for woman, start in zip(is_woman.tolist(), offsets.tolist()):
        row = base.copy()
        for i, k in steps:  # j uniform in 0..i, drawn as Random._randbelow(i + 1) does
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            row[i], row[j] = row[j], row[i]
        outs[woman][start:start + width] = b"".join(row)


def _sorted_ties(keys: np.ndarray, low) -> np.ndarray:
    """Sorts each row of ``keys`` in place; the indices of the rows in which
    two keys agree above their low bits ``low``."""
    keys.sort(axis=1)
    close = (keys[:, 1:] ^ keys[:, :-1]) <= low
    return np.flatnonzero(close.any(axis=1)) if close.any() else _NO_ROWS


def _prefix_pass(h: int) -> bool:
    """Whether ``_draw_sorted`` sorts rows of h keys on 32-bit prefixes first:
    while the birthday bound on a row's chance that two of its 32 - b random
    prefix bits tie, h(h - 1) / 2**(33 - b), is at most ``_PREFIX_TIE_BOUND``."""
    bits = max(1, (h - 1).bit_length())
    return h * (h - 1) <= _PREFIX_TIE_BOUND * 2 ** (33 - bits)


def _keys64(drawn: np.ndarray, high: int) -> np.ndarray:
    """The 64-bit keys of contiguous word pairs ``drawn``, a view where
    ``high``, the index of each key's high word within its pair, is 1."""
    keys = drawn.view("<u8")
    return keys if high else keys << np.uint64(32) | keys >> np.uint64(32)


@lru_cache(maxsize=16)
def _key_parts(h: int) -> tuple:
    """For rows of h keys: the mask of their low b bits as a 32-bit and a
    64-bit word, and the columns 0..h-1 in 32-bit and 64-bit words."""
    low = (1 << max(1, (h - 1).bit_length())) - 1
    cols32, cols64 = np.arange(h, dtype="<u4"), np.arange(h, dtype="<u8")
    cols32.flags.writeable = cols64.flags.writeable = False
    return np.uint32(low), np.uint64(low), cols32, cols64


def _rank_rows(drawn: np.ndarray, h: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank rows of the rows of h keys in ``drawn`` (2h words a row, each
    key a pair of words, its high word at ``high``), and the indices of the
    rows whose keys tie above the low b bits, whose ranks are to be drawn
    again. Where ``_prefix_pass(h)`` holds, the rows are sorted on the high
    words first and only the rows whose prefixes tie on the 64-bit keys."""
    low32, low64, cols32, cols64 = _key_parts(h)
    if not _prefix_pass(h):
        keys = (_keys64(drawn, high) & ~low64).reshape(-1, h)
        keys |= cols64
        tied = _sorted_ties(keys, low64)
        keys &= low64
        return keys, tied
    keys = (drawn[high::2] & ~low32).reshape(-1, h)
    keys |= cols32
    tied = _sorted_ties(keys, low32)
    if tied.size:
        full = _keys64(drawn.reshape(-1, 2 * h)[tied], high) & ~low64
        full |= cols64
        again = _sorted_ties(full, low64)
        keys[tied] = full & low64
        tied = tied[again]
    keys &= low32
    return keys, tied


def _draw_sorted(words, blocks: list[np.ndarray], high: int = 1) -> None:
    """Stream v2: fill the men's h x h block ``blocks[0]``, then the women's
    ``blocks[1]``, one stream of 2h rows, with uniform permutations of
    0..h-1.
    ``words(count)`` returns the next ``count`` 32-bit words of the rng
    (count even) as a ``"<u4"`` array of pairs; ``rng.randbytes(4 * count)``
    reads the same words, but the pairs of a source with ``high`` 0 hold them
    in reverse. A row takes h 64-bit keys: the little-endian words of
    ``randbytes``' pairs, their low b bits overwritten with the column index,
    sorted; the low bits of the sorted keys are the rank row. The random high
    parts are iid, so when they are distinct their order is a uniform
    permutation; a row in which two of them tie is dropped, and the next row
    of words takes its place.

    Each call reads the words of at most ``_block_rows(2 * h)`` rows, 2**16
    words (all 2h rows while h <= 128), and never more rows than are still
    to fill, so the rows kept and the words read are those of a draw one row
    at a time, whatever the call size.

    Where ``_prefix_pass(h)`` holds, each row is first sorted on 32-bit keys:
    the high word of each 64-bit key, its low b bits the column. When the
    32 - b random bits of those keys are distinct they order the row as the
    64-bit keys do, at half the width; only a row in which two of them tie
    (about 11% of rows at h=1000) is sorted again on its 64-bit keys, which
    also finds the rows to drop."""
    h = len(blocks[0])
    per_call, done = _block_rows(2 * h), 0  # rows filled
    while done < 2 * h:
        ranks, tied = _rank_rows(words(2 * h * min(per_call, 2 * h - done)), h, high)
        if tied.size:
            ranks = np.delete(ranks, tied, axis=0)
        men = min(max(h - done, 0), len(ranks))  # the kept rows that fill the men's block
        blocks[0][done:done + men] = ranks[:men]
        if men < len(ranks):
            blocks[1][done + men - h:done + len(ranks) - h] = ranks[men:]
        done += len(ranks)


@cache
def _twister():
    """The process's one numpy MT19937 and the ``integers`` of a Generator
    over it, built on first use. ``_twister_words`` overwrites its whole
    state on entry and reads it back on exit, so sharing it between calls
    is safe while no two draws run at once, which holds because the library
    starts no threads."""
    from numpy.random import MT19937, Generator

    twister = MT19937(0)
    return twister, Generator(twister).integers


@contextmanager
def _twister_words(rng: random.Random):
    """Yields ``words(count)`` for ``_draw_sorted`` at ``high`` 0: the next
    ``count`` 32-bit words of ``rng`` (count even), each pair in reverse of
    the order ``rng.randbytes(4 * count)`` reads them, from numpy's MT19937
    (the generator ``random.Random`` runs) loaded with ``rng``'s state; on
    exit ``rng`` takes the advanced state, ``gauss_next`` kept. A full-range
    ``uint64`` draw of ``Generator.integers`` is the bit generator's
    ``next_uint64``, two raw words, the first in the high half: as ``"<u4"``
    pairs, the second word, then the first."""
    version, internal, gauss_next = rng.getstate()
    twister, integers = _twister()
    twister.state = {"bit_generator": "MT19937",
                     "state": {"key": internal[:-1], "pos": internal[-1]}}
    yield lambda count: integers(2 ** 64, size=count // 2,
                                 dtype=np.uint64).astype("<u8", copy=False).view("<u4")
    state = twister.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))


def build_market(n: int, rng: random.Random, stream: str = DEFAULT_STREAM) -> Market:
    """Draw a random market: genders by a uniform balanced partition
    (``rng.sample(range(n), n // 2)``, through ``netgen.sample_range``),
    then every rank list an independent uniform permutation of the opposite
    side.

    Args:
        n: total number of agents; must be even and at least 2.
        rng: seeded random source.
        stream: how the rank lists are drawn from ``rng``. ``"v2"`` sorts
            random keys, the men's rows then the women's (``_draw_sorted``),
            from the words of ``rng.randbytes``, a row whose keys tie dropped
            and the next row of words in its place; from ``_TWISTER_HALF`` agents
            a side it reads the same words through numpy's MT19937 when
            ``rng`` is a plain ``random.Random``. ``"v1"`` is ``rng.shuffle``
            per agent in id order, bit for bit (``_draw_shuffled``). Both
            split the genders alike, and ``rng`` ends in the same state
            either way.
    """
    if n < 2 or n % 2:
        raise ValueError(f"agent count must be even and >= 2, got {n}")
    check_stream(stream)
    h = n // 2
    # Men's rows, then women's, each side's block in id order; allocated first,
    # so a size that cannot fit fails before the draw starts. Two blocks, so
    # the women's is freed once the market has inverted it.
    blocks = [np.empty((h, h), dtype=_rank_dtype(h)) for _ in range(2)]
    women = sample_range(rng, n, h)
    is_woman = np.zeros(n, dtype=bool)
    is_woman[women] = True
    if stream == "v1":
        _draw_shuffled(rng, blocks, is_woman)
    elif h < _TWISTER_HALF or type(rng) is not random.Random:
        _draw_sorted(lambda count: np.frombuffer(rng.randbytes(4 * count), "<u4"), blocks)
    else:  # a subclass may draw its own words, so only the stdlib class is replayed
        with _twister_words(rng) as words:
            _draw_sorted(words, blocks, high=0)
    return Market._drawn(np.flatnonzero(is_woman), np.flatnonzero(~is_woman), blocks[1],
                         blocks[0])


@dataclass(frozen=True)
class Matching:
    """Partial one-to-one assignment of women to men, stored as sorted
    (woman, man) pairs."""

    pairs: tuple[tuple[int, int], ...]
    # (market, circle, _candidates(market, circle), pair entries), set by DA
    _da: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "Matching":
        normalized = tuple(sorted(tuple(p) for p in pairs))
        women = [w for w, _ in normalized]
        men = [m for _, m in normalized]
        if len(set(women)) != len(women) or len(set(men)) != len(men):
            raise ValueError("matching must pair each agent at most once")
        return Matching(normalized)

    @cached_property
    def by_woman(self) -> dict[int, int]:
        return {w: m for w, m in self.pairs}

    @cached_property
    def by_man(self) -> dict[int, int]:
        return {m: w for w, m in self.pairs}

    def unmatched_women(self, market: Market) -> list[int]:
        return [w for w in market.women.tolist() if w not in self.by_woman]

    def unmatched_men(self, market: Market) -> list[int]:
        return [m for m in market.men.tolist() if m not in self.by_man]


def _circle_bounds(market: Market, circle: Optional[SocialCircle]) -> np.ndarray:
    """The row bounds of ``_candidates``' structure, counted before it is
    built: a man's entry count is the popcount of his packed circle row over
    the women's bits (h under a circle of None). Its transients take about
    h²/2 bytes."""
    h = market.half
    if circle is None:
        return np.arange(0, h * h + 1, h)
    words = circle.bits.shape[1]
    is_woman = np.zeros(64 * words, dtype=bool)
    is_woman[market.women] = True
    women_bits = np.packbits(is_woman, bitorder="little").view(circle.bits.dtype)
    bounds = np.zeros(h + 1, dtype=np.intp)
    # running counts over the men's rows, read at each row's last word
    counts = np.bitwise_count(circle.bits.take(market.men, axis=0) & women_bits)
    bounds[1:] = counts.cumsum()[words - 1::words]
    return bounds


def _candidates(market: Market, circle: Optional[SocialCircle]) -> tuple[np.ndarray, ...]:
    """The pairs ``circle`` holds (every pair when it is None), in each man's
    order, men in turn, as (bounds, women, her_rank, his_rank), side-local and
    at rank width; man j's entries are ``bounds[j]:bounds[j + 1]``. The
    bounds are counted first (``_circle_bounds``), so the arrays are
    allocated once, at their final size. Then a row block of men at a time,
    their circle rows are unpacked, read in each man's order through flat
    row offsets and written in place, so that no transient but
    ``_circle_bounds``' outgrows a block. Raises ValueError unless the
    circle is over the market's n agents."""
    h, n = market.half, market.n
    if circle is not None and circle.n != n:
        raise ValueError(f"a social circle of {circle.n} nodes does not fit "
                         f"a market of {n} agents")
    bounds = _circle_bounds(market, circle)
    women, her_rank, his_rank = (np.empty(bounds[-1], dtype=market.men_prefs.dtype)
                                 for _ in range(3))
    flat_pos = market.women_pos.reshape(-1)
    for start, block in _row_blocks(market.men_prefs):
        stop = start + len(block)
        if circle is None:
            pos = np.arange(block.size)
        else:
            known = _unpack(circle.bits.take(market.men[start:stop], axis=0), n)[:, market.women]
            pos = np.flatnonzero(known.reshape(-1)[np.arange(0, known.size, h)[:, None] + block])
        row = pos // h
        entries = slice(bounds[start], bounds[stop])
        his_rank[entries] = pos - h * row
        women[entries] = block.reshape(-1)[pos]
        her_rank[entries] = flat_pos[h * women[entries].astype(np.intp) + row + start]
    return bounds, women, her_rank, his_rank


def restricted_deferred_acceptance(market: Market, circle: Optional[SocialCircle]) -> Matching:
    """Man-proposing deferred acceptance over circle-restricted lists.

    Men propose down their rank lists filtered to women they recognize; a
    free woman accepts any proposer she recognizes, an engaged woman trades
    up exactly when she ranks the proposer strictly ahead of her fiance.
    The outcome does not depend on the order in which free men propose.
    A circle of None recognizes every pair. The matching keeps the candidate
    structure and each pair's entry, his last proposal. Raises ValueError
    unless the circle is over the market's n agents.
    """
    h = market.half
    bounds, women, her_rank, _ = structure = _candidates(market, circle)
    # Read in place: DA often visits far fewer entries than a list conversion makes.
    candidates, ranks = memoryview(women), memoryview(her_rank)
    next_choice, ends = bounds[:-1].tolist(), bounds[1:].tolist()

    fiance = [-1] * h
    fiance_rank = [h] * h  # a free woman accepts any man she knows
    free = deque(range(h))
    while free:
        j = free.popleft()
        k, end = next_choice[j], ends[j]
        while k < end:
            i, r = candidates[k], ranks[k]
            k += 1
            if r < fiance_rank[i]:
                if fiance[i] >= 0:
                    free.append(fiance[i])
                fiance[i], fiance_rank[i] = j, r
                break
        next_choice[j] = k
        # a man who exhausted every woman he knows stays unmatched
    fiance = np.array(fiance, dtype=np.intp)
    wi = np.flatnonzero(fiance >= 0)
    mj = fiance[wi]
    # local order is id order, so the pairs come sorted by woman
    matching = Matching(tuple(zip(market.women[wi].tolist(), market.men[mj].tolist())))
    entry = np.array(next_choice, dtype=np.intp)[mj] - 1  # an engaged man's last proposal
    object.__setattr__(matching, "_da", (market, circle, structure, entry))
    return matching


def classical_gs(market: Market) -> Matching:
    """Man-proposing deferred acceptance with complete lists; matches everyone."""
    return restricted_deferred_acceptance(market, None)


def _partner_ranks(market: Market, matching: Matching) -> tuple[np.ndarray, ...]:
    """Side-local (woman, man) indices of the matched pairs, then each woman's
    rank of her partner and each man's of his, in pair order; read at the
    pairs' entries when deferred acceptance made the matching in this market,
    else each agent's index searched in its side's ids and his rank by one
    compare over his row. Raises ValueError for a pair that is not a
    (woman, man) pair of the market."""
    if matching._da and matching._da[0] is market:
        (bounds, women, her_rank, his_rank), entry = matching._da[2:]
        return (women[entry], np.searchsorted(bounds, entry, "right") - 1,
                her_rank[entry], his_rank[entry])
    ids = np.array(matching.pairs, dtype=np.intp).reshape(-1, 2)
    if ((ids < 0) | (ids >= market.n)).any():
        raise ValueError("matching names an agent outside the market")
    wi, mj = (np.searchsorted(side, ids[:, col]).clip(max=market.half - 1)
              for col, side in enumerate((market.women, market.men)))
    if not (np.array_equal(market.women[wi], ids[:, 0])
            and np.array_equal(market.men[mj], ids[:, 1])):
        raise ValueError("every matched pair must be a (woman, man) pair of the market")
    partner = np.full(market.half, -1, dtype=market.men_prefs.dtype)  # rank width: no upcast
    partner[mj] = wi
    his = (market.men_prefs == partner[:, None]).argmax(axis=1)[mj]
    return wi, mj, market.women_pos[wi, mj], his


def _pair_utilities(market: Market, matching: Matching) -> list[float]:
    """Mean of the two partners' scores for each other, for every matched
    pair in pair order."""
    _, _, her, his = _partner_ranks(market, matching)
    return ((_score(market.half, her) + _score(market.half, his)) / 2.0).tolist()


def average_utility(market: Market, matching: Matching) -> float:
    """Sum of pair utilities divided by the number of potential pairs n/2.

    Unmatched agents contribute zero, so sparse matchings are penalized:
    the divisor stays n/2 regardless of how many pairs actually formed.
    """
    # Python's sum in pair order, so matching_to_dict's average is the same float.
    return sum(_pair_utilities(market, matching)) / market.half


def find_blocking_pair(market: Market, circle: SocialCircle,
                       matching: Matching) -> Optional[tuple[int, int]]:
    """First in-circle (woman, man) pair in which both strictly gain by
    pairing up, scanning women in id order and their lists best-first.
    Returns None when the matching is stable. Reads DA's candidate structure
    for a matching it made in this market and circle. Raises ValueError
    unless the circle is over the market's n agents."""
    da = matching._da
    bounds, women, her_rank, his_rank = (da[2] if da and da[0] is market and da[1] is circle
                                         else _candidates(market, circle))
    h = market.half
    wi, mj, her, his = _partner_ranks(market, matching)
    her_cut, his_cut = np.full((2, h), h, dtype=women.dtype)  # h for the unmatched
    her_cut[wi], his_cut[mj] = her, his
    men = np.repeat(np.arange(h, dtype=women.dtype), np.diff(bounds))
    blocking = np.flatnonzero((her_rank < her_cut[women]) & (his_rank < his_cut[men]))
    if blocking.size == 0:
        return None
    # local order is id order, so the least woman * h + her rank is the first pair
    first = blocking[np.argmin(women[blocking].astype(np.intp) * h + her_rank[blocking])]
    return int(market.women[women[first]]), int(market.men[men[first]])


def is_stable(market: Market, circle: SocialCircle, matching: Matching) -> bool:
    """True when no in-circle pair would rather be with each other."""
    return find_blocking_pair(market, circle, matching) is None


def matching_to_dict(market: Market, dm: DistanceMatrix, matching: Matching) -> dict:
    """JSON-ready form of a matching with per-pair distance, searched from
    the graph of the distance summary ``dm`` in one pass, and utility."""
    utilities = _pair_utilities(market, matching)
    ids = np.array(matching.pairs, dtype=np.intp).reshape(-1, 2)
    pairs = [{"woman": w, "man": m, "distance": d, "pair_utility": utility}
             for (w, m), d, utility in zip(matching.pairs, dm.distances(*ids.T).tolist(),
                                           utilities)]
    return {
        "pairs": pairs,
        "unmatched_women": matching.unmatched_women(market),
        "unmatched_men": matching.unmatched_men(market),
        # average_utility's float: Python's sum in pair order over h
        "average_utility": sum(utilities) / market.half,
    }
