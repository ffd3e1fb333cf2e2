"""Deterministic hashing primitives.

The Shingle algorithm (Gibson et al., VLDB 2005) relies on *min-wise
independent permutations* realised through universal hash functions.  To
keep runs reproducible across processes and Python versions we avoid the
built-in ``hash`` (which is salted per process for str/bytes) and provide
explicit, seed-derived hash families instead.

All functions operate in the 64-bit domain; intermediate arithmetic uses
Python integers (arbitrary precision) or NumPy ``uint64`` where vectorised.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """Return the 64-bit FNV-1a hash of ``data``.

    A small, allocation-free, endian-independent hash used to map shingle
    tuples and sequence names to stable integers.
    """
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer.

    Used to derive independent sub-seeds from a master seed and to
    finalise combined hashes; passes standard avalanche tests.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_rows(matrix: "np.ndarray", *, seed: int = 0) -> "np.ndarray":
    """A stable 64-bit hash of each row of a 2-D array of non-negative
    integers (a shingle: a sorted tuple of vertex ids): ``splitmix64``
    folded over the row from a seed-derived start, in one fused pass per
    column (``tests/scalar_shingle.py::hash_int_tuple`` is the loop per
    row it equals exactly)."""
    m = np.ascontiguousarray(matrix, dtype=np.uint64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    init = splitmix64(seed ^ 0xA076_1D64_78BD_642F)
    h = np.full(m.shape[0], init, dtype=np.uint64)
    for col in range(m.shape[1]):
        h = _mix64(h, m[:, col])
    return h


def _mix64(x: np.ndarray, y: np.ndarray | np.uint64) -> np.ndarray:
    """Vectorised SplitMix64 finaliser of ``x ^ y`` (``uint64``, wrapping);
    the xor makes the one buffer it works in, so no argument is written."""
    x = x ^ y
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


#: Ranks (sets x members x padded width) per slab of ``draw``: 64 KB as int16.
#: The 50 draw calls of a suite ``domain`` run, best of 7: 70.5 ms at 4 Ki,
#: 59.0 at 16 Ki, 57.8 at 32 and 64 Ki, 65.6 at 128 Ki (DESIGN.md section 3).
SLAB_BUDGET = 32 * 1024


@functools.lru_cache(maxsize=64)
def _family_keys(count: int, seed: int) -> np.ndarray:
    """Member keys of the ``(count, seed)`` family: derived once, shared read-only."""
    keys = np.empty(count, dtype=np.uint64)
    key = splitmix64(seed ^ 0x5EED_0F0F)
    for k in range(count):
        key = keys[k] = splitmix64(key)
    keys.flags.writeable = False
    return keys


def _ragged(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i] + arange(count[i])`` for every ``i``, concatenated."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _fingerprints(offsets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per set ``x[offsets[i] : offsets[i + 1]]`` the wrapping sum of its
    mixed elements: equal for equal sets; nothing relies on the converse."""
    total = np.concatenate([np.zeros(1, np.uint64), np.cumsum(_mix64(x, np.uint64(0)))])
    return total[offsets[1:]] - total[offsets[:-1]]


def _equal_sets(
    mark: np.ndarray, start: np.ndarray, size: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group the sets ``x[start[i] : start[i] + size[i]]`` exactly: ``(distinct,
    slot)``, one set per group by ascending size and each set's position in
    it.  Sorted by size and fingerprint ``mark``, a set joins its neighbour only
    if equal element for element: a collision costs a draw, never an answer."""
    order = np.lexsort((mark, size))
    near = np.flatnonzero((np.diff(size[order]) == 0) & (np.diff(mark[order]) == 0))
    a, b, length = order[near], order[near + 1], size[order[near]]
    equal = x[_ragged(start[a], length)] == x[_ragged(start[b], length)]
    same = np.logical_and.reduceat(equal, np.cumsum(length) - length)
    first = np.ones(len(order), dtype=bool)
    first[near[same] + 1] = False
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    return order[first], slot


def _distinct_rows(samples: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(shingle, elements, rows per set)`` of ``(k, c, s)`` samples: per set its
    distinct ``hash_rows``, ascending, each with the first member's sample."""
    k, c, s = samples.shape
    if not k:
        return np.empty(0, np.uint64), samples.reshape(0, s), np.empty(0, np.int64)
    hashes = hash_rows(samples.reshape(-1, s), seed=seed).reshape(k, c)
    member = np.argsort(hashes, axis=1, kind="stable")
    hashes = hashes[np.arange(k)[:, None], member]
    keep = np.ones((k, c), dtype=bool)
    keep[:, 1:] = hashes[:, 1:] != hashes[:, :-1]
    return hashes[keep], samples[np.nonzero(keep)[0], member[keep]], np.count_nonzero(keep, axis=1)


def _ranks(order: np.ndarray) -> np.ndarray:
    """The rank table of ``(c, |U|)`` argsorts: ``rank[k, order[k, j]] = j``, and
    a last column, the pad, ranked ``|U|``.  int16 while ``|U| < 2**15``."""
    c, n = order.shape
    rank = np.empty((c, n + 1), dtype=np.int16 if n < 2**15 else np.int32)
    rank[:, n] = n
    rank[np.arange(c)[:, None], order] = np.arange(n, dtype=rank.dtype)
    return rank


def _slab(
    rank: np.ndarray, order: np.ndarray, member: np.ndarray, start: np.ndarray, size: np.ndarray, s: int
) -> np.ndarray:
    """``(k, c, s)``: each member's sample of the ``k`` sets ``member[start[i] :
    start[i] + size[i]]`` (universe positions; ``member[-1]`` is the pad), as
    ascending positions.  ``mix64(x ^ key)`` is a bijection, so ranks order
    elements as their images do; a set padded to the widest has more than
    ``s`` elements, each ranked below the pad's ``|U|``."""
    column = np.arange(size.max())
    ranks = rank[:, member[np.where(column < size[:, None], start[:, None] + column, -1)]]
    cut = np.partition(ranks, s - 1, axis=2)[:, :, :s]
    return np.sort(order[np.arange(len(order))[:, None, None], cut].transpose(1, 0, 2), axis=2)


class UniversalHashFamily:
    """A family of ``count`` (the Shingle parameter *c*) min-wise hash
    functions ``h_k(x) = mix64(x ^ key_k)``, keys derived from ``seed`` — a
    fully vectorised (pure ``uint64`` NumPy, wraparound semantics) stand-in
    for min-wise independent permutations [Broder et al. 2000].  The ``s``
    pre-images of a vertex set with smallest ``h_k`` are one random
    s-element sample, the core primitive of the Shingle algorithm."""

    def __init__(self, count: int, *, seed: int = 0):
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = int(count)
        self.seed = int(seed)
        self._keys = _family_keys(self.count, self.seed)

    def apply_all(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Apply every member to ``values``; returns ``(..., count, len)``."""
        x = np.asarray(values, dtype=np.uint64)
        return _mix64(x[..., None, :], self._keys[:, None])

    def draw(
        self, offsets: np.ndarray, values: np.ndarray, s: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """The ``(s, count)``-shingle sets of the sets ``values[offsets[i] :
        offsets[i + 1]]``: ``(owner set int64, shingle uint64, elements (rows, s)
        uint64, distinct sets drawn, element images hashed)``, a row per distinct
        ``hash_rows(sample, seed=self.seed)`` of each set of ``>= s`` elements, in
        set order then ascending shingle.  Equal sets share one draw; a set of
        exactly ``s`` is its own sample; the rest share one rank table and, by
        size, fill slabs of <= ``SLAB_BUDGET`` ranks."""
        x = np.asarray(values, dtype=np.uint64)
        size = np.diff(offsets)
        live = np.flatnonzero(size >= s)
        start, size = offsets[live], size[live]
        distinct, slot = _equal_sets(_fingerprints(offsets, x)[live], start, size, x)
        d_start, d_size = start[distinct], size[distinct]
        exact = int(np.searchsorted(d_size, s, side="right"))
        own = np.sort(x[d_start[:exact, None] + np.arange(s)], axis=1)
        done = [_distinct_rows(own[:, None, :], self.seed)]
        # The rest by rank: each distinct element hashed once per member.
        d_start, d_size = d_start[exact:], d_size[exact:]
        universe, member = np.unique(x[_ragged(d_start, d_size)], return_inverse=True)
        order = np.argsort(self.apply_all(universe), axis=1)
        if len(d_size) == 1:
            # One set is its own universe: its cut leads each member's order.
            done.append(_distinct_rows(universe[np.sort(order[None, :, :s], axis=2)], self.seed))
        elif len(d_size):
            rank, member = _ranks(order), np.append(member, len(universe))
            first = np.cumsum(d_size) - d_size
            slabs: list[np.ndarray] = []
            lo, room = 0, SLAB_BUDGET // self.count
            while lo < len(d_size):
                width = d_size[lo : lo + max(room // int(d_size[lo]), 1)]
                fits = np.searchsorted(width * np.arange(1, len(width) + 1), room, side="right")
                hi = lo + max(int(fits), 1)
                slabs.append(universe[_slab(rank, order, member, first[lo:hi], d_size[lo:hi], s)])
                lo = hi
                # Samples are small: hash and deduplicate a budget's worth per call.
                if lo == len(d_size) or sum(map(len, slabs)) >= room:
                    done.append(_distinct_rows(np.concatenate(slabs), self.seed))
                    slabs.clear()
        shingles, elements, counts = map(np.concatenate, zip(*done))
        row = _ragged((np.cumsum(counts) - counts)[slot], counts[slot])
        return (np.repeat(live, counts[slot]), shingles[row], elements[row], len(distinct),
                self.count * len(universe))
