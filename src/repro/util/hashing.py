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

from typing import Iterable, Sequence

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


def hash_int_tuple(values: Iterable[int], *, seed: int = 0) -> int:
    """Stable 64-bit hash of a tuple of non-negative integers.

    The Shingle algorithm maps each *s*-element shingle (a sorted tuple of
    vertex ids) to a single integer with this function.
    """
    h = splitmix64(seed ^ 0xA076_1D64_78BD_642F)
    for v in values:
        h = splitmix64(h ^ (v & _MASK64))
    return h


def hash_rows(matrix: "np.ndarray", *, seed: int = 0) -> "np.ndarray":
    """Vectorised :func:`hash_int_tuple` over the rows of a 2-D array.

    ``hash_rows(m)[i] == hash_int_tuple(m[i])`` exactly; one fused pass
    per column instead of a Python loop per row — the hot path of the
    Shingle algorithm's pass I.
    """
    m = np.ascontiguousarray(matrix, dtype=np.uint64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    init = splitmix64(seed ^ 0xA076_1D64_78BD_642F)
    h = np.full(m.shape[0], init, dtype=np.uint64)
    for col in range(m.shape[1]):
        h = _mix64(h ^ m[:, col])
    return h


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finaliser over a ``uint64`` array (wrapping)."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    return x ^ (x >> np.uint64(31))


class UniversalHashFamily:
    """A family of ``count`` independent min-wise hash functions.

    Member ``k`` implements ``h_k(x) = mix64(x ^ key_k)`` with per-member
    keys derived from the seed — a fully vectorised (pure ``uint64``
    NumPy, wraparound semantics) stand-in for min-wise independent
    permutations [Broder et al. 2000].  Applying ``h_k`` to a vertex set
    and keeping the ``s`` pre-images with smallest hash realises one
    random s-element sample, the core primitive of the Shingle algorithm.

    Parameters
    ----------
    count:
        Number of hash functions in the family (the Shingle parameter *c*).
    seed:
        Master seed; member keys are derived deterministically from it.
    """

    def __init__(self, count: int, *, seed: int = 0):
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = int(count)
        self.seed = int(seed)
        base = splitmix64(self.seed ^ 0x5EED_0F0F)
        keys = np.empty(self.count, dtype=np.uint64)
        key = base
        for k in range(self.count):
            key = splitmix64(key)
            keys[k] = key
        self._keys = keys

    def apply(self, k: int, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Apply hash function ``k`` to an array of values, vectorised."""
        if not 0 <= k < self.count:
            raise IndexError(f"hash index {k} out of range [0, {self.count})")
        x = np.asarray(values, dtype=np.uint64)
        return _mix64(x ^ self._keys[k])

    def apply_all(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Apply every member to ``values``; returns a ``(count, len)`` array."""
        x = np.asarray(values, dtype=np.uint64)
        return _mix64(x[None, :] ^ self._keys[:, None])

    def min_sample(self, k: int, values: Sequence[int] | np.ndarray, s: int) -> tuple[int, ...]:
        """Return the ``s`` values whose ``h_k`` images are smallest.

        This is one *shingle*: an s-element subset of ``values`` selected
        by the k-th min-wise permutation.  Ties break on the pre-image for
        determinism.  The tuple is sorted by original value so equal
        subsets compare equal.
        """
        x = np.asarray(values, dtype=np.uint64)
        if len(x) < s:
            raise ValueError(f"cannot draw {s}-element shingle from {len(x)} values")
        hashed = self.apply(k, x)
        order = np.lexsort((x, hashed))
        picked = x[order[:s]]
        return tuple(sorted(int(v) for v in picked))

    def min_samples_matrix(self, values: Sequence[int] | np.ndarray, s: int) -> np.ndarray:
        """All ``count`` shingles as one ``(count, s)`` sorted uint64 matrix.

        Row ``k`` equals ``min_sample(k, values, s)`` exactly:
        ``mix64(x ^ key)`` is a bijection on uint64, so distinct values
        never tie and the ``argpartition`` cut is the ``s`` smallest
        images whichever way it orders them (``values`` must be
        distinct, as a Gamma set is).  One ``(count, len)`` hash matrix
        and one partition — the Shingle hot path.
        """
        x = np.asarray(values, dtype=np.uint64)
        n = len(x)
        if n < s:
            raise ValueError(f"cannot draw {s}-element shingle from {n} values")
        hashed = self.apply_all(x)
        part = np.argpartition(hashed, s - 1, axis=1)[:, :s]
        return np.sort(x[part], axis=1)
