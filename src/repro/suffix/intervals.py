"""LCP intervals: the suffix-tree nodes on top of SA + LCP, as columns.

An *lcp-interval* of depth ``d`` is a maximal SA range whose suffixes all
share a prefix of length >= d, with at least one adjacent pair sharing
exactly ``d`` — this corresponds one-to-one with an internal node of
string depth ``d`` in the suffix tree (Abouelhoda, Kurtz & Ohlebusch,
2004).  The node a slot ``i`` belongs to at depth ``lcp[i]`` is bounded
by the nearest smaller LCP values on either side of it, so the nodes
come out of two nearest-smaller-value scans; pairs taken across
*different* children of a node (the node's slots are cut where ``lcp ==
depth``) have longest common prefix exactly equal to the node depth.
"""

from __future__ import annotations

import numpy as np


def _nearest_below(
    value: np.ndarray, slots: np.ndarray, step: int, *, strict: bool
) -> np.ndarray:
    """For each of ``slots``, the nearest position in direction ``step``
    (±1) whose value is smaller than the slot's (``strict``) or not
    larger, by pointer jumping: a slot whose pointer rests on too large
    a value takes over that position's pointer, so such a position must
    itself be in ``slots``.  ``value`` must end in a stopper below every
    slot's value (index -1 reads it too: it stops the leftward scan)."""
    pointer = np.arange(len(value)) + step
    todo = slots
    while len(todo):
        mine, at = value[todo], value[pointer[todo]]
        todo = todo[(at >= mine) if strict else (at > mine)]
        pointer[todo] = pointer[pointer[todo]]
    return pointer[slots]


def lcp_intervals(
    lcp: np.ndarray, min_depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All lcp-intervals of depth >= ``min_depth`` (at least 1: the
    virtual root is not a node) as int64 columns ``(depth, lb, size)``
    — SA range ``lb .. lb + size - 1`` — in stream order: depth
    descending, equal depths left to right.

    ``lcp[0]`` must be 0, as in every LCP array.  Only the slots with
    ``lcp >= min_depth`` are scanned; their shallower neighbours bound
    every scan.
    """
    if min_depth < 1:
        raise ValueError(f"min_depth must be >= 1, got {min_depth}")
    value = np.append(np.asarray(lcp, dtype=np.int64), -1)
    deep = np.flatnonzero(value >= min_depth)
    left = _nearest_below(value, deep, -1, strict=False)
    right = _nearest_below(value, deep, +1, strict=True)
    # One slot per node: the first one at the node's depth, i.e. the one
    # whose nearest not-larger value to the left is a smaller one — and
    # that position is then the node's left bound.
    first = value[left] < value[deep]
    depth, lb, size = value[deep][first], left[first], (right - left)[first]
    # Equal depths are disjoint nodes, already left to right.
    order = np.argsort(-depth, kind="stable")
    return depth[order], lb[order], size[order]
