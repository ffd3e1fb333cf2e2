"""The scalar index walk, kept as the reference for the array code.

This is the pair generator ``repro.suffix.matches`` ran before it
produced the stream as NumPy column blocks: a four-deep Python loop over
``(a-child, b-child, x, y)`` of every lcp-interval node, deepest node
first.  It *defines* the stream order the masters' work counters depend
on, so the tests hold :class:`~repro.suffix.matches.MaximalMatchFinder`
to it element for element (``test_intervals_matches.py``) and run the
phases over it as the pair-by-pair reference (``test_phases.py``).  It
has the finder's public surface, so it can stand in for it inside the
``repro.pace`` masters.

Everything the walk needs beyond the sorted suffixes lives here too, in
the scalar form ``repro.suffix`` had before its index became array
passes — Kasai's LCP, the stack-built :class:`LcpInterval` tree and the
position helpers — so the oracle shares only ``text`` / ``starts`` /
``sa`` (held to naive sorting in ``test_suffix_array.py``) with the
code it judges, and is the reference for
:func:`~repro.suffix.suffix_array.lcp_array` and
:func:`~repro.suffix.intervals.lcp_intervals` as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.suffix.matches import MaximalMatch
from repro.suffix.suffix_array import GeneralizedSuffixArray


def kasai_lcp(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array via Kasai's algorithm.

    ``lcp[i]`` is the length of the longest common prefix of suffixes
    ``sa[i-1]`` and ``sa[i]``; ``lcp[0] = 0``.
    """
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    lcp = np.zeros(n, dtype=np.int64)
    if n == 0:
        return lcp
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        limit = n - max(i, j)
        while h < limit and text[i + h] == text[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


@dataclass
class LcpInterval:
    """One internal node of the implicit suffix tree.

    ``lb..rb`` (inclusive) is the SA range.  ``children`` holds child
    *intervals*; SA positions in the range not covered by any child are
    singleton leaves.  ``child_ranges()`` materialises the full partition.
    """

    depth: int
    lb: int
    rb: int = -1
    children: list["LcpInterval"] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.rb - self.lb + 1

    def child_ranges(self) -> list[tuple[int, int]]:
        """Partition of [lb, rb] into child subranges (inclusive bounds).

        Child intervals keep their ranges; uncovered positions become
        singleton ranges.  Ranges are returned left-to-right.
        """
        ranges: list[tuple[int, int]] = []
        cursor = self.lb
        for child in sorted(self.children, key=lambda c: c.lb):
            ranges.extend((p, p) for p in range(cursor, child.lb))
            ranges.append((child.lb, child.rb))
            cursor = child.rb + 1
        ranges.extend((p, p) for p in range(cursor, self.rb + 1))
        return ranges


def lcp_interval_tree(lcp: np.ndarray, *, min_depth: int = 1) -> list[LcpInterval]:
    """Enumerate all lcp-intervals with depth >= min_depth, bottom-up.

    Child links are maintained for *all* intervals regardless of the
    threshold (a child is always strictly deeper than its parent, so
    pruning only filters the returned list, never breaks partitions).
    The virtual root (depth 0 spanning the whole SA) is returned only
    when ``min_depth == 0``.
    """
    lcp = np.asarray(lcp, dtype=np.int64)
    n = len(lcp)
    out: list[LcpInterval] = []
    if n == 0:
        return out
    stack: list[LcpInterval] = [LcpInterval(depth=0, lb=0)]
    for i in range(1, n):
        lb = i - 1
        last: LcpInterval | None = None
        current = int(lcp[i])
        while current < stack[-1].depth:
            node = stack.pop()
            node.rb = i - 1
            if node.depth >= min_depth:
                out.append(node)
            lb = node.lb
            last = node
            if current <= stack[-1].depth:
                # The (still-stacked) enclosing interval absorbs it directly.
                stack[-1].children.append(last)
                last = None
        if current > stack[-1].depth:
            fresh = LcpInterval(depth=current, lb=lb)
            if last is not None:
                # A fresh intermediate node is inserted between the popped
                # child and the enclosing interval.
                fresh.children.append(last)
            stack.append(fresh)
    # Implicit final sentinel (lcp = -1) closes every open interval.
    while stack:
        node = stack.pop()
        node.rb = n - 1
        if node.depth >= min_depth:
            out.append(node)
        if stack:
            stack[-1].children.append(node)
    return out


def interval_columns(lcp: np.ndarray, min_depth: int) -> list[tuple[int, int, int]]:
    """The stack walk's nodes as ``(depth, lb, size)`` rows in stream
    order — deepest first, equal depths in the walk's bottom-up order —
    what :func:`~repro.suffix.intervals.lcp_intervals` must return."""
    nodes = lcp_interval_tree(lcp, min_depth=min_depth)
    nodes.sort(key=lambda node: node.depth, reverse=True)
    return [(node.depth, node.lb, node.size) for node in nodes]


def locate(gsa: GeneralizedSuffixArray, position: int) -> tuple[int, int]:
    """Map a global text position to ``(sequence_index, offset)``."""
    if not 0 <= position < len(gsa.text):
        raise IndexError(f"position {position} out of range")
    seq = int(np.searchsorted(gsa.starts, position, side="right")) - 1
    return seq, int(position - gsa.starts[seq])


def preceding_symbol(gsa: GeneralizedSuffixArray, position: int) -> int:
    """Symbol before ``position`` (a sentinel value if at a sequence start).

    Used for the left-maximality test: a sentinel (or position 0,
    reported as the virtual sentinel -1) never equals a residue, so
    matches at sequence starts are always left-maximal.
    """
    if position == 0:
        return -1
    return int(gsa.text[position - 1])


def is_sentinel_position(gsa: GeneralizedSuffixArray, position: int) -> bool:
    return bool(gsa.text[position] >= ALPHABET_SIZE)


class ScalarMatchFinder:
    def __init__(
        self,
        sequences: Sequence[np.ndarray] | GeneralizedSuffixArray,
        *,
        min_length: int = 10,
        max_pairs_per_node: int | None = None,
        labels: Sequence[int] | np.ndarray | None = None,
    ):
        self.min_length = min_length
        self.max_pairs_per_node = max_pairs_per_node
        self.gsa = (
            sequences
            if isinstance(sequences, GeneralizedSuffixArray)
            else GeneralizedSuffixArray(sequences)
        )
        self.labels = (
            [0] * self.gsa.n_sequences if labels is None else [int(x) for x in labels]
        )
        self.nodes = lcp_interval_tree(
            kasai_lcp(self.gsa.text, self.gsa.sa), min_depth=min_length
        )
        # Deepest-first: PaCE's decreasing maximal-match-length order.
        self.nodes.sort(key=lambda node: node.depth, reverse=True)

    def node_symbol(self, node: LcpInterval) -> int:
        """First symbol of an interval's common prefix (its bucket)."""
        return int(self.gsa.text[self.gsa.sa[node.lb]])

    def node_matches(
        self, node: LcpInterval, cap: int | None = None
    ) -> Iterator[MaximalMatch]:
        """Cross-child maximal-match pairs of one interval-tree node
        between sequences of one label ``>= 0``, at most ``cap`` of each
        label."""
        gsa = self.gsa
        ranges = node.child_ranges()
        emitted: dict[int, int] = {}
        for a_idx in range(len(ranges)):
            a_lo, a_hi = ranges[a_idx]
            for b_idx in range(a_idx + 1, len(ranges)):
                b_lo, b_hi = ranges[b_idx]
                for x in range(a_lo, a_hi + 1):
                    seq_x, off_x = locate(gsa, int(gsa.sa[x]))
                    left_x = preceding_symbol(gsa, int(gsa.sa[x]))
                    for y in range(b_lo, b_hi + 1):
                        seq_y, off_y = locate(gsa, int(gsa.sa[y]))
                        label = self.labels[seq_x]
                        if seq_x == seq_y or label != self.labels[seq_y] or label < 0:
                            continue
                        if cap is not None and emitted.get(label, 0) >= cap:
                            continue
                        # Left-maximality: preceding symbols differ, or
                        # either occurrence starts at a sequence boundary
                        # (sentinels/-1 never equal residues).
                        left_y = preceding_symbol(gsa, int(gsa.sa[y]))
                        if left_x == left_y and 0 <= left_x < ALPHABET_SIZE:
                            continue
                        if seq_x < seq_y:
                            yield MaximalMatch(seq_x, off_x, seq_y, off_y, node.depth)
                        else:
                            yield MaximalMatch(seq_y, off_y, seq_x, off_x, node.depth)
                        emitted[label] = emitted.get(label, 0) + 1

    def cross_child_pairs(self) -> int:
        """Slot pairs the walk visits: its candidates before masking."""
        total = 0
        for node in self.nodes:
            sizes = [hi - lo + 1 for lo, hi in node.child_ranges()]
            total += (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
        return total

    def matches(self) -> Iterator[MaximalMatch]:
        for node in self.nodes:
            yield from self.node_matches(node, self.max_pairs_per_node)

    def matches_for_symbols(self, symbols: set[int]) -> Iterator[MaximalMatch]:
        for node in self.nodes:
            if self.node_symbol(node) in symbols:
                yield from self.node_matches(node, self.max_pairs_per_node)

    def unique_pairs(self) -> Iterator[MaximalMatch]:
        seen: set[tuple[int, int]] = set()
        for match in self.matches():
            if match.pair not in seen:
                seen.add(match.pair)
                yield match

    def bucket_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for node in self.nodes:
            symbol = self.node_symbol(node)
            sizes[symbol] = sizes.get(symbol, 0) + node.size
        return sizes

    def bucket_symbols(self) -> list[int]:
        return sorted(self.bucket_sizes())
