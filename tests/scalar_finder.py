"""The scalar node walk, kept as the reference for the block generator.

This is the pair generator ``repro.suffix.matches`` ran before it
produced the stream as NumPy column blocks: a four-deep Python loop over
``(a-child, b-child, x, y)`` of every lcp-interval node, deepest node
first.  It *defines* the stream order the masters' work counters depend
on, so the tests hold :class:`~repro.suffix.matches.MaximalMatchFinder`
to it element for element (``test_intervals_matches.py``) and run the
phases over it as the pair-by-pair reference (``test_phases.py``).  It
has the finder's public surface, so it can stand in for it inside the
``repro.pace`` masters.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.suffix.intervals import LcpInterval, lcp_interval_tree
from repro.suffix.matches import MaximalMatch
from repro.suffix.suffix_array import GeneralizedSuffixArray


class ScalarMatchFinder:
    def __init__(
        self,
        sequences: Sequence[np.ndarray],
        *,
        min_length: int = 10,
        max_pairs_per_node: int | None = None,
    ):
        self.min_length = min_length
        self.max_pairs_per_node = max_pairs_per_node
        self.gsa = GeneralizedSuffixArray(sequences)
        self.nodes = lcp_interval_tree(self.gsa.lcp, min_depth=min_length)
        # Deepest-first: PaCE's decreasing maximal-match-length order.
        self.nodes.sort(key=lambda node: node.depth, reverse=True)

    def node_symbol(self, node: LcpInterval) -> int:
        """First symbol of an interval's common prefix (its bucket)."""
        return int(self.gsa.text[self.gsa.sa[node.lb]])

    def node_matches(
        self, node: LcpInterval, cap: int | None = None
    ) -> Iterator[MaximalMatch]:
        """Cross-child maximal-match pairs of one interval-tree node."""
        gsa = self.gsa
        ranges = node.child_ranges()
        emitted = 0
        for a_idx in range(len(ranges)):
            a_lo, a_hi = ranges[a_idx]
            for b_idx in range(a_idx + 1, len(ranges)):
                b_lo, b_hi = ranges[b_idx]
                for x in range(a_lo, a_hi + 1):
                    seq_x, off_x = gsa.locate(int(gsa.sa[x]))
                    left_x = gsa.preceding_symbol(int(gsa.sa[x]))
                    for y in range(b_lo, b_hi + 1):
                        seq_y, off_y = gsa.locate(int(gsa.sa[y]))
                        if seq_x == seq_y:
                            continue
                        # Left-maximality: preceding symbols differ, or
                        # either occurrence starts at a sequence boundary
                        # (sentinels/-1 never equal residues).
                        left_y = gsa.preceding_symbol(int(gsa.sa[y]))
                        if left_x == left_y and 0 <= left_x < ALPHABET_SIZE:
                            continue
                        if seq_x < seq_y:
                            yield MaximalMatch(seq_x, off_x, seq_y, off_y, node.depth)
                        else:
                            yield MaximalMatch(seq_y, off_y, seq_x, off_x, node.depth)
                        emitted += 1
                        if cap is not None and emitted >= cap:
                            return

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

    def bucket_construction_cost(self, symbols: set[int]) -> int:
        return sum(
            node.size * max(node.depth, 1)
            for node in self.nodes
            if self.node_symbol(node) in symbols
        )
