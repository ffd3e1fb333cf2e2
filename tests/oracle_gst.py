"""A direct compressed generalized suffix tree, kept as a test oracle.

Built by inserting every suffix of every sequence with edge splitting
(McCreight-style structure without suffix links), this is O(N * depth)
in the worst case — quadratic on pathological inputs but linear-ish on
protein data.  No phase runs it: it is the reference for the *set* of
matches :mod:`repro.suffix.matches` emits
(``test_intervals_matches.py::test_matches_equal_gst_oracle``; their
*order* is held to the scalar node walk in ``tests/scalar_finder.py``),
and its node counts mirror the paper's GST memory model (O(n*l/p) per
processor when suffixes are partitioned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE

#: Virtual terminator symbol used inside the tree; compares unequal to
#: every residue and to itself across different sequences (we key leaf
#: edges by (TERMINATOR, seq_id) so each sequence's terminator is unique).
TERMINATOR = ALPHABET_SIZE


@dataclass
class GstNode:
    """A node of the generalized suffix tree.

    The incoming edge label is ``text(edge_seq)[edge_start:edge_end]``.
    ``occurrences`` is non-empty only at leaves: the (sequence, offset)
    pairs of suffixes ending here.
    """

    edge_seq: int = -1
    edge_start: int = 0
    edge_end: int = 0
    depth: int = 0  # string depth at the *bottom* of the incoming edge
    children: dict[tuple[int, int], "GstNode"] = field(default_factory=dict)
    occurrences: list[tuple[int, int]] = field(default_factory=list)

    @property
    def edge_length(self) -> int:
        return self.edge_end - self.edge_start

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _symbol_key(symbol: int, seq_id: int) -> tuple[int, int]:
    """Child-dictionary key: residues are shared; terminators are per-sequence."""
    if symbol == TERMINATOR:
        return (TERMINATOR, seq_id)
    return (symbol, -1)


class GeneralizedSuffixTree:
    """Compressed GST over a collection of encoded sequences."""

    def __init__(self, sequences: Sequence[np.ndarray]):
        if not sequences:
            raise ValueError("need at least one sequence")
        # Append the terminator to each sequence once, up front.
        self._texts: list[np.ndarray] = []
        for idx, seq in enumerate(sequences):
            arr = np.asarray(seq, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"sequence {idx} must be non-empty 1-D")
            self._texts.append(np.concatenate([arr, [TERMINATOR]]))
        self.root = GstNode()
        self.n_nodes = 1
        for seq_id in range(len(self._texts)):
            self._insert_all_suffixes(seq_id)

    def _symbol(self, seq_id: int, pos: int) -> int:
        return int(self._texts[seq_id][pos])

    def _insert_all_suffixes(self, seq_id: int) -> None:
        text = self._texts[seq_id]
        for start in range(len(text)):
            self._insert_suffix(seq_id, start)

    def _insert_suffix(self, seq_id: int, start: int) -> None:
        text = self._texts[seq_id]
        node = self.root
        pos = start
        while True:
            key = _symbol_key(int(text[pos]), seq_id)
            child = node.children.get(key)
            if child is None:
                leaf = GstNode(
                    edge_seq=seq_id,
                    edge_start=pos,
                    edge_end=len(text),
                    depth=node.depth + (len(text) - pos),
                )
                leaf.occurrences.append((seq_id, start))
                node.children[key] = leaf
                self.n_nodes += 1
                return
            # Walk down the child's edge as far as symbols agree.  Terminator
            # symbols are per-sequence: a terminator only matches itself
            # within the same sequence, so suffixes of equal sequences still
            # split into distinct leaves.
            edge_text = self._texts[child.edge_seq]
            matched = 0
            while matched < child.edge_length and pos + matched < len(text):
                edge_sym = int(edge_text[child.edge_start + matched])
                text_sym = int(text[pos + matched])
                if edge_sym != text_sym:
                    break
                if edge_sym == TERMINATOR and child.edge_seq != seq_id:
                    break
                matched += 1
            if matched == child.edge_length:
                pos += matched
                if pos == len(text):
                    # Suffix ends exactly at this node (shared terminator
                    # path can only happen for identical sequences whose
                    # terminators differ — so in practice pos < len).
                    child.occurrences.append((seq_id, start))
                    return
                node = child
                continue
            # Split the edge after `matched` symbols.
            mid = GstNode(
                edge_seq=child.edge_seq,
                edge_start=child.edge_start,
                edge_end=child.edge_start + matched,
                depth=node.depth + matched,
            )
            self.n_nodes += 1
            child_key_symbol = int(edge_text[child.edge_start + matched])
            child.edge_start += matched
            node.children[key] = mid
            mid.children[_symbol_key(child_key_symbol, child.edge_seq)] = child
            if pos + matched == len(text):  # pragma: no cover - terminator always differs
                mid.occurrences.append((seq_id, start))
                return
            leaf = GstNode(
                edge_seq=seq_id,
                edge_start=pos + matched,
                edge_end=len(text),
                depth=mid.depth + (len(text) - pos - matched),
            )
            leaf.occurrences.append((seq_id, start))
            mid.children[_symbol_key(int(text[pos + matched]), seq_id)] = leaf
            self.n_nodes += 1
            return

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def contains(self, pattern: np.ndarray) -> bool:
        """Substring query: does the pattern occur in any sequence?"""
        pattern = np.asarray(pattern, dtype=np.int64)
        node = self.root
        pos = 0
        while pos < len(pattern):
            key = _symbol_key(int(pattern[pos]), -2)
            child = node.children.get(key)
            if child is None:
                return False
            edge_text = self._texts[child.edge_seq]
            for k in range(child.edge_length):
                if pos == len(pattern):
                    return True
                if int(edge_text[child.edge_start + k]) != int(pattern[pos]):
                    return False
                pos += 1
            node = child
        return True

    def iter_nodes(self) -> Iterator[GstNode]:
        """Depth-first traversal of all nodes (root included)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaf_occurrences(self, node: GstNode) -> list[tuple[int, int]]:
        """All suffix occurrences in the subtree rooted at ``node``."""
        out: list[tuple[int, int]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.extend(current.occurrences)
            stack.extend(current.children.values())
        return out

    def maximal_match_pairs(
        self, min_length: int
    ) -> set[tuple[int, int, int, int, int]]:
        """Oracle enumeration of maximal matches of length >= min_length.

        Returns tuples ``(seq_a, pos_a, seq_b, pos_b, length)`` with
        ``seq_a < seq_b``; semantics identical to
        :class:`repro.suffix.matches.MaximalMatchFinder` (cross-child,
        left-maximal, distinct sequences).
        """
        out: set[tuple[int, int, int, int, int]] = set()
        for node in self.iter_nodes():
            if node is self.root or node.depth < min_length:
                continue
            # Effective internal-node depth: matches correspond to nodes
            # whose *branching point* is at node.depth; leaves only carry
            # occurrences.
            if node.is_leaf:
                continue
            groups = [self.leaf_occurrences(child) for child in node.children.values()]
            for gi in range(len(groups)):
                for gj in range(gi + 1, len(groups)):
                    for seq_x, off_x in groups[gi]:
                        for seq_y, off_y in groups[gj]:
                            if seq_x == seq_y:
                                continue
                            if not self._left_maximal(seq_x, off_x, seq_y, off_y):
                                continue
                            if seq_x < seq_y:
                                out.add((seq_x, off_x, seq_y, off_y, node.depth))
                            else:
                                out.add((seq_y, off_y, seq_x, off_x, node.depth))
        return out

    def _left_maximal(self, seq_x: int, off_x: int, seq_y: int, off_y: int) -> bool:
        if off_x == 0 or off_y == 0:
            return True
        return self._symbol(seq_x, off_x - 1) != self._symbol(seq_y, off_y - 1)
