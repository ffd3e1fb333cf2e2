"""Ukkonen's online linear-time suffix tree for a single sequence, kept
as a test oracle.

The paper's parallel GST construction (citing McCreight [21] and
Kalyanaraman et al. [19]) builds on a linear-time suffix-tree algorithm.
The enhanced suffix array in :mod:`repro.suffix.suffix_array` is the
index every run uses; this is the classical pointer-based structure with
suffix links — the O(n) online construction, with substring search,
occurrence listing and longest repeated substring — that
``test_properties.py`` holds :func:`~repro.suffix.suffix_array.suffix_array`
to.

Implementation notes: the standard Ukkonen formulation with an active
point (node, edge-first-symbol, length), a global leaf end, and suffix
links created between consecutively split internal nodes.  A terminal
sentinel (value ``ALPHABET_SIZE``) makes the tree explicit so every
suffix ends at a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE

#: Sentinel appended to make all suffixes explicit.
SENTINEL = ALPHABET_SIZE


@dataclass
class _Node:
    """Suffix-tree node; the incoming edge is text[start:end]."""

    start: int
    end: int  # exclusive; -1 means "the global end" (open leaf edge)
    suffix_link: "_Node | None" = None
    children: dict[int, "_Node"] = field(default_factory=dict)
    suffix_index: int = -1  # leaf: starting position of its suffix

    def edge_length(self, current_end: int) -> int:
        end = current_end if self.end == -1 else self.end
        return end - self.start


class SuffixTree:
    """Ukkonen suffix tree over one encoded sequence.

    >>> tree = SuffixTree(encode("ARNDARND"))
    >>> tree.contains(encode("NDAR"))
    True
    >>> sorted(tree.occurrences(encode("ARND")))
    [0, 4]
    """

    def __init__(self, sequence: np.ndarray):
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("sequence must be non-empty 1-D")
        if seq.min() < 0 or seq.max() >= ALPHABET_SIZE:
            raise ValueError("sequence contains non-residue symbols")
        self.text = np.concatenate([seq, [SENTINEL]])
        self.n = len(self.text)
        self.root = _Node(start=-1, end=-1)
        self.root.end = 0
        self.root.start = 0
        self._build()
        self._assign_suffix_indices()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        text = self.text
        root = self.root
        active_node = root
        active_edge = -1  # index into text of the active edge's first symbol
        active_length = 0
        remainder = 0
        self._leaf_end = 0
        self.n_internal = 0

        for i in range(self.n):
            self._leaf_end = i + 1
            remainder += 1
            last_internal: _Node | None = None
            while remainder > 0:
                if active_length == 0:
                    active_edge = i
                edge_symbol = int(text[active_edge])
                child = active_node.children.get(edge_symbol)
                if child is None:
                    # Rule 2: new leaf directly under the active node.
                    leaf = _Node(start=i, end=-1)
                    active_node.children[edge_symbol] = leaf
                    if last_internal is not None:
                        last_internal.suffix_link = active_node
                        last_internal = None
                else:
                    edge_len = child.edge_length(self._leaf_end)
                    if active_length >= edge_len:
                        # Walk down (skip/count trick).
                        active_edge += edge_len
                        active_length -= edge_len
                        active_node = child
                        continue
                    if int(text[child.start + active_length]) == int(text[i]):
                        # Rule 3: already present; extend active point, stop.
                        active_length += 1
                        if last_internal is not None:
                            last_internal.suffix_link = active_node
                        break
                    # Rule 2 with split.
                    split = _Node(start=child.start, end=child.start + active_length)
                    self.n_internal += 1
                    active_node.children[edge_symbol] = split
                    leaf = _Node(start=i, end=-1)
                    split.children[int(text[i])] = leaf
                    child.start += active_length
                    split.children[int(text[child.start])] = child
                    if last_internal is not None:
                        last_internal.suffix_link = split
                    last_internal = split
                remainder -= 1
                if active_node is root and active_length > 0:
                    active_length -= 1
                    active_edge = i - remainder + 1
                elif active_node is not root:
                    active_node = active_node.suffix_link or root

    def _assign_suffix_indices(self) -> None:
        """Depth-first pass labelling each leaf with its suffix start."""
        stack: list[tuple[_Node, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if not node.children:
                node.suffix_index = self.n - depth
                continue
            for child in node.children.values():
                stack.append((child, depth + child.edge_length(self._leaf_end)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _walk(self, pattern: np.ndarray) -> tuple[_Node, int] | None:
        """Locate the pattern; returns (node, consumed-on-edge) or None."""
        pattern = np.asarray(pattern, dtype=np.int64)
        node = self.root
        pos = 0
        while pos < len(pattern):
            child = node.children.get(int(pattern[pos]))
            if child is None:
                return None
            end = self._leaf_end if child.end == -1 else child.end
            k = child.start
            while k < end and pos < len(pattern):
                if int(self.text[k]) != int(pattern[pos]):
                    return None
                k += 1
                pos += 1
            node = child
        return node, pos

    def contains(self, pattern: np.ndarray) -> bool:
        """Substring membership in O(|pattern|)."""
        if len(pattern) == 0:
            return True
        return self._walk(pattern) is not None

    def occurrences(self, pattern: np.ndarray) -> list[int]:
        """All start positions of the pattern, via the subtree's leaves."""
        if len(pattern) == 0:
            return list(range(self.n - 1))
        located = self._walk(pattern)
        if located is None:
            return []
        node, _ = located
        out: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if not current.children:
                out.append(current.suffix_index)
            else:
                stack.extend(current.children.values())
        return sorted(out)

    def count_occurrences(self, pattern: np.ndarray) -> int:
        return len(self.occurrences(pattern))

    def n_nodes(self) -> int:
        """Total node count (root, internal, leaves)."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[_Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def longest_repeated_substring(self) -> np.ndarray:
        """Deepest internal node's path label — the longest substring
        occurring at least twice (empty array if none)."""
        best_depth = 0
        best_path: list[tuple[int, int]] = []
        stack: list[tuple[_Node, int, list[tuple[int, int]]]] = [(self.root, 0, [])]
        while stack:
            node, depth, path = stack.pop()
            if node.children and depth > best_depth:
                best_depth = depth
                best_path = path
            for child in node.children.values():
                end = self._leaf_end if child.end == -1 else child.end
                # Exclude the sentinel from path labels.
                usable_end = min(end, self.n - 1) if end == self._leaf_end else end
                seg_len = max(usable_end - child.start, 0)
                if child.children or seg_len > 0:
                    stack.append(
                        (child, depth + seg_len, path + [(child.start, child.start + seg_len)])
                    )
        pieces = [self.text[s:e] for s, e in best_path]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)[:best_depth]
