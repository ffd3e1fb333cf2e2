"""Maximal-match promising-pair generation — the PaCE work generator.

A *maximal match* between two sequences is an exact match that cannot be
extended left or right.  In suffix-tree terms: the match string is an
internal node v with string depth >= psi, the two occurrences lie under
*different children* of v (right-maximal), and their preceding symbols
differ (left-maximal).

PaCE generates these pairs *on demand in decreasing match length* so that
long (most similar) pairs are aligned first and transitive-closure
clustering can discard the rest.

The block stream
----------------
There is one generator, :meth:`MaximalMatchFinder.match_blocks`, and it
produces the stream as :class:`MatchBlock` column arrays; every other
iterator (:meth:`~MaximalMatchFinder.matches`,
:meth:`~MaximalMatchFinder.matches_for_symbols`,
:meth:`~MaximalMatchFinder.unique_pairs`) is a view of it.  A block is
made with array operations only: a run of interval nodes is flattened
into its SA slots, child boundaries are read off ``lcp[slot] == depth``,
each slot is paired with every slot of its node that lies after its own
child (``repeat``/``arange``), same-sequence and non-left-maximal pairs
(and, under a label column, cross-label) pairs are masked out, and the
survivors are put in stream order by one stable sort.

Order contract: the concatenated blocks are the sequence

* nodes by depth descending, equal depths left to right — the order of
  :func:`~repro.suffix.intervals.lcp_intervals`;
* inside a node by ``(a-child, b-child, x, y)`` — child pairs left to
  right, then the SA slots ``x`` of the first child and ``y`` of the
  second, ascending.

CCD's work counters (which pairs the transitive-closure filter sees
first) depend on this order, so it is part of the interface;
``tests/test_intervals_matches.py`` keeps the scalar node walk this
module used to run as the reference and holds the blocks to it element
for element.

Sub-collections: under a *label column* (one label per sequence) a row
is kept only when its two sequences carry the same label ``>= 0``, and
the ``max_pairs_per_node`` cap counts per node and label.  Each label's
rows are then, in order, the stream of an index rebuilt over its
sequences (ids mapped): every sequence ends in its own sentinel, so that
index is the full one with the other sequences' slots dropped.

The candidate budget: a block expands at most :data:`CANDIDATE_BUDGET`
cross-child slot pairs before masking.  It exists for memory, not speed
— one array over all candidates of a filter-dominated input doubled the
peak RSS of the run, while budgeted blocks leave it where the scalar
walk had it.  A node with more cross-child pairs than that is cut, in
stream order, by child, then by partner child, then by single rows
``x`` (only such a single row may exceed the budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.suffix.intervals import lcp_intervals
from repro.suffix.suffix_array import GeneralizedSuffixArray

#: Cross-child slot pairs one block may expand before masking (see the
#: module docstring).  A constant, not an option: it bounds the working
#: set of the generator at a few MB whatever the input.
CANDIDATE_BUDGET = 1 << 15


@dataclass(frozen=True)
class MaximalMatch:
    """One maximal exact match between two distinct sequences.

    ``length`` is the match length; positions are offsets of the match
    start within each sequence.  Sequence indices satisfy ``seq_a < seq_b``.
    """

    seq_a: int
    pos_a: int
    seq_b: int
    pos_b: int
    length: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.seq_a, self.seq_b)


@dataclass(frozen=True)
class MatchBlock:
    """A contiguous piece of the match stream as parallel int64 columns
    (the fields of :class:`MaximalMatch`, one row per match).

    ``candidates`` is the number of cross-child slot pairs that were
    expanded and masked to produce the rows.
    """

    seq_a: np.ndarray
    pos_a: np.ndarray
    seq_b: np.ndarray
    pos_b: np.ndarray
    length: np.ndarray
    candidates: int

    def __len__(self) -> int:
        return len(self.seq_a)

    def take(self, rows: np.ndarray | slice) -> "MatchBlock":
        """The block restricted to ``rows`` (any NumPy index)."""
        return MatchBlock(
            self.seq_a[rows],
            self.pos_a[rows],
            self.seq_b[rows],
            self.pos_b[rows],
            self.length[rows],
            self.candidates,
        )

    def matches(self) -> Iterator[MaximalMatch]:
        """The rows as :class:`MaximalMatch` objects, in order."""
        return map(
            MaximalMatch,
            self.seq_a.tolist(),
            self.pos_a.tolist(),
            self.seq_b.tolist(),
            self.pos_b.tolist(),
            self.length.tolist(),
        )

    def first_per_pair(self) -> "MatchBlock":
        """The first row of each sequence pair, in stream order."""
        key = (self.seq_a << 32) | self.seq_b
        return self.take(np.sort(np.unique(key, return_index=True)[1]))


def _group_rank(key: np.ndarray) -> np.ndarray:
    """Per row, the number of earlier rows with the same ``key`` (>= 0)."""
    order = np.argsort(key, kind="stable")
    opens = np.flatnonzero(np.diff(key[order], prepend=-1))
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.arange(len(key)) - np.repeat(opens, np.diff(opens, append=len(key)))
    return rank


def _cuts(weights: np.ndarray) -> Iterator[tuple[int, int]]:
    """Greedy contiguous groups ``[start, stop)`` of total weight at most
    :data:`CANDIDATE_BUDGET`; a heavier element is a group of its own."""
    total = np.cumsum(weights)
    start = 0
    while start < len(weights):
        done = int(total[start - 1]) if start else 0
        stop = int(np.searchsorted(total, done + CANDIDATE_BUDGET, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


class _Slots:
    """The SA slots of a run of interval nodes, flattened.

    Everything is indexed by *flat position* (nodes back to back, each
    node's slots ascending): ``child`` numbers the children across the
    whole run, so it orders a-children and b-children without a node
    key; ``own_last`` / ``node_last`` are the flat positions where the
    slot's child / node end, so the partners of position ``p`` are
    ``own_last[p] + 1 .. node_last[p]``.
    """

    def __init__(self, finder: "MaximalMatchFinder", nodes: np.ndarray):
        size = finder._size[nodes]
        first = np.cumsum(size) - size
        self.node = np.repeat(np.arange(len(nodes)), size)
        slot = np.arange(len(self.node)) + (finder._lb[nodes] - first)[self.node]
        self.depth = finder._depth[nodes][self.node]
        # Inside a node lcp >= depth, with equality exactly where the
        # next child begins; the node's first slot opens its first child.
        opens = finder.gsa.lcp[slot] == self.depth
        opens[first] = True
        self.child = np.cumsum(opens) - 1
        self.child_first = np.flatnonzero(opens)
        child_last = np.append(self.child_first[1:], len(slot)) - 1
        self.own_last = child_last[self.child]
        self.node_last = (first + size - 1)[self.node]
        self.seq = finder.gsa.seq[slot]
        self.off = finder.gsa.off[slot]
        self.left = finder._left_symbol[slot]
        self.label = finder.labels[self.seq] if finder._masked else None

    def __len__(self) -> int:
        return len(self.node)

    def block(
        self,
        rows: tuple[int, int] | None = None,
        partners: tuple[int, int] | None = None,
    ) -> tuple[MatchBlock, np.ndarray]:
        """Matches of flat positions ``rows`` against their partners
        (clipped to flat range ``partners``), in stream order, and the
        run-local node index of each."""
        everything = (0, len(self))
        p = np.arange(*(everything if rows is None else rows))
        lo, hi = everything if partners is None else partners
        begin = np.maximum(self.own_last[p] + 1, lo)
        count = np.maximum(np.minimum(self.node_last[p] + 1, hi) - begin, 0)
        candidates = int(count.sum())
        x = np.repeat(p, count)
        # Row r's partners are begin[r], begin[r] + 1, ...
        y = np.arange(candidates) + np.repeat(begin - (np.cumsum(count) - count), count)
        # Distinct sequences, and left-maximal: a preceding sentinel (or
        # the virtual -1 before the text) occurs once, so two different
        # slots never share one and plain inequality is the whole test.
        keep = (self.seq[x] != self.seq[y]) & (self.left[x] != self.left[y])
        if self.label is not None:  # one sub-collection: one label, not -1
            keep &= (self.label[x] == self.label[y]) & (self.label[x] >= 0)
        x, y = x[keep], y[keep]
        # (x, y) ascending is already the order inside a child pair.
        order = np.lexsort((self.child[y], self.child[x]))
        x, y = x[order], y[order]
        swap = self.seq[x] > self.seq[y]
        a, b = np.where(swap, y, x), np.where(swap, x, y)
        block = MatchBlock(
            self.seq[a], self.off[a], self.seq[b], self.off[b], self.depth[x],
            candidates,
        )
        return block, self.node[x]


class MaximalMatchFinder:
    """Enumerate maximal-match pairs of length >= ``min_length``.

    Parameters
    ----------
    sequences:
        Encoded (uint8) sequences, or the
        :class:`~repro.suffix.suffix_array.GeneralizedSuffixArray` that
        already indexes them (a sequence list builds its own); indices
        into the collection name the pair endpoints.
    min_length:
        The paper's psi cutoff — e.g. 33 guarantees any 100-residue
        alignment at 98% identity contains such a match; the evaluation
        uses psi = 10 for the clustering phases.
    max_pairs_per_node:
        Safety valve against quadratic blow-up on highly repetitive
        inputs: per interval-tree node only the first this many matches
        of the node, in stream order, are emitted (the deepest matches
        still come first, so the cap drops only the least informative
        duplicates).  ``None`` means unlimited.
    labels:
        One integer per sequence, masking the stream to sub-collections
        (module docstring); ``None`` labels every sequence 0.
    """

    def __init__(
        self,
        sequences: Sequence[np.ndarray] | GeneralizedSuffixArray,
        *,
        min_length: int = 10,
        max_pairs_per_node: int | None = None,
        labels: Sequence[int] | np.ndarray | None = None,
    ):
        if min_length < 1:
            raise ValueError(f"min_length must be >= 1, got {min_length}")
        self.min_length = min_length
        self.max_pairs_per_node = max_pairs_per_node
        self.gsa = (
            sequences
            if isinstance(sequences, GeneralizedSuffixArray)
            else GeneralizedSuffixArray(sequences)
        )
        n = self.gsa.n_sequences
        self.labels = np.zeros(n, dtype=np.int64) if labels is None else (
            np.asarray(labels, dtype=np.int64))
        if self.labels.shape != (n,):
            raise ValueError(f"labels must be one per sequence, {n} in all")
        self._n_labels = int(self.labels.max(initial=0)) + 1
        # One label >= 0 for all masks nothing: skip the per-row test.
        self._masked = bool((self.labels != self._n_labels - 1).any())
        # The nodes in stream order (deepest first: PaCE's decreasing
        # maximal-match length), as columns.
        self._depth, self._lb, self._size = lcp_intervals(self.gsa.lcp, min_length)
        sa, text = self.gsa.sa, self.gsa.text
        #: First symbol of each node's common prefix — its bucket.
        self._symbol = text[sa[self._lb]]
        # Preceding symbol per SA slot (virtual sentinel -1 at text start).
        self._left_symbol = np.where(sa > 0, text[np.maximum(sa - 1, 0)], -1)

    # -- the one generator ---------------------------------------------------

    def match_blocks(self) -> Iterator[MatchBlock]:
        """The match stream, in decreasing match-length order, as blocks
        (see the module docstring for the order contract)."""
        return self._blocks(np.arange(len(self._depth)))

    def _blocks(self, nodes: np.ndarray) -> Iterator[MatchBlock]:
        """Blocks over ``nodes`` (ascending indices into the node
        columns): runs of whole nodes within the budget, a node beyond
        it split."""
        cap = self.max_pairs_per_node
        size = self._size[nodes]
        # Every slot pair of the node: an upper bound on its cross-child
        # pairs, exact when each child is a single suffix.
        bound = size * (size - 1) // 2
        for start, stop in _cuts(bound):
            if bound[start] > CANDIDATE_BUDGET:  # a group of its own
                yield from self._split_blocks(_Slots(self, nodes[start:stop]))
                continue
            # The flattened run is not kept across the yield: a consumer
            # aligns between blocks, and a run of small nodes has as
            # many slots as candidates.
            block, node = _Slots(self, nodes[start:stop]).block()
            if cap is not None and len(block):
                key = node * self._n_labels + self.labels[block.seq_a]
                block = block.take(_group_rank(key) < cap)
            yield block

    def _split_blocks(self, slots: _Slots) -> Iterator[MatchBlock]:
        """One node whose slot pairs exceed the budget, as blocks."""
        cap = self.max_pairs_per_node
        taken = np.zeros(self._n_labels, dtype=np.int64)
        for rows, partners in self._split(slots):
            block, _ = slots.block(rows, partners)
            if cap is not None:
                label = self.labels[block.seq_a]
                block = block.take(_group_rank(label) + taken[label] < cap)
                taken += np.bincount(self.labels[block.seq_a], minlength=self._n_labels)
            yield block
            if cap is not None and (taken >= cap).all():
                return

    @staticmethod
    def _split(slots: _Slots) -> Iterator[tuple[tuple[int, int], tuple[int, int] | None]]:
        """Cut one node into ``(rows, partners)`` pieces that keep the
        stream order ``(a-child, b-child, x, y)``: groups of a-children;
        an a-child too heavy for one block by groups of b-children; one
        child pair too heavy by rows ``x``."""
        first = slots.child_first
        sizes = np.diff(first, append=len(slots))
        end = first + sizes
        weights = sizes * (len(slots) - end)
        for a0, a1 in _cuts(weights):
            if a1 - a0 > 1 or weights[a0] <= CANDIDATE_BUDGET:
                yield (int(first[a0]), int(end[a1 - 1])), None
                continue
            a, later = a0, a0 + 1
            for b0, b1 in _cuts(sizes[a] * sizes[later:]):
                b0, b1 = b0 + later, b1 + later
                if b1 - b0 > 1 or sizes[a] * sizes[b0] <= CANDIDATE_BUDGET:
                    yield (int(first[a]), int(end[a])), (int(first[b0]), int(end[b1 - 1]))
                    continue
                partners = (int(first[b0]), int(end[b0]))
                for x0, x1 in _cuts(np.full(sizes[a], sizes[b0])):
                    yield (int(first[a]) + x0, int(first[a]) + x1), partners

    # -- views of the stream -------------------------------------------------

    def matches(self) -> Iterator[MaximalMatch]:
        """Yield maximal matches in decreasing match-length order."""
        for block in self.match_blocks():
            yield from block.matches()

    def unique_pairs(self) -> Iterator[MaximalMatch]:
        """Yield one match per sequence pair — the longest one.

        Because the stream is in decreasing length, the first occurrence
        of a pair is its longest maximal match; later occurrences are
        filtered.
        """
        seen: set[tuple[int, int]] = set()
        for block in self.match_blocks():
            for match in block.first_per_pair().matches():
                if match.pair not in seen:
                    seen.add(match.pair)
                    yield match

    # -- distributed-construction support ---------------------------------
    #
    # Every match generated at a node starts with the first symbol of the
    # node's common prefix, so partitioning nodes by that symbol (as PaCE
    # partitions suffix-tree subtrees across processors) loses no matches
    # of length >= 1.

    def bucket_sizes(self) -> dict[int, int]:
        """Total suffix count per first-symbol bucket (load estimate)."""
        totals = np.bincount(self._symbol, weights=self._size).astype(np.int64)
        return {symbol: total for symbol, total in enumerate(totals.tolist()) if total}

    def bucket_symbols(self) -> list[int]:
        """All first symbols that own at least one interval node."""
        return sorted(self.bucket_sizes())

    def matches_for_symbols(self, symbols: set[int]) -> Iterator[MaximalMatch]:
        """Decreasing-length match stream restricted to given buckets:
        the subsequence of :meth:`matches` generated at their nodes.

        The union of streams over a partition of :meth:`bucket_symbols`
        equals :meth:`matches` (as a multiset).
        """
        mine = np.isin(self._symbol, list(symbols))
        for block in self._blocks(np.flatnonzero(mine)):
            yield from block.matches()
