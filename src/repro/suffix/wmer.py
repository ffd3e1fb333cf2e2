"""Fixed-length w-mer incidence index — the domain-based reduction's input.

Section III's domain-based approach builds a bipartite graph
``B_m = (V_m, V_r, E')`` where ``V_m`` is the set of w-length strings
(w ~ 10) occurring in at least two *different* sequences and an edge
connects a w-mer to every sequence containing it.  This module computes
that incidence structure with one vectorised k-mer packing pass per
sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.prefilter import kmer_codes


class WmerIndex:
    """Index of w-mers shared by at least ``min_sequences`` sequences.

    Attributes
    ----------
    w:
        Word length (paper default ~10; capped at 13 by int64 packing).
    codes:
        Sorted array of qualifying packed w-mer codes; position in this
        array is the w-mer's vertex id on the V_m side.
    """

    def __init__(
        self,
        sequences: Sequence[np.ndarray],
        *,
        w: int = 10,
        min_sequences: int = 2,
    ):
        if min_sequences < 1:
            raise ValueError(f"min_sequences must be >= 1, got {min_sequences}")
        self.w = w
        self.min_sequences = min_sequences
        per_seq: list[np.ndarray] = [
            np.unique(kmer_codes(np.asarray(seq, dtype=np.uint8), w))
            for seq in sequences
        ]
        if per_seq:
            all_codes = np.concatenate(per_seq)
        else:
            all_codes = np.empty(0, dtype=np.int64)
        codes, counts = np.unique(all_codes, return_counts=True)
        self.codes = codes[counts >= min_sequences]
        # Incidence: for each sequence, which qualifying w-mers it contains.
        self._seq_to_wmers: list[np.ndarray] = []
        if len(self.codes) == 0:
            self._seq_to_wmers = [np.empty(0, dtype=np.int64) for _ in per_seq]
        else:
            for uniq in per_seq:
                idx = np.searchsorted(self.codes, uniq)
                valid = (idx < len(self.codes)) & (
                    self.codes[np.minimum(idx, len(self.codes) - 1)] == uniq
                )
                self._seq_to_wmers.append(idx[valid].astype(np.int64))

    @property
    def n_wmers(self) -> int:
        return len(self.codes)

    @property
    def n_sequences(self) -> int:
        return len(self._seq_to_wmers)

    def wmers_of(self, seq_index: int) -> np.ndarray:
        """Vertex ids (into :attr:`codes`) of qualifying w-mers in a sequence."""
        return self._seq_to_wmers[seq_index]

    def edges(self) -> list[tuple[int, int]]:
        """All (w-mer id, sequence id) incidence edges."""
        out: list[tuple[int, int]] = []
        for seq_idx, wmers in enumerate(self._seq_to_wmers):
            out.extend((int(wm), seq_idx) for wm in wmers)
        return out
