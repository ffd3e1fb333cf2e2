"""Fixed-length w-mer incidence index — the domain-based reduction's input.

Section III's domain-based approach builds a bipartite graph
``B_m = (V_m, V_r, E')`` where ``V_m`` is the set of w-length strings
(w ~ 10) occurring in at least two *different* sequences and an edge
connects a w-mer to every sequence containing it.  This module computes
that incidence as edge columns: every w-mer of the concatenated
sequences packed in one pass, then one ``(code, sequence)`` lexsort.
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
    incidence:
        ``(m, 2)`` int64 rows ``(w-mer vertex id, sequence index)``, one
        per sequence containing a qualifying w-mer, sorted and distinct.
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
        lengths = [len(seq) for seq in sequences]
        owner = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        code = kmer_codes(np.concatenate([np.empty(0, dtype=np.uint8), *sequences]), w)
        # A window is a w-mer of one sequence when it starts and ends in it.
        seq = owner[: len(code)]
        inside = seq == owner[w - 1:]
        code, seq = code[inside], seq[inside]
        order = np.lexsort((seq, code))
        code, seq = code[order], seq[order]
        first = np.ones(len(code), dtype=bool)
        first[1:] = (code[1:] != code[:-1]) | (seq[1:] != seq[:-1])
        code, seq = code[first], seq[first]
        # Runs of one code: its distinct sequences.
        start = np.flatnonzero(np.diff(code, prepend=-1))
        counts = np.diff(np.append(start, len(code)))
        shared = counts >= min_sequences
        self.codes = code[start[shared]]
        self.incidence = np.stack([
            np.repeat(np.arange(len(self.codes), dtype=np.int64), counts[shared]),
            seq[np.repeat(shared, counts)],
        ], axis=1)

    @property
    def n_wmers(self) -> int:
        return len(self.codes)
