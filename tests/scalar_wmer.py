"""The per-sequence w-mer index, kept as the reference for B_m.

This is how ``repro.suffix.wmer.WmerIndex`` built the domain-based
reduction before it became one ``(code, sequence)`` lexsort over edge
columns: one ``np.unique`` of each sequence's packed w-mer codes, the
codes seen in at least ``min_sequences`` of those sets, and per
sequence the qualifying codes it contains.  ``test_graph.py`` holds
``wmer_bipartite`` to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.prefilter import kmer_codes


def wmer_incidence(
    sequences: Sequence[np.ndarray], w: int, min_sequences: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """The qualifying codes, ascending, and the ``(w-mer vertex id,
    sequence)`` incidence edges, sorted."""
    per_seq = [np.unique(kmer_codes(np.asarray(seq, dtype=np.uint8), w)) for seq in sequences]
    counts: dict[int, int] = {}
    for uniq in per_seq:
        for code in uniq.tolist():
            counts[code] = counts.get(code, 0) + 1
    codes = sorted(code for code, n in counts.items() if n >= min_sequences)
    vertex = {code: v for v, code in enumerate(codes)}
    edges = sorted(
        (vertex[code], s)
        for s, uniq in enumerate(per_seq)
        for code in uniq.tolist()
        if code in vertex
    )
    return codes, edges
