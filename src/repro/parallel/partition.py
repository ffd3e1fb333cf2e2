"""Load-balanced partitioning helpers.

Two placements recur in the pipeline:

* suffix-bucket assignment for the distributed string index (RR/CCD
  phases): buckets of very uneven size must spread across workers;
* connected-component batching for the dense-subgraph phase: the paper
  "grouped multiple connected components into batches of roughly the
  same size and distributed the batches across processors".

Both are multiway number partitioning; we use the LPT (longest
processing time first) greedy rule, a 4/3-approximation that is the
standard practical choice.
"""

from __future__ import annotations

import heapq
from typing import Sequence


def balance_items(weights: Sequence[float], n_bins: int) -> list[list[int]]:
    """Assign item indices to ``n_bins`` bins minimising the max bin weight.

    LPT greedy: sort items by descending weight, place each in the
    currently lightest bin.  Returns one index list per bin; bins may be
    empty when there are fewer items than bins.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    for w in weights:
        if w < 0:
            raise ValueError("weights must be non-negative")
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    # heap of (current weight, bin index)
    heap: list[tuple[float, int]] = [(0.0, b) for b in range(n_bins)]
    heapq.heapify(heap)
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for item in order:
        load, b = heapq.heappop(heap)
        bins[b].append(item)
        heapq.heappush(heap, (load + weights[item], b))
    return bins
