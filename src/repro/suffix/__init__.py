"""Exact-match string indices.

The paper's pattern-matching heuristic rests on a generalized suffix tree
(GST) used to enumerate *maximal match* pairs of length >= psi.  This
package provides:

* :mod:`repro.suffix.suffix_array` — the string index of a run: a
  vectorised rank-doubling suffix array + column-pass LCP over the
  sentinel-separated concatenation of all sequences (an enhanced suffix
  array is equivalent to a suffix tree for this task), built once per
  backend session and read whole by every phase.
* :mod:`repro.suffix.intervals` — the suffix-tree nodes recovered from
  the LCP array, as ``(depth, lb, size)`` columns in stream order.
* :mod:`repro.suffix.matches` — maximal-match pair generation in
  decreasing match-length order, exactly the PaCE "promising pair"
  stream, produced as a *block stream*: one generator
  (:meth:`MaximalMatchFinder.match_blocks`) emits the matches as NumPy
  column blocks (:class:`MatchBlock`) whose concatenation is the stream
  — nodes deepest first, inside a node by ``(a-child, b-child, x, y)`` —
  and every per-match iterator is a view of it.  A label column masks
  the stream to sub-collections (the kept sequences, each component),
  each label's rows being the stream of an index rebuilt over its
  sequences.  A fixed candidate budget per block keeps the generator's
  working set at a few MB.
* :mod:`repro.suffix.wmer` — the fixed-length w-mer incidence index for
  the domain-based bipartite reduction B_m.
"""

from repro.suffix.suffix_array import (
    GeneralizedSuffixArray,
    lcp_array,
    suffix_array,
)
from repro.suffix.intervals import lcp_intervals
from repro.suffix.matches import MatchBlock, MaximalMatch, MaximalMatchFinder
from repro.suffix.wmer import WmerIndex

__all__ = [
    "GeneralizedSuffixArray",
    "lcp_array",
    "suffix_array",
    "lcp_intervals",
    "MatchBlock",
    "MaximalMatch",
    "MaximalMatchFinder",
    "WmerIndex",
]
