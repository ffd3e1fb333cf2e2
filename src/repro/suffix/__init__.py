"""Exact-match string indices.

The paper's pattern-matching heuristic rests on a generalized suffix tree
(GST) used to enumerate *maximal match* pairs of length >= psi.  This
package provides:

* :mod:`repro.suffix.suffix_array` — the production path: a vectorised
  rank-doubling suffix array + Kasai LCP over the sentinel-separated
  concatenation of all sequences (an enhanced suffix array is equivalent
  to a suffix tree for this task).
* :mod:`repro.suffix.intervals` — the LCP-interval tree (the suffix-tree
  node hierarchy recovered from SA+LCP).
* :mod:`repro.suffix.matches` — maximal-match pair generation in
  decreasing match-length order, exactly the PaCE "promising pair"
  stream.
* :mod:`repro.suffix.wmer` — the fixed-length w-mer incidence index for
  the domain-based bipartite reduction B_m.

Two reference implementations that no phase runs are kept on purpose,
because tests compare the production path against them:

* :mod:`repro.suffix.gst` — a direct compressed generalized suffix tree
  built by suffix insertion (quadratic worst case); the oracle for
  :mod:`repro.suffix.matches` in
  ``test_intervals_matches.py::test_matches_equal_gst_oracle``.
* :mod:`repro.suffix.ukkonen` — Ukkonen's O(n) suffix tree; the
  reference ``test_properties.py`` holds :func:`suffix_array` to.
"""

from repro.suffix.suffix_array import (
    GeneralizedSuffixArray,
    kasai_lcp,
    suffix_array,
)
from repro.suffix.intervals import LcpInterval, lcp_interval_tree
from repro.suffix.matches import MaximalMatch, MaximalMatchFinder
from repro.suffix.gst import GeneralizedSuffixTree
from repro.suffix.ukkonen import SuffixTree
from repro.suffix.wmer import WmerIndex

__all__ = [
    "GeneralizedSuffixArray",
    "kasai_lcp",
    "suffix_array",
    "LcpInterval",
    "lcp_interval_tree",
    "MaximalMatch",
    "MaximalMatchFinder",
    "GeneralizedSuffixTree",
    "SuffixTree",
    "WmerIndex",
]
