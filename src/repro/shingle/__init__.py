"""The two-pass Shingle algorithm for dense bipartite subgraph detection.

``algorithm`` states it once, as ``pass_one`` / ``pass_two`` / ``report``
over ``<shingle, vertex>`` tuple columns; ``parallel`` runs those per
simulated rank; ``tests/scalar_shingle.py`` keeps the loop they replaced
as the field-for-field oracle.
"""

from repro.shingle.algorithm import (
    DenseSubgraph,
    ShingleParams,
    ShingleResult,
    shingle_dense_subgraphs,
)
from repro.shingle.parallel import parallel_shingle_dense_subgraphs
from repro.shingle.postprocess import jaccard_ab, passes_ab_test

__all__ = [
    "DenseSubgraph",
    "ShingleParams",
    "ShingleResult",
    "shingle_dense_subgraphs",
    "parallel_shingle_dense_subgraphs",
    "jaccard_ab",
    "passes_ab_test",
]
