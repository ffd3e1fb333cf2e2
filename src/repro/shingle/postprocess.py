"""Post-processing of Shingle output for the global-similarity reduction.

The web-community formulation groups ``A`` (pointers) and ``B``
(pointees) without requiring ``A ~= B``; the paper's B_d reduction adds
the constraint ``|A n B| / |A u B| >= tau`` as a post-test (Section III)
and reports ``A u B`` as the dense subgraph.
"""

from __future__ import annotations

from typing import Iterable

from repro.shingle.algorithm import DenseSubgraph


def jaccard_ab(subgraph: DenseSubgraph) -> float:
    """``|A n B| / |A u B|`` of a dense subgraph (B_d semantics: left and
    right labels share the sequence-index space)."""
    a = set(subgraph.left)
    b = set(subgraph.right)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def passes_ab_test(subgraph: DenseSubgraph, tau: float) -> bool:
    """The paper's A ~= B criterion with cutoff ``0 << tau <= 1``."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return jaccard_ab(subgraph) >= tau


def _disjoint_largest_first(
    candidates: list[tuple[int, ...]], min_size: int
) -> list[tuple[int, ...]]:
    """Make overlapping vertex sets disjoint: larger sets claim contested
    vertices first, later sets lose them, and a set left with fewer than
    ``min_size`` vertices is dropped (the paper expects *disjoint* dense
    subgraphs — each protein maps to one family)."""
    candidates.sort(key=lambda m: (-len(m), m))
    claimed: set[int] = set()
    out: list[tuple[int, ...]] = []
    for merged in candidates:
        remaining = tuple(v for v in merged if v not in claimed)
        if len(remaining) < min_size:
            continue
        claimed.update(remaining)
        out.append(remaining)
    return out


def global_similarity_output(
    subgraphs: Iterable[DenseSubgraph],
    *,
    tau: float = 0.5,
    min_size: int = 5,
) -> list[tuple[int, ...]]:
    """Final B_d output: each passing subgraph's ``A u B`` vertex set.

    Subgraphs failing the A ~= B test or smaller than ``min_size`` are
    dropped, mirroring the paper's reporting step.  Because ``B`` is a
    neighbourhood union, two subgraphs' ``A u B`` sets can overlap inside
    one component; they are reported disjoint, largest first.
    """
    return _disjoint_largest_first(
        [
            tuple(sorted(set(sg.left) | set(sg.right)))
            for sg in subgraphs
            if passes_ab_test(sg, tau)
        ],
        min_size,
    )


def domain_output(
    subgraphs: Iterable[DenseSubgraph],
    *,
    min_size: int = 5,
) -> list[tuple[int, ...]]:
    """Final B_m output: each subgraph's ``B`` (the sequence side),
    reported disjoint, largest first, as in the global reduction."""
    return _disjoint_largest_first([sg.right for sg in subgraphs], min_size)
