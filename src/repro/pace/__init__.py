"""PaCE-style phases of the pipeline: master-side state and simulation.

Each phase is stated once, as the state its *master* owns — pair source,
admission filter with its counters, verdict sink, result construction
(:class:`RedundancyMaster`, :class:`ClusteringMaster`,
:class:`BipartiteMaster`; DSD has no cross-component state, only
:func:`~repro.pace.densesub.shingle_component` mapped over components).
:mod:`repro.runtime.phases` executes the admitted work of all four
phases on a real backend (the serial backend is the reference).  The
paper's parallel evidence covers RR and CCD only, so those two also
have ``parallel_*`` drivers here that run the same decisions through
the master-worker protocol on a :class:`repro.parallel.VirtualCluster`,
yielding simulated run-times.  A key design invariant, verified by
tests: every driver produces byte-identical scientific results at every
worker or processor count, because the master's transitive-closure
filter only skips pairs whose outcome cannot affect connectivity.
"""

from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.pace.redundancy import (
    RedundancyMaster,
    RedundancyResult,
    parallel_redundancy_removal,
)
from repro.pace.clustering import (
    ClusteringMaster,
    ClusteringResult,
    parallel_component_detection,
)
from repro.pace.bipartite_gen import BipartiteMaster, ComponentGraphs
from repro.pace.densesub import DsdResult

__all__ = [
    "AlignmentCache",
    "CostModel",
    "RedundancyMaster",
    "RedundancyResult",
    "parallel_redundancy_removal",
    "ClusteringMaster",
    "ClusteringResult",
    "parallel_component_detection",
    "BipartiteMaster",
    "ComponentGraphs",
    "DsdResult",
]
