"""repro — parallel protein family identification in metagenomic data.

A from-scratch reproduction of Wu & Kalyanaraman, *"An Efficient Parallel
Approach for Identifying Protein Families in Large-scale Metagenomic
Data Sets"* (SC 2008): dense bipartite subgraph detection over a
suffix-tree-filtered similarity graph, with the distributed-memory
execution reproduced on a deterministic discrete-event simulator.

Quickstart::

    from repro import (MetagenomeSpec, generate_metagenome,
                       PipelineConfig, ProteinFamilyPipeline)

    data = generate_metagenome(MetagenomeSpec(n_families=20, seed=1))
    result = ProteinFamilyPipeline(PipelineConfig()).run(data.sequences)
    print(result.table1().formatted())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult, ProteinFamilyPipeline
from repro.eval.metrics import pair_confusion, quality_scores
from repro.eval.report import report_lines
from repro.gos.baseline import GosConfig, GosResult, gos_cluster
from repro.parallel.machine import BLUEGENE_L, XEON_CLUSTER, MachineModel
from repro.parallel.simulator import VirtualCluster
from repro.runtime import (
    Backend,
    ProcessBackend,
    RuntimeStats,
    SerialBackend,
    runtime_info,
)
from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.generator import (
    MetagenomeSpec,
    SyntheticMetagenome,
    generate_metagenome,
)
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.shingle.algorithm import ShingleParams

__version__ = "1.0.0"

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "ProteinFamilyPipeline",
    "pair_confusion",
    "quality_scores",
    "report_lines",
    "GosConfig",
    "GosResult",
    "gos_cluster",
    "BLUEGENE_L",
    "XEON_CLUSTER",
    "MachineModel",
    "VirtualCluster",
    "Backend",
    "ProcessBackend",
    "RuntimeStats",
    "SerialBackend",
    "runtime_info",
    "read_fasta",
    "write_fasta",
    "MetagenomeSpec",
    "SyntheticMetagenome",
    "generate_metagenome",
    "SequenceRecord",
    "SequenceSet",
    "ShingleParams",
    "__version__",
]
