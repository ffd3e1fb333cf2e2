"""The inputs of the paper's evaluation, as 1:100 analogues.

The paper samples 160,000 ORFs (221 GOS clusters, mean length 163) and
22,186 ORFs (one large cluster, mean length 256) from CAMERA.  We use
1:100-scale synthetic analogues with the same *structure* (skewed family
sizes, planted redundancy, one-giant-cluster variant) so every section
of EXPERIMENTS.md regenerates in minutes on one host while exercising
identical code paths.

An :class:`Analogue` holds the two data sets and memoises everything
heavy derived from them (pipeline results, the shuffled scaling input,
the RR+CCD grid): each cell of the processor sweeps of Figures 6-7 is
simulated once and read by every section that needs it.
"""

from __future__ import annotations

from functools import cache, cached_property

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult, ProteinFamilyPipeline
from repro.pace.clustering import parallel_component_detection
from repro.pace.redundancy import parallel_redundancy_removal
from repro.parallel.machine import BLUEGENE_L
from repro.parallel.simulator import VirtualCluster
from repro.sequence.generator import MetagenomeSpec, SyntheticMetagenome, generate_metagenome
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams
from repro.util.rng import make_rng

#: The processor counts of Figures 6-7 and Table II, scaled 1:2 alongside
#: the 1:100 data scale (paper: 32/64/128/512).  PAPER_PROCESSORS maps each
#: sweep point back to the paper's axis label.
PROCESSOR_SWEEP = (16, 32, 64, 256)
PAPER_PROCESSORS = {16: 32, 32: 64, 64: 128, 256: 512}

#: Input-size sweep of Figure 6, as fractions of the 160K-analogue.
SIZE_SWEEP = {"10k": 1 / 16, "20k": 1 / 8, "40k": 1 / 4, "80k": 1 / 2, "160k": 1.0}

#: Paper-default shingle parameters scaled to analogue component sizes:
#: (s, c) = (5, 300) needs Gamma >= 5; our scaled components support it.
BENCH_SHINGLE = ShingleParams(s1=5, c1=300, s2=5, c2=100, seed=2008)

BENCH_CONFIG = PipelineConfig(
    psi=10,
    # Between the within-subfamily (~0.70) and cross-subfamily (~0.41)
    # observed identities, so similarity-graph edges trace subfamilies
    # while Definition 2 (0.30) keeps whole clusters connected.
    edge_similarity=0.55,
    min_component_size=5,
    min_subgraph_size=5,
    shingle=BENCH_SHINGLE,
    tau=0.5,
)

#: 1:100 analogue of the 160K data set: ~40 families, skewed sizes,
#: mean length 163, 12% planted redundancy.
SPEC_160K = MetagenomeSpec(
    n_families=80,
    mean_family_size=25,
    zipf_exponent=2.5,
    max_family_size=120,
    mean_length=163,
    length_stddev=35,
    identity_low=0.85,
    identity_high=0.95,
    subfamily_size=14,
    subfamily_identity=0.72,
    redundant_fraction=0.12,
    noise_fraction=0.05,
    seed=160_000,
)

#: 1:100 analogue of the 22K single-cluster set: one dominant family,
#: mean length 256.
SPEC_22K = MetagenomeSpec(
    n_families=3,
    mean_family_size=75,
    zipf_exponent=1.2,
    max_family_size=400,
    mean_length=256,
    length_stddev=40,
    identity_low=0.80,
    identity_high=0.92,
    subfamily_size=15,
    subfamily_identity=0.72,
    redundant_fraction=0.05,
    noise_fraction=0.02,
    seed=22_186,
)


class Analogue:
    """The "160k" and "22k" data sets and what the sections derive from them."""

    def __init__(
        self,
        metagenome_160k: SyntheticMetagenome,
        metagenome_22k: SyntheticMetagenome,
        config: PipelineConfig = BENCH_CONFIG,
    ) -> None:
        self.metagenome_160k = metagenome_160k
        self.metagenome_22k = metagenome_22k
        self.config = config

    @cached_property
    def result_160k(self) -> PipelineResult:
        return ProteinFamilyPipeline(self.config).run(self.metagenome_160k.sequences)

    @cached_property
    def result_22k(self) -> PipelineResult:
        return ProteinFamilyPipeline(self.config).run(self.metagenome_22k.sequences)

    @cached_property
    def scaling_sequences(self) -> SequenceSet:
        """The 160K-analogue shuffled once so size subsets are prefixes.

        Each size of the Figure 6/7 grids is a prefix of this order, so
        a smaller input's sequences are a subset of every larger one's,
        at the same indices (the committed numbers were drawn this way).
        """
        sequences = self.metagenome_160k.sequences
        order = make_rng(6, "scaling-shuffle").permutation(len(sequences))
        return sequences.subset(int(i) for i in order)

    def scaling_subset(self, label: str) -> SequenceSet:
        """Prefix subset named like the paper's input sizes (10k ... 160k)."""
        full = self.scaling_sequences
        return full.subset(range(max(int(len(full) * SIZE_SWEEP[label]), 10)))

    @cache
    def rr_ccd(self, label: str, p: int) -> tuple[float, float, float, list[int]]:
        """One (input size, processors) cell on the simulated BlueGene/L:
        RR seconds, CCD seconds, the fraction of promising pairs CCD's
        filter eliminated, and the sequences RR kept."""
        sequences = self.scaling_subset(label)
        cluster = VirtualCluster(p, BLUEGENE_L)
        rr = parallel_redundancy_removal(sequences, cluster, psi=10)
        ccd = parallel_component_detection(sequences, rr.kept, cluster, psi=10)
        return rr.sim.elapsed, ccd.sim.elapsed, ccd.work_reduction, rr.kept


@cache
def paper_analogue() -> Analogue:
    return Analogue(generate_metagenome(SPEC_160K), generate_metagenome(SPEC_22K))
