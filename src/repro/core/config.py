"""Pipeline configuration.

Every cutoff the paper mentions is a software parameter (footnote 3);
the defaults below are the paper's stated values where given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.faults.plan import FaultPlan
from repro.shingle.algorithm import ShingleParams


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the four-phase pipeline.

    Attributes
    ----------
    psi:
        Maximal-match cutoff for promising pairs (Section IV-A derives
        33 from a 98%-similarity model; the evaluation generates pairs
        from matches of 10 residues, which is the default here).
    containment_similarity / containment_coverage:
        Definition 1 thresholds for redundancy removal (0.95 / 0.95).
    overlap_similarity / overlap_coverage:
        Definition 2 thresholds for connected components (0.30 / 0.80).
    edge_similarity / edge_coverage:
        Similarity-graph edge criterion for the bipartite phase (user
        specified; GOS used 0.70 — the default 0.40 suits the wider
        identity range of planted families).
    reduction:
        "global" for B_d (the paper's implemented variant) or "domain"
        for B_m (the paper's proposed future-work variant).
    w:
        Word length for the domain reduction (paper: ~10).
    min_component_size / min_subgraph_size:
        Reporting cutoffs (both 5 in the evaluation).
    tau:
        The A ~= B Jaccard cutoff for the global reduction.
    shingle:
        (s1, c1, s2, c2) — evaluation used (5, 300) for (s, c).
    max_pairs_per_node:
        Safety cap on per-node promising-pair generation (None = off).
    seed:
        A label, not a source of randomness: no phase reads it (the one
        randomised step, Shingle, draws from ``shingle.seed``).  Its
        only reader is the configuration digest a checkpoint is keyed
        by (``shingle.seed`` is not in it); the CLI sets both from the
        one ``--seed``, which is how a run under another seed is refused
        a journal.
    backend:
        Execution backend: "serial" (in-process reference) or "process"
        (real multi-core via :mod:`repro.runtime`).  Results are
        bit-identical across backends; only wall-clock time changes.
    workers:
        Worker processes for the process backend (0 = auto-detect:
        usable cores minus one for the master).
    fault_plan:
        Deterministic fault-injection plan (:mod:`repro.faults`) threaded
        into the execution backend; None runs fault-free.  Results are
        unaffected by construction — that is the chaos contract.
    task_deadline:
        Seconds an in-flight task may age before its worker is presumed
        hung and killed (process backend; None = no deadline).
    respawn_budget:
        Maximum worker respawns per run (process backend; None = the
        backend default of 2 x workers).  Exhausting it degrades to
        in-master serial completion.
    """

    psi: int = 10
    containment_similarity: float = 0.95
    containment_coverage: float = 0.95
    overlap_similarity: float = 0.30
    overlap_coverage: float = 0.80
    edge_similarity: float = 0.40
    edge_coverage: float = 0.80
    reduction: str = "global"
    w: int = 10
    min_component_size: int = 5
    min_subgraph_size: int = 5
    tau: float = 0.5
    shingle: ShingleParams = field(default_factory=lambda: ShingleParams(s1=5, c1=300, s2=5, c2=100))
    max_pairs_per_node: int | None = None
    seed: int = 2008
    scheme: ScoringScheme = field(default_factory=blosum62_scheme)
    backend: str = "serial"
    workers: int = 0
    fault_plan: FaultPlan | None = None
    task_deadline: float | None = None
    respawn_budget: int | None = None

    def __post_init__(self) -> None:
        if self.psi < 2:
            raise ValueError(f"psi must be >= 2, got {self.psi}")
        if self.reduction not in ("global", "domain"):
            raise ValueError(f"reduction must be 'global' or 'domain', got {self.reduction!r}")
        for name in (
            "containment_similarity",
            "containment_coverage",
            "overlap_similarity",
            "overlap_coverage",
            "edge_similarity",
            "edge_coverage",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.min_component_size < 1 or self.min_subgraph_size < 1:
            raise ValueError("reporting cutoffs must be >= 1")
        if self.backend not in ("serial", "process"):
            raise ValueError(
                f"backend must be 'serial' or 'process', got {self.backend!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan, got {type(self.fault_plan).__name__}"
            )
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError(
                f"task_deadline must be > 0, got {self.task_deadline}"
            )
        if self.respawn_budget is not None and self.respawn_budget < 0:
            raise ValueError(
                f"respawn_budget must be >= 0, got {self.respawn_budget}"
            )
