"""The six workloads of the benchmark suite, and how their inputs are made.

Every workload is a fixed *shape* — how many families of which size,
length and identity — and ``--seed`` draws the residues, mutations,
fragments and sequence order.  The shape is fixed on purpose: the
generator's own Zipf draw moves the number of promising pairs (and with
it the wall-clock) by 20–30% from one seed to the next, which would hide
any change smaller than that.  With a fixed shape the scientific work
(pairs, DP cells) differs by about 3% between seeds, so what is left in
the spread of a timing is the machine.

Sizes are set by the time cap of the benchmark contract (136 runs in
57 minutes on two shared cores), not by the paper: a pipeline run lasts
about three seconds, so that a 10-second run holds the three repetitions
a median needs.  ``BENCHMARK.json`` says in a line why each workload
exists; README.md has the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import MetagenomeSpec, PipelineConfig, SequenceRecord, SequenceSet
from repro import ShingleParams, generate_metagenome

#: Zipf exponent at which the generator's family-size draw is constant
#: (every raw draw is 1), so each family gets exactly ``mean_family_size``.
_FLAT_ZIPF = 50.0

#: Seed the pipeline configuration carries (Shingle permutations); the
#: workload seed only ever reaches the input generator.
CONFIG_SEED = 2008


@dataclass(frozen=True)
class Tier:
    """``families`` planted families of exactly ``size`` members each."""

    families: int
    size: int
    length: int
    identity: float


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch": the unit of work is one pipeline run; "serve": one request round
    seed_offset: int
    tiers: tuple[Tier, ...]
    quick_tiers: tuple[Tier, ...]
    spec: dict = field(default_factory=dict)
    """Extra :class:`MetagenomeSpec` fields shared by every tier."""
    cli: dict = field(default_factory=dict)
    """Pipeline settings, named as the ``repro run`` / ``repro serve``
    flags, so the batch API and the daemon subprocess share one source."""
    backend: str = "serial"
    workers: int | None = None
    mix: tuple[int, int, int] = (0, 0, 0)
    """Requests per round as (lookup, classify, insert); serve only."""


#: No ORF fragments: members of a tier then differ in length only by
#: indels, which takes ~5% of seed-to-seed spread out of DP cells, peak
#: RSS and classify cost.  Redundant (contained) copies are still planted.
_NO_FRAGMENTS = {"fragment_fraction": 0.0}

_GLOBAL_CLI = {"edge_similarity": 0.55, "shingle_s": 5, "shingle_c": 300,
               "min_size": 5, "reduction": "global"}
_DOMAIN_CLI = {"edge_similarity": 0.55, "shingle_s": 3, "shingle_c": 100,
               "min_size": 4, "reduction": "domain"}

_SKEWED = dict(
    tiers=(Tier(2, 24, 200, 0.92), Tier(5, 16, 163, 0.92),
           Tier(10, 10, 140, 0.92), Tier(16, 6, 120, 0.92)),
    quick_tiers=(Tier(1, 10, 140, 0.92), Tier(2, 6, 120, 0.92)),
    spec={"redundant_fraction": 0.12, "noise_fraction": 0.05, **_NO_FRAGMENTS},
    cli=_GLOBAL_CLI,
)
_SERVE = dict(
    tiers=(Tier(3, 24, 200, 0.92), Tier(6, 16, 163, 0.92),
           Tier(10, 10, 140, 0.92), Tier(14, 6, 120, 0.92)),
    quick_tiers=(Tier(2, 12, 140, 0.92), Tier(4, 6, 120, 0.92)),
    spec={"redundant_fraction": 0.12, "noise_fraction": 0.05, **_NO_FRAGMENTS},
    cli=_GLOBAL_CLI,
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(name="skewed", kind="batch", seed_offset=1, **_SKEWED),
    Workload(
        name="giant", kind="batch", seed_offset=2,
        tiers=(Tier(1, 56, 256, 0.90), Tier(2, 12, 256, 0.90)),
        quick_tiers=(Tier(1, 12, 200, 0.90),),
        spec={"redundant_fraction": 0.05, "noise_fraction": 0.02, **_NO_FRAGMENTS},
        cli=_GLOBAL_CLI,
    ),
    Workload(
        name="domain", kind="batch", seed_offset=3,
        # Length 110 leaves ~20 residues of linker around the three
        # 30-residue domains, so every intra-family alignment passes
        # Definition 2 and CCD aligns exactly n - families pairs on every
        # seed; at 163 it is a coin toss per pair.
        tiers=(Tier(1, 160, 110, 0.70), Tier(24, 12, 110, 0.70)),
        quick_tiers=(Tier(1, 16, 110, 0.70), Tier(2, 6, 110, 0.70)),
        spec={"domain_family_fraction": 1.0, "redundant_fraction": 0.0,
              "noise_fraction": 0.10, **_NO_FRAGMENTS},
        cli=_DOMAIN_CLI,
    ),
    Workload(name="process", kind="batch", seed_offset=1, **_SKEWED,
             backend="process", workers=2),
    Workload(name="serve_read", kind="serve", seed_offset=4, **_SERVE,
             mix=(20, 20, 0)),
    Workload(name="serve_mixed", kind="serve", seed_offset=4, **_SERVE,
             mix=(16, 16, 8)),
)}

#: Share of every planted family that the batch run clusters before the
#: daemon starts; the rest is held out, to be classified or inserted.
BASE_FRACTION = 0.6


def pipeline_config(cli: dict) -> PipelineConfig:
    """The configuration ``repro run``/``repro serve`` build from ``cli``
    (same derivation as the CLI, so the journal digests agree)."""
    return PipelineConfig(
        reduction=cli["reduction"],
        edge_similarity=cli["edge_similarity"],
        min_component_size=cli["min_size"],
        min_subgraph_size=cli["min_size"],
        shingle=ShingleParams(
            s1=cli["shingle_s"], c1=cli["shingle_c"], s2=cli["shingle_s"],
            c2=max(cli["shingle_c"] // 3, 1), seed=CONFIG_SEED,
        ),
        seed=CONFIG_SEED,
    )


def cli_flags(cli: dict) -> list[str]:
    flags = ["--seed", str(CONFIG_SEED)]
    for key, value in cli.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


def build_input(
    workload: Workload, seed: int, *, quick: bool = False
) -> tuple[SequenceSet, dict[str, int]]:
    """The workload's sequences in seeded order, and id -> planted family
    (noise sequences map to -1)."""
    tiers = workload.quick_tiers if quick else workload.tiers
    records: list[SequenceRecord] = []
    truth: dict[str, int] = {}
    for t, tier in enumerate(tiers):
        data = generate_metagenome(MetagenomeSpec(
            n_families=tier.families,
            mean_family_size=tier.size,
            max_family_size=tier.size,
            zipf_exponent=_FLAT_ZIPF,
            mean_length=tier.length,
            length_stddev=0,
            identity_low=tier.identity,
            identity_high=tier.identity,
            seed=(seed + workload.seed_offset) * 100 + t,
            **workload.spec,
        ))
        for record in data.sequences:
            seq_id = f"T{t}{record.id}"
            records.append(SequenceRecord(id=seq_id, residues=record.residues))
            family = data.truth[record.id]
            truth[seq_id] = -1 if family < 0 else t * 1000 + family
    order = np.random.default_rng(seed + workload.seed_offset).permutation(
        len(records)
    )
    return SequenceSet(records[i] for i in order), truth


def split_for_serving(
    sequences: SequenceSet, truth: dict[str, int]
) -> tuple[SequenceSet, list[list[SequenceRecord]]]:
    """Stratified base / held-out split of a serve input.

    Of every planted family the first ``BASE_FRACTION`` of members (in
    input order) go to the base, so the state being served has the same
    shape on every seed.  The held-out rest is returned per tier, noise
    sequences last: requests are dealt tier by tier, so every round asks
    for the same kind of work.
    """
    members: dict[int, list[int]] = {}
    for index, record in enumerate(sequences):
        members.setdefault(truth[record.id], []).append(index)
    n_tiers = max(members) // 1000 + 1
    base: list[int] = []
    held: list[list[SequenceRecord]] = [[] for _ in range(n_tiers + 1)]
    for family, indices in sorted(members.items()):
        cut = math.ceil(len(indices) * BASE_FRACTION)
        base += indices[:cut]
        tier = n_tiers if family < 0 else family // 1000
        held[tier] += [sequences[i] for i in indices[cut:]]
    return sequences.subset(sorted(base)), held


def truth_clusters(truth: dict[str, int]) -> list[list[str]]:
    clusters: dict[int, list[str]] = {}
    for seq_id, family in truth.items():
        if family >= 0:
            clusters.setdefault(family, []).append(seq_id)
    return list(clusters.values())
