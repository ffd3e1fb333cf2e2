"""Cross-cutting pipeline invariants and metamorphic tests."""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.runtime.phases import backend_redundancy_removal
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.shingle.algorithm import ShingleParams

FAST = PipelineConfig(
    shingle=ShingleParams(s1=3, c1=50, s2=2, c2=20, seed=1),
    min_component_size=4,
    min_subgraph_size=4,
)


@pytest.fixture(scope="module")
def data():
    return generate_metagenome(
        MetagenomeSpec(
            n_families=4,
            mean_family_size=7,
            mean_length=90,
            identity_low=0.75,
            identity_high=0.92,
            redundant_fraction=0.12,
            noise_fraction=0.05,
            seed=404,
        )
    )


class TestDeterminism:
    def test_pipeline_rerun_identical(self, data):
        r1 = ProteinFamilyPipeline(FAST).run(data.sequences)
        r2 = ProteinFamilyPipeline(FAST).run(data.sequences)
        assert r1.redundancy.redundant == r2.redundancy.redundant
        assert r1.clustering.components == r2.clustering.components
        assert r1.families == r2.families


class TestRedundancyIdempotence:
    def test_rr_on_kept_removes_nothing(self, data, serial_session):
        """After removing all contained sequences, a second RR pass on the
        survivors must find nothing new (Definition 1 is transitive
        through the longer-survivor tie-break)."""
        rr1 = backend_redundancy_removal(
            data.sequences, *serial_session(data.sequences), psi=10
        )
        survivors = data.sequences.subset(rr1.kept)
        rr2 = backend_redundancy_removal(
            survivors, *serial_session(survivors), psi=10
        )
        assert rr2.redundant == set()


class TestMetamorphic:
    def test_adding_noise_does_not_merge_families(self, data):
        """Appending unrelated random sequences must not change which
        original sequences are co-clustered."""
        base = ProteinFamilyPipeline(FAST).run(data.sequences)
        base_ids = [
            frozenset(fam) for fam in base.family_ids(data.sequences)
        ]

        noisy = SequenceSet(list(data.sequences))
        extra = generate_metagenome(
            MetagenomeSpec(
                n_families=1,
                mean_family_size=2,
                noise_fraction=1.0,
                redundant_fraction=0.0,
                mean_length=90,
                seed=999,
            )
        )
        for record in extra.sequences:
            if record.id.startswith("N"):
                noisy.add(SequenceRecord(id="X" + record.id, residues=record.residues))
        result = ProteinFamilyPipeline(FAST).run(noisy)
        noisy_ids = [
            frozenset(m for m in fam if not m.startswith("X"))
            for fam in result.family_ids(noisy)
        ]
        noisy_ids = [f for f in noisy_ids if f]
        assert sorted(base_ids, key=sorted) == sorted(noisy_ids, key=sorted)

    def test_duplicating_a_sequence_marks_it_redundant(self, data, serial_session):
        """An exact copy of an existing sequence must be removed by RR."""
        augmented = SequenceSet(list(data.sequences))
        victim = data.sequences[0]
        augmented.add(SequenceRecord(id="DUP_" + victim.id, residues=victim.residues))
        rr = backend_redundancy_removal(
            augmented, *serial_session(augmented), psi=10
        )
        dup_idx = augmented.index_of("DUP_" + victim.id)
        assert dup_idx in rr.redundant

    def test_relabelling_preserves_structure(self, data):
        """Renaming sequence ids changes nothing structural."""
        renamed = SequenceSet(
            SequenceRecord(id=f"seq{k}", residues=r.residues)
            for k, r in enumerate(data.sequences)
        )
        base = ProteinFamilyPipeline(FAST).run(data.sequences)
        other = ProteinFamilyPipeline(FAST).run(renamed)
        assert base.families == other.families  # index-based, ids irrelevant


class TestConfigSensitivity:
    def test_larger_psi_never_finds_more_pairs(self, data, serial_session):
        session = serial_session(data.sequences)  # one cache for all three
        pairs = []
        for psi in (8, 12, 16):
            rr = backend_redundancy_removal(data.sequences, *session, psi=psi)
            pairs.append(rr.n_promising_pairs)
        assert pairs == sorted(pairs, reverse=True)

    def test_min_subgraph_size_monotone(self, data):
        small = PipelineConfig(
            shingle=FAST.shingle, min_component_size=4, min_subgraph_size=4
        )
        large = PipelineConfig(
            shingle=FAST.shingle, min_component_size=4, min_subgraph_size=10
        )
        r_small = ProteinFamilyPipeline(small).run(data.sequences)
        r_large = ProteinFamilyPipeline(large).run(data.sequences)
        assert len(r_large.families) <= len(r_small.families)
