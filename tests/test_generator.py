"""Tests for the synthetic metagenome generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sequence.generator import (
    FamilySpec,
    MetagenomeSpec,
    generate_metagenome,
)
from repro.suffix.wmer import WmerIndex
from tests.scalar_align import containment_test


class TestSpecs:
    def test_family_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(family_id=0, size=0, ancestral_length=100, identity=0.8)
        with pytest.raises(ValueError):
            FamilySpec(family_id=0, size=2, ancestral_length=100, identity=1.5)
        with pytest.raises(ValueError):
            FamilySpec(family_id=0, size=2, ancestral_length=5, identity=0.8)

    def test_metagenome_spec_validation(self):
        with pytest.raises(ValueError):
            MetagenomeSpec(n_families=0)
        with pytest.raises(ValueError):
            MetagenomeSpec(redundant_fraction=1.5)
        with pytest.raises(ValueError):
            MetagenomeSpec(identity_low=0.9, identity_high=0.5)


class TestGeneration:
    def test_deterministic(self):
        spec = MetagenomeSpec(n_families=4, mean_family_size=5, seed=9)
        a = generate_metagenome(spec)
        b = generate_metagenome(spec)
        assert a.sequences.ids() == b.sequences.ids()
        assert [r.residues for r in a.sequences] == [r.residues for r in b.sequences]
        assert a.truth == b.truth

    def test_seed_changes_output(self):
        a = generate_metagenome(MetagenomeSpec(n_families=4, seed=1))
        b = generate_metagenome(MetagenomeSpec(n_families=4, seed=2))
        assert [r.residues for r in a.sequences] != [r.residues for r in b.sequences]

    def test_truth_covers_all_sequences(self, small_metagenome):
        for record in small_metagenome.sequences:
            assert record.id in small_metagenome.truth

    def test_noise_labelled_minus_one(self, small_metagenome):
        noise = [i for i in small_metagenome.truth.values() if i == -1]
        assert len(noise) > 0

    def test_family_count(self, small_metagenome):
        families = {f for f in small_metagenome.truth.values() if f >= 0}
        assert families == set(range(small_metagenome.spec.n_families))

    def test_redundant_members_pass_containment(self, small_metagenome):
        """Planted redundant copies must satisfy Definition 1 against their
        host — otherwise the RR phase could never find them."""
        seqs = small_metagenome.sequences
        checked = 0
        for red_id, host_id in small_metagenome.redundant_of.items():
            red = seqs.get(red_id).encoded
            host = seqs.get(host_id).encoded
            a_in_b, b_in_a, _ = containment_test(red, host)
            assert a_in_b or b_in_a, f"{red_id} not contained in {host_id}"
            checked += 1
        assert checked > 0

    def test_redundant_inherit_family(self, small_metagenome):
        for red_id, host_id in small_metagenome.redundant_of.items():
            assert small_metagenome.truth[red_id] == small_metagenome.truth[host_id]

    def test_family_sizes_skewed(self):
        data = generate_metagenome(
            MetagenomeSpec(n_families=40, mean_family_size=15, seed=3)
        )
        sizes = sorted(map(len, data.truth_clusters().values()), reverse=True)
        # Zipf: the largest family should dominate the median by a lot.
        assert sizes[0] >= 4 * sizes[len(sizes) // 2]

    def test_truth_clusters_partition(self, small_metagenome):
        clusters = small_metagenome.truth_clusters()
        all_ids = [i for members in clusters.values() for i in members]
        assert len(all_ids) == len(set(all_ids))

    def test_fragments_shorter_than_ancestor(self):
        spec = MetagenomeSpec(
            n_families=2, mean_family_size=20, fragment_fraction=1.0, seed=5,
            redundant_fraction=0.0, noise_fraction=0.0,
        )
        data = generate_metagenome(spec)
        lengths = data.sequences.lengths()
        assert lengths.std() > 0  # fragmentation varies lengths


class TestDomainFamilies:
    def test_domain_members_share_wmers(self, domain_metagenome):
        """Members of a domain family must share long exact words — the
        evidence the B_m reduction builds on."""
        clusters = domain_metagenome.truth_clusters()
        seqs = domain_metagenome.sequences
        for members in clusters.values():
            if len(members) < 3:
                continue
            encoded = [seqs.get(m).encoded for m in members]
            index = WmerIndex(encoded, w=10, min_sequences=len(members))
            # at least one 10-mer common to every member (conserved domain)
            assert index.n_wmers >= 1
