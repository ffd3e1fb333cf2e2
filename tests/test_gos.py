"""GOS baseline tests."""

from __future__ import annotations

import pytest

from repro.eval.metrics import compare_clusterings
from repro.gos.baseline import GosConfig, _blast_pairs, _core_set_clusters, gos_cluster
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.sequence.record import SequenceRecord, SequenceSet
from tests.scalar_align import containment_verdict, overlap_test, semiglobal_align


@pytest.fixture(scope="module")
def gos_data():
    return generate_metagenome(
        MetagenomeSpec(
            n_families=4,
            mean_family_size=7,
            mean_length=100,
            identity_low=0.80,  # GOS uses a 70% edge cutoff: need tight families
            identity_high=0.95,
            redundant_fraction=0.10,
            noise_fraction=0.05,
            seed=31,
        )
    )


@pytest.fixture(scope="module")
def gos_result(gos_data):
    return gos_cluster(gos_data.sequences)


class TestGosBaseline:
    def test_redundant_removed(self, gos_data, gos_result):
        planted = {gos_data.sequences.index_of(r) for r in gos_data.redundant_of}
        assert planted <= gos_result.redundant

    def test_clusters_match_truth_reasonably(self, gos_data, gos_result):
        ids = gos_data.sequences.ids()
        clusters_ids = [[ids[i] for i in c] for c in gos_result.clusters]
        truth = list(gos_data.truth_clusters().values())
        scores = compare_clusterings(clusters_ids, truth)
        assert scores.precision > 0.9
        assert scores.sensitivity > 0.3

    def test_alignment_count_instrumented(self, gos_result, gos_data):
        n = len(gos_data.sequences)
        # all-versus-all flavour: the baseline aligns its candidate pairs
        # for both containment and the graph, far more than needed.
        assert gos_result.n_alignments > gos_result.n_candidate_pairs
        assert gos_result.graph_bytes > 0

    def test_clusters_are_disjoint(self, gos_result):
        seen = set()
        for cluster in gos_result.clusters:
            for member in cluster:
                assert member not in seen
                seen.add(member)

    def test_min_cluster_size_respected(self, gos_result):
        assert all(len(c) >= 5 for c in gos_result.clusters)

    def test_config_knobs(self, gos_data):
        tight = gos_cluster(
            gos_data.sequences,
            GosConfig(edge_similarity=0.99, min_cluster_size=2),
        )
        loose = gos_cluster(
            gos_data.sequences,
            GosConfig(edge_similarity=0.30, min_cluster_size=2),
        )
        assert loose.graph_edges >= tight.graph_edges


def _pair_loop(sequences, config):
    """The baseline a pair at a time on the one-pair oracles: stage 1
    aligns every candidate semiglobally and applies Definition 1, stage
    2 aligns the candidates both of whose sequences were kept locally
    and applies the edge cutoffs."""
    encoded = [record.encoded for record in sequences]
    pairs = [tuple(pair) for pair in _blast_pairs(sequences, config).tolist()]
    redundant, n_alignments = set(), 0
    for i, j in pairs:
        n_alignments += 1
        aln = semiglobal_align(encoded[i], encoded[j])
        stats = aln.identity, aln.coverage_a(len(encoded[i])), aln.coverage_b(len(encoded[j]))
        verdict = containment_verdict(
            stats, i, j, len(encoded[i]), len(encoded[j]),
            config.containment_similarity, config.containment_coverage)
        if verdict is not None:
            redundant.add(verdict[0])
    kept = [i for i in range(len(encoded)) if i not in redundant]
    neighbors = {i: set() for i in kept}
    for i, j in pairs:
        if i in redundant or j in redundant:
            continue
        n_alignments += 1
        if overlap_test(encoded[i], encoded[j], similarity=config.edge_similarity,
                        coverage=config.edge_coverage)[0]:
            neighbors[i].add(j)
            neighbors[j].add(i)
    return {
        "n_candidate_pairs": len(pairs),
        "redundant": redundant,
        "kept": kept,
        "neighbors": neighbors,
        "graph_edges": sum(map(len, neighbors.values())) // 2,
        "n_alignments": n_alignments,
        "clusters": _core_set_clusters(kept, neighbors, config),
    }


class TestEqualsPairLoop:
    """Both all-versus-all stages are one engine call each; the answer
    and the alignment count are those of aligning pair by pair."""

    @staticmethod
    def _check(sequences, config):
        result = gos_cluster(sequences, config)
        expected = _pair_loop(sequences, config)
        assert {name: getattr(result, name) for name in expected} == expected
        return expected

    def test_generated_input(self, gos_data):
        expected = self._check(gos_data.sequences, GosConfig(min_cluster_size=2))
        assert expected["redundant"] and expected["graph_edges"]
        assert expected["clusters"]

    @pytest.mark.parametrize("residues, n_pairs", [
        (["AAAAAAAAAA", "WWWWWWWWWW"], 0),
        (["MKTAYIAKQRQISFVKSHFSRQ", "MKTAYIAKQRQISF"], 1),
    ])
    def test_zero_and_one_candidate_pair(self, residues, n_pairs):
        sequences = SequenceSet([SequenceRecord(id=f"s{k}", residues=r)
                                 for k, r in enumerate(residues)])
        expected = self._check(sequences, GosConfig(min_cluster_size=1))
        assert expected["n_candidate_pairs"] == n_pairs
