"""Family-level comparison (purity / fragmentation) tests."""

from __future__ import annotations

import pytest

from repro.eval.families import compare_families


class TestCompareFamilies:
    def test_perfect_match(self):
        truth = [["a", "b", "c"], ["d", "e"]]
        cmp = compare_families(truth, truth)
        assert cmp.mean_purity == 1.0
        assert cmp.mean_fragmentation == 1.0
        assert all(v == 0 for v in cmp.missed.values())

    def test_fragmentation_counted(self):
        """One benchmark cluster split into three detected families —
        the paper's 850-vs-221 signature."""
        bench = [list("abcdefghi")]
        detected = [list("abc"), list("def"), list("ghi")]
        cmp = compare_families(detected, bench)
        assert cmp.fragmentation[0] == 3
        assert cmp.mean_fragmentation == 3.0
        assert cmp.mean_purity == 1.0

    def test_contamination_lowers_purity(self):
        bench = [["a", "b"], ["c", "d"]]
        detected = [["a", "b", "c"]]  # c contaminates
        cmp = compare_families(detected, bench)
        match = cmp.matches[0]
        assert match.best_benchmark == 0
        assert match.purity == pytest.approx(2 / 3)

    def test_missed_members(self):
        bench = [["a", "b", "c", "d"]]
        detected = [["a", "b"]]
        cmp = compare_families(detected, bench)
        assert cmp.missed[0] == 2

    def test_unmatched_family(self):
        bench = [["a"]]
        detected = [["x", "y"]]
        cmp = compare_families(detected, bench)
        assert cmp.matches[0].best_benchmark is None
        assert cmp.matches[0].purity == 0.0
        assert cmp.mean_fragmentation == 0.0

    def test_duplicate_benchmark_item_rejected(self):
        with pytest.raises(ValueError, match="two benchmark"):
            compare_families([["a"]], [["a"], ["a"]])

    def test_summary_mentions_counts(self):
        cmp = compare_families([["a", "b"]], [["a", "b"]])
        text = cmp.summary()
        assert "detected families:        1" in text
        assert "mean purity" in text

    def test_pipeline_integration(self, tiny_metagenome):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import ProteinFamilyPipeline
        from repro.shingle.algorithm import ShingleParams

        config = PipelineConfig(
            shingle=ShingleParams(s1=3, c1=50, s2=2, c2=20, seed=1),
            min_component_size=4,
            min_subgraph_size=4,
        )
        result = ProteinFamilyPipeline(config).run(tiny_metagenome.sequences)
        families = result.family_ids(tiny_metagenome.sequences)
        truth = list(tiny_metagenome.truth_clusters().values())
        cmp = compare_families(families, truth)
        assert cmp.mean_purity > 0.9
