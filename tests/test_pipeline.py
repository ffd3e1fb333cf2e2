"""End-to-end pipeline integration tests."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.align.matrices import blosum62_scheme
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.eval.metrics import compare_clusterings
from repro.obs import Recorder, recording, scientific_view
from repro.pace.clustering import parallel_component_detection
from repro.pace.redundancy import parallel_redundancy_removal
from repro.parallel.simulator import VirtualCluster
from repro.sequence.alphabet import AMINO_ACIDS
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.shingle.algorithm import ShingleParams
from tests.conftest import PIPELINE_MODES
from tests.scalar_align import containment_verdict, overlap_test, semiglobal_align
from tests.scalar_finder import ScalarMatchFinder

FAST_SHINGLE = ShingleParams(s1=3, c1=60, s2=2, c2=25, seed=5)

#: Inputs with nothing to find: residues per record, sequences RR keeps.
_PROTEIN = "ARNDCQEGHILKMFPSTWYVARNDCQEGHILK"
DEGENERATE = {
    "empty": ([], 0),
    "one_sequence": ([_PROTEIN], 1),
    "six_identical": ([_PROTEIN] * 6, 1),
}


def degenerate_set(name: str) -> SequenceSet:
    return SequenceSet([
        SequenceRecord(id=f"s{k}", residues=r)
        for k, r in enumerate(DEGENERATE[name][0])
    ])


@pytest.fixture(scope="module")
def twilight():
    """A hostile row: families at the edge of Definition 2 (identity
    0.30–0.55, three in ten members fragments, psi = 5), at a seed
    where alignments CCD speculated on fail and held pairs are
    re-decided — which no friendly generator shape ever does."""
    data = generate_metagenome(MetagenomeSpec(
        n_families=4, mean_family_size=12, max_family_size=12,
        zipf_exponent=50.0, mean_length=100, length_stddev=15,
        identity_low=0.30, identity_high=0.55, fragment_fraction=0.3,
        redundant_fraction=0.0, noise_fraction=0.1, seed=13,
    ))
    config = PipelineConfig(
        psi=5, shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
        min_component_size=4, min_subgraph_size=4,
    )
    return data.sequences, config, ProteinFamilyPipeline(config).run(data.sequences)


@pytest.fixture(scope="module")
def data():
    return generate_metagenome(
        MetagenomeSpec(
            n_families=6,
            mean_family_size=8,
            mean_length=110,
            identity_low=0.65,
            identity_high=0.90,
            redundant_fraction=0.10,
            noise_fraction=0.08,
            seed=2024,
        )
    )


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(shingle=FAST_SHINGLE, min_component_size=5, min_subgraph_size=5)


@pytest.fixture(scope="module")
def serial_result(data, config):
    return ProteinFamilyPipeline(config).run(data.sequences)


class TestConfig:
    def test_defaults_match_paper(self):
        c = PipelineConfig()
        assert c.containment_similarity == 0.95
        assert c.overlap_similarity == 0.30
        assert c.overlap_coverage == 0.80
        assert (c.shingle.s1, c.shingle.c1) == (5, 300)
        assert c.min_component_size == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(psi=1)
        with pytest.raises(ValueError):
            PipelineConfig(reduction="nope")
        with pytest.raises(ValueError):
            PipelineConfig(tau=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(overlap_similarity=2.0)


class TestSerialPipeline:
    def test_phases_consistent(self, serial_result, data):
        r = serial_result
        assert r.n_input == len(data.sequences)
        assert r.redundancy.n_nonredundant <= r.n_input
        kept = set(r.redundancy.kept)
        for component in r.clustering.components:
            assert set(component) <= kept

    def test_planted_redundancy_removed(self, serial_result, data):
        planted = {data.sequences.index_of(r) for r in data.redundant_of}
        assert planted <= serial_result.redundancy.redundant

    def test_families_recovered_with_high_precision(self, serial_result, data):
        families = serial_result.family_ids(data.sequences)
        truth = list(data.truth_clusters().values())
        scores = compare_clusterings(families, truth)
        assert scores.precision > 0.95, scores.as_dict()
        assert scores.sensitivity > 0.3, scores.as_dict()

    def test_dense_subgraphs_meet_cutoffs(self, serial_result, config):
        for sg in serial_result.families:
            assert len(sg) >= config.min_subgraph_size

    def test_table1_row_consistent(self, serial_result):
        row = serial_result.table1()
        assert row.n_input == serial_result.n_input
        assert row.n_dense_subgraphs == len(serial_result.families)
        assert 0.0 <= row.mean_density <= 1.0


class TestSameAnswerEveryMode:
    """The one cross-mode contract: whatever backend executes the phases
    — the serial one (by default or by name) or worker processes — the
    families, the Table I row and every scientific counter are those of
    the default run."""

    @pytest.mark.parametrize("mode", list(PIPELINE_MODES))
    def test_mode_gives_the_default_answer(self, mode_results, mode):
        reference = mode_results["default"]
        expected = scientific_view(reference.obs.counters())
        # Guard against a vacuous pass: the workload must actually
        # exercise all four phases.
        assert reference.families
        for name in ("rr.pairs", "ccd.pairs", "bipartite.graphs", "dsd.components"):
            assert expected[name] > 0, name
        result = mode_results[mode]
        assert result.families == reference.families
        assert result.table1() == reference.table1()
        assert scientific_view(result.obs.counters()) == expected

    @pytest.mark.parametrize("mode", list(PIPELINE_MODES))
    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_input_gives_the_default_answer(self, name, mode):
        """No sequence, one, six copies of one: the answer is empty (the
        copies leave their first), in every mode, with no phase raising
        — so no non-vacuity guard here."""
        sequences = degenerate_set(name)
        reference = ProteinFamilyPipeline().run(sequences)
        assert reference.redundancy.kept == list(range(DEGENERATE[name][1]))
        assert reference.families == []
        result = ProteinFamilyPipeline().run(sequences, **PIPELINE_MODES[mode]())
        assert result.families == reference.families
        assert result.table1() == reference.table1()
        assert scientific_view(result.obs.counters()) == scientific_view(
            reference.obs.counters())

    @pytest.mark.parametrize("mode", list(PIPELINE_MODES))
    def test_twilight_input_gives_the_default_answer(self, twilight, mode):
        sequences, config, reference = twilight
        counters = reference.obs.counters()
        assert counters["ccd.redecided"] > 0 and reference.families
        result = ProteinFamilyPipeline(config).run(sequences, **PIPELINE_MODES[mode]())
        assert result.families == reference.families
        assert result.table1() == reference.table1()
        assert scientific_view(result.obs.counters()) == scientific_view(counters)
        # The speculative driver itself is the same on every backend.
        assert result.obs.counters()["ccd.redecided"] == counters["ccd.redecided"]

    @pytest.mark.parametrize("mode", list(PIPELINE_MODES))
    def test_ccd_work_depends_on_the_simulated_machine_only(self, mode_results, mode):
        """The runtime backends all run the pair-by-pair filter, so even
        its *work* counters are the default run's; only the simulated
        master, whose union–find lags its workers, aligns more
        (:class:`TestSimulatedPhases`)."""
        reference = mode_results["default"].obs.counters()
        counters = mode_results[mode].obs.counters()
        work = ("ccd.alignments", "ccd.filtered")
        assert reference["ccd.alignments"] > 1
        assert [counters[n] for n in work] == [reference[n] for n in work]


def _records(prefix: str, rows) -> SequenceSet:
    return SequenceSet(
        SequenceRecord(id=f"{prefix}{k}", residues="".join(AMINO_ACIDS[c] for c in row))
        for k, row in enumerate(rows)
    )


def near_duplicate_flood(seed=1, n=20, length=160, trim=24, rate=0.025) -> SequenceSet:
    """Definition 1's edge: ``n`` copies of one ancestor, each trimmed by
    up to ``trim`` residues an end and with ``rate`` of its residues
    substituted, so their pairs sit within a point of 95% identity and of
    95% coverage, on both sides."""
    rng = np.random.default_rng(seed)
    ancestor = rng.integers(0, 20, size=length)
    rows = []
    for _ in range(n):
        lo, hi = rng.integers(0, trim + 1, size=2)
        row = ancestor[lo:length - hi].copy()
        hit = rng.random(len(row)) < rate
        row[hit] = (row[hit] + rng.integers(1, 20, size=hit.sum())) % 20
        rows.append(row)
    return _records("dup", rows)


def twilight_family(seed=1, n=18, length=150, rates=(0.6, 0.8), trim=30,
                    fragments=3) -> SequenceSet:
    """Definition 2's edge: each member substitutes 60–80% of one
    ancestor's residues, each by one of the three residues BLOSUM62
    scores best against it (so local alignments run long at low
    identity), keeps a 14-residue core (so every pair is promising) and
    is trimmed by up to ``trim`` residues an end; the last ``fragments``
    keep only the ancestor's middle 60, too short to cover a member."""
    scores = blosum62_scheme().matrix[:20, :20].astype(float)
    np.fill_diagonal(scores, -np.inf)
    substitutes = np.argsort(-scores, axis=1, kind="stable")[:, :3]
    rng = np.random.default_rng(seed)
    ancestor = rng.integers(0, 20, size=length)
    mid = length // 2
    rows = []
    for k in range(n):
        row = ancestor.copy()
        hit = rng.random(length) < rng.uniform(*rates)
        hit[mid - 7:mid + 7] = False
        row[hit] = substitutes[row[hit], rng.integers(0, 3, size=hit.sum())]
        lo, hi = rng.integers(0, trim + 1, size=2)
        if k >= n - fragments:
            lo, hi = mid - 30, length - mid - 30
        rows.append(row[lo:length - hi])
    return _records("tw", rows)


def _promising(encoded, psi):
    return sorted({m.pair for m in ScalarMatchFinder(encoded, min_length=psi).matches()})


def reference_answer(sequences, config):
    """RR and CCD one pair at a time on the scalar oracles: Definition 1
    over every promising pair, each victim redundant; then the connected
    components, with no filter, of the Definition 2 edges among the kept
    sequences.  Also returns each promising pair's ``(identity,
    coverage)`` per definition, the premises of a threshold row."""
    encoded = [record.encoded for record in sequences]
    contained, containments = [], []
    for i, j in _promising(encoded, config.psi):
        aln = semiglobal_align(encoded[i], encoded[j], config.scheme)
        stats = aln.identity, aln.coverage_a(len(encoded[i])), aln.coverage_b(len(encoded[j]))
        contained.append((stats[0], max(stats[1:])))
        verdict = containment_verdict(
            stats, i, j, len(encoded[i]), len(encoded[j]),
            config.containment_similarity, config.containment_coverage)
        if verdict is not None:
            containments.append(verdict)
    redundant = {victim for victim, _ in containments}
    kept = [k for k in range(len(encoded)) if k not in redundant]
    sub = [encoded[k] for k in kept]
    graph = nx.Graph()
    graph.add_nodes_from(kept)
    overlaps = []
    for a, b in _promising(sub, config.psi):
        ok, aln = overlap_test(sub[a], sub[b], similarity=config.overlap_similarity,
                               coverage=config.overlap_coverage, scheme=config.scheme)
        span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
        overlaps.append((aln.identity, span / max(len(sub[a]), len(sub[b]))))
        if ok:
            graph.add_edge(kept[a], kept[b])
    return {"redundant": redundant, "containments": sorted(containments),
            "components": sorted(sorted(c) for c in nx.connected_components(graph)),
            "contained": np.array(contained), "overlaps": np.array(overlaps)}


THRESHOLD_ROWS = {"near_duplicate_flood": near_duplicate_flood,
                  "twilight_family": twilight_family}


class TestThresholdEdgeRows:
    """Inputs on the edge of each definition's thresholds, where every
    mode must give the answer of the scalar oracles — not only that of
    the default run, which a bug every mode shares would also give."""

    CONFIG = PipelineConfig(shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
                            min_component_size=4, min_subgraph_size=4)

    @pytest.fixture(scope="class", params=list(THRESHOLD_ROWS))
    def row(self, request):
        sequences = THRESHOLD_ROWS[request.param]()
        return request.param, sequences, reference_answer(sequences, self.CONFIG)

    @staticmethod
    def _straddles(values, threshold, within=1.0):
        return (((values < threshold) & (values >= threshold - within)).any()
                and ((values >= threshold) & (values <= threshold + within)).any())

    def test_premises(self, row):
        """The flood's pairs sit within a point of both Definition 1
        thresholds, on both sides; the twilight family's straddle both
        Definition 2 thresholds, and its components are more than one."""
        name, _, want = row
        config = self.CONFIG
        if name == "near_duplicate_flood":
            identity, coverage = want["contained"].T
            assert self._straddles(identity, config.containment_similarity, 0.01)
            assert self._straddles(coverage, config.containment_coverage, 0.01)
            assert want["redundant"]
        else:
            identity, coverage = want["overlaps"].T
            assert self._straddles(identity, config.overlap_similarity)
            assert self._straddles(coverage, config.overlap_coverage)
            assert len(want["components"]) > 1

    @pytest.mark.parametrize("mode", list(PIPELINE_MODES))
    def test_mode_gives_the_oracle_answer(self, row, mode):
        name, sequences, want = row
        result = ProteinFamilyPipeline(self.CONFIG).run(sequences, **PIPELINE_MODES[mode]())
        assert result.redundancy.redundant == want["redundant"]
        assert sorted(result.redundancy.containments) == want["containments"]
        assert sorted(map(sorted, result.clustering.components)) == want["components"]
        if name == "near_duplicate_flood":
            counters = result.obs.counters()
            assert counters["batch.myers_rejects"] > 0
            assert counters["batch.dp_pairs"] > 0


@pytest.fixture(scope="module")
def phase_inputs(mode_workload, mode_results, twilight):
    """``name -> (sequences, config, serial reference run)`` for the
    simulated-phase table: the mode workload, the degenerate inputs and
    the twilight input."""
    sequences, config = mode_workload
    inputs = {"workload": (sequences, config, mode_results["default"]),
              "twilight": twilight}
    for name in DEGENERATE:
        sequences = degenerate_set(name)
        inputs[name] = (sequences, PipelineConfig(),
                        ProteinFamilyPipeline().run(sequences))
    return inputs


class TestParallelPipeline:
    @pytest.mark.parametrize("p", [2, 5])
    def test_simulated_parallel_identical_results(self, data, config, serial_result, p):
        cluster = VirtualCluster(p)
        rr = parallel_redundancy_removal(data.sequences, cluster, psi=config.psi)
        ccd = parallel_component_detection(
            data.sequences, rr.kept, cluster, psi=config.psi)
        assert rr.redundant == serial_result.redundancy.redundant
        assert ccd.components == serial_result.clustering.components
        assert rr.sim.elapsed > 0 and ccd.sim.elapsed > 0


class TestSimulatedPhases:
    """The simulator runs RR and CCD only — the phases of the paper's
    Table II and Figures 6 and 7a, and of ``repro simulate`` — and at
    every processor count they decide what the serial run decides:
    redundant sequences, containments, kept sequences, components and
    the scientific counters.  CCD's *work* is the exception, as in
    Table II: the simulated master filters against a union–find that
    lags its workers, so it can only align more."""

    @pytest.mark.parametrize("p", [1, 4, 8], ids=lambda p: f"p{p}")
    @pytest.mark.parametrize("name", ["workload", *DEGENERATE, "twilight"])
    def test_default_answer(self, phase_inputs, name, p):
        sequences, config, reference = phase_inputs[name]
        expected = reference.obs.counters()
        if name in ("workload", "twilight"):
            assert expected["rr.pairs"] > 0 and expected["ccd.alignments"] > 1
        cluster = VirtualCluster(p)
        pairs = {"psi": config.psi, "scheme": config.scheme,
                 "max_pairs_per_node": config.max_pairs_per_node}
        recorder = Recorder()
        with recording(recorder):
            rr = parallel_redundancy_removal(
                sequences, cluster, similarity=config.containment_similarity,
                coverage=config.containment_coverage, **pairs)
            ccd = parallel_component_detection(
                sequences, rr.kept, cluster, similarity=config.overlap_similarity,
                coverage=config.overlap_coverage, **pairs)
        assert rr.redundant == reference.redundancy.redundant
        assert rr.containments == reference.redundancy.containments
        assert rr.kept == reference.redundancy.kept
        assert ccd.components == reference.clustering.components
        counters = recorder.counters()
        names = sorted({n for n in [*counters, *expected] if n.startswith("rr.")})
        names += ["ccd.pairs", "ccd.merges", "ccd.components"]
        assert {n: counters.get(n, 0) for n in names} == {
            n: expected.get(n, 0) for n in names}
        aligned = counters.get("ccd.alignments", 0)
        assert aligned >= expected.get("ccd.alignments", 0)
        assert aligned + counters.get("ccd.filtered", 0) == expected.get("ccd.pairs", 0)


class TestDomainReduction:
    def test_domain_pipeline_runs(self):
        data = generate_metagenome(
            MetagenomeSpec(
                n_families=3,
                mean_family_size=6,
                mean_length=120,
                domain_family_fraction=1.0,
                redundant_fraction=0.0,
                noise_fraction=0.05,
                fragment_fraction=0.0,
                seed=99,
            )
        )
        config = PipelineConfig(
            reduction="domain",
            w=8,
            shingle=FAST_SHINGLE,
            min_component_size=4,
            min_subgraph_size=4,
        )
        result = ProteinFamilyPipeline(config).run(data.sequences)
        assert result.graphs.reduction == "domain"
        # Domain families share conserved blocks: at least one family found.
        assert len(result.families) >= 1
        families = result.family_ids(data.sequences)
        truth = list(data.truth_clusters().values())
        scores = compare_clusterings(families, truth)
        assert scores.precision > 0.9
