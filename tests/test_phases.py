"""Pipeline phase tests: RR, CCD, bipartite generation, DSD.

The load-bearing invariant: every phase produces identical scientific
output on the serial backend (``repro.runtime.phases.backend_*``, the
reference) and at any simulated processor count (``parallel_*``).
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from repro import obs
from repro.align import batch
from repro.align.matrices import blosum62_scheme
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.pace.bipartite_gen import BipartiteMaster
from repro.pace.cache import AlignmentCache
from repro.pace import clustering
from repro.pace.clustering import parallel_component_detection
from repro.pace import redundancy
from repro.pace.redundancy import parallel_redundancy_removal
from repro.parallel.simulator import VirtualCluster
from repro.runtime.phases import (
    backend_component_detection,
    backend_dense_subgraph_detection,
    backend_generate_component_graphs,
    backend_redundancy_removal,
)
from repro.shingle.algorithm import ShingleParams
from repro.suffix.matches import MaximalMatchFinder
from tests.scalar_align import alignment_table, local_align, overlap_test
from tests.scalar_density import adjacency, table1_oracle

PSI = 10
SMALL_SHINGLE = ShingleParams(s1=3, c1=60, s2=2, c2=25, seed=5)


def _engine_calls(monkeypatch, phase_module) -> list[int]:
    """The pair count of every ``align_columns`` call from now on,
    whether ``phase_module`` calls it or an adapter in the engine's own
    module does."""
    calls: list[int] = []
    engine = batch.align_columns

    def counted(store, ia, ib, **kwargs):
        calls.append(len(ia))
        return engine(store, ia, ib, **kwargs)

    monkeypatch.setattr(batch, "align_columns", counted)
    monkeypatch.setattr(phase_module, "align_columns", counted, raising=False)
    return calls


@pytest.fixture(scope="module")
def rr_serial(small_metagenome_module, session):
    return backend_redundancy_removal(
        small_metagenome_module.sequences, *session, psi=PSI
    )


def _rr_counted(run):
    """An RR result's answer and its ``rr.*`` counters."""
    recorder = obs.Recorder()
    with obs.recording(recorder):
        result = run()
    counters = {k: v for k, v in recorder.counters().items() if k.startswith("rr.")}
    return result, (result.redundant, result.kept, result.containments,
                    result.n_promising_pairs, counters)


@pytest.fixture(scope="module")
def rr_serial_counted(small_metagenome_module, session):
    """``(answer, rr.* counters)`` of the serial backend's RR."""
    return _rr_counted(lambda: backend_redundancy_removal(
        small_metagenome_module.sequences, *session, psi=PSI))[1]


@pytest.fixture(scope="module")
def small_metagenome_module():
    from repro.sequence.generator import MetagenomeSpec, generate_metagenome

    return generate_metagenome(
        MetagenomeSpec(
            n_families=5,
            mean_family_size=8,
            mean_length=120,
            length_stddev=25,
            redundant_fraction=0.12,
            noise_fraction=0.08,
            seed=1234,
        )
    )


@pytest.fixture(scope="module")
def session(small_metagenome_module, serial_session):
    """``(backend, None)`` of a serial session over the module's input."""
    return serial_session(small_metagenome_module.sequences)


class TestRedundancyRemoval:
    def test_finds_planted_redundant(self, small_metagenome_module, rr_serial):
        """Every planted >=95%-contained copy must be removed."""
        data = small_metagenome_module
        planted = {data.sequences.index_of(r) for r in data.redundant_of}
        missed = planted - rr_serial.redundant
        assert not missed, f"missed planted redundant sequences: {missed}"

    def test_kept_plus_redundant_partition(self, small_metagenome_module, rr_serial):
        n = len(small_metagenome_module.sequences)
        assert sorted(rr_serial.kept) + sorted(rr_serial.redundant) != []
        assert len(rr_serial.kept) + len(rr_serial.redundant) == n
        assert set(rr_serial.kept).isdisjoint(rr_serial.redundant)

    def test_containments_recorded(self, rr_serial):
        assert len(rr_serial.containments) >= len(rr_serial.redundant)
        for contained, container in rr_serial.containments:
            assert contained in rr_serial.redundant

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 8])
    def test_parallel_equals_serial(self, small_metagenome_module, rr_serial_counted, p):
        par, seen = _rr_counted(lambda: parallel_redundancy_removal(
            small_metagenome_module.sequences, VirtualCluster(p), psi=PSI))
        assert seen == rr_serial_counted
        assert par.sim is not None and par.sim.elapsed > 0

    def test_reversed_pair_reads_swapped_coverages(
        self, small_metagenome_module, rr_serial_counted
    ):
        """The rank program looks a pair's statistics up by its
        canonical key: a pair generated as ``(j, i)`` reads coverage_j
        and coverage_i, so one-way containments keep their victim."""
        generation = redundancy.bucket_generation

        def reversed_generation(*args, **kwargs):
            fields = generation(*args, **kwargs)
            make = fields["make_generator"]
            fields["make_generator"] = lambda *rank: (
                ((j, i), cost) for (i, j), cost in make(*rank))
            return fields

        with mock.patch.object(redundancy, "bucket_generation", reversed_generation):
            par, seen = _rr_counted(lambda: parallel_redundancy_removal(
                small_metagenome_module.sequences, VirtualCluster(3), psi=PSI))
        assert seen == rr_serial_counted
        assert par.redundant

    def test_promising_pairs_far_below_all_pairs(self, small_metagenome_module, rr_serial):
        n = len(small_metagenome_module.sequences)
        assert rr_serial.n_promising_pairs < n * (n - 1) // 2


def _protein(seed: int, length: int) -> str:
    from repro.sequence.alphabet import AMINO_ACIDS

    rng = np.random.default_rng(seed)
    return "".join(AMINO_ACIDS[k] for k in rng.integers(0, 20, length))


class TestDefinitionOneEveryPath:
    """Definition 1 is stated once (``align/predicates.py``): a planted
    pair loses the same sequence to batch RR, to the serve path
    streaming the pair's second sequence into a state holding its
    first, and to the GOS baseline's all-versus-all stage."""

    _BASE = _protein(7, 100)
    #: first, second -> index of the victim.
    PAIRS = {
        # One substitution apart, equal lengths: each contains the other
        # and the tie goes against the higher index.
        "mutual_equal_lengths": (_BASE, "W" + _BASE[1:], 1),
        # Two residues shorter: still mutual, the shorter goes.
        "mutual_second_shorter": (_BASE, _BASE[2:], 1),
        "mutual_first_shorter": (_BASE[2:], _BASE, 0),
        # Half of it: contained one way only.
        "one_way_second_inside": (_BASE, _BASE[20:70], 1),
        "one_way_first_inside": (_BASE[20:70], _BASE, 0),
    }

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_same_victim_from_batch_serve_and_gos(self, pair, serial_session, tmp_path):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import ProteinFamilyPipeline
        from repro.gos.baseline import gos_cluster
        from repro.sequence.record import SequenceRecord, SequenceSet
        from repro.serve.incremental import plan_insert
        from repro.serve.state import load_serve_state

        first, second, victim = self.PAIRS[pair]
        records = [SequenceRecord(id="first", residues=first),
                   SequenceRecord(id="second", residues=second)]
        both = SequenceSet(records)
        rr = backend_redundancy_removal(both, *serial_session(both), psi=PSI)
        assert rr.containments == [(victim, 1 - victim)]

        config = PipelineConfig()
        ProteinFamilyPipeline(config).run(SequenceSet(records[:1]), run_dir=tmp_path)
        state = load_serve_state(tmp_path, SequenceSet(records[:1]), config)
        plan = plan_insert(state, "second", second)
        assert plan.redundant_pairs == [[victim, 1 - victim]]

        assert gos_cluster(both).redundant == {victim}


class TestComponentDetection:
    @pytest.fixture(scope="class")
    def ccd_serial(self, small_metagenome_module, session, rr_serial):
        return backend_component_detection(
            small_metagenome_module.sequences, rr_serial.kept, *session, psi=PSI
        )

    def test_components_partition_kept(self, rr_serial, ccd_serial):
        members = sorted(m for c in ccd_serial.components for m in c)
        assert members == sorted(rr_serial.kept)

    def test_components_equal_overlap_graph_components(
        self, small_metagenome_module, rr_serial, ccd_serial
    ):
        """The documented invariant: clusters == connected components of
        {promising pairs passing the overlap test} (networkx oracle)."""
        seqs = small_metagenome_module.sequences
        encoded = [r.encoded for r in seqs]
        kept = rr_serial.kept
        finder = MaximalMatchFinder([encoded[g] for g in kept], min_length=PSI)
        g = nx.Graph()
        g.add_nodes_from(range(len(kept)))
        seen = set()
        for m in finder.matches():
            if m.pair in seen:
                continue
            seen.add(m.pair)
            gi, gj = kept[m.pair[0]], kept[m.pair[1]]
            if overlap_test(encoded[gi], encoded[gj], similarity=0.30, coverage=0.80)[0]:
                g.add_edge(m.pair[0], m.pair[1])
        oracle = sorted(
            (sorted(kept[v] for v in comp) for comp in nx.connected_components(g)),
            key=lambda c: (-len(c), c[0]),
        )
        assert [sorted(c) for c in ccd_serial.components] == oracle

    def test_most_pairs_filtered(self, ccd_serial):
        """The transitive-closure filter eliminates the overwhelming
        majority of promising pairs (paper: >99.9% at scale)."""
        assert ccd_serial.work_reduction > 0.5
        assert ccd_serial.n_filtered + ccd_serial.n_alignments == ccd_serial.n_promising_pairs

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_parallel_equals_serial(
        self, monkeypatch, small_metagenome_module, rr_serial, ccd_serial, p
    ):
        """Same components at every p, from one engine call over every
        distinct promising pair made before the simulation starts."""
        calls = _engine_calls(monkeypatch, clustering)
        par = parallel_component_detection(
            small_metagenome_module.sequences,
            rr_serial.kept,
            VirtualCluster(p),
            psi=PSI,
        )
        assert len(calls) == 1
        assert par.components == ccd_serial.components
        assert par.n_promising_pairs == ccd_serial.n_promising_pairs
        # The lagging filter of p > 1 admits up to every distinct pair;
        # p == 1 admits exactly the serial backend's.
        assert ccd_serial.n_alignments <= par.n_alignments <= calls[0]
        if p == 1:
            assert par.n_alignments == ccd_serial.n_alignments

    def test_families_not_merged(self, small_metagenome_module, ccd_serial):
        """Sequences from different planted families should not share a
        component (random proteins don't overlap at 30%/80%)."""
        data = small_metagenome_module
        for component in ccd_serial.components:
            fams = {
                data.truth[data.sequences[g].id]
                for g in component
                if data.truth[data.sequences[g].id] >= 0
            }
            assert len(fams) <= 1, f"component mixes families {fams}"


class TestBipartiteGeneration:
    @pytest.fixture(scope="class")
    def components(self, small_metagenome_module, session, rr_serial):
        ccd = backend_component_detection(
            small_metagenome_module.sequences, rr_serial.kept, *session, psi=PSI
        )
        return ccd.components_of_size(5)

    def test_graphs_per_component(self, small_metagenome_module, session, components):
        cg = backend_generate_component_graphs(
            small_metagenome_module.sequences, components, *session
        )
        assert len(cg.graphs) == len(cg.components) == len(components)
        for members, graph in zip(cg.components, cg.graphs):
            assert graph.n_left == graph.n_right == len(members)
            assert graph.left_labels == members

    def test_domain_reduction(self, small_metagenome_module, session, components):
        cg = backend_generate_component_graphs(
            small_metagenome_module.sequences,
            components,
            *session,
            reduction="domain",
            w=8,
        )
        assert cg.reduction == "domain"
        for members, graph in zip(cg.components, cg.graphs):
            assert graph.n_right == len(members)
            assert graph.right_labels == members

    def test_invalid_reduction(self, small_metagenome_module, session, components):
        with pytest.raises(ValueError, match="reduction"):
            backend_generate_component_graphs(
                small_metagenome_module.sequences, components, *session,
                reduction="bogus",
            )

    def test_small_components_skipped(self, small_metagenome_module, session):
        cg = backend_generate_component_graphs(
            small_metagenome_module.sequences, [[0, 1]], *session, min_size=5
        )
        assert cg.graphs == []


#: The runtime suites' tiny input at an edge cutoff that rejects most
#: admitted BGG pairs (13 pairs, 4 edges), with Shingle and size cutoffs
#: small enough that families form on those edges.
EDGE_CUT = PipelineConfig(
    shingle=ShingleParams(s1=2, c1=40, s2=2, c2=13),
    min_component_size=4,
    min_subgraph_size=2,
    edge_similarity=0.6,
)


class TestEdgeCutoff:
    """On the suite inputs every admitted BGG pair becomes an edge, so
    only an input whose cutoff rejects pairs shows whether the B_d
    graphs hold exactly the edges the verdicts passed."""

    @staticmethod
    def _run(sequences, config, backend, monkeypatch):
        admitted: list[tuple[int, int]] = []
        admit = BipartiteMaster.admit

        def recording(self, a, b):
            ia, ib = admit(self, a, b)
            admitted.extend(zip(ia.tolist(), ib.tolist()))
            return ia, ib

        monkeypatch.setattr(BipartiteMaster, "admit", recording)
        workers = 2 if backend == "process" else None
        result = ProteinFamilyPipeline(config).run(sequences, backend=backend, workers=workers)
        return result, admitted

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_edges_are_the_overlap_oracle(self, tiny_metagenome, backend, monkeypatch):
        sequences = tiny_metagenome.sequences
        result, admitted = self._run(sequences, EDGE_CUT, backend, monkeypatch)
        want = {
            (a, b) for a, b in admitted
            if overlap_test(sequences[a].encoded, sequences[b].encoded,
                            similarity=EDGE_CUT.edge_similarity,
                            coverage=EDGE_CUT.edge_coverage, scheme=EDGE_CUT.scheme)[0]
        }
        assert (len(admitted), len(want)) == (13, 4)
        got = set()
        for members, graph in zip(result.graphs.components, result.graphs.graphs):
            for v in range(graph.n_left):
                gamma = graph.gamma(v).tolist()
                assert v in gamma  # one self loop a vertex (Gamma is distinct)
                for u in gamma:
                    assert v in graph.gamma(u).tolist()  # symmetric
                    if v < u:
                        got.add((members[v], members[u]))
            assert graph.n_edges == graph.n_left + 2 * sum(a in members for a, _ in want)
        assert got == want
        assert result.graphs.n_edges == result.obs.counters()["bipartite.edges"] == len(want)
        # Table I reads the same edges: a subgraph there is not a clique.
        assert result.families
        assert result.table1().mean_density < 1.0
        assert result.table1() == table1_oracle(
            n_input=len(sequences),
            n_nonredundant=result.redundancy.n_nonredundant,
            components=result.clustering.components,
            subgraphs=result.families,
            neighbors=adjacency(want),
            min_component_size=EDGE_CUT.min_component_size,
        )

    def test_no_edge_leaves_no_counter(self, tiny_metagenome, monkeypatch):
        """At 0.7 no admitted pair passes: the graphs hold only their self
        loops and the run has no ``bipartite.edges`` counter."""
        config = dataclasses.replace(EDGE_CUT, edge_similarity=0.7)
        result, admitted = self._run(tiny_metagenome.sequences, config, "serial", monkeypatch)
        counters = result.obs.counters()
        assert counters["bipartite.pairs"] == len(admitted) == 13
        assert "bipartite.edges" not in counters
        assert result.graphs.n_edges == 0
        assert result.graphs.graphs
        for graph in result.graphs.graphs:
            assert [graph.gamma(v).tolist() for v in range(graph.n_left)] == \
                [[v] for v in range(graph.n_left)]


class TestDenseSubgraphDetection:
    @pytest.fixture(scope="class")
    def component_graphs(self, small_metagenome_module, session, rr_serial):
        ccd = backend_component_detection(
            small_metagenome_module.sequences, rr_serial.kept, *session, psi=PSI
        )
        return backend_generate_component_graphs(
            small_metagenome_module.sequences, ccd.components_of_size(5), *session
        )

    def test_serial_subgraphs_meet_min_size(self, component_graphs, session):
        dsd = backend_dense_subgraph_detection(
            component_graphs, session[0], params=SMALL_SHINGLE, min_size=5
        )
        assert all(len(sg) >= 5 for sg in dsd.subgraphs)

    def test_subgraphs_within_components(self, component_graphs, session):
        dsd = backend_dense_subgraph_detection(
            component_graphs, session[0], params=SMALL_SHINGLE, min_size=5
        )
        all_members = {m for c in component_graphs.components for m in c}
        for sg in dsd.subgraphs:
            assert set(sg) <= all_members

    def test_tasks_answer_their_families(self, component_graphs, session):
        """A Shingle task answers its component's families and nothing
        else; the phase result is their union in canonical order."""
        backend = session[0]
        answers = backend.map_components(
            component_graphs.graphs, component_graphs.reduction, SMALL_SHINGLE, 5, 0.5
        )
        assert len(answers) == len(component_graphs.graphs)
        for members, finals in zip(component_graphs.components, answers):
            assert isinstance(finals, list)
            assert all(isinstance(sg, tuple) and set(sg) <= set(members) for sg in finals)
        dsd = backend_dense_subgraph_detection(
            component_graphs, backend, params=SMALL_SHINGLE, min_size=5
        )
        assert dsd.subgraphs == sorted((sg for finals in answers for sg in finals),
                                       key=lambda sg: (-len(sg), sg))
        assert dsd.subgraphs


class TestAlignmentCache:
    """Key canonicalisation and the per-phase hit/miss attribution."""

    @pytest.fixture()
    def encoded(self):
        rng = np.random.default_rng(42)
        return [
            rng.integers(0, 20, size=n).astype(np.uint8)
            for n in (40, 60, 50)
        ]

    @pytest.fixture()
    def cache(self, encoded):
        return AlignmentCache(lambda k: encoded[k], blosum62_scheme())

    @pytest.fixture()
    def row(self, encoded):
        return alignment_table([local_align(encoded[0], encoded[1])])[0]

    def test_pair_key_is_orientation_invariant(self, cache, row):
        cache.insert(0, 1, row)
        assert cache.lookup(1, 0) is row  # reversed request, same entry
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert len(cache) == 1
        cache.insert(2, 0, row)
        assert cache.lookup(0, 2) is row
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 2)

    def test_lookup_and_insert_share_canonical_key(self, cache, row):
        cache.insert(0, 1, row)
        assert cache.lookup(1, 0) is row
        before = cache.stats()
        assert cache.lookup(0, 2) is None  # absent: no counter change
        assert cache.stats() == before
        cache.insert(2, 0, row)  # worker-computed, reversed
        assert cache.lookup(0, 2) is row
        stats = cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 2)

    def test_self_alignment_rejected(self, cache, row):
        with pytest.raises(ValueError, match="self-alignment"):
            cache.lookup(1, 1)
        with pytest.raises(ValueError, match="self-alignment"):
            cache.insert(1, 1, row)

    def test_by_phase_attribution(self, cache, row):
        cache.set_phase("redundancy")
        cache.insert(0, 1, row)  # miss
        cache.set_phase("clustering")
        assert cache.lookup(1, 0) is row  # hit, attributed to clustering
        assert cache.lookup(0, 2) is None  # absent: counts nothing
        cache.insert(0, 2, row)  # miss
        cache.set_phase("")
        assert cache.lookup(2, 0) is row  # hit, but untracked
        stats = cache.stats()
        assert stats["by_phase"] == {
            "redundancy": {"hits": 0, "misses": 1},
            "clustering": {"hits": 1, "misses": 1},
        }
        assert stats["hits"] == 2 and stats["misses"] == 2  # totals still global
        assert stats["hit_rate"] == 0.5 and stats["entries"] == 2
