"""The block prefilters in front of the masters' ``admit`` are invisible.

``repro.runtime.phases`` feeds each master from the finder's block
stream and drops, per block, the pairs ``admit`` would provably reject
(the RR and bipartite masters admit the whole block themselves).  Here
every phase is run a second time the way it ran before — pair by pair
through ``admit`` (for RR and bipartite generation, through a set of
seen pairs) over the scalar node walk
(``tests/scalar_finder.py``), CCD and each bipartite component on an
index *rebuilt* over its sub-collection instead of the session's index
with its stream masked by label — and everything observable must agree:
results, work counters, the journaled unions, the pairs submitted, in
order and in the same chunks, and the simulator's virtual clock.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.graph.unionfind import UnionFind
from repro.pace.bipartite_gen import BipartiteMaster, parallel_generate_component_graphs
from repro.pace.clustering import ClusteringMaster, parallel_component_detection
from repro.pace.redundancy import (
    RedundancyMaster,
    RedundancyResult,
    parallel_redundancy_removal,
)
from repro.parallel.simulator import VirtualCluster
from repro.runtime import ProcessBackend
from repro.runtime import phases
from repro.runtime.base import PairStream
from repro.runtime.phases import (
    backend_component_detection,
    backend_generate_component_graphs,
    backend_redundancy_removal,
)
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.align.matrices import blosum62_scheme
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
    containment_verdicts,
)
from repro.suffix.suffix_array import GeneralizedSuffixArray
from tests.scalar_finder import ScalarMatchFinder

PSI = 10

SPECULATION_COUNTERS = ("ccd.batches", "ccd.held", "ccd.redecided")

#: How the engine packed the pairs: a batch fills fewer, wider buckets
#: than a loop of one-pair tasks.
PACKING_COUNTERS = ("batch.buckets", "batch.padded_cells")


def _domain_shaped() -> SequenceSet:
    """The benchmark's ``domain`` shape in small: one big multi-domain
    family beside small ones, shuffled — the input on which the stream
    is almost all intra-family repeats the CCD filter must drop."""
    records: list[SequenceRecord] = []
    for tier, (families, size) in enumerate([(1, 30), (4, 6)]):
        data = generate_metagenome(MetagenomeSpec(
            n_families=families, mean_family_size=size, max_family_size=size,
            zipf_exponent=50.0, mean_length=110, length_stddev=0,
            identity_low=0.70, identity_high=0.70, domain_family_fraction=1.0,
            redundant_fraction=0.0, noise_fraction=0.10, fragment_fraction=0.0,
            seed=900 + tier,
        ))
        records += [
            SequenceRecord(id=f"T{tier}{r.id}", residues=r.residues)
            for r in data.sequences
        ]
    order = np.random.default_rng(5).permutation(len(records))
    return SequenceSet(records[i] for i in order)


@pytest.fixture(scope="module", params=["small", "tiny", "domain", "domain_shaped"])
def sequences(request, small_metagenome, tiny_metagenome, domain_metagenome):
    if request.param == "domain_shaped":
        return _domain_shaped()
    return {
        "small": small_metagenome,
        "tiny": tiny_metagenome,
        "domain": domain_metagenome,
    }[request.param].sequences


class _Journal:
    def __init__(self):
        self.unions: list[tuple[int, int]] = []

    def ccd_union(self, gi: int, gj: int) -> None:
        self.unions.append((gi, gj))


class _Observed:
    """One phase run: result, counters, submitted pairs in order and the
    size of each submit."""

    def __init__(self, run, monkeypatch):
        self.submitted: list[tuple[int, int]] = []
        self.chunks: list[int] = []
        submit_columns = PairStream.submit_columns

        def recording_submit_columns(stream, ia, ib):
            self.submitted.extend(zip(ia.tolist(), ib.tolist()))
            self.chunks.append(len(ia))
            submit_columns(stream, ia, ib)

        recorder = obs.Recorder()
        with monkeypatch.context() as patch, obs.recording(recorder):
            patch.setattr(PairStream, "submit_columns", recording_submit_columns)
            self.result = run()
        # Every count, that is: not the generator's, the speculation's and
        # the bucket packing's own work counters (new with the blocks and
        # the batches) and not measured seconds.
        self.counters = {
            name: value
            for name, value in recorder.counters().items()
            if not name.startswith("suffix.") and not name.endswith("_seconds")
            and name not in SPECULATION_COUNTERS + PACKING_COUNTERS
        }
        self.spans = [s for s in recorder.spans if s.name == "pairs.generate"]


def _rebuild(index, members):
    """The sub-collection's own index, sorted from scratch: what the
    session index's labelled stream is held to."""
    return GeneralizedSuffixArray(
        [index.text[index.starts[m] : index.starts[m + 1] - 1] for m in members]
    )


@pytest.fixture()
def scalar_masters(monkeypatch):
    """Inside this fixture the ``repro.pace`` masters and simulated
    drivers are built over the scalar walk instead of the block
    generator."""
    def use():
        for module in ("redundancy", "clustering", "bipartite_gen"):
            monkeypatch.setattr(
                f"repro.pace.{module}.MaximalMatchFinder", ScalarMatchFinder
            )
    return use


# -- the phases as they ran before: pair by pair through ``admit`` -----------


def reference_rr(sequences, backend):
    """RR as a set of seen pairs over the scalar walk, each first
    sighting counted as it is made and its verdict drawn one pair at a
    time by Definition 1 on a one-row column; the stream is fed the same
    chunks."""
    master = RedundancyMaster(
        sequences, backend.index, psi=PSI, similarity=CONTAINMENT_SIMILARITY,
        coverage=CONTAINMENT_COVERAGE,
    )
    assert isinstance(master.finder, ScalarMatchFinder)
    lengths = [len(record.encoded) for record in sequences]
    seen: set[tuple[int, int]] = set()
    containments: list[tuple[int, int]] = []

    def absorb(ia, ib, stats):
        for i, j, row in zip(ia.tolist(), ib.tolist(), stats):
            victims, survivors = containment_verdicts(
                row[None], i, j, lengths[i], lengths[j],
                CONTAINMENT_SIMILARITY, CONTAINMENT_COVERAGE,
            )
            containments.extend(zip(victims.tolist(), survivors.tolist()))

    with backend.phase("redundancy"):
        stream = backend.containment_stream(
            similarity=CONTAINMENT_SIMILARITY, coverage=CONTAINMENT_COVERAGE
        )
        chunk: list[tuple[int, int]] = []
        for match in master.finder.matches():
            if match.pair in seen:
                continue
            seen.add(match.pair)
            obs.count("rr.pairs")
            obs.count("rr.alignments")
            chunk.append(match.pair)
            if len(chunk) == phases.RR_CHUNK:
                stream.submit_columns(*np.array(chunk).T)
                chunk = []
                for done in stream.ready():
                    absorb(*done)
        if chunk:
            stream.submit_columns(*np.array(chunk).T)
        for done in stream.drain():
            absorb(*done)
    redundant = {victim for victim, _ in containments}
    obs.count("rr.redundant", len(redundant))
    return RedundancyResult(
        redundant=redundant,
        kept=[k for k in range(len(sequences)) if k not in redundant],
        n_promising_pairs=len(seen),
        n_alignments=len(seen),
        containments=sorted(containments),
    )


def reference_ccd(sequences, kept, backend, journal=None, replay_unions=()):
    master = ClusteringMaster(
        sequences, kept, similarity=OVERLAP_SIMILARITY, coverage=OVERLAP_COVERAGE
    )
    finder = ScalarMatchFinder(_rebuild(backend.index, kept), min_length=PSI)
    local_of = {g: l for l, g in enumerate(kept)}
    for gi, gj in replay_unions:
        master.uf.union(local_of[gi], local_of[gj])

    def absorb(ia, ib, table):
        passes = master.overlaps(ia, ib, table).tolist()
        for gi, gj, ok in zip(ia.tolist(), ib.tolist(), passes):
            if (
                ok
                and master.union((local_of[gi], local_of[gj]))
                and journal is not None
            ):
                journal.ccd_union(gi, gj)

    with backend.phase("clustering"):
        stream = backend.alignment_stream()
        for match in finder.matches():
            if not master.admit(match.pair):
                continue
            stream.submit_columns(np.array([kept[match.seq_a]]),
                                  np.array([kept[match.seq_b]]))
            for done in stream.ready():
                absorb(*done)
        for done in stream.drain():
            absorb(*done)
    return master.result()


def reference_bgg(sequences, components, backend):
    """B_d generation as a set of seen ``(component, a, b)`` items over
    the scalar walk of each component's own index, one component after
    the other, each first sighting counted as it is made, and the stream
    fed chunks of ``LOCAL_CHUNK`` admitted pairs across components."""
    master = BipartiteMaster(
        sequences, components, backend.index, psi=PSI, edge_similarity=0.40,
        edge_coverage=0.80, min_size=4,
    )
    seen: set[tuple[int, int, int]] = set()

    def absorb(ia, ib, table):
        edges = master.is_edge(ia, ib, table).tolist()
        for gi, gj, edge in zip(ia.tolist(), ib.tolist(), edges):
            if edge:
                master.add_edge(gi, gj)

    with backend.phase("bipartite"):
        stream = backend.alignment_stream()
        chunk: list[tuple[int, int]] = []
        for ci, members in enumerate(master.members):
            finder = ScalarMatchFinder(_rebuild(backend.index, members), min_length=PSI)
            for match in finder.matches():
                item = (ci, match.seq_a, match.seq_b)
                if item in seen:
                    continue
                seen.add(item)
                obs.count("bipartite.pairs")
                chunk.append((members[match.seq_a], members[match.seq_b]))
                if len(chunk) == phases.LOCAL_CHUNK:
                    stream.submit_columns(*np.array(chunk).T)
                    chunk = []
                    for done in stream.ready():
                        absorb(*done)
        if chunk:
            stream.submit_columns(*np.array(chunk).T)
        for done in stream.drain():
            absorb(*done)
        result = master.result()
    result.n_alignments = len(seen)
    return result


def test_rr_admission_is_the_set_loop():
    """``RedundancyMaster.admit`` is a set of seen pairs, a block at a
    time: over random blocks — repeats inside a block and across blocks,
    empty blocks, the last bit of the map — it lets through the first
    sightings in stream order and counts each once."""
    n = 41
    sequences = SequenceSet(
        SequenceRecord(id=f"s{k}", residues="ACDEFGHIKLMNPQ"[: 4 + k % 9])
        for k in range(n)
    )
    master = RedundancyMaster(
        sequences, GeneralizedSuffixArray([r.encoded for r in sequences]), psi=PSI,
        similarity=CONTAINMENT_SIMILARITY, coverage=CONTAINMENT_COVERAGE,
    )
    rng = np.random.default_rng(8)
    seen: set[tuple[int, int]] = set()
    recorder = obs.Recorder()
    with obs.recording(recorder):
        for size in (0, 1, 7, 300, 0, 2000, 50):
            a = rng.integers(0, n - 1, size)
            b = rng.integers(a + 1, n)
            if size == 50:
                a[-1], b[-1] = n - 2, n - 1
            expected = []
            for pair in zip(a.tolist(), b.tolist()):
                if pair not in seen:
                    seen.add(pair)
                    expected.append(pair)
            ia, ib = master.admit(a, b)
            assert list(zip(ia.tolist(), ib.tolist())) == expected
    counters = recorder.counters()
    assert counters["rr.pairs"] == counters["rr.alignments"] == len(seen) > 500
    assert master.result().n_promising_pairs == len(seen)


# -- serial backend: everything observable agrees -----------------------------


class TestPrefiltersAreInvisible:
    def test_rr_ccd_bgg_equal_the_pair_by_pair_loops(
        self, sequences, serial_session, scalar_masters, monkeypatch
    ):
        backend, cache = serial_session(sequences)
        journal = _Journal()
        rr = _Observed(
            lambda: backend_redundancy_removal(sequences, backend, cache, psi=PSI),
            monkeypatch,
        )
        kept = rr.result.kept
        ccd = _Observed(
            lambda: backend_component_detection(
                sequences, kept, backend, cache, psi=PSI, journal=journal
            ),
            monkeypatch,
        )
        components = ccd.result.components
        bgg = _Observed(
            lambda: backend_generate_component_graphs(
                sequences, components, backend, cache, psi=PSI, min_size=4
            ),
            monkeypatch,
        )
        assert rr.spans and ccd.spans

        scalar_masters()
        backend, _ = serial_session(sequences)
        ref_journal = _Journal()
        ref_rr = _Observed(lambda: reference_rr(sequences, backend), monkeypatch)
        ref_ccd = _Observed(
            lambda: reference_ccd(sequences, kept, backend, ref_journal),
            monkeypatch,
        )
        ref_bgg = _Observed(
            lambda: reference_bgg(sequences, components, backend), monkeypatch
        )
        assert not ref_rr.spans

        assert rr.result == ref_rr.result
        assert rr.submitted == ref_rr.submitted
        assert rr.chunks == ref_rr.chunks
        assert rr.counters == ref_rr.counters

        assert ccd.result == ref_ccd.result
        assert ccd.result.n_filtered + ccd.result.n_alignments == (
            ccd.result.n_promising_pairs
        )
        assert journal.unions == ref_journal.unions
        assert len(journal.unions) == ccd.result.n_merges
        assert ccd.submitted == ref_ccd.submitted
        # One task per batch where the loop dispatched one per pair.
        tasks = "runtime.heartbeats"
        assert ccd.counters.pop(tasks) < ref_ccd.counters.pop(tasks)
        assert ccd.counters == ref_ccd.counters

        assert bgg.submitted == ref_bgg.submitted
        assert bgg.chunks == ref_bgg.chunks
        assert bgg.counters == ref_bgg.counters
        assert bgg.result.n_alignments == ref_bgg.result.n_alignments
        assert bgg.result.n_edges == ref_bgg.result.n_edges
        assert bgg.result.neighbors == ref_bgg.result.neighbors

    def test_spans_account_for_the_stream(self, sequences, serial_session, monkeypatch):
        backend, cache = serial_session(sequences)
        kept = list(range(len(sequences)))
        ccd = _Observed(
            lambda: backend_component_detection(sequences, kept, backend, cache, psi=PSI),
            monkeypatch,
        )
        args = [dict(span.args) for span in ccd.spans]
        assert {a["phase"] for a in args} == {"clustering"}
        assert sum(a["matches"] for a in args) == ccd.result.n_promising_pairs
        assert sum(a["admitted"] for a in args) == ccd.result.n_alignments
        assert all(a["matches"] <= a["candidates"] for a in args)

    def test_replayed_unions_only_save_alignments(self, sequences, serial_session):
        kept = list(range(len(sequences)))
        backend, cache = serial_session(sequences)
        journal = _Journal()
        full = backend_component_detection(
            sequences, kept, backend, cache, psi=PSI, journal=journal
        )
        backend, cache = serial_session(sequences)
        later = _Journal()
        resumed = backend_component_detection(
            sequences, kept, backend, cache, psi=PSI, journal=later,
            replay_unions=journal.unions[: len(journal.unions) // 2 + 1],
        )
        assert resumed.components == full.components
        assert resumed.n_promising_pairs == full.n_promising_pairs
        assert resumed.n_alignments <= full.n_alignments
        assert resumed.n_merges == full.n_merges
        assert len(later.unions) < max(len(journal.unions), 1)


def test_process_backend_components_identical(serial_session):
    sequences = _domain_shaped()
    kept = list(range(len(sequences)))
    serial = backend_component_detection(
        sequences, kept, *serial_session(sequences), psi=PSI
    )
    backend = ProcessBackend(workers=2)
    with backend.session(sequences, blosum62_scheme()), \
            mock.patch.object(phases, "LOCAL_CHUNK", 8):
        concurrent = backend_component_detection(
            sequences, kept, backend, None, psi=PSI
        )
    # Not components only: the same filter decisions, in batches of 8
    # (one task each) whichever of the two workers finishes first.
    assert concurrent == serial


# -- simulator: the bucket streams feed the rank programs unchanged ------------


@pytest.mark.parametrize("p", [1, 4, 8])
def test_simulated_phases_keep_their_virtual_clock(tiny_metagenome, scalar_masters, p):
    sequences = tiny_metagenome.sequences

    def simulate():
        rr = parallel_redundancy_removal(sequences, VirtualCluster(p), psi=PSI)
        ccd = parallel_component_detection(sequences, rr.kept, VirtualCluster(p), psi=PSI)
        bgg = parallel_generate_component_graphs(
            sequences, ccd.components, VirtualCluster(p), psi=PSI, min_size=4
        )
        return [
            (r.sim.elapsed, r.sim.total_messages, r.sim.total_bytes)
            for r in (rr, ccd, bgg)
        ], (rr.kept, ccd.components, ccd.n_filtered, ccd.n_alignments, bgg.n_edges)

    blocks = simulate()
    scalar_masters()
    assert blocks == simulate()


# -- UnionFind.labels ------------------------------------------------------------


class TestUnionFindLabels:
    def test_empty_and_fresh(self):
        assert UnionFind().labels().tolist() == []
        assert UnionFind(4).labels().tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_root_and_writes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        uf = UnionFind(200)
        for step in range(260):
            uf.union(int(rng.integers(200)), int(rng.integers(200)))
            if step % 20 == 0:
                # Finds in between leave half-compressed paths behind.
                uf.find(int(rng.integers(200)))
            if step % 13 == 0:
                parents = list(uf._parent)
                labels = uf.labels()
                # The serve planner's lock-free-reader contract: a pure
                # query writes no parent pointer.
                assert uf._parent == parents
                assert labels.tolist() == [uf.root(x) for x in range(200)]
                a, b = rng.integers(200, size=(2, 50))
                assert ((labels[a] == labels[b]) == [
                    uf.root(int(x)) == uf.root(int(y)) for x, y in zip(a, b)
                ]).all()

    def test_deep_chain(self):
        """No union by rank to lean on: a hand-built worst-case chain."""
        uf = UnionFind(65)
        uf._parent = [max(i - 1, 0) for i in range(65)]
        assert uf.labels().tolist() == [0] * 65
