"""Additional cross-cutting property-based tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align import predicates
from repro.align.batch import batch_align
from repro.align.matrices import identity_scheme
from repro.parallel.simulator import SimComm, VirtualCluster, estimate_nbytes
from repro.sequence.alphabet import encode
from repro.suffix.suffix_array import GeneralizedSuffixArray
from repro.util.hashing import UniversalHashFamily
from tests.oracle_ukkonen import SuffixTree
from tests.scalar_align import alignment_table
from tests.scalar_shingle import min_samples_matrix

# The properties are claimed of what a run computes: one pair through
# the batched engine, the verdicts through ``align/predicates.py``.
# (``test_batch_align.py`` holds both to ``tests/scalar_align.py``.)


def _one_pair(mode):
    def align(a, b, scheme=None):
        return batch_align([(a, b)], scheme, mode)[0]

    return align


global_align, local_align, semiglobal_align = map(
    _one_pair, ("global", "local", "semiglobal"))


def containment_test(a, b):
    aln = semiglobal_align(a, b)
    stats = predicates.containment_stats(alignment_table([aln]), len(a), len(b))
    return (*predicates.contained(tuple(stats[0].tolist()), predicates.CONTAINMENT_SIMILARITY,
                                  predicates.CONTAINMENT_COVERAGE), aln)


def overlap_test(a, b, *, similarity=predicates.OVERLAP_SIMILARITY,
                 coverage=predicates.OVERLAP_COVERAGE):
    aln = local_align(a, b)
    table = alignment_table([aln])
    return predicates.overlaps(table, len(a), len(b), similarity, coverage).tolist()[0], aln

encoded_seq = st.lists(
    st.integers(min_value=0, max_value=19), min_size=1, max_size=30
).map(lambda xs: np.array(xs, dtype=np.uint8))


class TestAlignmentMetamorphic:
    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_concatenating_shared_prefix_raises_global_score(self, a, b):
        """Prepending the same block to both sequences adds its full match
        score to the global optimum (identity scoring)."""
        prefix = encode("ARNDCQEG")
        scheme = identity_scheme()
        base = global_align(a, b, scheme).score
        grown = global_align(
            np.concatenate([prefix, a]), np.concatenate([prefix, b]), scheme
        ).score
        assert grown >= base + len(prefix)

    @given(encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_reversal_preserves_self_similarity(self, a):
        scheme = identity_scheme()
        assert global_align(a[::-1].copy(), a[::-1].copy(), scheme).score == len(a)

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_local_score_invariant_under_argument_swap(self, a, b):
        scheme = identity_scheme()
        assert local_align(a, b, scheme).score == local_align(b, a, scheme).score

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_embedding_preserves_local_optimum(self, a, b):
        """Padding both ends with mismatching symbols never lowers the
        local alignment score."""
        scheme = identity_scheme()
        base = local_align(a, b, scheme).score
        pad = encode("W" * 4)
        padded = local_align(np.concatenate([pad, a, pad]), b, scheme).score
        assert padded >= base


class TestSuffixCrossValidation:
    @given(encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_ukkonen_agrees_with_suffix_array_order(self, seq):
        """The sorted leaf suffix indices of the Ukkonen tree must equal
        the suffix array of the sentinel-extended text."""
        tree = SuffixTree(seq)
        gsa = GeneralizedSuffixArray([seq])
        # gsa text = seq + sentinel; both structures index the same suffixes.
        tree_leaves = sorted(
            node.suffix_index for node in tree.iter_nodes() if not node.children
        )
        assert tree_leaves == list(range(len(seq) + 1))
        assert sorted(gsa.sa.tolist()) == list(range(len(seq) + 1))

    @given(encoded_seq, st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_tree_occurrence_counts_match_lcp_intervals(self, seq, probe_len):
        tree = SuffixTree(seq)
        if len(seq) < probe_len:
            return
        pat = seq[:probe_len]
        count = tree.count_occurrences(pat)
        naive = sum(
            1
            for k in range(len(seq) - probe_len + 1)
            if np.array_equal(seq[k : k + probe_len], pat)
        )
        assert count == naive


class TestSimulatorConservation:
    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_message_conservation(self, p, sends):
        """Every message sent to rank 0 is received exactly once."""
        schedule = [s % (p - 1) + 1 for s in sends]  # sending ranks

        def program(comm: SimComm):
            if comm.rank == 0:
                got = []
                expected = len(schedule)
                for _ in range(expected):
                    msg = yield from comm.recv()
                    got.append(msg.payload)
                return sorted(got)
            my_items = [i for i, r in enumerate(schedule) if r == comm.rank]
            for item in my_items:
                yield from comm.send(item, dest=0)
            return None

        res = VirtualCluster(p).run(program)
        assert res.rank_results[0] == sorted(range(len(schedule)))
        assert sum(s.messages_sent for s in res.rank_stats) == len(schedule)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_equals_python_reduce(self, p):
        """Every rank folds an all-to-all of its value to the same sum."""

        def program(comm: SimComm):
            values = yield from comm.alltoall([comm.rank * 3 + 1] * comm.size)
            return sum(values)

        res = VirtualCluster(p).run(program)
        expected = sum(r * 3 + 1 for r in range(p))
        assert res.rank_results == [expected] * p

    def test_clock_monotone_per_rank(self):
        """A rank's clock only ever moves forward, by its compute, send
        and wait seconds, so they sum to its final clock: the slowest
        rank's sum is the run's elapsed time and no rank's exceeds it."""

        def program(comm: SimComm):
            for _ in range(3):
                yield from comm.compute(seconds=0.1)
                yield from comm.gather(None)

        sim = VirtualCluster(4).run(program)
        finals = [s.busy_seconds + s.wait_seconds for s in sim.rank_stats]
        assert all(min(s.compute_seconds, s.send_seconds, s.wait_seconds) >= 0
                   for s in sim.rank_stats)
        assert max(finals) == pytest.approx(sim.elapsed)
        assert all(final <= sim.elapsed + 1e-12 for final in finals)


class TestEstimateNbytes:
    @given(st.lists(st.integers(min_value=-10, max_value=10), max_size=20))
    def test_list_estimate_grows_with_length(self, xs):
        assert estimate_nbytes(xs) >= estimate_nbytes(xs[: len(xs) // 2])

    def test_nested(self):
        assert estimate_nbytes([[1], [2, 3]]) > estimate_nbytes([[1]])


class TestHashFamilyProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), min_size=6, max_size=20, unique=True),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40)
    def test_min_sample_permutation_invariance(self, values, seed):
        """Shingles depend only on the *set*, not on input order."""
        fam = UniversalHashFamily(4, seed=seed)
        forward = min_samples_matrix(fam, values, 3)
        backward = min_samples_matrix(fam, list(reversed(values)), 3)
        assert (forward == backward).all()

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), min_size=4, max_size=12, unique=True)
    )
    @settings(max_examples=30)
    def test_superset_shingle_never_larger_hash_min(self, values):
        """Adding elements can only lower (or keep) the per-permutation
        minimum hash — the min-wise monotonicity MinHash relies on."""
        fam = UniversalHashFamily(6, seed=1)
        subset = values[:-1]
        if len(subset) < 1:
            return
        full_mins = fam.apply_all(values).min(axis=1)
        sub_mins = fam.apply_all(subset).min(axis=1)
        assert (full_mins <= sub_mins).all()


class TestPredicateProperties:
    """The paper's Definitions 1 and 2 must behave as *pair* predicates:
    symmetric where the paper requires symmetry, monotone in the
    user-tunable thresholds."""

    @given(encoded_seq, encoded_seq)
    @example(
        a=np.array([1, 5, 5, 1], dtype=np.uint8),
        b=np.array([1, 5, 11, 5, 5], dtype=np.uint8),
    )
    @settings(max_examples=30, deadline=None)
    def test_overlap_verdict_symmetric(self, a, b):
        """Definition 2 reads one optimal local alignment, the one the
        row-major endpoint tie-break reports, so it is a property of the
        *ordered* pair.  What is symmetric: the optimal score, and the
        verdict whenever both directions report the same matches, length
        and span.  The pinned pair has two co-optimal alignments of
        score 12 — span 3 one way, span 4 the other, coverage 0.6 vs
        0.8 — and its verdicts differ (DESIGN.md, Definition 2; the
        pipeline orients every pair the same way on every run)."""
        forward, one = overlap_test(a, b)
        backward, other = overlap_test(b, a)
        assert one.score == other.score

        def reported(aln):
            span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
            return aln.matches, aln.length, span

        if reported(one) == reported(other):
            assert forward == backward

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_containment_directions_swap_with_arguments(self, a, b):
        """containment_test(a, b) = (a_in_b, b_in_a, .); swapping the
        arguments must swap the verdicts, nothing else."""
        a_in_b, b_in_a, _ = containment_test(a, b)
        swapped_b_in_a, swapped_a_in_b, _ = containment_test(b, a)
        assert (a_in_b, b_in_a) == (swapped_a_in_b, swapped_b_in_a)

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_semiglobal_score_symmetric(self, a, b):
        from repro.align.matrices import blosum62_scheme

        scheme = blosum62_scheme()
        assert semiglobal_align(a, b, scheme).score == (
            semiglobal_align(b, a, scheme).score
        )

    @given(encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_every_sequence_contains_itself(self, a):
        a_in_b, b_in_a, aln = containment_test(a, a)
        assert a_in_b and b_in_a
        assert aln.identity == 1.0

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_overlap_verdict_monotone_in_thresholds(self, a, b):
        """Tightening similarity/coverage can only flip True -> False."""
        loose = overlap_test(a, b, similarity=0.10, coverage=0.40)[0]
        strict = overlap_test(a, b, similarity=0.60, coverage=0.90)[0]
        assert loose or not strict


union_ops = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60
)


class TestUnionFindProperties:
    @given(union_ops)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_partition_model(self, ops):
        """Model-based check against a naive shared-set partition: union
        reports a merge iff the model sets were distinct, merge_count is
        monotone, and a merged set is never split again."""
        from repro.graph.unionfind import UnionFind

        uf = UnionFind(12)
        model = {i: {i} for i in range(12)}
        bonded: list[tuple[int, int]] = []
        previous_merge_count = 0
        for x, y in ops:
            merged = uf.union(x, y)
            assert merged == (model[x] is not model[y])
            if merged:
                union = model[x] | model[y]
                for element in union:
                    model[element] = union
            bonded.append((x, y))
            assert uf.same(x, y)
            assert uf.merge_count >= previous_merge_count  # monotone
            previous_merge_count = uf.merge_count
        # Never splits: every pair ever unioned is still together.
        for x, y in bonded:
            assert uf.same(x, y)
        partition = {frozenset(members) for members in uf.groups().values()}
        assert partition == {frozenset(s) for s in model.values()}

    @given(union_ops)
    @settings(max_examples=60, deadline=None)
    def test_merge_count_equals_elements_minus_sets(self, ops):
        """merge_count == n - |partition| for ANY union order — the
        identity that makes the ccd.merges counter mode-invariant."""
        from repro.graph.unionfind import UnionFind

        uf = UnionFind(12)
        for x, y in ops:
            uf.union(x, y)
        assert uf.merge_count == 12 - len(uf.groups())

    @given(union_ops)
    @settings(max_examples=40, deadline=None)
    def test_final_partition_is_order_invariant(self, ops):
        """Any permutation of the same union sequence yields the same
        partition (and therefore the same merge_count) — why components
        and ccd.merges agree across serial, backend, and simulator."""
        from repro.graph.unionfind import UnionFind, connected_labels

        uf_fwd, uf_bwd = UnionFind(12), UnionFind(12)
        for x, y in ops:
            uf_fwd.union(x, y)
        for x, y in reversed(ops):
            uf_bwd.union(x, y)
        forward = {frozenset(g) for g in uf_fwd.groups().values()}
        assert forward == {frozenset(g) for g in uf_bwd.groups().values()}
        # ... and the all-edges-at-once array form names the same partition.
        labels = connected_labels(
            12,
            np.array([x for x, _ in ops], dtype=np.int64),
            np.array([y for _, y in ops], dtype=np.int64),
        )
        assert forward == {
            frozenset(np.flatnonzero(labels == root).tolist())
            for root in set(labels.tolist())
        }
        assert uf_fwd.merge_count == uf_bwd.merge_count

    @given(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_keyed_union_find_agrees_with_dense(self, ops):
        """KeyedUnionFind (the Shingle oracle's) over strings == UnionFind
        over interned ids."""
        from tests.scalar_shingle import KeyedUnionFind

        keyed = KeyedUnionFind()
        model: dict[str, set[str]] = {}
        for a, b in ops:
            model.setdefault(a, {a})
            model.setdefault(b, {b})
            merged = keyed.union(a, b)
            assert merged == (model[a] is not model[b])
            if merged:
                union = model[a] | model[b]
                for element in union:
                    model[element] = union
        assert {frozenset(g) for g in keyed.groups()} == (
            {frozenset(s) for s in model.values()}
        )


class TestBatchedPipelineDifferential:
    """End-to-end differential fuzz: seeded random metagenomes run
    through the simulated RR and CCD drivers on one rank (whose
    admission is the pair-at-a-time master callback) and through the
    serial backend (whose phases admit and align a block at a time)
    must agree on every redundant sequence, containment and component,
    and on every scientific RR and CCD counter."""

    @pytest.mark.parametrize("seed", [7, 1013])
    def test_scalar_and_batched_runs_identical(self, seed):
        from repro import obs
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import ProteinFamilyPipeline
        from repro.obs.registry import scientific_view
        from repro.pace.clustering import parallel_component_detection
        from repro.pace.redundancy import parallel_redundancy_removal
        from repro.sequence.generator import MetagenomeSpec, generate_metagenome
        from repro.shingle.algorithm import ShingleParams

        spec = MetagenomeSpec(
            n_families=4, mean_family_size=7, seed=seed,
            redundant_fraction=0.2,
        )
        sequences = generate_metagenome(spec).sequences
        config = PipelineConfig(
            shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
            min_component_size=4,
            min_subgraph_size=4,
        )

        recorder = obs.Recorder()
        with obs.recording(recorder):
            rr = parallel_redundancy_removal(sequences, VirtualCluster(1), psi=config.psi)
            ccd = parallel_component_detection(
                sequences, rr.kept, VirtualCluster(1), psi=config.psi)
        batched = ProteinFamilyPipeline(config).run(sequences, backend="serial")

        assert batched.redundancy.redundant == rr.redundant
        assert batched.redundancy.containments == rr.containments
        assert batched.clustering.components == ccd.components
        assert rr.redundant and len(ccd.components) < len(rr.kept)

        def phases(counters):
            return {name: value for name, value in scientific_view(counters).items()
                    if name.startswith(("rr.", "ccd."))}

        assert phases(batched.obs.counters()) == phases(recorder.counters())
