"""CCD under speculation is the pair-by-pair loop, a batch at a time.

``backend_component_detection`` never waits for one verdict before it
looks at the next pair: it keeps a second union–find in which the open
batch is assumed to merge, aligns in batches what that bound separates
and holds what it joins.  The oracle is ``reference_ccd`` in
``tests/test_block_prefilters.py`` — admit, align, absorb, next pair —
and everything but the number of tasks must agree with it: the result,
every other counter, the journaled unions, and the submitted pairs (as
a multiset; as a sequence while no verdict fails).

Most runs here pay for no DP: the backend answers a table of zero rows
for every task and ``ClusteringMaster.overlaps`` is patched to a
verdict column that is a pure function of each pair, failing a chosen
share of them — which is what drives the fix-up walk after a failed
verdict.  A handful
of real twilight-zone inputs (identity 0.30–0.55, fragments, ψ = 5)
then do the same with Definition 2 itself.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.align.matrices import blosum62_scheme
from repro.align.predicates import OVERLAP_COVERAGE, OVERLAP_SIMILARITY
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import ClusteringMaster
from repro.runtime import SerialBackend, phases
from repro.runtime.phases import backend_component_detection
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.suffix import MatchBlock
from repro.suffix.matches import CANDIDATE_BUDGET
from tests import test_block_prefilters as loops

#: Counters that count tasks, not pairs: one per batch here, one per
#: pair in the loop.
TASK_COUNTERS = ("runtime.heartbeats",)


class VerdictOnlyBackend(SerialBackend):
    """Answers every alignment with a zero row, for runs whose verdicts
    are patched in: the whole runtime path but the DP."""

    def _dispatch(self, body, sink):
        obs.heartbeat(0, 0.0)
        sink(np.zeros((len(body[-1]), 8), dtype=np.int64), 0.0)


def verdict(fail: float, salt: int):
    """A stand-in for ``ClusteringMaster.overlaps``: a fixed function of
    each pair (in Python ints) that fails about ``fail`` of them."""

    def passes(gi, gj):
        mixed = ((gi * 1_000_003) ^ (gj * 998_244_353) ^ salt) * 2_654_435_761
        return (mixed >> 7) % 1000 >= fail * 1000

    def overlaps(master, ia, ib, table):
        assert table.shape == (len(ia), 8)
        return np.array([passes(gi, gj) for gi, gj in zip(ia.tolist(), ib.tolist())],
                        dtype=bool)

    return overlaps


@pytest.fixture(scope="module")
def sessions(small_metagenome, tiny_metagenome, domain_metagenome):
    """``name -> (sequences, backend with an open session)``."""
    inputs = {
        "small": small_metagenome.sequences,
        "tiny": tiny_metagenome.sequences,
        "domain": domain_metagenome.sequences,
        "domain_shaped": loops._domain_shaped(),
    }
    with contextlib.ExitStack() as stack:
        opened = {}
        for name, sequences in inputs.items():
            backend = VerdictOnlyBackend()
            stack.enter_context(backend.session(sequences, blosum62_scheme()))
            opened[name] = (sequences, backend)
        yield opened


def both_ways(sequences, backend, *, psi=loops.PSI, replay=()):
    """One CCD phase through the driver and one through the loop, each
    on a fresh cache: ``(driver, loop)`` as ``(observed, unions)``."""
    kept = list(range(len(sequences)))
    encoded = [record.encoded for record in sequences]

    def cache():
        return AlignmentCache(lambda k: encoded[k], blosum62_scheme())

    journal = loops._Journal()
    driver = loops._Observed(
        lambda: backend_component_detection(
            sequences, kept, backend, cache(), psi=psi, journal=journal,
            replay_unions=replay,
        ),
        pytest.MonkeyPatch(),
    )
    ref_journal = loops._Journal()
    with mock.patch.object(loops, "PSI", psi):
        loop = loops._Observed(
            lambda: loops.reference_ccd(
                sequences, kept, backend, cache(), ref_journal, replay
            ),
            pytest.MonkeyPatch(),
        )
    return (driver, journal.unions), (loop, ref_journal.unions)


def assert_the_loop(driver, loop):
    (got, unions), (want, want_unions) = driver, loop
    assert got.result == want.result
    assert unions == want_unions
    for counters in (got.counters, want.counters):
        for name in TASK_COUNTERS:
            counters.pop(name, None)
    assert got.counters == want.counters
    assert Counter(got.submitted) == Counter(want.submitted)
    if len(want.submitted) == len(want_unions):  # no verdict failed
        assert got.submitted == want.submitted


class TestTheLoopABatchAtATime:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["small", "tiny", "domain", "domain_shaped"]),
        fail=st.sampled_from([0.0, 0.3, 0.3, 1.0]),
        salt=st.integers(0, 2**20),
        cap=st.sampled_from([1, 2, 5, phases.LOCAL_CHUNK, 2**30]),
        budget=st.sampled_from([1, CANDIDATE_BUDGET]),
        replayed=st.sampled_from([0.0, 0.0, 0.5]),
    )
    def test_any_verdicts_any_batch_size(
        self, sessions, name, fail, salt, cap, budget, replayed
    ):
        sequences, backend = sessions[name]
        with mock.patch.object(
            ClusteringMaster, "overlaps", verdict(fail, salt)
        ), mock.patch.object(phases, "LOCAL_CHUNK", cap), mock.patch.object(
            phases, "CANDIDATE_BUDGET", budget
        ):
            replay = ()
            if replayed:
                _, (_, unions) = both_ways(sequences, backend)
                replay = unions[: int(len(unions) * replayed) + 1]
            assert_the_loop(*both_ways(sequences, backend, replay=replay))

    @pytest.mark.parametrize("name", ["small", "domain_shaped"])
    def test_the_fix_up_walk_ran(self, sessions, name):
        """The property above is not vacuous: at 30% failures pairs are
        held, re-decided, and some of those aligned after all."""
        sequences, backend = sessions[name]
        recorder = obs.Recorder()
        with mock.patch.object(
            ClusteringMaster, "overlaps", verdict(0.3, 1)
        ), obs.recording(recorder):
            result = backend_component_detection(
                sequences, list(range(len(sequences))), backend,
                AlignmentCache(lambda k: sequences[k].encoded, blosum62_scheme()),
                psi=loops.PSI,
            )
        counters = recorder.counters()
        assert counters["ccd.held"] >= counters["ccd.redecided"] > 0
        spans = [dict(s.args) for s in recorder.spans if s.name == "ccd.batch"]
        assert len(spans) == counters["ccd.batches"]
        assert sum(s["held"] for s in spans) == counters["ccd.held"]
        assert sum(s["redecided"] for s in spans) == counters["ccd.redecided"]
        # Some re-decided pairs were aligned after all, alone — the last
        # of them as the stream ended, still inside a block's window.
        assert sum(s["pairs"] for s in spans) < result.n_alignments
        assert result.n_alignments == sum(
            dict(s.args)["admitted"] for s in recorder.spans
            if s.name == "pairs.generate"
        )

    @pytest.mark.parametrize("fail", [0.0, 1.0])
    def test_never_aligns_more_than_the_loop(self, sessions, fail):
        """All verdicts pass: as few tasks as batches.  All fail: every
        held pair goes back through ``admit`` and exactly the loop's
        pairs are aligned."""
        sequences, backend = sessions["small"]
        with mock.patch.object(ClusteringMaster, "overlaps", verdict(fail, 0)):
            (got, _), (want, _) = both_ways(sequences, backend)
        assert Counter(got.submitted) == Counter(want.submitted)
        assert got.result.n_alignments == want.result.n_alignments > 1
        if not fail:
            assert got.counters["runtime.heartbeats"] == 1


class TestTwilightZone:
    """Real Definition 2 verdicts on families at the edge of it."""

    @pytest.mark.parametrize("seed", [0, 12, 13, 19, 21])
    def test_real_failures(self, seed):
        data = generate_metagenome(MetagenomeSpec(
            n_families=3 + seed % 3, mean_family_size=12, max_family_size=12,
            zipf_exponent=50.0, mean_length=100, length_stddev=15,
            identity_low=0.30, identity_high=0.55, fragment_fraction=0.3,
            redundant_fraction=0.0, noise_fraction=0.1, seed=seed,
        ))
        backend = SerialBackend()
        with backend.session(data.sequences, blosum62_scheme()):
            driver, loop = both_ways(data.sequences, backend, psi=5)
        assert loop[0].result.n_alignments > len(loop[1]) > 0
        assert_the_loop(driver, loop)


class TestMutants:
    """The oracle has teeth: two plausible wrong drivers fail it."""

    def test_absorbing_in_completion_order_fails(self, sessions):
        sequences, backend = sessions["small"]
        settle = ClusteringMaster.settle

        def lifo(master, passes, merged):
            master.batch.reverse()  # as a LIFO executor would complete it
            settle(master, passes, merged)

        with mock.patch.object(ClusteringMaster, "overlaps", verdict(0.0, 0)):
            assert_the_loop(*both_ways(sequences, backend))
            with mock.patch.object(ClusteringMaster, "settle", lifo):
                with pytest.raises(AssertionError):
                    assert_the_loop(*both_ways(sequences, backend))

    def test_counting_held_rows_filtered_unseen_fails(self, sessions):
        sequences, backend = sessions["small"]

        def blind(master, passes, merged):
            batch, master.batch = master.batch, []
            held = master.n_held
            master._held, master.n_held = [], 0
            pairs = [(a, b) for _, a, b in batch]
            for pair, ok in zip(pairs, passes(pairs)):
                if ok and master.union(pair):
                    merged(pair)
            master._filtered(held)
            master.spec, master._snapshot = master.uf.copy(), None

        with mock.patch.object(ClusteringMaster, "overlaps", verdict(0.3, 1)):
            assert_the_loop(*both_ways(sequences, backend))
            with mock.patch.object(ClusteringMaster, "settle", blind):
                with pytest.raises(AssertionError):
                    assert_the_loop(*both_ways(sequences, backend))


class TestMasterState:
    @pytest.fixture()
    def master(self, sessions):
        sequences, backend = sessions["tiny"]
        return ClusteringMaster(
            sequences, list(range(len(sequences))),
            similarity=OVERLAP_SIMILARITY, coverage=OVERLAP_COVERAGE,
        )

    @staticmethod
    def block(pairs):
        a, b = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        zeros = np.zeros(len(pairs), dtype=np.int64)
        return MatchBlock(a, zeros, b, zeros, zeros + loops.PSI, len(pairs))

    def test_replay_seeds_both_union_finds(self, master):
        master.replay((0, 3))
        assert master.uf.same(0, 3) and master.spec.same(0, 3)
        assert master.uf.merge_count == master.spec.merge_count == 1

    def test_a_pair_streamed_again_while_in_the_open_batch(self, master):
        """Its second occurrence is held (``spec`` joins it); when the
        first fails Definition 2 it goes back through ``admit``, which
        knows the pair was tested — aligned once, filtered once."""
        asked = []

        def passes(pairs):
            asked.extend(pairs)
            return [False] * len(pairs)

        master.speculate(self.block([(0, 1), (2, 3), (0, 1)]), 128, lambda: None)
        assert [pair for _, *pair in master.batch] == [[0, 1], [2, 3]]
        assert master.n_held == 1
        master.settle(passes, lambda pair: pytest.fail("nothing merges"))
        assert asked == [(0, 1), (2, 3)]
        result = master.result()
        assert (result.n_promising_pairs, result.n_alignments, result.n_filtered) == (3, 2, 1)
        assert not master.spec.same(0, 1)

    def test_a_full_batch_settles_with_earlier_rows_only(self, master):
        """The batch fills mid-block: rows after the pair that filled it
        are placed only after the settle, against what it taught."""
        settled = []

        def settle():
            settled.append((list(master.batch), master.n_held))
            master.settle(lambda pairs: [True] * len(pairs), lambda pair: None)

        master.speculate(
            self.block([(0, 1), (0, 1), (1, 2), (0, 2), (3, 4)]), 2, settle
        )
        assert settled == [([(0, 0, 1), (2, 1, 2)], 1)]
        # (0, 2) came after the settle and was filtered outright.
        assert master.n_held == 0 and master.batch == [(4, 3, 4)]
        assert master.n_pairs == 5
