"""The staged request sweeps of ``repro.serve`` against the
candidate-at-a-time loops they replaced (``tests/scalar_serve.py``).

A classification and an insert plan hand the batch engine their whole
candidate list, a sweep at a time; what they answer, what an insert
journals and what every per-request ``serve.*`` counter reads must be
the loops' — including everything the loops did *not* do: nothing past
the first container of a classification, no alignment of a candidate
whose family an earlier candidate already merged.  The engine itself is
held to the scalar kernels by ``test_batch_align.py``; here the kernels
are only counted.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.align import batch
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.sequence.alphabet import AMINO_ACIDS
from repro.sequence.record import SequenceRecord
from repro.serve import incremental, server, sweeps
from repro.serve.incremental import insert_sequence, plan_insert
from repro.serve.server import ServeServer
from repro.serve.state import load_serve_state
from tests import scalar_serve
from tests.scalar_align import local_align

#: Share of each (shuffled) conftest input that is clustered in batch
#: and served; the rest is what requests are made of.
BASE_FRACTION = 0.7


def _serve(sequences, run_dir, *, grow: int = 0, **state_options):
    """A served state over the first ``BASE_FRACTION`` of ``sequences``
    shuffled, the first ``grow`` held-out sequences inserted (so that
    representative sets have churned and members gone redundant), and
    the sequences still held out."""
    order = np.random.default_rng(5).permutation(len(sequences))
    n_base = int(len(sequences) * BASE_FRACTION)
    base = sequences.subset(order[:n_base].tolist())
    held = [sequences[i] for i in order[n_base:].tolist()]
    config = PipelineConfig()
    ProteinFamilyPipeline(config).run(base, run_dir=run_dir)
    state = load_serve_state(
        run_dir, base.subset(range(n_base)), config, **state_options
    )
    for record in held[:grow]:
        insert_sequence(state, record.id, record.residues)
    return state, held[grow:]


@pytest.fixture(scope="module")
def served(small_metagenome, tiny_metagenome, domain_metagenome,
           tmp_path_factory):
    """``name -> (state, held-out records)``; no test mutates a state."""
    inputs = {
        "small": (small_metagenome, {}),
        "small_grown": (small_metagenome, {"grow": 6}),
        "small_two_reps": (small_metagenome, {"max_representatives": 2}),
        "tiny": (tiny_metagenome, {}),
        "domain": (domain_metagenome, {}),
    }
    return {
        name: _serve(data.sequences, tmp_path_factory.mktemp(name), **options)
        for name, (data, options) in inputs.items()
    }


def _observed(run):
    """``run()`` and the ``serve.*`` counters it moved (a counter bumped
    by zero is a counter not bumped)."""
    recorder = obs.Recorder()
    with obs.recording(recorder):
        result = run()
    return result, {
        name: value for name, value in recorder.counters().items()
        if name.startswith("serve.") and value
    }


def _plan_fields(plan):
    return (plan.decision, plan.new_idx, plan.container,
            plan.n_candidates, plan.n_alignments)


def classify_both_ways(state, residues):
    """``((contained_in, witnesses), counters)`` staged and looped."""
    encoded = SequenceRecord(id="query", residues=residues).encoded
    candidates = state.rep_index.candidates(encoded)
    staged = _observed(
        lambda: ServeServer(state)._classify_sweep(candidates, encoded))
    looped = _observed(
        lambda: scalar_serve.classify_sweep(state, candidates, encoded))
    return staged, looped


def plan_both_ways(state, residues):
    """``(plan fields, counters)`` staged and looped."""
    staged, staged_counters = _observed(
        lambda: plan_insert(state, "new", residues))
    looped, looped_counters = _observed(
        lambda: scalar_serve.plan_insert(state, "new", residues))
    return ((_plan_fields(staged), staged_counters),
            (_plan_fields(looped), looped_counters))


def assert_the_loops(state, residues):
    staged, looped = classify_both_ways(state, residues)
    assert staged == looped
    staged, looped = plan_both_ways(state, residues)
    assert staged == looped


def _roots(state, candidates):
    return [state.uf.root(rep) for rep in candidates]


@contextlib.contextmanager
def kernel_calls():
    """Counts the engine calls a request makes, by kind."""
    calls: Counter[str] = Counter()
    myers, align = batch.batch_myers_infix, batch._align_buckets

    def counted_myers(patterns, texts, **options):
        calls["myers"] += 1
        return myers(patterns, texts, **options)

    # The bucket loop behind batch_align and containment_dp alike.
    def counted_align(pairs, scheme, mode, bucket_size):
        calls[mode] += 1
        return align(pairs, scheme, mode, bucket_size)

    with mock.patch.object(batch, "batch_myers_infix", counted_myers), \
            mock.patch.object(batch, "_align_buckets", counted_align):
        yield calls


def verdict(fail: float, salt: int):
    """A stand-in for ``predicates.overlaps``: a fixed function of the pair
    (through its alignment, equal both ways) failing about ``fail``."""

    def passes(aln, len_a, len_b, _similarity, _coverage):
        mixed = ((aln.score * 1_000_003) ^ (aln.a_start * 998_244_353)
                 ^ (len_a * 7919) ^ len_b ^ salt) * 2_654_435_761
        return (mixed >> 7) % 1000 >= fail * 1000

    return passes


@contextlib.contextmanager
def patched_verdict(passes):
    with mock.patch.object(sweeps, "overlaps", passes), \
            mock.patch.object(scalar_serve, "overlaps", passes):
        yield


# -- requests drawn from the inputs ----------------------------------------

STATES = ("small", "small_grown", "small_two_reps", "tiny", "domain")


@st.composite
def requests(draw):
    """``(state name, recipe)`` of a request: one or two pieces of
    sequences of the input, each whole (an exact duplicate when it is in
    the base), a fragment (a contained sequence) or point-mutated down
    into the twilight zone, between flanks of new residues (a container
    of what it was cut from).  Two pieces make a chimera that meets two
    families; a piece mutated enough meets none."""
    piece = st.tuples(
        st.integers(0, 10_000),
        st.sampled_from(((0.0, 1.0), (0.0, 1.0), (0.1, 0.9), (0.0, 0.5),
                         (0.4, 1.0), (0.3, 0.6))),
        st.sampled_from((0, 0, 1, 3, 10, 40)),
    )
    pieces = draw(st.lists(piece, min_size=1, max_size=2))
    flanks = draw(st.tuples(st.integers(0, 12), st.integers(0, 12)))
    return draw(st.sampled_from(STATES)), (pieces, flanks,
                                           draw(st.integers(0, 2**16)))


def _residues(state, held, recipe) -> str:
    pieces, flanks, seed = recipe
    pool = [record.residues for record in state.sequences]
    pool += [record.residues for record in held]
    rng = np.random.default_rng(seed)

    def new_residues(n):
        return [AMINO_ACIDS[i] for i in rng.integers(0, 20, size=n)]

    letters = new_residues(flanks[0])
    for source, (lo, hi), mutations in pieces:
        piece = list(pool[source % len(pool)])
        piece = piece[int(lo * len(piece)):int(hi * len(piece))]
        for position in rng.integers(0, len(piece), size=mutations):
            piece[position] = AMINO_ACIDS[rng.integers(0, 20)]
        letters += piece
    return "".join(letters + new_residues(flanks[1]))


class TestTheLoops:
    @given(requests())
    @settings(max_examples=60, deadline=None)
    def test_classify_and_plan(self, served, request_):
        name, recipe = request_
        state, held = served[name]
        assert_the_loops(state, _residues(state, held, recipe))

    @given(requests(), st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_under_failing_overlap_verdicts(self, served, request_, fail,
                                            salt):
        name, recipe = request_
        state, held = served[name]
        with patched_verdict(verdict(fail, salt)):
            assert_the_loops(state, _residues(state, held, recipe))

    @pytest.mark.parametrize("name", STATES)
    def test_every_held_out_sequence(self, served, name):
        state, held = served[name]
        assert held
        for record in held:
            assert_the_loops(state, record.residues)


# -- hand cases -------------------------------------------------------------


def _first_request(state, held, wanted):
    """The first held-out or served sequence whose looped classification
    satisfies ``wanted(candidates, contained_in, witnesses)``."""
    for record in [*held, *state.sequences]:
        candidates = state.rep_index.candidates(record.encoded)
        found = scalar_serve.classify_sweep(state, candidates, record.encoded)
        if wanted(candidates, *found):
            return record.residues, candidates, found
    raise AssertionError("no sequence of the input makes this case")


class TestHandCases:
    def test_no_candidates_no_kernel_call(self, served):
        state, _held = served["small"]
        residues = "W" * 40
        encoded = SequenceRecord(id="q", residues=residues).encoded
        assert state.rep_index.candidates(encoded) == []
        with kernel_calls() as calls:
            answer, counters = _observed(
                lambda: ServeServer(state)._classify_sweep([], encoded))
            plan = plan_insert(state, "new", residues)
        assert not calls
        assert answer == (None, []) and counters == {}
        assert (plan.n_candidates, plan.n_alignments) == (0, 0)
        assert plan.decision["unions"] == plan.decision["redundant"] == []

    def test_exact_duplicate_takes_the_certificate(self, served):
        """Distance 0 is answered without DP, counts as the alignment it
        replaces, and the mutual containment drops the insert (equal
        length, higher index)."""
        state, _held = served["small"]
        rep = sorted(state.rep_index.active)[0]
        residues = state.sequences[rep].residues
        assert_the_loops(state, residues)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            plan = plan_insert(state, "copy", residues)
        assert recorder.value("batch.exact_certified") >= 1
        assert plan.container == rep
        assert plan.redundant_pairs[0] == [plan.new_idx, rep]
        assert plan.unions == [[plan.new_idx, rep]]
        assert plan.n_alignments == (
            recorder.value("batch.exact_certified")
            + recorder.value("batch.dp_pairs")
        )

    def test_container_first_makes_no_local_batch(self, served):
        state, held = served["small"]
        residues, candidates, (contained_in, witnesses) = _first_request(
            state, held,
            lambda c, contained, _w: len(c) > 1 and contained == c[0],
        )
        assert witnesses == []
        assert_the_loops(state, residues)
        encoded = SequenceRecord(id="q", residues=residues).encoded
        with kernel_calls() as calls:
            _answer, counters = _observed(
                lambda: ServeServer(state)._classify_sweep(candidates, encoded))
        assert calls["myers"] == 1 and calls["local"] == 0
        # Only the container was reached: one alignment or certificate.
        assert counters["serve.alignments"] == 1
        assert "serve.myers_rejects" not in counters

    def test_container_in_the_middle(self, served):
        """Candidates after the container are swept by the engine and
        neither counted nor reported."""
        state, held = served["small_grown"]
        residues, candidates, (contained_in, _witnesses) = _first_request(
            state, held,
            lambda c, contained, _w: contained in c[1:-1],
        )
        k = candidates.index(contained_in)
        (answer, counters), looped = classify_both_ways(state, residues)
        assert (answer, counters) == looped
        assert answer[0] == contained_in
        assert set(answer[1]) <= set(candidates[:k])
        reached = (counters.get("serve.myers_rejects", 0)
                   + counters["serve.alignments"])
        assert reached == (k + 1) + k  # Definition 1 to k, Definition 2 before it

    def test_representative_contained_in_the_insert(self, served):
        state, _held = served["small"]
        rep = sorted(state.rep_index.active)[0]
        residues = "MKV" * 4 + state.sequences[rep].residues + "GHW" * 4
        assert_the_loops(state, residues)
        plan = plan_insert(state, "longer", residues)
        assert [rep, plan.new_idx] in plan.redundant_pairs
        assert plan.container is None

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_first_k_representatives_of_a_root_fail(self, served, k):
        """``k`` + 1 rounds, the root still merges (through its
        ``k``-th candidate), ``unions`` in candidate order."""
        state, _held = served["small"]
        # A chimera of two families' representatives meets both.
        (root, reps), (_other, other_reps) = sorted(
            state.reps.items(), key=lambda item: -len(item[1]))[:2]
        record = SequenceRecord(id="chimera", residues=(
            state.sequences[reps[0]].residues
            + state.sequences[other_reps[0]].residues))
        candidates = state.rep_index.candidates(record.encoded)
        roots = _roots(state, candidates)
        assert roots.count(root) >= 3 and len(set(roots)) >= 2
        failing = [rep for rep, r in zip(candidates, roots) if r == root][:k]
        # The verdict sees alignments, not indices: key each candidate
        # by the alignment the loop makes of it.
        keys = {
            (local_align(state.encoded(rep), record.encoded,
                         state.config.scheme), state.length(rep)): rep
            for rep in candidates
        }
        assert len(keys) == len(candidates)

        def passes(aln, len_a, _len_b, _similarity, _coverage):
            return keys[aln, len_a] not in failing

        with patched_verdict(passes):
            staged, looped = plan_both_ways(state, record.residues)
            assert staged == looped
            with kernel_calls() as calls:
                plan = plan_insert(state, "new", record.residues)
        assert calls["myers"] == 1 and calls["semiglobal"] <= 1
        assert calls["local"] == k + 1
        merged = [rep for _new, rep in plan.unions]
        assert merged == sorted(merged) and len(merged) == len(set(roots))
        assert [rep for rep in merged if state.uf.root(rep) == root] == [
            rep for rep, r in zip(candidates, roots) if r == root][k:k + 1]


class TestKernelCalls:
    @pytest.mark.parametrize("name", STATES)
    def test_three_engine_calls_a_classify(self, served, name):
        """Whatever the candidate count: at most one Myers sweep, one
        semiglobal and one local ``batch_align``; a plan makes one local
        call a round."""
        state, held = served[name]
        for record in held:
            encoded = record.encoded
            candidates = state.rep_index.candidates(encoded)
            with kernel_calls() as calls:
                ServeServer(state)._classify_sweep(candidates, encoded)
            assert calls["myers"] <= 1 and calls["semiglobal"] <= 1
            assert calls["local"] <= 1
            assert bool(candidates) == bool(calls)
            with kernel_calls() as calls:
                plan_insert(state, "new", record.residues)
            roots = _roots(state, candidates)
            most = max(map(roots.count, roots), default=0)
            assert calls["myers"] <= 1 and calls["semiglobal"] <= 1
            assert calls["local"] <= most

    def test_no_scalar_kernel_under_serve(self):
        """The one-pair kernels are the oracle's, not the daemon's."""
        banned = ("local_align", "semiglobal_align", "myers_infix_distance",
                  "myers_rejects_containment", "align.pairwise")
        for path in Path(server.__file__).parent.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert not [name for name in banned if name in source], path


class TestMutants:
    """The oracle has teeth: two plausible wrong sweeps fail it."""

    def test_counting_past_the_container_fails(self, served):
        state, held = served["small_grown"]
        residues, *_ = _first_request(
            state, held, lambda c, contained, _w: contained in c[:-1])
        count = sweeps.count_containment

        def count_all(state, candidates, verdicts, _reached, length):
            return count(state, candidates, verdicts, len(candidates), length)

        staged, looped = classify_both_ways(state, residues)
        assert staged == looped
        with mock.patch.object(server, "count_containment", count_all):
            staged, looped = classify_both_ways(state, residues)
        assert staged[0] == looped[0]  # the answer survives, the report not
        assert staged[1] != looped[1]

    def test_aligning_a_whole_root_in_one_round_fails(self, served):
        state, held = served["tiny"]

        def one_round(state, candidates, encoded):
            passes = sweeps.overlap_sweep(state, candidates, encoded)
            return dict(zip(candidates, passes))

        def crowded_root(record):
            roots = _roots(state, state.rep_index.candidates(record.encoded))
            return len(roots) > len(set(roots))

        crowded = [record for record in held if crowded_root(record)]
        assert crowded
        for record in crowded:
            staged, looped = plan_both_ways(state, record.residues)
            assert staged == looped
        with mock.patch.object(incremental, "overlap_rounds", one_round):
            differs = [
                staged != looped for staged, looped in
                (plan_both_ways(state, r.residues) for r in crowded)
            ]
        assert any(differs)
