"""The staged request sweeps of ``repro.serve`` against the
candidate-at-a-time plan they replaced (``tests/scalar_serve.py``).

An insert plan hands the batch engine its whole candidate list, a sweep
at a time, and a classification is that plan never committed; what a
plan journals, what a classification answers and what every
per-request ``serve.*`` counter reads must be the loop's — including
everything the loop did *not* do: no alignment of a candidate whose
family an earlier candidate already merged, no overlap alignment of a
contained sequence.  A classification must also predict the insert of
the same residues: redundant, container and family.  The engine itself
is held to the scalar kernels by ``test_batch_align.py``; here the
kernels are only counted.
"""

from __future__ import annotations

import contextlib
import copy
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.align import batch
from repro.align.predicates import contained
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.sequence.alphabet import AMINO_ACIDS
from repro.runtime import sharedseq
from repro.sequence.record import SequenceRecord
from repro.serve import incremental, protocol, server, sweeps
from repro.serve.incremental import insert_sequence, plan_insert
from repro.serve.server import ServeServer
from repro.serve.state import load_serve_state
from tests import scalar_serve
from tests.scalar_align import alignment_table, local_align

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


def classify(state, residues):
    """``(reply, counters)`` of a classification of ``residues``
    through the daemon's query path."""
    return _observed(lambda: ServeServer(state)._handle_query(
        {"residues": residues}, None))


def classify_both_ways(state, residues):
    """``(reply, counters)`` of a classification, staged and as the
    looped plan of the same residues answers it."""
    plan, counters = _observed(
        lambda: scalar_serve.plan_insert(state, "new", residues))
    looped = protocol.ok_response(**ServeServer(state)._placement(plan))
    return classify(state, residues), (looped, counters)


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
    myers, align = batch._myers_columns, batch.align_columns

    # The one Myers entry, behind batch_myers_infix and containment_prefilter.
    def counted_myers(store, pat, txt, alphabet):
        calls["myers"] += 1
        return myers(store, pat, txt, alphabet)

    # The one bucket loop, behind containment_dp and the overlap sweep.
    def counted_align(store, ia, ib, *, scheme, mode):
        calls[mode] += 1
        return align(store, ia, ib, scheme=scheme, mode=mode)

    with mock.patch.object(batch, "_myers_columns", counted_myers), \
            mock.patch.object(batch, "align_columns", counted_align), \
            mock.patch.object(sweeps, "align_columns", counted_align):
        yield calls


def verdict(fail: float, salt: int):
    """A stand-in for ``predicates.overlaps``: a fixed function of each
    pair (through its alignment row, equal both ways; in Python ints)
    failing about ``fail``."""

    def one(score, a_start, len_a, len_b):
        mixed = ((score * 1_000_003) ^ (a_start * 998_244_353)
                 ^ (len_a * 7919) ^ len_b ^ salt) * 2_654_435_761
        return (mixed >> 7) % 1000 >= fail * 1000

    def passes(table, len_a, len_b, _similarity, _coverage):
        rows = zip(table[:, 0].tolist(), table[:, 1].tolist(),
                   np.asarray(len_a).tolist(), np.asarray(len_b).tolist())
        return np.array([one(*row) for row in rows], dtype=bool)

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
    """The first held-out or served sequence whose looped plan
    satisfies ``wanted(plan)``, and that plan."""
    for record in [*held, *state.sequences]:
        plan = scalar_serve.plan_insert(state, "new", record.residues)
        if wanted(plan):
            return record.residues, plan
    raise AssertionError("no sequence of the input makes this case")


def _family_set(reply) -> set[str]:
    """Every id a placement reply puts the sequence beside."""
    if "families" in reply:
        return {seq_id for family in reply["families"] for seq_id in family}
    return set(reply["family"])


class TestHandCases:
    def test_no_candidates_no_kernel_call(self, served):
        state, _held = served["small"]
        residues = "W" * 40
        assert state.rep_index.candidates(
            SequenceRecord(id="q", residues=residues).encoded) == []
        with kernel_calls() as calls:
            answer, counters = classify(state, residues)
            plan = plan_insert(state, "new", residues)
        assert not calls
        assert answer == protocol.ok_response(
            found=False, redundant=False, container=None, families=[])
        assert counters == {}
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
        residues, plan = _first_request(
            state, held,
            lambda p: p.n_candidates > 1 and p.container == p.candidates[0],
        )
        assert_the_loops(state, residues)
        with kernel_calls() as calls:
            answer, counters = classify(state, residues)
        assert answer["redundant"] and calls["local"] == 0
        assert calls["myers"] == 1
        # Definition 1 reaches every candidate, Definition 2 none.
        assert (counters.get("serve.myers_rejects", 0)
                + counters["serve.alignments"]) == plan.n_candidates

    def test_container_in_the_middle(self, served):
        """A container ends nothing early: Definition 1 reaches the
        candidates after it too, and no candidate, before it or after,
        is overlap-aligned."""
        state, held = served["small_grown"]
        residues, plan = _first_request(
            state, held, lambda p: p.container in p.candidates[1:-1])
        (answer, counters), looped = classify_both_ways(state, residues)
        assert (answer, counters) == looped
        assert answer["container"] == state.sequences[plan.container].id
        rejects = counters.get("serve.myers_rejects", 0)
        assert rejects + counters["serve.alignments"] == plan.n_candidates
        assert counters["serve.alignments"] == plan.n_alignments

    def test_representative_contained_in_the_insert(self, served):
        state, _held = served["small"]
        rep = sorted(state.rep_index.active)[0]
        residues = "MKV" * 4 + state.sequences[rep].residues + "GHW" * 4
        assert_the_loops(state, residues)
        plan = plan_insert(state, "longer", residues)
        assert [rep, plan.new_idx] in plan.redundant_pairs
        assert plan.container is None

    def test_representative_with_a_tail_is_not_redundant(self, served):
        """A representative with three residues appended contains it and
        is contained by it: Definition 1 retires the shorter, the
        representative, so the classification is not redundant and names
        the family the insert then joins."""
        state = copy.deepcopy(served["small"][0])
        rep = sorted(state.rep_index.active)[0]
        residues = state.sequences[rep].residues + "ACD"
        daemon = ServeServer(state)
        answer = daemon._handle_query({"residues": residues}, None)
        assert answer["redundant"] is False and answer["container"] is None
        assert len(answer["families"]) == 1
        assert state.sequences[rep].id not in answer["families"][0]
        inserted = daemon._apply_one({"id": "tailed", "residues": residues})
        assert inserted["ok"] and inserted["redundant"] is False
        assert set(inserted["family"]) == {"tailed", *answer["families"][0]}
        retired = daemon._handle_query({"id": state.sequences[rep].id}, None)
        assert retired["redundant"] and retired["container"] == "tailed"

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
        # The verdict sees alignment rows, not indices: key each
        # candidate by the row of the alignment the loop makes of it.
        keys = {
            (*alignment_table([local_align(state.encoded(rep), record.encoded,
                                           state.config.scheme)])[0].tolist(),
             state.length(rep)): rep
            for rep in candidates
        }
        assert len(keys) == len(candidates)

        def passes(table, len_a, _len_b, _similarity, _coverage):
            rows = zip(table.tolist(), np.asarray(len_a).tolist())
            return np.array([keys[(*row, length)] not in failing for row, length in rows],
                            dtype=bool)

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
        """Whatever the candidate count, a classification makes its
        plan's engine calls: at most one Myers sweep, one semiglobal
        ``align_columns`` and — not redundant — one local call a round,
        so three when each family's first representative decides."""
        state, held = served[name]
        for record in held:
            with kernel_calls() as classified:
                classify(state, record.residues)
            with kernel_calls() as calls:
                plan = plan_insert(state, "new", record.residues)
            assert classified == calls
            assert bool(plan.candidates) == bool(calls)
            roots = _roots(state, plan.candidates)
            most = max(map(roots.count, roots), default=0)
            assert calls["myers"] <= 1 and calls["semiglobal"] <= 1
            assert calls["local"] <= (most if plan.container is None else 0)

    def test_one_store_a_request(self, served):
        """A non-redundant insert plan and a classification of the same
        residues each build one store, the request's, and both sweeps
        read it as index columns: with the pair-list entry raising, each
        journals or replies, and counts, as the loop does."""
        state, held = served["small"]
        residues, looped = _first_request(
            state, held, lambda p: p.container is None and p.n_candidates > 1)
        looped_counters = _observed(
            lambda: scalar_serve.plan_insert(state, "new", residues))[1]
        looped_reply = protocol.ok_response(**ServeServer(state)._placement(looped))
        stores = []
        build = sharedseq.EncodedStore.from_sequences.__func__

        def counted(cls, encoded):
            stores.append(len(encoded))
            return build(cls, encoded)

        def no_pair_list(*_args, **_kwargs):
            raise AssertionError("a serve sweep aligned a list of pairs")

        # batch_align, and the check every list of arrays goes through.
        with kernel_calls() as calls, \
                mock.patch.object(sharedseq.EncodedStore, "from_sequences",
                                  classmethod(counted)), \
                mock.patch.object(batch, "batch_align", no_pair_list), \
                mock.patch.object(batch, "_check_codes", no_pair_list):
            plan, counters = _observed(lambda: plan_insert(state, "new", residues))
            assert stores == [1 + plan.n_candidates] and calls["local"] >= 1
            assert classify(state, residues) == (looped_reply, looped_counters)
        assert stores == [1 + plan.n_candidates] * 2
        assert (plan.decision, counters) == (looped.decision, looped_counters)

    def test_a_narrow_request_builds_no_mask_table(self, served):
        """A request's Myers pass is narrower than the wavefront, so its
        private store never builds a mask table: with the table build
        raising, a classification against 5 candidates still answers as
        the loop does."""
        state, held = served["small"]
        wide = [record for record in held
                if plan_insert(state, "new", record.residues).n_candidates >= 5]
        assert wide, "vacuous: no held-out sequence meets 5 candidates"

        def no_table(*_args):
            raise AssertionError("a narrow request built a mask table")

        with mock.patch.object(sharedseq, "myers_mask_table", no_table):
            staged, looped = classify_both_ways(state, wide[0].residues)
        assert staged == looped

    def test_no_scalar_kernel_under_serve(self):
        """The one-pair kernels are the oracle's, not the daemon's."""
        banned = ("local_align", "semiglobal_align", "infix_distance_oracle",
                  "myers_rejects_containment", "align.pairwise")
        for path in Path(server.__file__).parent.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert not [name for name in banned if name in source], path


class TestMutants:
    """The oracle has teeth: two plausible wrong sweeps fail it."""

    def test_deciding_without_the_tie_break_fails(self, served):
        """Reading "the query is contained" off the raw cutoffs, with no
        tie-break, answers a mutual containment the wrong way round."""
        state, _held = served["small"]
        rep = sorted(state.rep_index.active)[0]
        residues = state.sequences[rep].residues + "ACD"

        def no_tie_break(stats, i, j, _len_i, _len_j, similarity, coverage):
            i_in_j, j_in_i = contained(stats.T, similarity, coverage)
            rows = i_in_j | j_in_i
            return np.where(j_in_i, j, i)[rows], np.where(j_in_i, i, j)[rows]

        staged, looped = classify_both_ways(state, residues)
        assert staged == looped
        with mock.patch.object(incremental, "containment_verdicts",
                               no_tie_break):
            staged, looped = classify_both_ways(state, residues)
        assert staged[0]["redundant"] and not looped[0]["redundant"]

    def test_aligning_a_whole_root_in_one_round_fails(self, served):
        state, held = served["tiny"]

        def one_round(state, store, roots):
            return dict(enumerate(sweeps.overlap_sweep(state, store, range(len(roots)))))

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


class TestQueryPredictsInsert:
    @pytest.mark.parametrize("name", STATES)
    def test_every_held_out_sequence_in_order(self, served, name):
        """Each held-out sequence classified, then inserted next: the
        reply's redundant, container and family are the insert's."""
        state = copy.deepcopy(served[name][0])
        daemon = ServeServer(state)
        for record in served[name][1]:
            answer = daemon._handle_query({"residues": record.residues}, None)
            inserted = daemon._apply_one(
                {"id": record.id, "residues": record.residues})
            assert inserted["ok"], inserted
            assert answer["redundant"] == inserted["redundant"], record.id
            assert answer["container"] == inserted["container"], record.id
            beside = set() if inserted["redundant"] else {record.id}
            assert _family_set(answer) | beside == set(inserted["family"])
