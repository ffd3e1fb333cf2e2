"""The run-length traceback versus the cell-at-a-time walk it replaced.

``pairwise._traceback`` consumes a whole diagonal run per step (one
vector compare along ``H.diagonal``).  Batched and scalar kernels share
it, so comparing those two no longer pins the walk; this file keeps the
old step-at-a-time walk as the oracle and compares the two on real fills
in all three modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.matrices import blosum62_scheme, identity_scheme
from repro.align.pairwise import Alignment, _traceback
from repro.sequence.alphabet import encode
from tests.scalar_align import _fill, local_align, semiglobal_align

MODES = ("global", "local", "semiglobal")
#: gap -1 under BLOSUM62 makes gaps nearly free: gap-heavy walks.
SCHEMES = [blosum62_scheme(), identity_scheme(), blosum62_scheme(gap=-1)]


def oracle_traceback(H, a, b, scheme, start_i, start_j, mode):
    """The walk as it was before the run-length rewrite, one cell a step
    (preference diagonal, up, left), in Python ints."""
    H = H.tolist()
    sub = scheme.matrix.tolist()
    gap = scheme.gap
    i, j = start_i, start_j
    matches = length = gaps = 0
    while i > 0 or j > 0:
        h = H[i][j]
        if mode == "local" and h == 0:
            break
        if mode == "semiglobal" and (i == 0 or j == 0):
            break
        if i > 0 and j > 0 and h == H[i - 1][j - 1] + sub[a[i - 1]][b[j - 1]]:
            if a[i - 1] == b[j - 1]:
                matches += 1
            i -= 1
            j -= 1
        elif i > 0 and h == H[i - 1][j] + gap:
            gaps += 1
            i -= 1
        elif j > 0 and h == H[i][j - 1] + gap:
            gaps += 1
            j -= 1
        else:
            raise AssertionError(f"oracle stuck at ({i}, {j})")
        length += 1
    return Alignment(
        score=H[start_i][start_j], a_start=i, a_end=start_i, b_start=j,
        b_end=start_j, matches=matches, length=length, gaps=gaps, mode=mode,
    )


def assert_walks_agree(a, b, scheme, mode, starts=None):
    """Same Alignment from both walks, from every cell in ``starts``
    (default: every cell — each is a legal start in every mode)."""
    H = _fill(a, b, scheme, mode)
    if starts is None:
        starts = [(i, j) for i in range(len(a) + 1) for j in range(len(b) + 1)]
    for i, j in starts:
        walked = Alignment(*_traceback(H, a, b, scheme, i, j, mode), mode=mode)
        assert walked == oracle_traceback(
            H, a, b, scheme, i, j, mode
        ), (mode, scheme.name, scheme.gap, i, j)


residues = st.integers(min_value=0, max_value=19)
encoded_seq = st.lists(residues, min_size=1, max_size=24).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
# Four letters only: many equal scores, so many cells where more than
# one move is consistent and the preference order decides.
low_complexity = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=16
).map(lambda xs: np.array(xs, dtype=np.uint8))


@st.composite
def diverged_pair(draw):
    """``b`` is ``a`` after substitutions, insertions and deletions: a
    low-identity homolog whose optimal path mixes runs with gaps."""
    a = draw(st.lists(residues, min_size=4, max_size=40))
    b = []
    for x in a:
        op = draw(st.integers(min_value=0, max_value=9))
        if op == 0:
            continue  # deletion
        if op == 1:
            b.append(draw(residues))  # insertion before x
        b.append(draw(residues) if op in (2, 3, 4) else x)
    b = b or [a[0]]
    return np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8)


class TestRunLengthWalkEqualsOracle:
    @given(encoded_seq, encoded_seq, st.sampled_from(MODES),
           st.sampled_from(range(len(SCHEMES))))
    @settings(max_examples=60, deadline=None)
    def test_every_start_cell_random_pairs(self, a, b, mode, scheme_idx):
        assert_walks_agree(a, b, SCHEMES[scheme_idx], mode)

    @given(low_complexity, low_complexity, st.sampled_from(MODES))
    @settings(max_examples=60, deadline=None)
    def test_every_start_cell_tie_rich_pairs(self, a, b, mode):
        assert_walks_agree(a, b, identity_scheme(), mode)

    @given(diverged_pair(), st.sampled_from(MODES),
           st.sampled_from(range(len(SCHEMES))))
    @settings(max_examples=60, deadline=None)
    def test_gap_heavy_low_identity_homologs(self, pair, mode, scheme_idx):
        a, b = pair
        m, n = len(a), len(b)
        # The kernels' own start cells plus the far corner and both edges.
        starts = {(m, n), (m, n // 2), (m // 2, n)}
        H = _fill(a, b, SCHEMES[scheme_idx], mode)
        starts.add(divmod(int(np.argmax(H)), n + 1))
        assert_walks_agree(a, b, SCHEMES[scheme_idx], mode, sorted(starts))

    def test_realistic_length_pairs(self):
        rng = np.random.default_rng(2008)
        for _ in range(6):
            a = rng.integers(0, 20, int(rng.integers(200, 300))).astype(np.uint8)
            b = a.copy()
            pos = rng.integers(0, len(b), len(b) // 4)
            b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
            cut = int(rng.integers(10, len(b) - 10))
            b = np.concatenate([b[:cut], b[cut + int(rng.integers(1, 9)):]])
            for mode in MODES:
                m, n = len(a), len(b)
                assert_walks_agree(a, b, blosum62_scheme(), mode,
                                   [(m, n), (m, n - 7), (m - 7, n)])


class TestWalkCornerCases:
    def test_diagonal_beats_up_when_both_are_consistent(self):
        """Some cell must admit both moves, and from it the walk must
        take the diagonal one (the oracle's preference)."""
        rng = np.random.default_rng(3)
        scheme = identity_scheme()
        found = 0
        for _ in range(40):
            a = rng.integers(0, 3, 9).astype(np.uint8)
            b = rng.integers(0, 3, 9).astype(np.uint8)
            H = _fill(a, b, scheme, "global").tolist()
            ties = [
                (i, j)
                for i in range(1, len(a) + 1) for j in range(1, len(b) + 1)
                if H[i][j] == H[i - 1][j] + scheme.gap
                and H[i][j] == H[i - 1][j - 1]
                + int(scheme.matrix[a[i - 1], b[j - 1]])
            ]
            found += len(ties)
            assert_walks_agree(a, b, scheme, "global", ties)
        assert found > 50

    def test_local_run_stops_at_a_zero_cell_mid_diagonal(self):
        """(3, 3) reads 0 and is still diagonal-consistent with (2, 2)
        (A/C scores 0): only the ``H != 0`` test stops the run there."""
        scheme = blosum62_scheme()
        a, b = encode("GGAWWW"), encode("PPCWWW")
        H = _fill(a, b, scheme, "local")
        assert H[3, 3] == 0 and H[3, 3] == H[2, 2] + scheme.matrix[a[2], b[2]]
        aln = local_align(a, b, scheme)
        assert (aln.a_start, aln.b_start, aln.length, aln.matches) == (3, 3, 3, 3)
        assert_walks_agree(a, b, scheme, "local")

    @pytest.mark.parametrize("a, b, a_start, b_start", [
        ("PPPPWCHWMW", "WCHWMWGGGG", 4, 0),  # suffix of a on prefix of b: ends at j == 0
        ("WCHWMWGGGG", "PPPPWCHWMW", 0, 4),  # and the mirror: ends at i == 0
    ])
    def test_semiglobal_walk_ends_on_either_boundary(self, a, b, a_start, b_start):
        scheme = blosum62_scheme()
        a, b = encode(a), encode(b)
        aln = semiglobal_align(a, b, scheme)
        assert (aln.a_start, aln.b_start, aln.matches) == (a_start, b_start, 6)
        assert_walks_agree(a, b, scheme, "semiglobal")

    def test_global_walk_finishes_along_the_boundary(self):
        """Leading residues of the longer sequence are gap columns."""
        scheme = blosum62_scheme()
        for a, b in (("GGGGWCHW", "WCHW"), ("WCHW", "GGGGWCHW")):
            assert_walks_agree(encode(a), encode(b), scheme, "global")
