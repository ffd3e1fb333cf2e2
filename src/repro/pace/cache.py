"""A memo of local alignments per canonical pair, which nothing in the
pipeline reads.

The runtime keeps no alignment memo: every pair a phase admits is sent
to the engine and aligned exactly once
(:class:`~repro.runtime.base.PairStream`).  The one reuse a memo ever
served was bipartite generation re-reading CCD's alignments, and
aligning those pairs again costs the run nothing measurable.  This
class stays, whole, only while the benchmark suite's phase replay still
builds one and hands it to the ``backend_*`` drivers, which ignore it;
it goes with that replay.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.align.matrices import ScoringScheme


class AlignmentCache:
    """Memoised local alignments per pair.

    Keys are ``(i, j)`` sequence-index pairs canonicalised to ``i < j``
    (so ``(a, b)`` and ``(b, a)`` share one entry regardless of request
    order).  The constructor takes the encoded sequence accessor and the
    scoring scheme the stored alignments belong to; the cache computes
    nothing, so it keeps neither.

    :meth:`stats` is the one read API of the cache's numbers;
    :meth:`set_phase` attributes subsequent hits/misses to a phase.

    A *hit* is a :meth:`lookup` that finds its pair; a *miss* is one
    computed alignment entering the table through :meth:`insert`, so
    ``misses == entries`` unless a key is recomputed.
    """

    def __init__(
        self,
        get_encoded: Callable[[int], np.ndarray],
        scheme: ScoringScheme,
    ):
        self._table: dict[tuple[int, int], np.ndarray] = {}
        #: [hits, misses]
        self._counts = [0, 0]
        self._phase = ""
        #: phase -> [hits, misses], in first-use order.
        self._by_phase: dict[str, list[int]] = {}

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        if i == j:
            raise ValueError(f"self-alignment requested for sequence {i}")
        return (i, j) if i < j else (j, i)

    def set_phase(self, name: str) -> None:
        """Attribute subsequent hits/misses to ``name`` (\"\" = untracked)."""
        self._phase = name

    def _tally(self, hit: bool) -> None:
        self._counts[0 if hit else 1] += 1
        if self._phase:
            self._by_phase.setdefault(self._phase, [0, 0])[0 if hit else 1] += 1

    def lookup(self, i: int, j: int) -> np.ndarray | None:
        """The stored alignment row of pair (i, j), counted as a hit, or
        None — an absent pair changes no counter: it is counted as a
        miss when its computed row is :meth:`insert`-ed."""
        row = self._table.get(self._key(i, j))
        if row is not None:
            self._tally(hit=True)
        return row

    def insert(self, i: int, j: int, row: np.ndarray) -> None:
        """Store an externally computed alignment row; counts as a miss.

        The miss accounting reflects that the computation happened
        because the cache could not answer it.
        """
        self._table[self._key(i, j)] = row
        self._tally(hit=False)

    # -- statistics --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counter snapshot: hits, misses, entries, hit rate, and under
        ``by_phase`` the :meth:`set_phase` split (``phase -> {"hits",
        "misses"}``, phases in first-use order)."""
        hits, misses = self._counts
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(self),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "by_phase": {
                phase: {"hits": h, "misses": m}
                for phase, (h, m) in self._by_phase.items()
            },
        }

    def __len__(self) -> int:
        return len(self._table)
