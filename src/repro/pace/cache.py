"""Master-side memo of local alignments, shared across the phases of
one runtime run.

The cache holds one dict, the local alignment's row of the engine's
``(k, 8)`` table (:func:`repro.align.batch.align_columns`) per
canonical pair; a submit's hits go back as one ``(h, 8)`` table of
those rows (:meth:`repro.runtime.base.PairStream.submit_columns`).
Within one runtime run exactly one reuse happens: bipartite generation
(BGG) asks for the local alignment of every intra-component promising
pair, and CCD has already computed those it did not filter — the
benchmark's ``skewed`` workload stores 1,832 local alignments and reads
291 back, ``giant`` stores 1,671 and reads 77, ``domain`` reads none
(B_m builds its graphs without alignment).  Definition 1 never goes
through the cache: RR, simulated or on a backend, and the GOS baseline
compute its statistics in bulk with
:func:`repro.align.batch.containment_columns`, which answers a pair
proven unable to pass without any alignment.  The simulator's rank
programs never read it either: they align every distinct pair of their
phase in one :func:`repro.align.batch.align_columns` call up front.

The cache computes nothing.  A backend's tasks align their pairs a
batch at a time and the results are inserted here as they come back;
:meth:`AlignmentCache.lookup` answers what it holds.

Placement under the execution backends (:mod:`repro.runtime`): the
cache lives **master-side only**, in front of an alignment
:class:`~repro.runtime.base.PairStream` — a cached pair is answered
before it becomes work, and every alignment a task returns is inserted
as it comes back, whichever executor ran the task; workers themselves
are cache-less.  Sharing the dict with workers would mean either
per-worker private caches (no cross-worker reuse — repeats of a pair
arrive in a *later phase*, on the master's critical path anyway) or
pickling rows through a synchronised shared dict, which costs
more than recomputing a few hundred DP cells.  Master-side placement
keeps one authoritative memo, answers every repeat before it reaches
the work queue, and leaves the workers stateless — which is also what
makes their crash recovery trivial.
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

    :meth:`stats` is the one read API of the cache's numbers (the run
    report, the ``cache.*`` counters of a run record and the telemetry
    probe are all that dict).  :meth:`set_phase` attributes subsequent
    hits/misses to a pipeline phase, so the overall hit rate can be
    decomposed into "which phase re-asked for whose alignments" (in a
    runtime run every hit is bipartite generation reusing CCD's local
    alignments — see the module docstring).

    A *hit* is a :meth:`lookup` that finds its pair; a *miss* is one
    computed alignment entering the table through :meth:`insert` — a
    runtime task's result coming back — so ``misses == entries`` unless
    a key is recomputed.
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

        The miss accounting reflects that the computation *happened*
        (in a runtime task) because the cache could not answer it.
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
