"""Pair-alignment memoisation shared across phases and processor sweeps.

The cache holds two tables, local and semiglobal alignments per
canonical pair.  Within one runtime run exactly one reuse happens:
bipartite generation (BGG) asks for the local alignment of every
intra-component promising pair, and CCD has already computed those it
did not filter — the benchmark's ``skewed`` workload stores 1,832 local
alignments and reads 291 back, ``giant`` stores 1,671 and reads 77,
``domain`` reads none (B_m builds its graphs without alignment).  RR
does not use the cache in a runtime run: nothing reads a semiglobal
alignment back, so its containment stream returns Definition 1's
statistics and no alignment ever crosses a process boundary for it.
The semiglobal table serves the pair-at-a-time askers — the simulated
RR rank program and the GOS baseline — and the paper sweeps
(``benchmarks/paper/regenerate.py``), which re-run identical phases at
several processor counts over one cache.  Physically recomputing
identical DP matrices would multiply wall-clock cost without changing
any simulated quantity — the simulator charges virtual time per
*execution*, not per physical computation — so the cache is purely a
host-side optimisation with no effect on results.

Whoever asks, a miss is computed by the batched engine
(:func:`repro.align.batch.batch_align`): a backend's tasks align their
pairs a batch at a time and the results are inserted here as they come
back; a simulated rank program or the GOS baseline, which ask for one
pair, get a batch of one.

Placement under the execution backends (:mod:`repro.runtime`): the
cache lives **master-side only**, in front of an alignment
:class:`~repro.runtime.base.PairStream` — a cached pair is answered
before it becomes work, and every alignment a task returns is inserted
as it comes back, whichever executor ran the task; workers themselves
are cache-less.  Sharing the dict with workers would mean either
per-worker private caches (no cross-worker reuse — repeats of a pair
arrive in a *later phase*, on the master's critical path anyway) or
pickling alignments through a synchronised shared dict, which costs
more than recomputing a few hundred DP cells.  Master-side placement
keeps one authoritative memo, answers every repeat before it reaches
the work queue, and leaves the workers stateless — which is also what
makes their crash recovery trivial.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.align.batch import batch_align
from repro.align.matrices import ScoringScheme
from repro.align.pairwise import Alignment


class AlignmentCache:
    """Memoised semiglobal ("overlap") and local alignments per pair.

    Keys are ``(i, j)`` sequence-index pairs canonicalised to ``i < j``
    (so ``(a, b)`` and ``(b, a)`` share one entry regardless of request
    order); the caller supplies the encoded sequence accessor once at
    construction.

    :meth:`stats` is the one read API of the cache's numbers (the run
    report, the ``cache.*`` counters of a run record and the telemetry
    probe are all that dict).  :meth:`set_phase` attributes subsequent
    hits/misses to a pipeline phase, so the overall hit rate can be
    decomposed into "which phase re-asked for whose alignments" (in a
    runtime run every hit is bipartite generation reusing CCD's local
    alignments — see the module docstring).

    A *miss* is one computed alignment entering a table through
    :meth:`insert` — a runtime task's result coming back, or what
    :meth:`local` / :meth:`semiglobal` had the batched engine compute
    as a batch of one (the simulator's rank programs and the GOS
    baseline ask a pair at a time) — so ``misses == entries`` unless a
    key is recomputed.
    """

    def __init__(
        self,
        get_encoded: Callable[[int], np.ndarray],
        scheme: ScoringScheme,
    ):
        self._get = get_encoded
        self._scheme = scheme
        self._tables: dict[str, dict[tuple[int, int], Alignment]] = {
            "local": {}, "semiglobal": {},
        }
        #: kind -> [hits, misses]
        self._by_kind: dict[str, list[int]] = {
            "local": [0, 0], "semiglobal": [0, 0],
        }
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

    def _tally(self, kind: str, hit: bool) -> None:
        self._by_kind[kind][0 if hit else 1] += 1
        if self._phase:
            self._by_phase.setdefault(self._phase, [0, 0])[0 if hit else 1] += 1

    def _table(self, kind: str) -> dict[tuple[int, int], Alignment]:
        try:
            return self._tables[kind]
        except KeyError:
            raise ValueError(f"unknown alignment kind {kind!r}") from None

    def _lookup(self, kind: str, i: int, j: int) -> Alignment:
        """The alignment of pair (i, j), canonical orientation: a hit,
        or one pair through the batched engine, stored and counted as
        :meth:`insert` does."""
        key = self._key(i, j)
        aln = self._tables[kind].get(key)
        if aln is None:
            (aln,) = batch_align(
                [(self._get(key[0]), self._get(key[1]))], self._scheme, kind)
            self.insert(kind, *key, aln)
        else:
            self._tally(kind, hit=True)
        return aln

    def local(self, i: int, j: int) -> Alignment:
        """Smith-Waterman alignment of pair (i, j), canonical orientation."""
        return self._lookup("local", i, j)

    def semiglobal(self, i: int, j: int) -> Alignment:
        """Overlap alignment of pair (i, j), canonical orientation."""
        return self._lookup("semiglobal", i, j)

    # -- backend hooks -----------------------------------------------------

    def peek(self, kind: str, i: int, j: int) -> Alignment | None:
        """Cached alignment if present — no compute, no counter update.

        The pair stream uses this to decide routing (answer
        master-side versus dispatch as work) without perturbing the
        statistics.
        """
        return self._table(kind).get(self._key(i, j))

    def insert(self, kind: str, i: int, j: int, aln: Alignment) -> None:
        """Store an externally computed alignment; counts as a miss.

        The miss accounting reflects that the computation *happened*
        (in a runtime task) because the cache could not answer it.
        """
        self._table(kind)[self._key(i, j)] = aln
        self._tally(kind, hit=False)

    # -- statistics --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counter snapshot: hits/misses per kind, totals, entries, hit
        rate, and under ``by_phase`` the :meth:`set_phase` split
        (``phase -> {"hits", "misses"}``, phases in first-use order)."""
        hits = sum(h for h, _ in self._by_kind.values())
        misses = sum(m for _, m in self._by_kind.values())
        return {
            **{f"{kind}_{outcome}": n
               for kind, split in self._by_kind.items()
               for outcome, n in zip(("hits", "misses"), split)},
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
        return sum(map(len, self._tables.values()))
