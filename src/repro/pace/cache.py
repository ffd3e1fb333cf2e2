"""Pair-alignment memoisation shared across phases and processor sweeps.

The cache holds two tables, local and semiglobal alignments per
canonical pair.  Within one pipeline run exactly one reuse happens:
bipartite generation (BGG) asks for the local alignment of every
intra-component promising pair, and CCD has already computed those it
did not filter — 291 hits among the 2,496 lookups of the benchmark's
``skewed`` workload (BGG submits 1,832 pairs), 77 on ``giant``, none
on ``domain`` (B_m builds its graphs without alignment).  RR asks for
*semiglobal* alignments and nothing reads that table back within a run,
so RR and CCD themselves never hit.  The other consumers are the paper
sweeps (``benchmarks/paper/regenerate.py``), which re-run identical
phases at several processor counts over one cache.  Physically
recomputing identical DP matrices would multiply wall-clock cost without
changing any simulated quantity — the simulator charges virtual time per
*execution*, not per physical computation — so the cache is purely a
host-side optimisation with no effect on results.

Whoever asks, a miss is computed by the batched engine
(:func:`repro.align.batch.batch_align`): a backend's tasks align their
pairs a batch at a time and the results are inserted here as they come
back; a simulated rank program or the GOS baseline, which ask for one
pair, get a batch of one.

Placement under the execution backends (:mod:`repro.runtime`): the
cache lives **master-side only**, in front of the one
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

    Hit/miss counters are first-class: ``stats()`` returns a summary
    dict (reported by ``repro.eval.report.cache_stats_lines`` and the
    CLI) so runs can show how much recomputation the cache avoided.
    :meth:`set_phase` attributes subsequent hits/misses to a pipeline
    phase, so the overall hit rate can be decomposed into "which phase
    re-asked for whose alignments" (in a batch run every hit is
    bipartite generation reusing CCD's local alignments — see the
    module docstring).

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
        self._local: dict[tuple[int, int], Alignment] = {}
        self._semiglobal: dict[tuple[int, int], Alignment] = {}
        self.local_hits = 0
        self.local_misses = 0
        self.semiglobal_hits = 0
        self.semiglobal_misses = 0
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
        if not self._phase:
            return
        bucket = self._by_phase.setdefault(self._phase, [0, 0])
        bucket[0 if hit else 1] += 1

    def _table(self, kind: str) -> dict[tuple[int, int], Alignment]:
        if kind == "local":
            return self._local
        if kind == "semiglobal":
            return self._semiglobal
        raise ValueError(f"unknown alignment kind {kind!r}")

    def _computed(self, kind: str, key: tuple[int, int]) -> Alignment:
        """A miss of :meth:`local` / :meth:`semiglobal`: one pair through
        the batched engine, stored and counted as :meth:`insert` does."""
        (aln,) = batch_align(
            [(self._get(key[0]), self._get(key[1]))], self._scheme, kind)
        self.insert(kind, *key, aln)
        return aln

    def local(self, i: int, j: int) -> Alignment:
        """Smith-Waterman alignment of pair (i, j), canonical orientation."""
        key = self._key(i, j)
        aln = self._local.get(key)
        if aln is None:
            return self._computed("local", key)
        self.local_hits += 1
        self._tally(hit=True)
        return aln

    def semiglobal(self, i: int, j: int) -> Alignment:
        """Overlap alignment of pair (i, j), canonical orientation."""
        key = self._key(i, j)
        aln = self._semiglobal.get(key)
        if aln is None:
            return self._computed("semiglobal", key)
        self.semiglobal_hits += 1
        self._tally(hit=True)
        return aln

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
        self._tally(hit=False)
        if kind == "local":
            self.local_misses += 1
        else:
            self.semiglobal_misses += 1

    # -- statistics --------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.local_hits + self.semiglobal_hits

    @property
    def misses(self) -> int:
        return self.local_misses + self.semiglobal_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def record_observations(self, recorder) -> None:
        """Fold the cache counters into a :class:`repro.obs.Recorder`.

        Called once at end of run, so a fresh per-run recorder shows the
        absolute snapshot under the ``cache.*`` names of the registry.
        """
        recorder.count("cache.local_hits", self.local_hits)
        recorder.count("cache.local_misses", self.local_misses)
        recorder.count("cache.semiglobal_hits", self.semiglobal_hits)
        recorder.count("cache.semiglobal_misses", self.semiglobal_misses)
        recorder.count("cache.entries", len(self))
        for phase, (hits, misses) in self._by_phase.items():
            recorder.count(f"cache.phase.{phase}.hits", hits)
            recorder.count(f"cache.phase.{phase}.misses", misses)

    def stats_by_phase(self) -> dict[str, dict[str, int]]:
        """Per-phase hit/miss split (phases in first-use order)."""
        return {
            phase: {"hits": hits, "misses": misses}
            for phase, (hits, misses) in self._by_phase.items()
        }

    def stats(self) -> dict[str, Any]:
        """Counter snapshot: hits/misses per kind, totals, hit rate.

        The ``by_phase`` entry carries the :meth:`set_phase` split; it
        is a nested mapping, which downstream consumers that expect
        flat floats (telemetry probes, report lines) skip over.
        """
        return {
            "local_hits": self.local_hits,
            "local_misses": self.local_misses,
            "semiglobal_hits": self.semiglobal_hits,
            "semiglobal_misses": self.semiglobal_misses,
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "hit_rate": self.hit_rate,
            "by_phase": self.stats_by_phase(),
        }

    def __len__(self) -> int:
        return len(self._local) + len(self._semiglobal)
