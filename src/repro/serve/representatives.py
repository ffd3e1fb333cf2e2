"""Per-family representative selection and the psi-window index.

The incremental insert path must not align a new sequence against the
whole collection — that is the quadratic cost the paper's promising-pair
filter exists to avoid.  Instead each family exposes a small
*representative set* and inserts align only against representatives.

Selection ranks members by **containment centrality first, length
second**: a member that served as the container in many Definition 1
containments sits near the family's consensus (everything redundant
mapped onto it), and among equals the longest member covers the most
residue space — the same "longer sequence is the reference" bias the
RR phase's mutual-containment tie-break uses.  Ties fall back to the
lower index so selection is deterministic.

Candidate generation mirrors the paper's promising-pair definition
exactly at the representative scale: two sequences share a maximal
match of length >= psi **iff** they share some exact psi-residue
window, so indexing every psi-window of every representative makes
``candidates()`` return precisely the representatives a suffix-tree
promising-pair generator would pair the new sequence with.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

#: Default cap on representatives kept per family.  Deliberately small:
#: per-insert alignment work is O(representatives hit), and a family's
#: high-centrality members answer containment/overlap for the rest.
DEFAULT_MAX_REPRESENTATIVES = 8


def select_representatives(
    members: Iterable[int],
    *,
    lengths: Sequence[int],
    centrality: Mapping[int, int],
    cap: int = DEFAULT_MAX_REPRESENTATIVES,
) -> list[int]:
    """The ``cap`` best representatives of one family, sorted ascending.

    ``lengths`` is indexed by global sequence index; ``centrality``
    maps index -> number of containments the sequence was container
    for (absent = 0).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    ranked = sorted(
        members,
        key=lambda m: (-centrality.get(m, 0), -lengths[m], m),
    )
    return sorted(ranked[:cap])


class RepresentativeIndex:
    """Exact psi-window inverted index over the active representatives.

    ``add``/``discard`` maintain membership as families gain, lose, and
    merge representatives; ``candidates`` returns every active
    representative sharing at least one psi-window with a query — the
    serving-time analogue of the suffix-tree promising-pair generator.

    Windows of discarded representatives are left in place and filtered
    lazily against the active set (an insert-heavy daemon would
    otherwise spend its time unlinking windows; representatives churn
    on every family merge).
    """

    def __init__(self, psi: int) -> None:
        if psi < 2:
            raise ValueError(f"psi must be >= 2, got {psi}")
        self.psi = psi
        self._windows: dict[bytes, set[int]] = {}
        self._active: set[int] = set()

    def __len__(self) -> int:
        return len(self._active)

    def __contains__(self, index: int) -> bool:
        return index in self._active

    @property
    def active(self) -> frozenset[int]:
        return frozenset(self._active)

    def _iter_windows(self, encoded: np.ndarray) -> Iterable[bytes]:
        data = encoded.tobytes()
        psi = self.psi
        for start in range(len(data) - psi + 1):
            yield data[start:start + psi]

    def add(self, index: int, encoded: np.ndarray) -> None:
        """Register ``index`` as an active representative."""
        if index in self._active:
            return
        self._active.add(index)
        for window in self._iter_windows(encoded):
            self._windows.setdefault(window, set()).add(index)

    def discard(self, index: int) -> None:
        """Deactivate a representative (lazily; windows stay indexed)."""
        self._active.discard(index)

    def candidates(self, encoded: np.ndarray) -> list[int]:
        """Active representatives sharing a psi-window with ``encoded``.

        Sorted ascending, so downstream alignment loops are
        deterministic regardless of set iteration order.
        """
        found: set[int] = set()
        windows = self._windows
        for window in self._iter_windows(encoded):
            hit = windows.get(window)
            if hit:
                found.update(hit)
        found &= self._active
        return sorted(found)
