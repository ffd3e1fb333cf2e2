"""The session's encoded-sequence store, in process or in shared memory.

Every task names sequences by *global index*, so whatever runs a task
needs random access to every encoded sequence.  A backend session keeps
them in one store of three arrays:

``buffer``
    All encoded sequences concatenated as one ``uint8`` array — the
    same flat layout the generalized suffix array uses.
``offsets``
    ``int64`` array of length ``n + 1``; sequence ``k`` occupies
    ``buffer[offsets[k]:offsets[k + 1]]``.
``lengths``
    ``int64`` array of length ``n``, ``np.diff(offsets)``.

``get(k)`` returns a zero-copy ``numpy`` view.  Every Definition 1 test
and Myers sweep takes index columns over a store
(:func:`~repro.align.batch.containment_columns`): a task over the
session's store, a serve request over a private one holding its new
sequence and candidates, a list-of-arrays call over a private one of
its distinct arrays.  A wide sweep reads each sequence's Myers match
masks, :meth:`EncodedStore.myers_masks`, which a store builds once, on
the first such sweep.

:class:`EncodedStore` is the serial backend's private, in-process store.
Pickling the sequence list to each worker would copy the whole data set
per process (the paper's data sets are GB-scale), so the process
backend's master writes the buffer and offsets into two POSIX
shared-memory segments once (:class:`SharedSequenceStore`) and workers
attach read-only views: worker-side alignment reads the master's pages
directly, one physical copy of the data set regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.align.batch import myers_mask_table


def _flat(encoded: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``encoded`` as one ``uint8`` buffer and its ``n + 1`` offsets.

    Checked before the cast, which would wrap or truncate a code:
    ``ValueError`` for a sequence that is not a 1-D integer array,
    ``IndexError`` for a code outside ``[0, 256)``."""
    if any(seq.ndim != 1 or seq.dtype.kind not in "iu" for seq in encoded):
        raise ValueError("sequences must be 1-D integer arrays")
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(seq) for seq in encoded], out=offsets[1:])
    if not offsets[-1]:
        return np.zeros(0, dtype=np.uint8), offsets
    flat = np.concatenate(encoded)
    if flat.min() < 0 or flat.max() > 255:
        raise IndexError("residue code out of range [0, 256) for a byte store")
    return flat.astype(np.uint8, copy=False), offsets


class EncodedStore:
    """Encoded sequences as one flat buffer, its offsets and lengths."""

    def __init__(self, buffer: np.ndarray, offsets: np.ndarray):
        self.buffer = buffer
        self.offsets = offsets
        self.lengths = np.diff(offsets)
        self.n_sequences = len(offsets) - 1
        self.total_symbols = int(offsets[-1])
        self._max_code: int | None = None
        self._masks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_sequences(cls, encoded: Sequence[np.ndarray]) -> "EncodedStore":
        """A private copy of ``encoded`` in this process."""
        return cls(*_flat(encoded))

    def get(self, k: int) -> np.ndarray:
        """Zero-copy view of encoded sequence ``k``."""
        if not 0 <= k < self.n_sequences:
            raise IndexError(
                f"sequence index {k} out of range [0, {self.n_sequences})"
            )
        return self.buffer[int(self.offsets[k]) : int(self.offsets[k + 1])]

    def check_codes(self, alphabet: int) -> None:
        """``IndexError`` unless every code lies in ``[0, alphabet)``;
        the buffer's maximum is read once per store."""
        if self._max_code is None:
            self._max_code = int(self.buffer.max()) if self.total_symbols else -1
        if self._max_code >= alphabet:
            raise IndexError(f"residue code out of range for a {alphabet}-letter alphabet")

    def myers_masks(self, alphabet: int) -> tuple[np.ndarray, np.ndarray]:
        """Every sequence's Myers match masks, the ragged ``(table,
        words)`` of :func:`~repro.align.batch.myers_mask_table`: one
        ``alphabet + 1``-word row per 64 residues, about
        ``total_symbols / 64 * 8 * (alphabet + 1)`` bytes (168 B per 64
        residues under a 20-letter matrix).  Built on first use (codes
        checked by the caller, :meth:`check_codes`) and kept for the
        store's life."""
        if alphabet not in self._masks:
            self._masks[alphabet] = myers_mask_table(self.buffer, self.lengths, alphabet)
        return self._masks[alphabet]

    def __len__(self) -> int:
        return self.n_sequences

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes + self.offsets.nbytes

    def close(self) -> None:
        """Drop the arrays; a shared store also releases its segments."""
        self._masks = {}


@dataclass(frozen=True)
class StoreSpec:
    """Names + shape needed to attach to an existing store (picklable)."""

    buffer_name: str
    offsets_name: str
    n_sequences: int
    total_symbols: int


class SharedSequenceStore(EncodedStore):
    """Encoded sequences in shared memory; create once, attach per worker."""

    def __init__(
        self,
        buffer_shm: shared_memory.SharedMemory,
        offsets_shm: shared_memory.SharedMemory,
        n_sequences: int,
        total_symbols: int,
        *,
        owner: bool,
    ):
        self._buffer_shm = buffer_shm
        self._offsets_shm = offsets_shm
        self._owner = owner
        self._closed = False
        super().__init__(
            np.ndarray((total_symbols,), dtype=np.uint8, buffer=buffer_shm.buf),
            np.ndarray((n_sequences + 1,), dtype=np.int64, buffer=offsets_shm.buf),
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, encoded: Sequence[np.ndarray]) -> "SharedSequenceStore":
        """Copy the encoded sequences into fresh shared-memory segments."""
        buffer, offsets = _flat(encoded)
        buffer_shm = shared_memory.SharedMemory(create=True, size=max(buffer.size, 1))
        offsets_shm = shared_memory.SharedMemory(create=True, size=offsets.nbytes)
        np.ndarray(offsets.shape, dtype=np.int64, buffer=offsets_shm.buf)[:] = offsets
        store = cls(buffer_shm, offsets_shm, len(encoded), buffer.size, owner=True)
        store.buffer[:] = buffer
        return store

    @classmethod
    def attach(cls, spec: StoreSpec) -> "SharedSequenceStore":
        """Attach to a store created by another process (read-only use).

        On Python 3.13+ the attachment opts out of resource tracking
        (``track=False``); earlier interpreters share one tracker whose
        name registry is a set, so the worker's attach-time registration
        collapses into the owner's and the owner's ``unlink`` remains
        the single cleanup point.
        """
        try:
            buffer_shm = shared_memory.SharedMemory(
                name=spec.buffer_name, track=False  # type: ignore[call-arg]
            )
            offsets_shm = shared_memory.SharedMemory(
                name=spec.offsets_name, track=False  # type: ignore[call-arg]
            )
        except TypeError:  # Python < 3.13: no ``track`` keyword
            buffer_shm = shared_memory.SharedMemory(name=spec.buffer_name)
            offsets_shm = shared_memory.SharedMemory(name=spec.offsets_name)
        return cls(
            buffer_shm, offsets_shm, spec.n_sequences, spec.total_symbols,
            owner=False,
        )

    def spec(self) -> StoreSpec:
        return StoreSpec(
            buffer_name=self._buffer_shm.name,
            offsets_name=self._offsets_shm.name,
            n_sequences=self.n_sequences,
            total_symbols=self.total_symbols,
        )

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Detach views; the owner also unlinks the segments.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        super().close()
        # Drop numpy views before closing the mappings they point into.
        self.buffer = self.offsets = self.lengths = None  # type: ignore[assignment]
        for shm in (self._buffer_shm, self._offsets_shm):
            try:
                shm.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                continue
        if self._owner:
            for shm in (self._buffer_shm, self._offsets_shm):
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    continue

    def __enter__(self) -> "SharedSequenceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            return
