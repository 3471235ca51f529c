"""Shared-memory chunk bus: one writer, ``K`` zero-copy readers per slot.

The multi-process drivers move every chunk from the feeding loop into the
worker processes.  Pickling an ``m x p`` float64 matrix through a
:class:`multiprocessing.Queue` copies it once per worker (serialize +
deserialize + allocate); at ``K`` workers that is ``K`` full copies of data
the workers only *read*.  The bus removes all of them:

* the **writer** owns one :class:`multiprocessing.shared_memory.SharedMemory`
  segment carved into a ring of fixed-size slots.  Publishing a chunk
  copies its matrices into the next free slot exactly once and returns a
  tiny picklable :class:`SlotDescriptor` (slot index + array shapes) that
  travels through the ordinary control queues;
* each **reader** attaches to the segment once and maps the descriptor
  back to read-only :class:`numpy.ndarray` views over the shared buffer —
  no copy, no pickle, regardless of ``K``;
* every slot carries a **refcount** (set to the reader count on publish,
  decremented on :meth:`ChunkBusReader.release`).  The writer blocks when
  the ring is full — the slot count is the backpressure window, exactly
  like a bounded queue's depth — and wakes on the shared condition when a
  reader frees a slot.

The bus is deliberately dumb: ordering, worker liveness, and error
propagation stay in the driver (:mod:`repro.streaming.parallel`), which
passes an ``alive_check`` callback so a writer never blocks forever on a
ring held by dead readers.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.streaming.sources import TrafficChunk
from repro.utils.validation import require

__all__ = ["SlotDescriptor", "ChunkBusHandle", "ChunkBusWriter",
           "ChunkBusReader", "chunk_slot_bytes"]


def _attach_segment(name: str):
    """Attach to an existing shared-memory segment without tracking it.

    Only the writer owns (and unlinks) the segment.  Before Python 3.13
    attaching registers the name with the resource tracker, which would
    unlink it again at reader exit and warn about a leak; ``track=False``
    (3.13+) avoids that.  On older versions registration is suppressed
    during the attach instead of unregistered afterwards: with ``K``
    forked readers sharing one tracker process, interleaved
    register/unregister pairs for the same name race (the tracker's cache
    holds each name once, so the second unregister lands on an absent
    entry and the tracker logs a ``KeyError``).
    """
    from multiprocessing import shared_memory
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker
        original = resource_tracker.register

        def register_all_but_shm(resource_name, rtype):
            if rtype != "shared_memory":
                original(resource_name, rtype)

        resource_tracker.register = register_all_but_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class SlotDescriptor:
    """The picklable footprint of one published chunk.

    ``arrays`` maps each array key (the traffic-type value for chunk
    payloads) to ``(byte offset within the slot, shape, dtype string)``;
    ``start_bin`` carries the chunk's stream-global position so readers
    never need the original :class:`TrafficChunk` object.
    """

    slot: int
    start_bin: int
    arrays: Tuple[Tuple[str, int, Tuple[int, ...], str], ...]

    @property
    def n_bins(self) -> int:
        """Number of timebins of the described chunk."""
        return int(self.arrays[0][2][0])


@dataclass(frozen=True)
class ChunkBusHandle:
    """Everything a reader process needs to attach to the bus.

    Picklable through :class:`multiprocessing.Process` inheritance (the
    refcount array and condition are multiprocessing primitives); create
    readers with ``ChunkBusReader(handle)`` inside the worker.
    """

    segment_name: str
    n_slots: int
    slot_bytes: int
    refcounts: object
    freed: object


def chunk_slot_bytes(chunk: TrafficChunk) -> int:
    """The slot size (bytes) needed to hold every matrix of *chunk*."""
    return int(sum(matrix.nbytes for matrix in chunk.matrices.values()))


class ChunkBusWriter:
    """The owning side of the bus: allocates the ring, publishes chunks.

    Parameters
    ----------
    slot_bytes:
        Capacity of one ring slot; every published chunk must fit (size the
        ring from the first — largest — chunk via :func:`chunk_slot_bytes`).
    n_slots:
        Ring length: how many chunks may be in flight before
        :meth:`publish` blocks on the readers (the backpressure window).
    n_readers:
        Readers attached to every slot; a slot is recycled only after this
        many :meth:`ChunkBusReader.release` calls.
    context:
        The :mod:`multiprocessing` context the reader processes are spawned
        from (primitives must come from the same context).
    """

    def __init__(self, slot_bytes: int, n_slots: int, n_readers: int,
                 context=None) -> None:
        from multiprocessing import shared_memory
        require(slot_bytes >= 1, "slot_bytes must be >= 1")
        require(n_slots >= 2, "n_slots must be >= 2 (one slot would "
                "serialize the writer behind every reader)")
        require(n_readers >= 1, "n_readers must be >= 1")
        context = context if context is not None else multiprocessing.get_context()
        self._slot_bytes = int(slot_bytes)
        self._n_slots = int(n_slots)
        self._n_readers = int(n_readers)
        self._segment = shared_memory.SharedMemory(
            create=True, size=self._slot_bytes * self._n_slots)
        # The refcounts are guarded by the condition's lock (a raw array
        # carries no lock of its own); readers notify on every free.
        self._refcounts = context.RawArray("i", self._n_slots)
        self._freed = context.Condition()
        self._next_slot = 0
        self._closed = False
        self._telemetry = None

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`~repro.telemetry.Telemetry` bundle (or ``None``)
        recording slot occupancy and writer-stall time."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_slots(self) -> int:
        """Ring length (the backpressure window, in chunks)."""
        return self._n_slots

    @property
    def slot_bytes(self) -> int:
        """Capacity of one slot in bytes."""
        return self._slot_bytes

    @property
    def n_readers(self) -> int:
        """Readers that must release each slot before it is recycled."""
        return self._n_readers

    def handle(self) -> ChunkBusHandle:
        """The attachment handle to pass to reader processes."""
        return ChunkBusHandle(
            segment_name=self._segment.name,
            n_slots=self._n_slots,
            slot_bytes=self._slot_bytes,
            refcounts=self._refcounts,
            freed=self._freed,
        )

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        chunk: TrafficChunk,
        alive_check: Optional[Callable[[], None]] = None,
        poll_seconds: float = 1.0,
    ) -> SlotDescriptor:
        """Copy *chunk* into the next ring slot and return its descriptor.

        Blocks while the slot is still held by readers (ring full =
        backpressure); *alive_check* is invoked at *poll_seconds* cadence
        during the wait and may raise to abort a wait on dead readers.
        """
        require(not self._closed, "bus writer is closed")
        arrays: List[Tuple[str, int, Tuple[int, ...], str]] = []
        offset = 0
        for traffic_type, matrix in chunk.matrices.items():
            arrays.append((traffic_type.value, offset, matrix.shape,
                           matrix.dtype.str))
            offset += matrix.nbytes
        require(offset <= self._slot_bytes,
                f"chunk needs {offset} bytes but bus slots hold "
                f"{self._slot_bytes}; size the bus from the largest chunk")

        slot = self._next_slot
        telemetry = self._telemetry
        stall_started = None
        with self._freed:
            while self._refcounts[slot] != 0:
                if telemetry is not None and stall_started is None:
                    stall_started = time.perf_counter()
                if not self._freed.wait(timeout=poll_seconds):
                    if alive_check is not None:
                        alive_check()
            if telemetry is not None:
                if stall_started is not None:
                    telemetry.registry.counter(
                        "bus_writer_stall_seconds",
                        help="Time the bus writer spent blocked on a full "
                        "ring").inc(time.perf_counter() - stall_started)
                    telemetry.registry.counter(
                        "bus_writer_stalls",
                        help="Publishes that blocked on a full ring").inc()
                occupied = sum(1 for i in range(self._n_slots)
                               if self._refcounts[i] != 0)
                telemetry.registry.gauge(
                    "bus_slots_in_use",
                    help="Ring slots currently held by readers "
                    "(backpressure pressure; +1 is about to be "
                    "published)").set(occupied)
        base = slot * self._slot_bytes
        for (_, array_offset, _, _), matrix in zip(arrays,
                                                   chunk.matrices.values()):
            view = np.ndarray(matrix.shape, dtype=matrix.dtype,
                              buffer=self._segment.buf,
                              offset=base + array_offset)
            np.copyto(view, matrix)
        with self._freed:
            self._refcounts[slot] = self._n_readers
        self._next_slot = (slot + 1) % self._n_slots
        return SlotDescriptor(slot=slot, start_bin=chunk.start_bin,
                              arrays=tuple(arrays))

    def wait_all_released(
        self,
        alive_check: Optional[Callable[[], None]] = None,
        poll_seconds: float = 1.0,
    ) -> None:
        """Block until every slot has been released by every reader."""
        with self._freed:
            while any(self._refcounts[i] != 0 for i in range(self._n_slots)):
                if not self._freed.wait(timeout=poll_seconds):
                    if alive_check is not None:
                        alive_check()

    def close(self) -> None:
        """Release and unlink the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ChunkBusReader:
    """A worker-side attachment to the bus: maps descriptors to views."""

    def __init__(self, handle: ChunkBusHandle) -> None:
        self._handle = handle
        self._segment = _attach_segment(handle.segment_name)
        self._closed = False

    def map(self, descriptor: SlotDescriptor) -> Dict[str, np.ndarray]:
        """Read-only zero-copy views of the descriptor's arrays.

        The views alias the shared slot: drop every reference before (or
        by) calling :meth:`release`, after which the writer may overwrite
        the slot.
        """
        require(not self._closed, "bus reader is closed")
        base = descriptor.slot * self._handle.slot_bytes
        views: Dict[str, np.ndarray] = {}
        for key, offset, shape, dtype in descriptor.arrays:
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=self._segment.buf, offset=base + offset)
            view.flags.writeable = False
            views[key] = view
        return views

    def release(self, descriptor: SlotDescriptor) -> None:
        """Return the descriptor's slot; the last release frees it."""
        freed = self._handle.freed
        refcounts = self._handle.refcounts
        with freed:
            count = refcounts[descriptor.slot]
            require(count > 0, "slot released more times than published")
            refcounts[descriptor.slot] = count - 1
            if count == 1:
                freed.notify_all()

    def close(self) -> None:
        """Detach from the shared segment (idempotent; never unlinks)."""
        if self._closed:
            return
        self._closed = True
        self._segment.close()
