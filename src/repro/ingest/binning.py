"""Vectorized binning of parsed flow-record batches into traffic chunks.

:class:`FlowRecordBinner` is the bulk counterpart of
:class:`~repro.flows.aggregation.FlowAggregator`: record batches are
resolved to OD pairs through :class:`~repro.routing.resolver.PoPResolver`
(vectorized over the batch with per-unique-key caches — Abilene's 11-bit
destination anonymization collapses the egress key space, so the cache hit
rate is high), mapped to time bins, and accumulated per (bin, OD column)
with :func:`numpy.add.at`.

``np.add.at`` is unbuffered — it applies additions element by element in
index order — so per cell the floating-point addition order is exactly the
sequential ``+=`` of :class:`FlowAggregator` over the same record stream.
That is what makes the ingest path's matrices **byte-identical** to the
direct aggregation path, not merely close.

Emission is watermark-driven: a bin is sealed once the high-water bin has
advanced ``lateness_bins`` past it, chunks come out gapless and in order
(bins nothing was recorded for are explicit zero rows), and records behind
the emission floor are counted late and dropped — the same discipline
``OnlineEventAggregator`` applies on the detection side, so the two
watermarks compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.timeseries import TrafficType
from repro.ingest.csv_io import RecordBatch
from repro.routing.resolver import PoPResolver, anonymize_address
from repro.streaming.sources import TrafficChunk, chunk_end
from repro.utils.validation import require

__all__ = ["BinningStats", "FlowRecordBinner"]


@dataclass
class BinningStats:
    """Counters describing one binning pass (mutated in place)."""

    records: int = 0              #: records offered
    binned: int = 0               #: records accumulated into some cell
    late_records: int = 0         #: behind the emission floor, dropped
    skipped_records: int = 0      #: before the resume bin (suffix replay)
    out_of_range: int = 0         #: outside the configured bin range
    unresolved_ingress: int = 0   #: no ingress PoP
    unresolved_egress: int = 0    #: ingress ok, no egress PoP
    unknown_od: int = 0           #: resolved OD pair not in the universe

    @property
    def dropped(self) -> int:
        """Total records that did not land in a cell."""
        return self.records - self.binned


class FlowRecordBinner:
    """Accumulate :class:`RecordBatch`es into gapless in-order chunks.

    Parameters
    ----------
    resolver:
        Ingress/egress PoP resolution (the paper's data-reduction step).
    od_pairs:
        Column universe and ordering of the emitted matrices.
    chunk_size:
        Bins per emitted chunk.  Chunk boundaries are fixed global
        multiples of the chunk size, so a resumed stream reproduces the
        chunks an uninterrupted run would emit.
    bin_seconds, start_seconds:
        The time binning (paper: 300 s bins).
    n_bins:
        Total bins of the stream when known; ``None`` leaves the end open
        (:meth:`finish` then closes at the high-water bin).
    lateness_bins:
        How many bins the high-water mark must advance past a bin before
        it is sealed — the tolerance for out-of-order records.  At ``0``
        a batch that ends inside a bin may seal that bin (when it
        completes a chunk), so the rest of its records, in the next
        batch, are dropped as late even from an in-order export; the
        default ``1`` keeps the high-water bin open until a record of a
        later bin arrives.
    start_bin:
        Resume point: bins below it are neither buffered nor emitted
        (their records count as ``skipped``), and the first chunk starts
        exactly there.
    inverse_rate:
        Multiplier applied to byte/packet counts (sampling inversion;
        flow counts are *not* scaled — a sampled export cannot recover
        the true flow count by rescaling, see ``flows/sampling.py``).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; late/bad/
        resolution counters are published under ``ingest_*`` names.
    """

    def __init__(
        self,
        resolver: PoPResolver,
        od_pairs: Sequence[Tuple[str, str]],
        chunk_size: int,
        bin_seconds: int = 300,
        start_seconds: float = 0.0,
        n_bins: Optional[int] = None,
        lateness_bins: int = 1,
        start_bin: int = 0,
        inverse_rate: float = 1.0,
        registry=None,
    ) -> None:
        require(chunk_size >= 1, "chunk_size must be >= 1")
        require(bin_seconds >= 1, "bin_seconds must be >= 1")
        require(n_bins is None or n_bins >= 1,
                "n_bins must be >= 1 when given")
        require(lateness_bins >= 0, "lateness_bins must be non-negative")
        require(start_bin >= 0, "start_bin must be non-negative")
        require(inverse_rate > 0, "inverse_rate must be positive")
        self._resolver = resolver
        self._od_pairs = list(od_pairs)
        self._n_columns = len(self._od_pairs)
        require(self._n_columns >= 1, "od_pairs must be non-empty")
        self._chunk_size = int(chunk_size)
        self._bin_seconds = int(bin_seconds)
        self._start_seconds = float(start_seconds)
        self._n_bins = n_bins if n_bins is None else int(n_bins)
        self._lateness_bins = int(lateness_bins)
        self._start_bin = int(start_bin)
        self._inverse_rate = float(inverse_rate)
        self._stats = BinningStats()
        self._registry = registry

        # PoP-code tables: resolution is vectorized by mapping PoP names to
        # small integer codes and OD pairs to a code × code column matrix.
        pops = sorted({p for pair in self._od_pairs for p in pair}
                      | set(resolver.network.pop_names))
        self._pop_code = {name: i for i, name in enumerate(pops)}
        n_pops = len(pops)
        self._od_column = np.full((n_pops + 1, n_pops + 1), -1, np.int64)
        for column, (origin, destination) in enumerate(self._od_pairs):
            self._od_column[self._pop_code[origin],
                            self._pop_code[destination]] = column
        self._pop_names = pops
        #: router name -> pop code (or None when unknown to the topology)
        self._router_code: Dict[str, Optional[int]] = {}
        #: src address -> pop code for records without a known router
        self._src_code: Dict[int, Optional[int]] = {}
        #: anonymized dst -> egress pop code (int), unreachable (None), or
        #: the candidate-PoP tuple of a multihomed route (hot-potato
        #: tie-break still needed — stage two below)
        self._dst_resolution: Dict[int, object] = {}
        #: (candidate tuple, ingress code) -> chosen egress pop code
        self._hot_potato: Dict[Tuple[Tuple[str, ...], int], int] = {}
        self._anonymized_bits = resolver.anonymized_bits

        # Open bins live in one contiguous rolling window per traffic type
        # (rows for global bins [window_base, window_base + len)): the whole
        # batch accumulates with a single unbuffered np.add.at per type on
        # a flat (bin, column) index, and emission is a row slice.
        self._window_base = self._start_bin
        self._window_bytes = np.zeros((0, self._n_columns))
        self._window_packets = np.zeros((0, self._n_columns))
        self._window_flows = np.zeros((0, self._n_columns))
        self._emit_floor = self._start_bin  # next bin to emit
        self._high_bin = self._start_bin - 1  # highest bin seen
        self._finished = False

    @property
    def stats(self) -> BinningStats:
        """Counters for this binning pass."""
        return self._stats

    @property
    def emitted_watermark(self) -> int:
        """Exclusive end bin of everything emitted so far."""
        return self._emit_floor

    # ------------------------------------------------------------------ #
    # resolution (vectorized with caches)
    # ------------------------------------------------------------------ #
    def _ingress_codes(self, batch: RecordBatch) -> np.ndarray:
        routers = batch.router
        # Unique router names first: the common case is a handful of names
        # per batch, each resolved once via the router -> PoP table.
        unique_routers, inverse = np.unique(routers.astype(str),
                                            return_inverse=True)
        router_codes = np.full(len(unique_routers), -1, np.int64)
        needs_lookup = np.zeros(len(unique_routers), bool)
        for i, name in enumerate(unique_routers):
            if not name:
                needs_lookup[i] = True
                continue
            if name not in self._router_code:
                pop = self._resolver.router_pop_map.get(name)
                self._router_code[name] = (None if pop is None
                                           else self._pop_code[pop])
            code = self._router_code[name]
            if code is None:
                # Unknown router name: fall back to the source-address
                # table, like PoPResolver.resolve_ingress does.
                needs_lookup[i] = True
            else:
                router_codes[i] = code
        codes = router_codes[inverse]
        fallback = needs_lookup[inverse]
        if np.any(fallback):
            table = self._resolver.ingress_table
            for index in np.nonzero(fallback)[0]:
                src = int(batch.src_addr[index])
                if src not in self._src_code:
                    pop = table.lookup(src)
                    self._src_code[src] = (None if pop is None
                                           else self._pop_code[pop])
                code = self._src_code[src]
                codes[index] = -1 if code is None else code
        return codes

    def _egress_codes(self, batch: RecordBatch,
                      ingress: np.ndarray) -> np.ndarray:
        mask = 0xFFFFFFFF & ~((1 << self._anonymized_bits) - 1) \
            if self._anonymized_bits > 0 else 0xFFFFFFFF
        anonymized = batch.dst_addr & np.int64(mask)
        pop_names = self._pop_names
        bgp = self._resolver.bgp_table
        igp = self._resolver.igp
        dst_resolution = self._dst_resolution
        missing = dst_resolution  # sentinel no address can map to

        # Stage one, ingress-independent: one LPM per distinct anonymized
        # destination (anonymization collapses the key space, so there are
        # few), resolved to a final PoP code, unreachable (-1), or a
        # multihomed marker (-2) whose hot-potato tie-break needs the
        # ingress PoP.
        unique_dsts, dst_inverse = np.unique(anonymized, return_inverse=True)
        dst_codes = np.full(len(unique_dsts), -1, np.int64)
        multihomed: Dict[int, Tuple[str, ...]] = {}
        for i, dst in enumerate(unique_dsts):
            dst = int(dst)
            entry = dst_resolution.get(dst, missing)
            if entry is missing:
                route = bgp.lookup(dst)
                if route is None:
                    # Same fallback PoPResolver.resolve_egress applies:
                    # customer prefixes absent from BGP.
                    pop = self._resolver.ingress_table.lookup(dst)
                    entry = None if pop is None else self._pop_code[pop]
                elif len(route.egress_pops) == 1:
                    entry = self._pop_code[route.egress_pops[0]]
                else:
                    entry = tuple(route.egress_pops)
                dst_resolution[dst] = entry
            if entry is None:
                continue
            if isinstance(entry, tuple):
                dst_codes[i] = -2
                multihomed[i] = entry
            else:
                dst_codes[i] = entry
        codes = dst_codes[dst_inverse]

        if multihomed:
            # Stage two, only where needed: hot-potato tie-break per
            # (candidate set, ingress) — a handful of keys total.
            pending = np.nonzero((codes == -2) & (ingress >= 0))[0]
            codes[(codes == -2) & (ingress < 0)] = -1
            for index in pending:
                entry = multihomed[int(dst_inverse[index])]
                ingress_code = int(ingress[index])
                hot_key = (entry, ingress_code)
                code = self._hot_potato.get(hot_key)
                if code is None:
                    choice = igp.closest_pop(list(entry),
                                             pop_names[ingress_code])
                    if choice is None:
                        choice = entry[0]
                    code = self._pop_code[choice]
                    self._hot_potato[hot_key] = code
                codes[index] = code
        return codes

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #
    def add_batch(self, batch: RecordBatch) -> List[TrafficChunk]:
        """Accumulate one batch; returns chunks sealed by its arrival."""
        require(not self._finished, "binner is finished")
        n = batch.n_records
        self._stats.records += n
        if n == 0:
            return []

        ingress = self._ingress_codes(batch)
        resolved_ingress = ingress >= 0
        self._stats.unresolved_ingress += int(n - np.count_nonzero(
            resolved_ingress))
        egress = self._egress_codes(batch, ingress)
        resolved = resolved_ingress & (egress >= 0)
        self._stats.unresolved_egress += int(
            np.count_nonzero(resolved_ingress & (egress < 0)))

        columns = self._od_column[np.where(resolved, ingress, 0),
                                  np.where(resolved, egress, 0)]
        known_od = resolved & (columns >= 0)
        self._stats.unknown_od += int(np.count_nonzero(resolved
                                                       & (columns < 0)))

        # floor_divide matches Python's float // (TimeBinning.bin_of), so
        # edge-of-bin timestamps land in the same bin as the direct path.
        bins = np.floor_divide(batch.start_time - self._start_seconds,
                               self._bin_seconds).astype(np.int64)
        in_range = (bins >= 0) & ((bins < self._n_bins)
                                  if self._n_bins is not None else True)
        self._stats.out_of_range += int(np.count_nonzero(known_od
                                                         & ~in_range))
        skipped = known_od & in_range & (bins < self._start_bin)
        self._stats.skipped_records += int(np.count_nonzero(skipped))
        late = known_od & in_range & ~skipped & (bins < self._emit_floor)
        self._stats.late_records += int(np.count_nonzero(late))
        keep = known_od & in_range & ~skipped & ~late

        n_kept = int(np.count_nonzero(keep))
        if n_kept:
            kept_bins = bins[keep]
            kept_columns = columns[keep]
            high = int(kept_bins.max())
            self._grow_window(high)
            # One unbuffered np.add.at per traffic type on the flat
            # (bin, column) index: masking preserves record order, so the
            # per-cell addition order matches the sequential FlowAggregator
            # loop exactly (byte-identical sums).
            flat = (kept_bins - self._window_base) * self._n_columns \
                + kept_columns
            np.add.at(self._window_bytes.ravel(), flat,
                      batch.bytes[keep] * self._inverse_rate)
            np.add.at(self._window_packets.ravel(), flat,
                      batch.packets[keep] * self._inverse_rate)
            np.add.at(self._window_flows.ravel(), flat, 1.0)
            self._high_bin = max(self._high_bin, high)
            self._stats.binned += n_kept
        self._publish_metrics()
        return self._drain_sealed()

    def _grow_window(self, high_bin: int) -> None:
        needed = high_bin + 1 - self._window_base
        have = self._window_bytes.shape[0]
        if needed <= have:
            return
        extra = max(needed - have, have)  # at least double: amortized growth
        pad = ((0, extra), (0, 0))
        self._window_bytes = np.pad(self._window_bytes, pad)
        self._window_packets = np.pad(self._window_packets, pad)
        self._window_flows = np.pad(self._window_flows, pad)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def _sealed_end(self) -> int:
        """Exclusive end of the bins allowed to leave the buffer."""
        return max(self._emit_floor, self._high_bin + 1 - self._lateness_bins)

    def _emit_range(self, start: int, stop: int) -> TrafficChunk:
        # Gapless by construction: window rows no record touched are the
        # zero rows they were allocated as.
        lo, hi = start - self._window_base, stop - self._window_base
        have = self._window_bytes.shape[0]
        n, width = stop - start, self._n_columns

        def rows(window: np.ndarray) -> np.ndarray:
            if hi <= have:
                return window[lo:hi].copy()
            taken = np.zeros((n, width))
            taken[:max(0, have - lo)] = window[lo:have]
            return taken

        chunk = TrafficChunk(start_bin=start, matrices={
            TrafficType.BYTES: rows(self._window_bytes),
            TrafficType.PACKETS: rows(self._window_packets),
            TrafficType.FLOWS: rows(self._window_flows),
        })
        # Slide the window past the emitted rows.
        keep = min(hi, have)
        self._window_bytes = self._window_bytes[keep:]
        self._window_packets = self._window_packets[keep:]
        self._window_flows = self._window_flows[keep:]
        self._window_base = stop
        return chunk

    def _drain_sealed(self) -> List[TrafficChunk]:
        """Emit every complete chunk whose bins are all sealed."""
        sealed = self._sealed_end()
        if self._n_bins is not None:
            sealed = min(sealed, self._n_bins)
        chunks: List[TrafficChunk] = []
        while True:
            boundary = chunk_end(self._emit_floor, self._chunk_size,
                                 self._n_bins)
            if boundary > sealed or boundary <= self._emit_floor:
                return chunks
            chunks.append(self._emit_range(self._emit_floor, boundary))
            self._emit_floor = boundary

    def finish(self) -> List[TrafficChunk]:
        """Seal everything and emit the tail (idempotent)."""
        if self._finished:
            return []
        self._finished = True
        end = self._n_bins if self._n_bins is not None else self._high_bin + 1
        chunks: List[TrafficChunk] = []
        while self._emit_floor < end:
            boundary = chunk_end(self._emit_floor, self._chunk_size, end)
            chunks.append(self._emit_range(self._emit_floor, boundary))
            self._emit_floor = boundary
        require(not np.any(self._window_bytes),
                "internal error: buffered bins survived finish()")
        self._publish_metrics()
        return chunks

    def _publish_metrics(self) -> None:
        if self._registry is None:
            return
        stats = self._stats
        for name, value, help_text in (
            ("ingest_records_total", stats.records,
             "Flow records offered to the binner"),
            ("ingest_records_binned_total", stats.binned,
             "Flow records accumulated into an OD cell"),
            ("ingest_late_records_total", stats.late_records,
             "Records dropped behind the emission watermark"),
            ("ingest_unresolved_records_total",
             stats.unresolved_ingress + stats.unresolved_egress,
             "Records whose ingress or egress PoP did not resolve"),
        ):
            counter = self._registry.counter(name, help=help_text)
            delta = value - counter.value
            if delta > 0:
                counter.inc(delta)
