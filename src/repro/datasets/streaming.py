"""Unbounded synthetic chunk streams for the online detection pipeline.

:class:`SyntheticChunkSource` turns the block-oriented synthetic dataset
generator into an endless :class:`~repro.streaming.sources.ChunkSource`:
traffic (and, optionally, anomalies) is generated one block at a time with
a per-block derived seed and a continuing absolute time axis, so
diurnal/weekly seasonality flows seamlessly across block boundaries while
memory stays bounded by one block.  Because block seeds and the time axis
depend only on the block index, :meth:`SyntheticChunkSource.resume`
replays the exact suffix of the stream from any bin — the resume path of
a checkpoint-restored detector.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.datasets.synthetic import DatasetConfig, generate_abilene_dataset
from repro.streaming.sources import TrafficChunk, chunk_end
from repro.topology.abilene import abilene_topology
from repro.topology.network import Network
from repro.utils.validation import require

__all__ = ["SyntheticChunkSource"]


class SyntheticChunkSource:
    """Re-iterable, resumable synthetic traffic feed (a ``ChunkSource``).

    Parameters
    ----------
    chunk_size:
        Timebins per yielded chunk.  Block lengths need not be multiples of
        the chunk size: a block's final short remainder is simply a shorter
        chunk (stream-global bin indices stay contiguous either way).
    block_config:
        Configuration of each generated block (default: one day per block,
        with the standard anomaly schedule scaled to the block length).
    seed:
        Master seed; block ``i`` derives its own seed from ``(seed, i)`` so
        the stream is reproducible and blocks are independent draws.
    network:
        Fixed topology for every block (default: 11-PoP Abilene).  The OD
        columns therefore stay aligned across the whole stream.
    max_blocks:
        Stop after this many blocks (``None`` = truly unbounded; callers
        should then bound consumption themselves, e.g.
        ``itertools.islice``).  :meth:`resume` still counts *total* blocks
        of the underlying stream.
    """

    def __init__(
        self,
        chunk_size: int = 64,
        block_config: DatasetConfig = DatasetConfig(weeks=1.0 / 7.0),
        seed: int = 0,
        network: Optional[Network] = None,
        max_blocks: Optional[int] = None,
    ) -> None:
        require(chunk_size >= 1, "chunk_size must be >= 1")
        require(max_blocks is None or max_blocks >= 1,
                "max_blocks must be >= 1 when given")
        self._chunk_size = int(chunk_size)
        self._block_config = block_config
        self._seed = int(seed)
        self._network = network if network is not None else abilene_topology()
        self._max_blocks = max_blocks
        self._resume_bin = 0

    @property
    def chunk_size(self) -> int:
        """Timebins per yielded chunk."""
        return self._chunk_size

    @property
    def block_bins(self) -> int:
        """Timebins per generated block."""
        return self._block_config.n_bins

    @property
    def start_bin(self) -> int:
        """Stream-global bin iteration starts at."""
        return self._resume_bin

    @property
    def end_bin(self) -> Optional[int]:
        """Exclusive end bin of the stream (``None``: unbounded)."""
        if self._max_blocks is None:
            return None
        return self._max_blocks * self.block_bins

    def resume(self, start_bin: int) -> "SyntheticChunkSource":
        """The exact stream suffix from *start_bin* on.

        Block seeds and the absolute time axis depend only on the block
        index, so regenerating the block containing *start_bin* and
        slicing it yields bit-identical traffic — and the within-block
        chunk boundaries are fixed multiples of ``chunk_size``, so the
        resumed chunks are the ones an uninterrupted run would emit.
        """
        require(start_bin >= 0, "start_bin must be non-negative")
        require(self.end_bin is None or start_bin <= self.end_bin,
                f"resume bin {start_bin} past the stream end {self.end_bin}")
        clone = SyntheticChunkSource(
            chunk_size=self._chunk_size,
            block_config=self._block_config,
            seed=self._seed,
            network=self._network,
            max_blocks=self._max_blocks,
        )
        clone._resume_bin = int(start_bin)
        return clone

    def __iter__(self) -> Iterator[TrafficChunk]:
        block_bins = self.block_bins
        block_index = self._resume_bin // block_bins
        local = self._resume_bin - block_index * block_bins
        while self._max_blocks is None or block_index < self._max_blocks:
            block_seed = int(
                np.random.SeedSequence([self._seed, block_index])
                .generate_state(1)[0])
            offset_bins = block_index * block_bins
            # Continuing the absolute time axis keeps seasonality seamless.
            dataset = generate_abilene_dataset(
                self._block_config,
                seed=block_seed,
                network=self._network,
                start_seconds=offset_bins * self._block_config.bin_seconds,
            )
            series = dataset.series
            # Boundaries are cut per block, counted from the block start.
            while local < block_bins:
                stop = chunk_end(local, self._chunk_size, block_bins)
                yield TrafficChunk(
                    start_bin=offset_bins + local,
                    matrices={t: series.matrix(t)[local:stop, :]
                              for t in series.traffic_types})
                local = stop
            local = 0
            block_index += 1
