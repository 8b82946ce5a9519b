"""Multi-resolution telemetry rollups, maintained incrementally.

A dashboard asking "mean facility power last month" must not scan six
years of 300 s samples.  Production monitoring stores therefore keep
*rollups*: per-channel, per-rack downsamples at a ladder of
resolutions (raw cadence -> hourly -> daily here), updated as each
sample arrives rather than recomputed on query.

Each bucket of each level carries, per rack:

* ``min`` / ``max`` — NaN-aware extrema of the finite values,
* ``sum`` / ``count`` — finite-value total and count (mean is
  ``sum/count``, composable across buckets and racks),
* ``usable`` — cells whose quality flag is ``OK`` or ``SUSPECT``
  (present and not scrubbed), the coverage numerator,

plus the bucket's total sample-row count.  ``count`` follows the
*finite* semantics of
:meth:`~repro.telemetry.database.EnvironmentalDatabase._covered_sum`
(a scrubbed-but-present value still contributes to means and
coverage-corrected totals, exactly as in the offline aggregates),
while ``usable`` follows the quality-mask semantics of
:meth:`~repro.telemetry.database.EnvironmentalDatabase.coverage` — so
faulted streams roll up with the same numbers the batch pipeline
reports.

At the finest level every sample lands in its own bucket whenever the
stream cadence is a multiple of the level resolution, which makes
raw-level rollup queries *exactly* equal to offline aggregates over
the environmental database (the streaming/batch equivalence contract
the query engine's tests enforce).

There is one fold, :meth:`RollupStore.add_block`: a live chunk, an
HTTP collector batch, a whole database (``from_database`` folds it in
large blocks) and a single sample (:meth:`RollupStore.add` is a
one-row block) all go through it.  It accumulates every bucket in its
rows' arrival order, so the buckets are bit-identical whatever the
block boundaries, and late or shuffled rows land exactly as if folded
one at a time.

The store is thread-safe (one lock; writers are the bus subscriber
thread, readers the query engine's pool) and versioned: every ingested
block bumps :attr:`~RollupStore.version` and records the mutated
timestamp in a bounded history so the query cache can invalidate
*only* entries whose window the new data actually touches.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro import constants
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS, Channel, Quality

#: The default resolution ladder: the coolant monitors' native 300 s
#: cadence, hourly, and daily.
DEFAULT_RESOLUTIONS_S = (300.0, 3600.0, 86400.0)

#: Mutation history depth for targeted cache invalidation; entries
#: older than this force a conservative "invalidate everything".
_MUTATION_HISTORY = 4096

#: Rows per :meth:`RollupStore.add_block` call when folding a whole
#: database in (``ingest_database`` / ``from_database``).
_INGEST_BLOCK_ROWS = 65_536

#: Quality flags counting toward coverage (present and not scrubbed).
_USABLE_FLAGS = (int(Quality.OK), int(Quality.SUSPECT))


@dataclasses.dataclass(frozen=True)
class _PreparedBlock:
    """Per-channel block derivatives shared by every level's fold.

    Computed once per ingested block (isfinite / zero-fill / usable
    masks are identical at every resolution) so the per-level work is
    only the fold into the buckets.  Fully-finite / fully-usable
    blocks — the overwhelmingly common case — carry ``None`` masks,
    letting the fold add per-bucket row tallies instead of folding
    the masks.
    """

    zeroed: np.ndarray  # non-finite cells as 0.0 (the block itself when clean)
    finite: Optional[np.ndarray]  # bool mask; None = every cell finite
    usable: Optional[np.ndarray]  # bool mask; None = every cell usable


@dataclasses.dataclass
class _ChannelBuckets:
    """Growable per-channel accumulator matrices for one level.

    Rows at or beyond the level's ``size`` are uninitialized — every
    bucket row is written clean when ``_Level._create`` makes it, so
    fresh capacity is allocated with ``np.empty`` and never padded.
    """

    minimum: np.ndarray  # (cap, racks) float64
    maximum: np.ndarray  # (cap, racks) float64
    total: np.ndarray  # (cap, racks) float64
    count: np.ndarray  # (cap, racks) int32
    usable: np.ndarray  # (cap, racks) int32


class _Level:
    """One resolution of the rollup ladder."""

    def __init__(self, resolution_s: float, num_racks: int, capacity: int = 64):
        self.resolution_s = float(resolution_s)
        self.num_racks = num_racks
        self.capacity = capacity
        self.size = 0
        self.epoch = np.empty(capacity, dtype="float64")
        self.samples = np.zeros(capacity, dtype="int64")
        self.channels: Dict[Channel, _ChannelBuckets] = {
            ch: self._new_buckets(capacity) for ch in CHANNELS
        }

    def _new_buckets(self, capacity: int) -> _ChannelBuckets:
        shape = (capacity, self.num_racks)
        return _ChannelBuckets(
            minimum=np.empty(shape),
            maximum=np.empty(shape),
            total=np.empty(shape),
            count=np.empty(shape, dtype="int32"),
            usable=np.empty(shape, dtype="int32"),
        )

    def _matrices(self) -> Iterable[np.ndarray]:
        """Every array indexed by bucket row."""
        yield self.epoch
        yield self.samples
        for buckets in self.channels.values():
            for field in dataclasses.fields(_ChannelBuckets):
                yield getattr(buckets, field.name)

    def _grow(self, needed: int) -> None:
        """Reallocate to at least ``needed`` rows in one go."""
        new_capacity = self.capacity * 2
        while new_capacity < needed:
            new_capacity *= 2
        grown = new_capacity - self.capacity
        self.epoch = np.concatenate([self.epoch, np.empty(grown)])
        self.samples = np.concatenate(
            [self.samples, np.empty(grown, dtype=self.samples.dtype)]
        )
        for channel, buckets in self.channels.items():
            fresh = self._new_buckets(new_capacity)
            for field in dataclasses.fields(_ChannelBuckets):
                getattr(fresh, field.name)[: self.size] = getattr(
                    buckets, field.name
                )[: self.size]
            self.channels[channel] = fresh
        self.capacity = new_capacity

    def _ensure_capacity(self, needed: int) -> None:
        # Over-allocate (2x the requirement) so a steady stream of
        # blocks reallocates O(log n) times with geometric copy cost.
        if self.capacity < needed:
            self._grow(2 * needed)

    def _place(self, ustarts: np.ndarray) -> np.ndarray:
        """Bucket rows of strictly increasing starts, creating any missing.

        New buckets start clean in every channel (NaN extrema, zero
        tallies), so folding into them is the same operation as folding
        into an existing bucket.  Buckets created behind the newest one
        shift the later rows right in one move per array.
        """
        size = self.size
        if size == 0 or ustarts[0] >= self.epoch[size - 1]:
            # In order: at most the first bucket exists (the newest one).
            merged = int(size > 0 and ustarts[0] == self.epoch[size - 1])
            if len(ustarts) > merged:
                self._ensure_capacity(size + len(ustarts) - merged)
                self._create(
                    slice(size, size + len(ustarts) - merged), ustarts[merged:]
                )
            return np.arange(size - merged, self.size)
        index = np.searchsorted(self.epoch[:size], ustarts)
        missing = index == size
        missing[~missing] = self.epoch[index[~missing]] != ustarts[~missing]
        new = ustarts[missing]
        if not len(new):
            return index
        self._ensure_capacity(size + len(new))
        first = int(index[missing][0])
        if first < size:
            dest = np.arange(first, size) + np.searchsorted(
                new, self.epoch[first:size]
            )
            for matrix in self._matrices():
                matrix[dest] = matrix[first:size].copy()
        # Every bucket moves right by the number of new ones before it.
        index = index + np.cumsum(missing) - missing
        self._create(_as_rows(index[missing]), new)
        return index

    def _create(self, rows, starts: np.ndarray) -> None:
        """Write clean buckets for ``starts`` at ``rows``."""
        self.epoch[rows] = starts
        self.samples[rows] = 0
        for buckets in self.channels.values():
            buckets.minimum[rows] = np.nan
            buckets.maximum[rows] = np.nan
            buckets.total[rows] = 0.0
            buckets.count[rows] = 0
            buckets.usable[rows] = 0
        self.size += len(starts)

    def add_block(
        self,
        epochs: np.ndarray,
        values: Mapping[Channel, np.ndarray],
        prepared: Mapping[Channel, "_PreparedBlock"],
    ) -> None:
        """Fold a block of rows into its buckets, each in arrival order.

        Rows are grouped per bucket with a stable sort on bucket start
        (skipped for in-order blocks), so each bucket keeps its rows'
        arrival order.  Every field then folds *rank-major*: the
        bucket's current value, then its first row, its second row,
        and so on, one vectorized step per rank across all buckets.
        Totals are therefore summed in exactly the order row-at-a-time
        folding would use (``np.add.reduceat`` would sum long segments
        pairwise instead), and the result is bit-identical to folding
        the rows one by one, at any block size and in any arrival
        order.
        """
        n = len(epochs)
        starts = np.floor(epochs / self.resolution_s) * self.resolution_s
        order = None
        if n > 1 and np.any(starts[1:] < starts[:-1]):
            order = np.argsort(starts, kind="stable")
            starts = starts[order]
        first_of_bucket = np.empty(n, dtype=bool)
        first_of_bucket[0] = True
        np.not_equal(starts[1:], starts[:-1], out=first_of_bucket[1:])
        seg_idx = np.flatnonzero(first_of_bucket)
        seg_rows = np.diff(np.concatenate((seg_idx, [n])))
        index = self._place(starts[seg_idx])
        rows = _as_rows(index)
        self.samples[rows] += seg_rows
        if len(seg_idx) == n:  # every row is its own bucket: one rank
            bucket_rows, ranked, tally, schedule = rows, order, 1, None
        else:
            # Buckets longest first, so the buckets still holding a row
            # at rank k are a prefix of ``active[k]`` buckets; ``ranked``
            # lists block rows rank by rank.
            by_length = np.argsort(-seg_rows, kind="stable")
            active = np.searchsorted(
                -seg_rows[by_length], -np.arange(seg_rows.max()), side="left"
            )
            offsets = np.cumsum(active) - active
            member = np.arange(n) - np.repeat(offsets, active)
            ranked = seg_idx[by_length][member] + np.repeat(
                np.arange(len(active)), active
            )
            if order is not None:
                ranked = order[ranked]
            bucket_rows, tally = index[by_length], seg_rows[by_length][:, None]
            schedule = list(zip(offsets.tolist(), active.tolist()))
        scatter = not isinstance(bucket_rows, slice)  # else acc is a view
        for channel, block in values.items():
            ready = prepared[channel]
            buckets = self.channels[channel]
            for ufunc, matrix, source in (
                (np.fmin, buckets.minimum, block),
                (np.fmax, buckets.maximum, block),
                (np.add, buckets.total, ready.zeroed),
                (np.add, buckets.count, ready.finite),
                (np.add, buckets.usable, ready.usable),
            ):
                acc = matrix[bucket_rows]
                if source is None:  # every cell counts: add the row tallies
                    acc += tally
                elif schedule is None:
                    ufunc(acc, source if ranked is None else source[ranked], out=acc)
                else:
                    addends = source[ranked]
                    for lo, width in schedule:
                        part = acc[:width]
                        ufunc(part, addends[lo : lo + width], out=part)
                if scatter:
                    matrix[bucket_rows] = acc


def _as_rows(index: np.ndarray):
    """A strictly increasing row index, as a slice when contiguous."""
    if int(index[-1]) - int(index[0]) == len(index) - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


@dataclasses.dataclass(frozen=True)
class BucketWindow:
    """A consistent copy of one level's buckets inside a time window.

    All arrays share the bucket axis; per-rack matrices have shape
    ``(buckets, racks)``.  ``version`` is the store version the copy
    was taken at (for cache stamping).
    """

    resolution_s: float
    version: int
    epoch: np.ndarray
    samples: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    total: np.ndarray
    count: np.ndarray
    usable: np.ndarray


class RollupStore:
    """Incremental multi-resolution rollups of every per-rack channel.

    Args:
        num_racks: Width of the rack axis.
        resolutions_s: Strictly ascending bucket lengths, finest
            first.  The finest level should divide the stream cadence
            (300 s divides every cadence the simulator emits) so that
            raw-level queries are sample-exact.
    """

    def __init__(
        self,
        num_racks: int = constants.NUM_RACKS,
        resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S,
    ) -> None:
        if num_racks <= 0:
            raise ValueError("num_racks must be positive")
        if not resolutions_s:
            raise ValueError("at least one resolution is required")
        if any(r <= 0 for r in resolutions_s):
            raise ValueError("resolutions must be positive")
        if list(resolutions_s) != sorted(set(resolutions_s)):
            raise ValueError("resolutions must be strictly ascending")
        self.num_racks = num_racks
        self.resolutions_s = tuple(float(r) for r in resolutions_s)
        self._levels = [_Level(r, num_racks) for r in self.resolutions_s]
        self._lock = threading.RLock()
        self._version = 0
        self._mutations: collections.deque = collections.deque(
            maxlen=_MUTATION_HISTORY
        )
        self.ingested_rows = 0

    # -- ingest -------------------------------------------------------------------

    def add(
        self,
        epoch_s: float,
        values: Mapping[Channel, np.ndarray],
        quality: Optional[Mapping[Channel, np.ndarray]] = None,
    ) -> None:
        """Fold one whole-floor sample in: a one-row :meth:`add_block`.

        Args:
            epoch_s: Sample timestamp.
            values: Channel -> per-rack vector.  Channels not supplied
                contribute nothing (their counts stay put).
            quality: Optional parallel quality flags; without them
                coverage falls back to finite-ness.
        """
        self.add_block(
            np.array([epoch_s], dtype=np.float64),
            {ch: np.asarray(vector)[None] for ch, vector in values.items()},
            None
            if quality is None
            else {ch: np.asarray(flags)[None] for ch, flags in quality.items()},
        )

    def add_block(
        self,
        epoch_s: np.ndarray,
        values: Mapping[Channel, np.ndarray],
        quality: Optional[Mapping[Channel, np.ndarray]] = None,
    ) -> None:
        """Fold a whole block of samples into every level at once.

        Args:
            epoch_s: ``(timesteps,)`` sample timestamps, in arrival
                order (late and out-of-order rows are fine).
            values: Channel -> ``(timesteps, racks)`` block.
            quality: Optional parallel quality-flag blocks.

        The store version bumps **once per block** (one mutation-
        history entry stamped at the block's earliest timestamp), so
        downstream cache invalidation scales with chunks rather than
        samples.
        """
        epochs = np.asarray(epoch_s, dtype=np.float64)
        if epochs.ndim != 1:
            raise ValueError(f"epoch_s must be 1-D, got shape {epochs.shape}")
        n = len(epochs)
        if n == 0:
            return
        with self._lock:
            prepared = {}
            for channel, block in values.items():
                finite = np.isfinite(block)
                clean = bool(finite.all())
                if quality is not None and channel in quality:
                    flags = quality[channel]
                    usable = (flags == _USABLE_FLAGS[0]) | (
                        flags == _USABLE_FLAGS[1]
                    )
                    if usable.all():
                        usable = None
                else:
                    usable = None if clean else finite
                prepared[channel] = _PreparedBlock(
                    zeroed=block if clean else np.where(finite, block, 0.0),
                    finite=None if clean else finite,
                    usable=usable,
                )
            for level in self._levels:
                level.add_block(epochs, values, prepared)
            self._version += 1
            self._mutations.append((self._version, float(epochs.min())))
            self.ingested_rows += n

    def ingest_database(
        self,
        database: EnvironmentalDatabase,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
    ) -> int:
        """Fold every committed row of a database in; returns the count.

        Rows go in as :meth:`add_block` calls of up to
        ``_INGEST_BLOCK_ROWS`` rows, so the version bumps once per
        block (a year at 300 s is ~2 bumps, not ~105,000).
        """
        rows = 0
        for epochs, values, quality in database.iter_blocks(
            _INGEST_BLOCK_ROWS, start_epoch_s, end_epoch_s
        ):
            self.add_block(epochs, values, quality)
            rows += len(epochs)
        return rows

    @classmethod
    def from_database(
        cls,
        database: EnvironmentalDatabase,
        resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S,
    ) -> "RollupStore":
        """The offline construction: one columnar pass over a finished store."""
        store = cls(database.num_racks, resolutions_s)
        store.ingest_database(database)
        return store

    # -- durability ---------------------------------------------------------------

    def get_state(self) -> Dict:
        """A picklable deep copy of every level (see :meth:`set_state`).

        Taken under the store lock, so a snapshot observed mid-stream
        is always a consistent whole-store state at some ingest
        boundary.
        """
        with self._lock:
            levels = []
            for level in self._levels:
                channels = {}
                for channel, buckets in level.channels.items():
                    channels[channel] = {
                        field.name: getattr(buckets, field.name)[: level.size].copy()
                        for field in dataclasses.fields(_ChannelBuckets)
                    }
                levels.append(
                    {
                        "resolution_s": level.resolution_s,
                        "epoch": level.epoch[: level.size].copy(),
                        "samples": level.samples[: level.size].copy(),
                        "channels": channels,
                    }
                )
            return {
                "num_racks": self.num_racks,
                "resolutions_s": self.resolutions_s,
                "levels": levels,
                "version": self._version,
                "mutations": list(self._mutations),
                "ingested_rows": self.ingested_rows,
            }

    def set_state(self, state: Mapping) -> None:
        """Restore a :meth:`get_state` copy bit for bit.

        Version and mutation history are restored too, so query-cache
        stamps taken before a crash stay coherent after recovery.

        Raises:
            ValueError: when the saved shape (racks / resolution
                ladder) does not match this store.
        """
        if (
            tuple(state["resolutions_s"]) != self.resolutions_s
            or int(state["num_racks"]) != self.num_racks
        ):
            raise ValueError(
                "rollup state does not match this store: saved "
                f"({state['num_racks']} racks, {tuple(state['resolutions_s'])}), "
                f"store ({self.num_racks} racks, {self.resolutions_s})"
            )
        with self._lock:
            for level, saved in zip(self._levels, state["levels"]):
                size = len(saved["epoch"])
                level._ensure_capacity(size)
                level.size = size
                level.epoch[:size] = saved["epoch"]
                level.samples[:size] = saved["samples"]
                for channel, fields in saved["channels"].items():
                    buckets = level.channels[channel]
                    for name, matrix in fields.items():
                        getattr(buckets, name)[:size] = matrix
            self._version = int(state["version"])
            self._mutations = collections.deque(
                state["mutations"], maxlen=_MUTATION_HISTORY
            )
            self.ingested_rows = int(state["ingested_rows"])

    # -- versioning / invalidation ------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic ingest counter: one bump per :meth:`add_block` call
        (:meth:`add` is a one-row block).  A store built by
        :meth:`from_database` therefore starts at one version per
        ``_INGEST_BLOCK_ROWS``-row block, not one per row."""
        with self._lock:
            return self._version

    def earliest_mutation_since(self, version: int) -> float:
        """Oldest timestamp touched by any ingest after ``version``.

        Returns ``+inf`` when nothing changed and ``-inf`` when the
        bounded history no longer covers ``version`` (callers must
        then treat everything as potentially stale).
        """
        with self._lock:
            if version >= self._version:
                return np.inf if version == self._version else -np.inf
            earliest = np.inf
            complete = False
            for mutated_version, epoch_s in reversed(self._mutations):
                if mutated_version <= version:
                    complete = True
                    break
                earliest = min(earliest, epoch_s)
            if not complete:
                # History must reach back to version + 1 to be trusted.
                if not self._mutations or self._mutations[0][0] > version + 1:
                    return -np.inf
            return earliest

    # -- query surface ------------------------------------------------------------

    def level_resolutions(self) -> Tuple[float, ...]:
        return self.resolutions_s

    def epoch_bounds(self) -> Optional[Tuple[float, float]]:
        """Covered time range ``(first, last)`` on the finest level.

        ``first`` is the start of the earliest bucket and ``last`` the
        end of the latest, so ``[first, last)`` tiles exactly onto
        finest-level buckets; ``None`` while the store is empty.  The
        HTTP ``/healthz`` route advertises this so remote clients (the
        load generator in particular) can aim queries at real data.
        """
        with self._lock:
            level = self._levels[0]
            if level.size == 0:
                return None
            return (
                float(level.epoch[0]),
                float(level.epoch[level.size - 1] + level.resolution_s),
            )

    def snap_resolution(self, start_epoch_s: float, end_epoch_s: float) -> float:
        """The coarsest resolution whose buckets tile ``[start, end)``.

        Falls back to the finest level for windows aligned to no
        level (answers are then bucket-start selected, i.e. exact
        whenever the stream cadence is a multiple of the finest
        resolution).
        """
        for resolution in reversed(self.resolutions_s):
            if (
                start_epoch_s % resolution == 0.0
                and end_epoch_s % resolution == 0.0
            ):
                return resolution
        return self.resolutions_s[0]

    def _level(self, resolution_s: float) -> _Level:
        for level in self._levels:
            if level.resolution_s == resolution_s:
                return level
        raise KeyError(
            f"no rollup level at {resolution_s}s; have {self.resolutions_s}"
        )

    def window(
        self,
        resolution_s: float,
        channel: Channel,
        start_epoch_s: float,
        end_epoch_s: float,
    ) -> BucketWindow:
        """A consistent copy of one channel's buckets in ``[start, end)``.

        Buckets are selected by bucket *start* timestamp.  An empty
        window returns zero-length arrays rather than raising.

        Raises:
            KeyError: when no level exists at ``resolution_s``.
        """
        with self._lock:
            level = self._level(resolution_s)
            epochs = level.epoch[: level.size]
            lo = int(np.searchsorted(epochs, start_epoch_s, side="left"))
            hi = int(np.searchsorted(epochs, end_epoch_s, side="left"))
            buckets = level.channels[channel]
            return BucketWindow(
                resolution_s=level.resolution_s,
                version=self._version,
                epoch=epochs[lo:hi].copy(),
                samples=level.samples[lo:hi].copy(),
                minimum=buckets.minimum[lo:hi].copy(),
                maximum=buckets.maximum[lo:hi].copy(),
                total=buckets.total[lo:hi].copy(),
                count=buckets.count[lo:hi].copy(),
                usable=buckets.usable[lo:hi].copy(),
            )

    def bucket_counts(self) -> Dict[float, int]:
        """Buckets held per resolution (observability)."""
        with self._lock:
            return {level.resolution_s: level.size for level in self._levels}
