"""The columnar rollup fold is bit-identical to a row-by-row fold.

:meth:`RollupStore.add_block` reduces whole blocks at once, and
``from_database`` / ``ingest_database`` fold a database through it in
large blocks.  These tests pin every level, channel and field of the
result with ``np.array_equal`` against a test-local reference that
folds one row at a time, in arrival order, into buckets keyed by start
— so neither block size, nor merges into an existing bucket, nor late
and shuffled rows may move a single bit of a total.
"""

import numpy as np
import pytest

from repro.service import DEFAULT_RESOLUTIONS_S, RollupStore
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry.records import CHANNELS, Channel, Quality

_FIELDS = ("minimum", "maximum", "total", "count", "usable")
_USABLE = (int(Quality.OK), int(Quality.SUSPECT))


class _ReferenceFold:
    """Row-at-a-time rollups: one dict of buckets per resolution."""

    def __init__(self, num_racks, resolutions_s=DEFAULT_RESOLUTIONS_S):
        self.num_racks = num_racks
        self.levels = {float(r): {} for r in resolutions_s}

    def _bucket(self, resolution_s, epoch_s):
        start = float(np.floor(epoch_s / resolution_s) * resolution_s)
        buckets = self.levels[resolution_s]
        if start not in buckets:
            racks = self.num_racks
            buckets[start] = {
                "samples": 0,
                "channels": {
                    ch: {
                        "minimum": np.full(racks, np.nan),
                        "maximum": np.full(racks, np.nan),
                        "total": np.zeros(racks),
                        "count": np.zeros(racks, dtype=np.int64),
                        "usable": np.zeros(racks, dtype=np.int64),
                    }
                    for ch in CHANNELS
                },
            }
        return buckets[start]

    def add(self, epoch_s, values, quality):
        for resolution_s in self.levels:
            bucket = self._bucket(resolution_s, epoch_s)
            bucket["samples"] += 1
            for channel, vector in values.items():
                acc = bucket["channels"][channel]
                finite = np.isfinite(vector)
                acc["minimum"] = np.fmin(acc["minimum"], vector)
                acc["maximum"] = np.fmax(acc["maximum"], vector)
                acc["total"] = acc["total"] + np.where(finite, vector, 0.0)
                acc["count"] = acc["count"] + finite
                if quality is not None and channel in quality:
                    flags = quality[channel]
                    usable = (flags == _USABLE[0]) | (flags == _USABLE[1])
                else:
                    usable = finite
                acc["usable"] = acc["usable"] + usable

    def add_rows(self, epochs, values, quality=None):
        for i, epoch_s in enumerate(epochs):
            self.add(
                float(epoch_s),
                {ch: block[i] for ch, block in values.items()},
                None
                if quality is None
                else {ch: block[i] for ch, block in quality.items()},
            )


def _assert_identical(store, reference):
    assert store.resolutions_s == tuple(reference.levels)
    for resolution_s, buckets in reference.levels.items():
        starts = sorted(buckets)
        for channel in CHANNELS:
            window = store.window(resolution_s, channel, -np.inf, np.inf)
            assert np.array_equal(window.epoch, starts)
            assert np.array_equal(
                window.samples, [buckets[s]["samples"] for s in starts]
            )
            for field in _FIELDS:
                expected = np.array(
                    [buckets[s]["channels"][channel][field] for s in starts]
                ).reshape(len(starts), store.num_racks)
                assert np.array_equal(
                    getattr(window, field), expected, equal_nan=True
                ), f"{field} of {channel.column} at {resolution_s:g} s"


def _database_rows(database, start=-np.inf, end=np.inf):
    epochs = database.epoch_s
    keep = (epochs >= start) & (epochs < end)
    values = {ch: database.channel(ch).values[keep] for ch in CHANNELS}
    quality = {ch: database.quality(ch)[keep] for ch in CHANNELS}
    return epochs[keep], values, quality


class TestDatabaseBuild:
    def test_from_database_faulted(self, faulted_result):
        database = faulted_result.database
        reference = _ReferenceFold(database.num_racks)
        reference.add_rows(*_database_rows(database))
        _assert_identical(RollupStore.from_database(database), reference)

    def test_windowed_ingest_faulted(self, faulted_result):
        database = faulted_result.database
        start = faulted_result.start_epoch_s + 3 * 86_400.0 + 5_400.0
        end = start + 11 * 86_400.0 + 1_800.0
        store = RollupStore(database.num_racks)
        assert store.ingest_database(database, start, end) > 0
        reference = _ReferenceFold(database.num_racks)
        reference.add_rows(*_database_rows(database, start, end))
        _assert_identical(store, reference)

    @pytest.mark.parametrize("dt_s", [300.0, 1800.0, 3600.0])
    def test_from_database_clean(self, dt_s):
        database = FacilityEngine(
            MiraScenario.demo(days=6, seed=4, dt_s=dt_s)
        ).run().database
        reference = _ReferenceFold(database.num_racks)
        reference.add_rows(*_database_rows(database))
        _assert_identical(RollupStore.from_database(database), reference)


def _synthetic(rng, n, racks, dt_s=300.0):
    epochs = np.arange(n) * dt_s
    values = {
        ch: rng.normal(50.0, 20.0, size=(n, racks)) * rng.lognormal(size=(n, 1))
        for ch in (Channel.POWER, Channel.FLOW)
    }
    values[Channel.POWER][rng.random(size=(n, racks)) < 0.05] = np.nan
    flags = np.where(
        np.isfinite(values[Channel.POWER]), int(Quality.OK), int(Quality.MISSING)
    ).astype(np.uint8)
    flags[rng.random(size=flags.shape) < 0.05] = int(Quality.SCRUBBED)
    flags[rng.random(size=flags.shape) < 0.05] = int(Quality.SUSPECT)
    return epochs, values, {Channel.POWER: flags}


class TestArrivalOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks_late_and_shuffled(self, seed):
        """Late rows and shuffled blocks, split at random points."""
        rng = np.random.default_rng(seed)
        racks, n = 3, 1500
        epochs, values, quality = _synthetic(rng, n, racks)
        # Arrival order: in order, except that a few stretches arrive
        # late (after later rows) and a few blocks arrive shuffled.
        arrival = np.arange(n)
        for _ in range(4):
            lo = int(rng.integers(0, n - 200))
            width = int(rng.integers(20, 200))
            late = arrival[lo : lo + width].copy()
            rest = np.delete(arrival, np.arange(lo, lo + width))
            at = int(rng.integers(lo, len(rest)))
            arrival = np.concatenate([rest[:at], late, rest[at:]])
        for _ in range(4):
            lo = int(rng.integers(0, n - 300))
            rng.shuffle(arrival[lo : lo + int(rng.integers(30, 300))])
        cuts = np.sort(rng.choice(np.arange(1, n), size=25, replace=False))

        store = RollupStore(racks)
        reference = _ReferenceFold(racks)
        for rows in np.split(arrival, cuts):
            block = (
                epochs[rows],
                {ch: v[rows] for ch, v in values.items()},
                {ch: q[rows] for ch, q in quality.items()},
            )
            store.add_block(*block)
            reference.add_rows(*block)
        _assert_identical(store, reference)

    def test_one_row_adds(self):
        rng = np.random.default_rng(5)
        epochs, values, quality = _synthetic(rng, 400, 2, dt_s=450.0)
        order = rng.permutation(len(epochs))
        store = RollupStore(2)
        reference = _ReferenceFold(2)
        for i in order:
            row = {ch: v[i] for ch, v in values.items()}
            flags = {ch: q[i] for ch, q in quality.items()}
            store.add(float(epochs[i]), row, flags)
            reference.add(float(epochs[i]), row, flags)
        _assert_identical(store, reference)
        assert store.version == len(epochs)
