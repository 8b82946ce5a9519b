"""Bit-identity pin for the engine's sequential pass.

The allocator keeps an O(1) free-midplane count and serves its order
variants from block draws; the scheduler accumulates per-rack occupancy
in Python float lists and hands out raw snapshots; the engine derives
the rack vectors and the power mask for the whole grid after its loop.
This module keeps a test-local copy of the code those replaced:

* an allocator that rebuilds the whole free list on every attempt and
  makes one scalar ``integers`` draw per attempt, with numpy ``_blocked``;
* numpy ``_rack_busy``/``_rack_intensity_sum`` accumulators with
  per-step ``_rack_vectors`` and the deque-copying backfill scan;
* the per-step engine loop with numpy ``recovered``/``powered`` masks;

and drives both side by side (maintenance windows, reservation holes,
rack failures and recoveries overlapping reservations), requiring
exactly equal rack vectors, placements, accounting and dataset digests.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from typing import List

import numpy as np
import pytest

from repro import constants, timeutil
from repro.faults import FaultConfig
from repro.facility.topology import MiraTopology
from repro.scheduler.allocator import (
    MIDPLANES_PER_RACK,
    TOTAL_MIDPLANES,
    MidplaneAllocator,
    rack_of_midplane,
)
from repro.scheduler.queues import QueueName
from repro.scheduler.scheduler import MaintenancePolicy, MiraScheduler, ReservationPolicy
from repro.scheduler.workload import WorkloadGenerator
from repro.simulation import FacilityEngine, MiraScenario


class _ReferenceAllocator(MidplaneAllocator):
    """Whole-list free scan and one scalar variant draw per attempt."""

    def __init__(self, topology=None, rng=None):
        super().__init__(topology, rng)
        self._blocked = np.zeros(TOTAL_MIDPLANES, dtype=bool)

    def block_racks(self, rack_indices):
        for rack in rack_indices:
            for mp in (rack * MIDPLANES_PER_RACK, rack * MIDPLANES_PER_RACK + 1):
                self._blocked[mp] = True

    def unblock_racks(self, rack_indices):
        for rack in rack_indices:
            for mp in (rack * MIDPLANES_PER_RACK, rack * MIDPLANES_PER_RACK + 1):
                self._blocked[mp] = False

    def free_midplanes(self, queue: QueueName) -> List[int]:
        variants = self._order_by_row[queue.preferred_row]
        order = variants[int(self._rng.integers(len(variants)))]
        return [
            mp for mp in order if self._owner[mp] is None and not self._blocked[mp]
        ]

    def free_count(self) -> int:
        return sum(
            1
            for mp in range(TOTAL_MIDPLANES)
            if self._owner[mp] is None and not self._blocked[mp]
        )

    def try_allocate(self, job):
        candidates = self.free_midplanes(job.queue)
        if len(candidates) < job.midplanes:
            return None
        chosen = tuple(candidates[: job.midplanes])
        for mp in chosen:
            self._owner[mp] = job.job_id
        return chosen

    def claim(self, job_id, midplane_ids):
        for mp in midplane_ids:
            if self._owner[mp] is not None:
                raise ValueError(f"midplane {mp} already owned by {self._owner[mp]}")
        for mp in midplane_ids:
            self._owner[mp] = job_id

    def release(self, job):
        for mp in job.assigned_midplanes:
            if self._owner[mp] != job.job_id:
                raise ValueError(f"midplane {mp} not owned by job {job.job_id}")
            self._owner[mp] = None


@dataclasses.dataclass(frozen=True)
class _ReferenceState:
    """The per-step output with per-step numpy rack vectors."""

    epoch_s: float
    rack_utilization: np.ndarray
    rack_intensity: np.ndarray
    in_maintenance: bool
    running_jobs: int
    queued_jobs: int


class _ReferenceScheduler(MiraScheduler):
    """Numpy accumulators, per-step ``_rack_vectors``, copying backfill."""

    def __init__(self, workload, rng=None, topology=None, **kwargs):
        topology = topology if topology is not None else MiraTopology()
        super().__init__(
            workload,
            rng=rng,
            allocator=_ReferenceAllocator(topology),
            topology=topology,
            **kwargs,
        )
        self._rack_busy = np.zeros(constants.NUM_RACKS)
        self._rack_intensity_sum = np.zeros(constants.NUM_RACKS)

    def _occupy(self, job, epoch_s, placement):
        job.start(epoch_s, placement)
        self.stats.on_start(job, epoch_s)
        for mp in job.assigned_midplanes:
            rack = rack_of_midplane(mp)
            self._rack_busy[rack] += 1.0
            self._rack_intensity_sum[rack] += job.intensity

    def _vacate(self, job, killed_at=None):
        if killed_at is None:
            job.complete()
            self.stats.on_complete(job)
        else:
            job.kill(killed_at)
            self.stats.on_kill(job)
        self.allocator.release(job)
        for mp in job.assigned_midplanes:
            rack = rack_of_midplane(mp)
            self._rack_busy[rack] -= 1.0
            self._rack_intensity_sum[rack] -= job.intensity

    def _schedule(self, epoch_s):
        while self._queue:
            if not self._start_job(self._queue[0], epoch_s):
                break
            self._queue.popleft()
        if not self._queue:
            return
        head = self._queue[0]
        shadow = self._shadow_time(epoch_s, head.midplanes)
        scan = list(self._queue)[1 : 1 + self.backfill_depth]
        for job in scan:
            if epoch_s + job.walltime_s > shadow:
                continue
            if self._start_job(job, epoch_s):
                self._queue.remove(job)

    def _rack_vectors(self):
        busy = self._rack_busy
        utilization = busy / MIDPLANES_PER_RACK
        intensity = np.where(
            busy > 0.5, self._rack_intensity_sum / np.maximum(busy, 1.0), 1.0
        )
        return utilization, intensity

    def step(self, epoch_s, dt_s, arrivals=None):
        state = super().step(epoch_s, dt_s, arrivals=arrivals)
        utilization, intensity = self._rack_vectors()
        return _ReferenceState(
            epoch_s=epoch_s,
            rack_utilization=utilization,
            rack_intensity=intensity,
            in_maintenance=state.in_maintenance,
            running_jobs=state.running_jobs,
            queued_jobs=state.queued_jobs,
        )


class _ReferenceEngine(FacilityEngine):
    """The engine with the reference scheduler and per-step masks."""

    def __init__(self, config):
        super().__init__(config)
        # The engine's scheduler has drawn nothing yet; hand its
        # generator to the reference so both consume the same stream.
        self.scheduler = _ReferenceScheduler(
            self.workload, rng=self.scheduler._rng, topology=self.machine.topology
        )

    def _sequential_pass(self, grid, arrivals_by_step):
        cfg = self.config
        num_steps, num_racks = len(grid), constants.NUM_RACKS
        if self.schedule is not None:
            cmf_times, cmf_racks, _ = self.schedule.event_time_matrix()
            cmf_recoveries = np.array(
                [e.recovery_epoch_s for e in self.schedule.events]
            )
        else:
            cmf_times = np.empty(0)
            cmf_racks = np.empty(0, dtype=int)
            cmf_recoveries = np.empty(0)
        cmf_pointer = 0
        noncmf_pointer = 0
        down_until = np.zeros(num_racks)
        blocked_by_failure = np.zeros(num_racks, dtype=bool)
        utilization = np.empty((num_steps, num_racks))
        intensity = np.empty((num_steps, num_racks))
        powered_mask = np.empty((num_steps, num_racks), dtype=bool)
        num_cmfs = len(cmf_times)
        num_noncmf = len(self.noncmf_failures)
        for index in range(num_steps):
            t = grid[index]
            recovered = blocked_by_failure & (down_until <= t)
            if recovered.any():
                racks = tuple(int(i) for i in np.flatnonzero(recovered))
                self.scheduler.recover_racks(racks)
                blocked_by_failure[list(racks)] = False
            while cmf_pointer < num_cmfs and cmf_times[cmf_pointer] < t + cfg.dt_s:
                rack = int(cmf_racks[cmf_pointer])
                self.scheduler.fail_racks((rack,), float(cmf_times[cmf_pointer]))
                down_until[rack] = max(down_until[rack], cmf_recoveries[cmf_pointer])
                blocked_by_failure[rack] = True
                cmf_pointer += 1
            while (
                noncmf_pointer < num_noncmf
                and self.noncmf_failures[noncmf_pointer].epoch_s < t + cfg.dt_s
            ):
                failure = self.noncmf_failures[noncmf_pointer]
                rack = failure.rack_id.flat_index
                self.scheduler.fail_racks((rack,), failure.epoch_s)
                down_until[rack] = max(
                    down_until[rack], failure.epoch_s + constants.NONCMF_DEDUP_WINDOW_S
                )
                blocked_by_failure[rack] = True
                noncmf_pointer += 1
            powered = down_until <= t
            state = self.scheduler.step(t, cfg.dt_s, arrivals=arrivals_by_step[index])
            utilization[index] = np.where(powered, state.rack_utilization, 0.0)
            intensity[index] = state.rack_intensity
            powered_mask[index] = powered
        return utilization, intensity, powered_mask


def _stats_view(stats):
    return (
        {queue: dataclasses.asdict(stats.queue(queue)) for queue in QueueName},
        list(stats._queue_depth_samples),
        stats.summary(),
    )


def _scheduler_pair(seed: int, start_epoch_s: float, end_epoch_s: float):
    """A new and a reference scheduler fed identical random streams."""

    def build(cls):
        workload = WorkloadGenerator(
            rng=np.random.default_rng(seed),
            production_start_epoch_s=start_epoch_s,
            production_end_epoch_s=end_epoch_s,
        )
        return cls(
            workload,
            rng=np.random.default_rng(seed + 1),
            maintenance=MaintenancePolicy(probability=1.0),
            reservations=ReservationPolicy(rate_per_day=1.5),
        )

    return build(MiraScheduler), build(_ReferenceScheduler)


class TestSchedulerSideBySide:
    """Every step's vectors, placements and counts match the reference."""

    @pytest.mark.parametrize("dt_s", [300.0, 1800.0, 3600.0])
    def test_steps_match_reference(self, dt_s):
        start = timeutil.to_epoch(dt.datetime(2015, 3, 1))
        end = start + 21 * timeutil.DAY_S
        new, ref = _scheduler_pair(seed=31, start_epoch_s=start, end_epoch_s=end)
        driver = np.random.default_rng(int(dt_s))
        recover_at: dict = {}
        seen = {"maintenance": 0, "reserved_failure": 0, "reserved_recovery": 0}
        for t in np.arange(start, end, dt_s):
            t = float(t)
            due = tuple(sorted(r for r, when in recover_at.items() if when <= t))
            if due:
                seen["reserved_recovery"] += bool(set(due) & set(new._reserved_racks))
                new.recover_racks(due)
                ref.recover_racks(due)
                for rack in due:
                    del recover_at[rack]
            if driver.random() < 0.02 * dt_s / 300.0:
                reserved = new._reserved_racks
                if reserved and driver.random() < 0.6:
                    rack = int(reserved[driver.integers(len(reserved))])
                    seen["reserved_failure"] += 1
                else:
                    rack = int(driver.integers(constants.NUM_RACKS))
                assert new.fail_racks((rack,), t) == ref.fail_racks((rack,), t)
                recover_at[rack] = t + float(driver.uniform(0.5, 8.0)) * timeutil.HOUR_S
            a = new.step(t, dt_s)
            b = ref.step(t, dt_s)
            assert np.array_equal(a.rack_utilization, b.rack_utilization)
            assert np.array_equal(a.rack_intensity, b.rack_intensity)
            assert (a.in_maintenance, a.running_jobs, a.queued_jobs) == (
                b.in_maintenance,
                b.running_jobs,
                b.queued_jobs,
            )
            assert new.allocator.midplane_owners() == ref.allocator.midplane_owners()
            assert new.allocator.free_count() == ref.allocator.free_count()
            assert new.allocator.blocked_racks == ref.allocator.blocked_racks
            seen["maintenance"] += a.in_maintenance
        assert _stats_view(new.stats) == _stats_view(ref.stats)
        assert (new.completed_count, new.killed_count) == (
            ref.completed_count,
            ref.killed_count,
        )
        # The run exercised every path the pin is about.
        assert all(count > 0 for count in seen.values()), seen


def _assert_engines_match(config):
    new = FacilityEngine(config)
    ref = _ReferenceEngine(config)
    a, b = new.run(), ref.run()
    assert a.database.dataset_digest() == b.database.dataset_digest()
    assert (a.jobs_completed, a.jobs_killed) == (b.jobs_completed, b.jobs_killed)
    assert _stats_view(new.scheduler.stats) == _stats_view(ref.scheduler.stats)


class TestEngineDigests:
    """Whole runs: the dataset digest matches the reference engine."""

    @pytest.mark.parametrize("dt_s", [300.0, 1800.0, 3600.0])
    def test_demo_120(self, dt_s):
        _assert_engines_match(MiraScenario.demo(days=120, seed=11, dt_s=dt_s))

    def test_faults(self):
        config = dataclasses.replace(
            MiraScenario.demo(days=60, seed=3), faults=FaultConfig()
        )
        _assert_engines_match(config)

    def test_two_years_with_failures(self):
        config = MiraScenario.demo(days=730, seed=5)
        assert FacilityEngine(config).schedule.events  # CMFs fire in this run
        _assert_engines_match(config)

    def test_failures_disabled(self):
        config = dataclasses.replace(
            MiraScenario.demo(days=30, seed=2), inject_failures=False
        )
        _assert_engines_match(config)
