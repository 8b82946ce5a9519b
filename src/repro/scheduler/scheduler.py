"""The stepping scheduler: queues, EASY backfill, maintenance, burners.

:class:`MiraScheduler` advances in discrete time steps.  Each step it

1. opens/closes the Monday maintenance window (killing user jobs and
   covering the racks with *burner* jobs — the paper's Section III-B
   workaround for cold-coolant damage to idle CPUs),
2. opens/closes random *reservation holes* (racks reserved for projects
   that underuse them — one of the paper's causes of transient
   utilization drops),
3. completes running jobs whose walltime has elapsed,
4. admits new arrivals from the :class:`WorkloadGenerator`, and
5. starts queued jobs FCFS with EASY backfill (head job gets a shadow
   reservation; later jobs may jump ahead only if they fit now and end
   before the shadow time).

The step output is the per-rack utilization and busy-intensity vectors
that the power/cooling models consume.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro import constants, timeutil
from repro.facility.topology import MiraTopology
from repro.scheduler.allocator import (
    MIDPLANES_PER_RACK,
    MidplaneAllocator,
    TOTAL_MIDPLANES,
    rack_of_midplane,
)
from repro.scheduler.jobs import Job, JobState
from repro.scheduler.queues import QueueName
from repro.scheduler.stats import SchedulingStats
from repro.scheduler.workload import WorkloadGenerator


@dataclasses.dataclass(frozen=True)
class MaintenancePolicy:
    """When and how maintenance windows run.

    Attributes:
        weekday: Day of week (Monday == 0) maintenance may start.
        start_hour: Local hour at which the window opens (9 AM).
        probability: Chance a given Monday actually has maintenance
            (the paper: "does not need to be scheduled every week").
        min_hours/max_hours: Window duration range (6-10 h).
        burner_coverage: Fraction of midplanes kept busy by burner
            jobs during the window.
        burner_intensity: CPU intensity of burner jobs (light compared
            to production, so power drops during maintenance even
            though nodes stay warm).
    """

    weekday: int = constants.MAINTENANCE_WEEKDAY
    start_hour: int = constants.MAINTENANCE_START_HOUR
    probability: float = 0.75
    min_hours: float = float(constants.MAINTENANCE_MIN_HOURS)
    max_hours: float = float(constants.MAINTENANCE_MAX_HOURS)
    burner_coverage: float = 0.82
    burner_intensity: float = 0.65

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.min_hours > self.max_hours:
            raise ValueError("min_hours exceeds max_hours")
        if not 0.0 <= self.burner_coverage <= 1.0:
            raise ValueError("burner_coverage must be in [0, 1]")


@dataclasses.dataclass(frozen=True)
class ReservationPolicy:
    """Random underused-reservation events (transient utilization holes)."""

    rate_per_day: float = 0.08
    min_racks: int = 2
    max_racks: int = 6
    min_hours: float = 4.0
    max_hours: float = 12.0


@dataclasses.dataclass(frozen=True)
class SchedulerState:
    """Per-step scheduler output consumed by the telemetry models.

    Carries raw per-rack snapshots (busy midplanes, their summed
    intensity); the rack vectors derive from them on access.
    """

    epoch_s: float
    rack_busy: Tuple[float, ...]
    rack_intensity_sum: Tuple[float, ...]
    in_maintenance: bool
    running_jobs: int
    queued_jobs: int

    @property
    def rack_utilization(self) -> np.ndarray:
        """Fraction of each rack's midplanes running a job."""
        return np.asarray(self.rack_busy) / MIDPLANES_PER_RACK

    @property
    def rack_intensity(self) -> np.ndarray:
        """Mean CPU intensity of each rack's busy midplanes (1.0 if idle)."""
        busy, load = np.asarray(self.rack_busy), np.asarray(self.rack_intensity_sum)
        return np.where(busy > 0.5, load / np.maximum(busy, 1.0), 1.0)

    @property
    def system_utilization(self) -> float:
        """Machine-wide fraction of busy nodes."""
        return float(np.mean(self.rack_utilization))


class MiraScheduler:
    """Discrete-time queueing scheduler over the 96 midplanes.

    Args:
        workload: Arrival generator.
        rng: Randomness for maintenance/reservation draws.
        allocator: Midplane allocator; a fresh one is built if omitted.
        maintenance: Maintenance window policy.
        reservations: Reservation-hole policy.
        backfill_depth: How many queued jobs behind the head are
            examined for backfill each step.
        queue_cap: Beyond this queue depth new arrivals are shed
            (users throttle submissions against a saturated queue);
            bounds memory and keeps long simulations fast.
    """

    def __init__(
        self,
        workload: WorkloadGenerator,
        rng: Optional[np.random.Generator] = None,
        allocator: Optional[MidplaneAllocator] = None,
        maintenance: Optional[MaintenancePolicy] = None,
        reservations: Optional[ReservationPolicy] = None,
        topology: Optional[MiraTopology] = None,
        backfill_depth: int = 64,
        queue_cap: int = 200,
    ) -> None:
        self.workload = workload
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.topology = topology if topology is not None else MiraTopology()
        self.allocator = (
            allocator if allocator is not None else MidplaneAllocator(self.topology)
        )
        self.maintenance = maintenance if maintenance is not None else MaintenancePolicy()
        self.reservations = (
            reservations if reservations is not None else ReservationPolicy()
        )
        self.backfill_depth = backfill_depth
        self.queue_cap = queue_cap

        self._queue: Deque[Job] = collections.deque()
        #: Jobs killed by maintenance, waiting for their owners to
        #: resubmit them: heap of (resubmit_epoch_s, job_id, job).
        self._delayed: List[Tuple[float, int, Job]] = []
        #: Heap of (end_epoch_s, job_id, job) for running jobs.
        self._running: List[Tuple[float, int, Job]] = []
        self._burners: List[Job] = []
        self._maintenance_until: Optional[float] = None
        self._reservation_until: Optional[float] = None
        self._reserved_racks: Tuple[int, ...] = ()
        self._completed_count = 0
        self._killed_count = 0
        #: Per-queue job accounting (wait times, throughput, losses).
        self.stats = SchedulingStats()
        #: Incremental per-rack occupancy accumulators, maintained on
        #: every job start/release so the per-step rack vectors cost
        #: O(racks) instead of O(running jobs x midplanes).
        self._rack_busy = [0.0] * constants.NUM_RACKS
        self._rack_intensity_sum = [0.0] * constants.NUM_RACKS

    # -- introspection -------------------------------------------------------

    @property
    def queued_jobs(self) -> Tuple[Job, ...]:
        return tuple(self._queue)

    @property
    def running_jobs(self) -> Tuple[Job, ...]:
        return tuple(job for _, _, job in self._running)

    @property
    def in_maintenance(self) -> bool:
        return self._maintenance_until is not None

    @property
    def completed_count(self) -> int:
        return self._completed_count

    @property
    def killed_count(self) -> int:
        return self._killed_count

    # -- occupancy accounting --------------------------------------------------

    def _occupy(self, job: Job, epoch_s: float, placement: Tuple[int, ...]) -> None:
        """Start a placed job and add its midplanes to the accumulators."""
        job.start(epoch_s, placement)
        self.stats.on_start(job, epoch_s)
        busy, load, intensity = self._rack_busy, self._rack_intensity_sum, job.intensity
        for mp in job.assigned_midplanes:
            rack = mp // MIDPLANES_PER_RACK
            busy[rack] += 1.0
            load[rack] += intensity

    def _vacate(self, job: Job, killed_at: Optional[float] = None) -> None:
        """Complete (or kill, at ``killed_at``) a running job and free it."""
        if killed_at is None:
            job.complete()
            self.stats.on_complete(job)
        else:
            job.kill(killed_at)
            self.stats.on_kill(job)
        self.allocator.release(job)
        busy, load, intensity = self._rack_busy, self._rack_intensity_sum, job.intensity
        for mp in job.assigned_midplanes:
            rack = mp // MIDPLANES_PER_RACK
            busy[rack] -= 1.0
            load[rack] -= intensity

    # -- maintenance window ----------------------------------------------------

    def _maintenance_starts_now(self, epoch_s: float, dt_s: float) -> bool:
        """Whether a maintenance window opens during this step."""
        # Inline weekday arithmetic (1970-01-01 was a Thursday): this
        # runs every step, and the numpy datetime64 route in
        # timeutil.weekdays costs microseconds per scalar call.
        weekday = (int(epoch_s // timeutil.DAY_S) + 3) % 7
        if weekday != self.maintenance.weekday:
            return False
        hour = (epoch_s % timeutil.DAY_S) / timeutil.HOUR_S
        start = float(self.maintenance.start_hour)
        if not (hour <= start < hour + dt_s / timeutil.HOUR_S):
            return False
        # Deterministic per-week draw so dt does not change the schedule.
        week_index = int(epoch_s // timeutil.WEEK_S)
        week_rng = np.random.default_rng(
            np.random.SeedSequence([811_213, week_index])
        )
        return bool(week_rng.random() < self.maintenance.probability)

    def _maintenance_duration_s(self, epoch_s: float) -> float:
        week_index = int(epoch_s // timeutil.WEEK_S)
        week_rng = np.random.default_rng(
            np.random.SeedSequence([577_131, week_index])
        )
        hours = week_rng.uniform(self.maintenance.min_hours, self.maintenance.max_hours)
        return float(hours) * timeutil.HOUR_S

    def _enter_maintenance(self, epoch_s: float) -> None:
        self._maintenance_until = epoch_s + self._maintenance_duration_s(epoch_s)
        # Kill all running user jobs.  Their owners resubmit over the
        # following day rather than instantly (avoiding an artificial
        # post-maintenance utilization spike).
        for _, _, job in self._running:
            self._killed_count += 1
            self._vacate(job, killed_at=epoch_s)
            resubmit_at = epoch_s + float(self._rng.uniform(0.0, timeutil.DAY_S))
            requeued = dataclasses.replace(
                job,
                state=JobState.QUEUED,
                start_epoch_s=None,
                end_epoch_s=None,
                assigned_midplanes=(),
                submit_epoch_s=resubmit_at,
            )
            heapq.heappush(self._delayed, (resubmit_at, requeued.job_id, requeued))
        self._running.clear()
        # Cover the machine with burner jobs to keep nodes warm.
        duration = self._maintenance_until - epoch_s
        count = int(round(self.maintenance.burner_coverage * TOTAL_MIDPLANES))
        free = self.allocator.free_midplanes(QueueName.BURNER)[:count]
        for mp in free:
            burner = self.workload.make_burner_job(
                epoch_s, duration, self.maintenance.burner_intensity
            )
            self.allocator.claim(burner.job_id, (mp,))
            self._occupy(burner, epoch_s, (mp,))
            self._burners.append(burner)

    def _exit_maintenance(self, epoch_s: float) -> None:
        self._maintenance_until = None
        for burner in self._burners:
            self._vacate(burner)
        self._burners.clear()

    # -- reservation holes ---------------------------------------------------------

    def _maybe_open_reservation(self, epoch_s: float, dt_s: float) -> None:
        if self._reservation_until is not None:
            return
        expected = self.reservations.rate_per_day * dt_s / 86_400.0
        if self._rng.random() >= expected:
            return
        count = int(
            self._rng.integers(self.reservations.min_racks, self.reservations.max_racks + 1)
        )
        racks = tuple(
            int(r)
            for r in self._rng.choice(constants.NUM_RACKS, size=count, replace=False)
        )
        hours = float(
            self._rng.uniform(self.reservations.min_hours, self.reservations.max_hours)
        )
        self._reserved_racks = racks
        self._reservation_until = epoch_s + hours * timeutil.HOUR_S
        self.allocator.block_racks(racks)

    def _maybe_close_reservation(self, epoch_s: float) -> None:
        if self._reservation_until is not None and epoch_s >= self._reservation_until:
            self.allocator.unblock_racks(self._reserved_racks)
            self._reserved_racks = ()
            self._reservation_until = None

    # -- job flow ---------------------------------------------------------------------

    def _complete_finished(self, epoch_s: float) -> None:
        while self._running and self._running[0][0] <= epoch_s:
            _, _, job = heapq.heappop(self._running)
            self._completed_count += 1
            self._vacate(job)

    def _start_job(self, job: Job, epoch_s: float) -> bool:
        placement = self.allocator.try_allocate(job)
        if placement is None:
            return False
        self._occupy(job, epoch_s, placement)
        heapq.heappush(self._running, (job.end_epoch_s, job.job_id, job))
        return True

    def _shadow_time(self, epoch_s: float, needed: int) -> float:
        """Earliest time ``needed`` midplanes will be free (EASY reservation)."""
        free = self.allocator.free_count()
        if free >= needed:
            return epoch_s
        for end, _, job in sorted(self._running):
            free += job.midplanes
            if free >= needed:
                return end
        return float("inf")

    def _schedule(self, epoch_s: float) -> None:
        """FCFS + EASY backfill over the queue."""
        # Start jobs FCFS while they fit.
        while self._queue:
            if not self._start_job(self._queue[0], epoch_s):
                break
            self._queue.popleft()
        if not self._queue:
            return
        # Head job blocked: compute its shadow time, then backfill.
        head = self._queue[0]
        shadow = self._shadow_time(epoch_s, head.midplanes)
        started = [
            position
            for position, job in enumerate(
                itertools.islice(self._queue, 1, 1 + self.backfill_depth), start=1
            )
            if epoch_s + job.walltime_s <= shadow and self._start_job(job, epoch_s)
        ]
        for position in reversed(started):
            del self._queue[position]

    # -- rack outages (failure path) --------------------------------------------------------

    def fail_racks(self, rack_indices: Tuple[int, ...], epoch_s: float) -> int:
        """Take racks down: kill jobs touching them, block allocation.

        Called by the simulation engine when a CMF (or cascading
        failure) shuts racks off.  Jobs are killed, not requeued — the
        paper's point is that CMFs kill hundreds of jobs outright.

        Returns:
            The number of jobs killed.
        """
        failed = set(rack_indices)
        killed = 0
        survivors: List[Tuple[float, int, Job]] = []
        for end, job_id, job in self._running:
            touches = any(rack_of_midplane(mp) in failed for mp in job.assigned_midplanes)
            if touches:
                self._killed_count += 1
                killed += 1
                self._vacate(job, killed_at=epoch_s)
            else:
                survivors.append((end, job_id, job))
        self._running = survivors
        heapq.heapify(self._running)
        # Burner jobs on failed racks die too.
        doomed_burners = [
            b
            for b in self._burners
            if any(rack_of_midplane(mp) in failed for mp in b.assigned_midplanes)
        ]
        for burner in doomed_burners:
            self._vacate(burner, killed_at=epoch_s)
            self._burners.remove(burner)
        self.allocator.block_racks(sorted(failed))
        return killed

    def recover_racks(self, rack_indices: Tuple[int, ...]) -> None:
        """Bring failed racks back into the allocatable pool."""
        self.allocator.unblock_racks(sorted(set(rack_indices)))

    # -- the step -----------------------------------------------------------------------

    def step(
        self,
        epoch_s: float,
        dt_s: float,
        arrivals: Optional[List[Job]] = None,
    ) -> SchedulerState:
        """Advance the scheduler to ``epoch_s`` and return the rack state.

        Steps must be called with non-decreasing timestamps.

        Args:
            epoch_s: Step timestamp.
            dt_s: Step width.
            arrivals: Optional pre-generated submissions for this step
                (see :meth:`WorkloadGenerator.pregenerate_arrivals`);
                when omitted the workload generator is asked directly.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        # Maintenance transitions.
        if self._maintenance_until is not None and epoch_s >= self._maintenance_until:
            self._exit_maintenance(epoch_s)
        if self._maintenance_until is None and self._maintenance_starts_now(
            epoch_s, dt_s
        ):
            self._enter_maintenance(epoch_s)
        # Reservation holes.
        self._maybe_close_reservation(epoch_s)
        if self._maintenance_until is None:
            self._maybe_open_reservation(epoch_s, dt_s)
        # Job flow.
        self._complete_finished(epoch_s)
        while self._delayed and self._delayed[0][0] <= epoch_s:
            _, _, job = heapq.heappop(self._delayed)
            self._queue.append(job)
        if arrivals is None:
            arrivals = self.workload.arrivals(epoch_s, dt_s)
        room = max(0, self.queue_cap - len(self._queue))
        self._queue.extend(arrivals[:room])
        if self._maintenance_until is None:
            self._schedule(epoch_s)
        self.stats.on_step(len(self._queue))
        return SchedulerState(
            epoch_s=epoch_s,
            rack_busy=tuple(self._rack_busy),
            rack_intensity_sum=tuple(self._rack_intensity_sum),
            in_maintenance=self._maintenance_until is not None,
            running_jobs=len(self._running),
            queued_jobs=len(self._queue),
        )
