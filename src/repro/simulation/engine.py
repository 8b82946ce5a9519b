"""The discrete-time facility engine.

Each step wires the substrate models together in physical order:

1. the **scheduler** advances (jobs finish/start, maintenance and
   reservation windows open/close) and yields per-rack utilization and
   CPU intensity,
2. scheduled **failures** fire (CMF events shut racks down via the
   solenoid-close + power-off control actions; non-CMF failures take a
   rack down for about an hour) and downed racks recover,
3. the **power model** turns utilization/intensity into per-rack AC
   draws,
4. the **cooling plant and loop** produce per-rack flow and coolant
   temperatures (with the Theta heat-load excess and the pre-failure
   precursor signatures applied),
5. the **ambient model** produces per-rack data-center temperature and
   humidity from outdoor weather, airflow blockage, rack heat, and
   excursion events, and
6. the calibrated snapshot is appended to the **environmental
   database**.

The RAS log (raw storms plus non-CMF events) is generated from the
same failure schedule, so telemetry and log lines agree.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Set, Tuple

import numpy as np

from repro import constants, timeutil
from repro.cooling.loops import CoolingLoop
from repro.cooling.plant import ChilledWaterPlant
from repro.cooling.valves import FlowRegulatingValve
from repro.facility.machine import Machine
from repro.failures.cmf import CmfSchedule, PrecursorSignature
from repro.failures.noncmf import AftermathProcess, NonCmfFailure
from repro.failures.storms import StormGenerator
from repro.faults import FaultInjector, FaultTruth
from repro.scheduler.jobs import Job
from repro.scheduler.scheduler import MiraScheduler
from repro.scheduler.workload import WorkloadGenerator
from repro.simulation.config import SimulationConfig
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.ras import RasLog
from repro.telemetry.records import Channel
from repro.weather.chicago import ChicagoWeather


@dataclasses.dataclass
class SimulationResult:
    """Everything a six-year run produces."""

    config: SimulationConfig
    database: EnvironmentalDatabase
    ras_log: RasLog
    schedule: Optional[CmfSchedule]
    noncmf_failures: Tuple[NonCmfFailure, ...]
    machine: Machine
    weather: ChicagoWeather
    jobs_completed: int
    jobs_killed: int
    #: Ground truth of injected sensor faults, or ``None`` when the
    #: run's telemetry is pristine (``config.faults is None``).
    fault_truth: Optional[FaultTruth] = None

    @property
    def start_epoch_s(self) -> float:
        return timeutil.to_epoch(self.config.start)

    @property
    def end_epoch_s(self) -> float:
        return timeutil.to_epoch(self.config.end)


@dataclasses.dataclass(frozen=True)
class _Excursion:
    """One facility ambient-temperature excursion."""

    start_epoch_s: float
    end_epoch_s: float
    magnitude_f: float


class FacilityEngine:
    """Builds and runs the full facility simulation.

    Args:
        config: Simulation configuration; all component randomness is
            spawned from ``config.seed`` so runs are reproducible.
    """

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        seed_seq = np.random.SeedSequence(self.config.seed)
        (
            machine_seed,
            loop_seed,
            workload_seed,
            scheduler_seed,
            cmf_seed,
            aftermath_seed,
            storm_seed,
            noise_seed,
            excursion_seed,
        ) = seed_seq.spawn(9)

        self._start = timeutil.to_epoch(self.config.start)
        self._end = timeutil.to_epoch(self.config.end)

        self.machine = Machine(rng=np.random.default_rng(machine_seed))
        self.weather = ChicagoWeather(seed=self.config.seed % (2**31))
        self.plant = ChilledWaterPlant(self.weather)
        self.loop = CoolingLoop(rng=np.random.default_rng(loop_seed))
        self.valve = FlowRegulatingValve()
        if not self.config.theta.enabled:
            # Counterfactual: Theta never joined, so the impellers were
            # never upgraded and the setpoint never stepped.
            self.valve.set_setpoint(
                self.config.theta.addition_date, constants.FLOW_PRE_THETA_GPM
            )
        self.workload = WorkloadGenerator(
            rng=np.random.default_rng(workload_seed),
            production_start_epoch_s=self._start,
            production_end_epoch_s=self._end,
        )
        self.scheduler = MiraScheduler(
            self.workload,
            rng=np.random.default_rng(scheduler_seed),
            topology=self.machine.topology,
        )
        self._noise_rng = np.random.default_rng(noise_seed)

        if self.config.inject_failures:
            self.schedule: Optional[CmfSchedule] = CmfSchedule.generate(
                np.random.default_rng(cmf_seed), self._start, self._end
            )
            aftermath = AftermathProcess(self.machine.dependencies)
            aftermath_rng = np.random.default_rng(aftermath_seed)
            induced = aftermath.induced_failures(aftermath_rng, self.schedule.incidents)
            background = aftermath.background_failures(
                aftermath_rng, self._start, self._end
            )
            self.noncmf_failures: Tuple[NonCmfFailure, ...] = tuple(
                sorted(induced + background, key=lambda f: f.epoch_s)
            )
            self.ras_log = StormGenerator().build_ras_log(
                np.random.default_rng(storm_seed),
                self.schedule.incidents,
                self.noncmf_failures,
            )
        else:
            self.schedule = None
            self.noncmf_failures = ()
            self.ras_log = RasLog()

        # The fault seed is spawned *after* the nine component seeds, so
        # children 0-8 — every RNG stream of the clean simulation — are
        # unchanged and a faults-off run stays byte-identical to
        # historical realizations.
        if self.config.faults is not None:
            (self._fault_seed,) = seed_seq.spawn(1)
        else:
            self._fault_seed = None

        self._excursions = self._generate_excursions(
            np.random.default_rng(excursion_seed)
        )
        self._airflow = self.machine.topology.airflow_factors()

    # -- pre-generated event streams ------------------------------------------------

    def _generate_excursions(self, rng: np.random.Generator) -> List[_Excursion]:
        cfg = self.config.ambient
        years = (self._end - self._start) / timeutil.YEAR_S
        count = int(rng.poisson(cfg.excursion_rate_per_year * years))
        excursions = []
        for _ in range(count):
            start = float(rng.uniform(self._start, self._end))
            duration_h = float(rng.uniform(cfg.excursion_min_h, cfg.excursion_max_h))
            excursions.append(
                _Excursion(
                    start_epoch_s=start,
                    end_epoch_s=start + duration_h * timeutil.HOUR_S,
                    magnitude_f=float(
                        rng.uniform(cfg.excursion_min_f, cfg.excursion_max_f)
                    ),
                )
            )
        excursions.sort(key=lambda e: e.start_epoch_s)
        return excursions

    def _excursion_delta_grid_f(self, grid: np.ndarray) -> np.ndarray:
        """Excursion temperature deltas over a whole sorted time grid.

        A difference array over the grid replaces a per-step O(events)
        scan: each excursion contributes +magnitude at its first covered
        step and -magnitude at the first step past its end, and a
        cumulative sum recovers the per-step totals.
        """
        deltas = np.zeros(len(grid) + 1)
        for excursion in self._excursions:
            first = int(np.searchsorted(grid, excursion.start_epoch_s, side="left"))
            past = int(np.searchsorted(grid, excursion.end_epoch_s, side="left"))
            deltas[first] += excursion.magnitude_f
            deltas[past] -= excursion.magnitude_f
        return np.cumsum(deltas[:-1])

    # -- Theta heat load ---------------------------------------------------------------

    def _theta_supply_excess_grid_f(self, grid: np.ndarray) -> np.ndarray:
        """Theta's early-testing supply excess over a grid (a trapezoid:
        ramp up at the addition date, ramp down after the settled date)."""
        theta = self.config.theta
        if not theta.enabled:
            return np.zeros(len(grid))
        added = timeutil.to_epoch(theta.addition_date)
        settled = timeutil.to_epoch(theta.settled_date)
        ramp_s = max(theta.ramp_days * timeutil.DAY_S, 1e-9)
        knots_t = np.array([added, added + ramp_s, settled, settled + ramp_s])
        knots_v = np.array([0.0, theta.heat_excess_f, theta.heat_excess_f, 0.0])
        return np.interp(grid, knots_t, knots_v, left=0.0, right=0.0)

    # -- precursor signatures -----------------------------------------------------------

    @staticmethod
    def _precursor_factors_block(
        times: np.ndarray,
        rack_events: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-rack precursor factors for a block of timestamps.

        For each rack, the precursor signature is driven by the *next*
        scheduled CMF event at or after each timestamp, provided it
        falls within :attr:`PrecursorSignature.WINDOW_S`.  A
        ``searchsorted`` next-event lookup replaces the per-step
        pointer walk of the scalar engine.

        Args:
            times: Sorted timestamps, shape ``(steps,)``.
            rack_events: Per-rack ``(event_times, severities,
                condensation_flags)`` tuples, or ``None`` when failure
                injection is disabled.

        Returns:
            ``(inlet, outlet, flow, humidity)`` factor matrices, each
            of shape ``(steps, racks)`` and defaulting to 1.0.
        """
        m = len(times)
        inlet = np.ones((m, constants.NUM_RACKS))
        outlet = np.ones((m, constants.NUM_RACKS))
        flow = np.ones((m, constants.NUM_RACKS))
        humidity = np.ones((m, constants.NUM_RACKS))
        if rack_events is None:
            return inlet, outlet, flow, humidity
        window_s = PrecursorSignature.WINDOW_S
        for flat, (event_times, severities, condensation) in enumerate(rack_events):
            if len(event_times) == 0 or times[0] > event_times[-1]:
                continue
            next_idx = np.searchsorted(event_times, times, side="left")
            clipped = np.minimum(next_idx, len(event_times) - 1)
            tau = event_times[clipped] - times
            active = (next_idx < len(event_times)) & (tau <= window_s)
            if not active.any():
                continue
            rows = np.flatnonzero(active)
            tau_active = tau[rows]
            severity = severities[clipped[rows]]
            inlet[rows, flat] = PrecursorSignature.inlet_factor(tau_active, severity)
            outlet[rows, flat] = PrecursorSignature.outlet_factor(tau_active, severity)
            flow[rows, flat] = PrecursorSignature.flow_factor(tau_active, severity)
            condensing = condensation[clipped[rows]]
            if condensing.any():
                crows = rows[condensing]
                humidity[crows, flat] = PrecursorSignature.humidity_factor(
                    tau[crows],
                    condensation_triggered=True,
                    amplitude=severities[clipped[crows]],
                )
        return inlet, outlet, flow, humidity

    # -- the sequential pass ----------------------------------------------------------

    def _sequential_pass(
        self, grid: np.ndarray, arrivals_by_step: List[List[Job]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-step ``(utilization, intensity, powered)``, ``(steps, racks)``.

        The loop keeps scalar failure bookkeeping and stacks the
        scheduler's raw rack snapshots; the rack vectors and power mask
        are derived grid-wide afterwards.
        """
        num_steps, num_racks, dt_s = len(grid), constants.NUM_RACKS, self.config.dt_s
        # Failures fire at the first step whose horizon t + dt passes
        # their time (both streams are time-sorted), CMF events first.
        cmf_events = self.schedule.events if self.schedule is not None else ()
        failures = [
            (e.epoch_s, e.rack_id.flat_index, e.recovery_epoch_s) for e in cmf_events
        ] + [
            (f.epoch_s, f.rack_id.flat_index, f.epoch_s + constants.NONCMF_DEDUP_WINDOW_S)
            for f in self.noncmf_failures
        ]
        steps = np.searchsorted(grid + dt_s, [f[0] for f in failures], side="right")
        firings = sorted(zip(steps.tolist(), failures), key=lambda f: f[0])

        scheduler = self.scheduler
        busy = np.empty((num_steps, num_racks))
        load = np.empty((num_steps, num_racks))
        down_until = [0.0] * num_racks
        failed: Set[int] = set()
        next_recovery = math.inf
        pending = firings + [(num_steps, ())]  # the sentinel never fires
        fired = 0
        for index, t in enumerate(grid.tolist()):
            if next_recovery <= t:
                recovered = tuple(r for r in sorted(failed) if down_until[r] <= t)
                if recovered:
                    scheduler.recover_racks(recovered)
                    failed.difference_update(recovered)
                next_recovery = min((down_until[r] for r in failed), default=math.inf)
            while pending[fired][0] == index:
                epoch_s, rack, until = pending[fired][1]
                scheduler.fail_racks((rack,), epoch_s)
                down_until[rack] = max(down_until[rack], until)
                failed.add(rack)
                next_recovery = min(next_recovery, down_until[rack])
                fired += 1
            state = scheduler.step(t, dt_s, arrivals=arrivals_by_step[index])
            busy[index] = state.rack_busy
            load[index] = state.rack_intensity_sum

        # A rack is powered at a step unless a failure fired at or before
        # it whose outage ends after it.
        powered = np.ones((num_steps, num_racks), dtype=bool)
        for step, (_, rack, until) in firings:
            powered[step : np.searchsorted(grid, until, side="left"), rack] = False
        utilization = np.where(powered, busy / constants.MIDPLANES_PER_RACK, 0.0)
        intensity = np.where(busy > 0.5, load / np.maximum(busy, 1.0), 1.0)
        return utilization, intensity, powered

    # -- the run ------------------------------------------------------------------------

    #: Steps per vectorized telemetry chunk.  Large enough to amortize
    #: numpy call overhead, small enough that the per-chunk noise and
    #: factor matrices stay cache- and memory-friendly at 300 s cadence.
    CHUNK_STEPS = 2560

    def run(self) -> SimulationResult:
        """Execute the configured period and return all artifacts.

        The run is organized as *precompute + chunked vector steps*
        rather than one scalar pass per timestamp:

        1. **Driver tables** — every pure function of the timestamp
           (outdoor weather, plant supply temperature, valve setpoint,
           Theta excess, seasonal trim, arrival rates, excursion
           deltas) is evaluated once over the whole grid.
        2. **Sequential pass** — the stateful scheduler and the failure
           processes advance step by step (they must: job placement and
           rack outages feed back); see :meth:`_sequential_pass`.
        3. **Vector pass** — power, precursor factors, cooling, and
           ambient telemetry are computed over ``CHUNK_STEPS``-sized
           blocks with per-chunk batched noise draws, and bulk-ingested
           into the environmental database.
        """
        cfg = self.config
        grid = timeutil.time_grid(cfg.start, cfg.end, cfg.dt_s)
        num_steps = len(grid)
        num_racks = constants.NUM_RACKS
        database = EnvironmentalDatabase(capacity_hint=num_steps)

        # -- Phase 1: whole-grid driver tables ------------------------------
        outdoor_f, outdoor_rh = self.weather.conditions(grid)
        supply_f = np.asarray(
            self.plant.supply_temperature_f(grid, outdoor_f=outdoor_f)
        ) + self._theta_supply_excess_grid_f(grid)
        setpoint_gpm = np.asarray(self.valve.setpoint_gpm(grid))
        seasonal = np.asarray(self.workload.seasonal_factor(grid))
        seasonal_trim = 1.0 + cfg.seasonal_flow_gain * (seasonal - 1.0)
        arrival_rates = self.workload.arrival_rate_per_hour(grid, seasonal=seasonal)
        excursion_f = self._excursion_delta_grid_f(grid)
        arrivals_by_step = self.workload.pregenerate_arrivals(
            grid, cfg.dt_s, rates_per_hour=arrival_rates
        )

        # Failure bookkeeping, with per-rack precursor event tables for
        # the vector pass.
        rack_events: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = None
        cmf_times, cmf_racks = np.empty(0), np.empty(0, dtype=int)
        if self.schedule is not None:
            cmf_times, cmf_racks, condensation = self.schedule.event_time_matrix()
            severity = np.array([e.severity for e in self.schedule.events])
            rack_events = [
                (cmf_times[mask], severity[mask], condensation[mask])
                for mask in (cmf_racks == flat for flat in range(num_racks))
            ]

        # -- Phase 2: sequential scheduler/failure pass ----------------------
        utilization, intensity, powered_mask = self._sequential_pass(
            grid, arrivals_by_step
        )

        # -- Phase 3: chunked vector telemetry -------------------------------
        noise = cfg.noise
        ambient = cfg.ambient
        airflow = self._airflow
        rng = self._noise_rng
        airflow_term = ambient.humidity_airflow_floor + (
            1.0 - ambient.humidity_airflow_floor
        ) * airflow

        for start in range(0, num_steps, self.CHUNK_STEPS):
            end = min(start + self.CHUNK_STEPS, num_steps)
            m = end - start
            chunk_times = grid[start:end]
            powered = powered_mask[start:end]

            # Power, with batched per-chunk noise.
            ac_kw = self.machine.rack_ac_draw_kw(
                utilization[start:end], intensity[start:end], powered=powered
            )
            ac_kw = ac_kw * (
                1.0 + noise.power_noise * rng.standard_normal((m, num_racks))
            )
            ac_kw = np.maximum(ac_kw, 0.0)

            # Precursor factors over the block.
            (
                inlet_factor,
                outlet_factor,
                flow_factor,
                humidity_factor,
            ) = self._precursor_factors_block(chunk_times, rack_events)

            # Cooling.
            total_flow = (
                setpoint_gpm[start:end]
                * seasonal_trim[start:end]
                * (1.0 + noise.total_flow_jitter * rng.standard_normal(m))
            )
            total_flow = np.maximum(total_flow, 1.0)
            flows = self.loop.rack_flows_gpm_block(
                total_flow, solenoid_open=powered, flow_disturbance=flow_factor
            )
            flows = flows * (
                1.0 + noise.rack_flow_noise * rng.standard_normal((m, num_racks))
            )
            flows = np.maximum(flows, 0.0)

            inlet = self.loop.rack_inlet_temperatures_f(supply_f[start:end, None])
            inlet = inlet * inlet_factor + noise.inlet_noise_f * rng.standard_normal(
                (m, num_racks)
            )
            outlet = self.loop.rack_outlet_temperatures_f(inlet, ac_kw, flows)
            outlet = outlet * outlet_factor + noise.outlet_noise_f * (
                rng.standard_normal((m, num_racks))
            )
            outlet = np.maximum(outlet, inlet - 2.0)

            # Ambient.
            dc_temp = (
                ambient.base_temp_f
                + ambient.outdoor_temp_coupling * (outdoor_f[start:end, None] - 50.0)
                + ambient.blockage_temp_gain_f * (1.0 - airflow)
                + ambient.heat_coupling_f_per_kw
                * (ac_kw - ambient.nominal_rack_power_kw)
                + excursion_f[start:end, None]
                + ambient.temp_noise_f * rng.standard_normal((m, num_racks))
            )
            base_rh = (
                ambient.humidity_offset_rh
                + ambient.humidity_slope * outdoor_rh[start:end, None]
            )
            dc_rh = base_rh * airflow_term * humidity_factor + (
                ambient.humidity_noise_rh * rng.standard_normal((m, num_racks))
            )
            dc_rh = np.clip(dc_rh, 5.0, 99.0)

            database.append_block(
                chunk_times,
                {
                    Channel.DC_TEMPERATURE: dc_temp,
                    Channel.DC_HUMIDITY: dc_rh,
                    Channel.FLOW: flows,
                    Channel.INLET_TEMPERATURE: inlet,
                    Channel.OUTLET_TEMPERATURE: outlet,
                    Channel.POWER: ac_kw,
                    Channel.UTILIZATION: utilization[start:end],
                },
            )

        database.compact()

        # -- optional post-run sensor-fault injection ------------------------
        fault_truth: Optional[FaultTruth] = None
        if cfg.faults is not None:
            injector = FaultInjector(cfg.faults, self._fault_seed)
            events = [
                (float(t), int(r)) for t, r in zip(cmf_times, cmf_racks)
            ]
            database, fault_truth = injector.apply(
                database, cfg.dt_s, cmf_events=events
            )

        return SimulationResult(
            config=cfg,
            database=database,
            ras_log=self.ras_log,
            schedule=self.schedule,
            noncmf_failures=self.noncmf_failures,
            machine=self.machine,
            weather=self.weather,
            jobs_completed=self.scheduler.completed_count,
            jobs_killed=self.scheduler.killed_count,
            fault_truth=fault_truth,
        )
