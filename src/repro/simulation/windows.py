"""High-resolution (300 s) telemetry windows around CMF events.

The six-year canonical dataset is simulated hourly — plenty for the
trend and spatial analyses, but the lead-up study (Fig 12) and the
predictor (Fig 13) need the coolant monitor's native 300 s cadence in
the hours before each failure.  Rather than paying for a six-year
300 s run, :class:`WindowSynthesizer` re-synthesizes short windows at
full cadence:

* **positive windows** end at a CMF event.  The hourly telemetry
  around the event already carries the precursor imprint at coarse
  resolution; it is *divided out* (the injected factors are known
  exactly from the failure schedule), the clean counterfactual series
  is interpolated onto the 300 s grid, and the Fig 12 signatures are
  re-applied at full resolution.  Positives therefore inherit the
  same operational drift statistics as negatives — the only class
  difference is the physical signature.
* **negative windows** are drawn at random (time, rack) pairs far from
  any CMF on that rack, interpolating the coarse telemetry (so they
  inherit real operational variation — maintenance dips, seasonal
  drift, utilization swings) plus sensor noise.

Only samples at or before each window's end time are used, so a
window never leaks post-failure data (the rack is down and its
channels read zero after the event).

This mirrors the paper's dataset construction: positive samples from
the six hours before each CMF, negative samples evenly drawn across
the production period (Section VI-B).

Determinism and parallelism
---------------------------

Window *i* of either class draws its sensor noise from a dedicated
child generator spawned from the synthesizer seed (via
:class:`numpy.random.SeedSequence`), and the negative (time, rack)
candidates come from their own child stream drawn up front.  A
window's realization therefore depends only on its index — never on
how many windows were built before it or in which process — which is
what lets the parallel report pipeline fan ``positive_windows(lo, hi)``
slices out across workers and reassemble a list bit-identical to the
serial one.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import constants, timeutil
from repro.facility.topology import RackId
from repro.failures.cmf import CmfEvent, PrecursorSignature
from repro.simulation.engine import SimulationResult
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

#: Channel -> the precursor factor a CMF imprints on it, as a function
#: of the time remaining until the failure (``tau``, seconds).  Channels
#: without an entry carry no signature.
_SIGNATURE_FACTORS: Dict[Channel, Callable[[np.ndarray, CmfEvent], np.ndarray]] = {
    Channel.INLET_TEMPERATURE: lambda tau, event: PrecursorSignature.inlet_factor(
        tau, event.severity
    ),
    Channel.OUTLET_TEMPERATURE: lambda tau, event: PrecursorSignature.outlet_factor(
        tau, event.severity
    ),
    Channel.FLOW: lambda tau, event: PrecursorSignature.flow_factor(
        tau, event.severity
    ),
    Channel.DC_HUMIDITY: lambda tau, event: PrecursorSignature.humidity_factor(
        tau,
        condensation_triggered=event.reason == "condensation_risk",
        amplitude=event.severity,
    ),
}


def _signature_factor(
    event: CmfEvent, channel: Channel, epoch_s: np.ndarray
) -> Optional[np.ndarray]:
    """One channel's precursor factor of a CMF at the given timestamps.

    The engine bakes it into the coarse telemetry of the event's rack;
    it is 1.0 outside the lead-up window and ``None`` for channels
    without a signature.  The factor is elementwise in time, so
    evaluating it on a slice of the timestamps gives the same values as
    slicing its evaluation on all of them.
    """
    factor = _SIGNATURE_FACTORS.get(channel)
    return None if factor is None else factor(event.epoch_s - epoch_s, event)


@dataclasses.dataclass(frozen=True)
class LeadupWindow:
    """One fixed-cadence telemetry window for one rack.

    Attributes:
        rack_id: The instrumented rack.
        end_epoch_s: The window's end — the CMF time for positives,
            the reference time for negatives.
        epoch_s: Sample grid (ascending, ends at ``end_epoch_s``).
        channels: Channel -> value vector over the grid.
        is_positive: Whether a CMF occurs at ``end_epoch_s``.
    """

    rack_id: RackId
    end_epoch_s: float
    epoch_s: np.ndarray
    channels: Dict[Channel, np.ndarray]
    is_positive: bool

    def value_at(self, channel: Channel, epoch_s: float) -> float:
        """Linear interpolation of one channel inside the window."""
        return float(np.interp(epoch_s, self.epoch_s, self.channels[channel]))

    def lead_value(self, channel: Channel, lead_s: float) -> float:
        """Channel value ``lead_s`` seconds before the window end."""
        return self.value_at(channel, self.end_epoch_s - lead_s)


class WindowSynthesizer:
    """Builds 300 s lead-up windows from a coarse simulation result.

    Args:
        result: A completed simulation (with its failure schedule).
        dt_s: Window cadence (the monitor's 300 s by default).
        history_s: Window length; must cover the feature lookback (6 h)
            plus the largest prediction lead (6 h).
        seed: Noise seed for the synthesized fine structure.  The
            default defines the canonical window realization; it moved
            with the 1.3 per-index reseeding (window noise now depends
            only on the window's index, see the module docstring).
    """

    def __init__(
        self,
        result: SimulationResult,
        dt_s: float = float(constants.MONITOR_SAMPLE_PERIOD_S),
        history_s: float = 12.5 * timeutil.HOUR_S,
        seed: int = 55,
    ) -> None:
        if result.schedule is None:
            raise ValueError("simulation was run without failure injection")
        if dt_s <= 0 or history_s <= dt_s:
            raise ValueError("invalid window geometry")
        self._result = result
        self.dt_s = dt_s
        self.history_s = history_s
        self._seed = seed
        #: Sequential stream for the ad-hoc single-window builders; the
        #: bulk ``*_windows`` builders use per-index child generators
        #: instead (see the module docstring).
        self._rng = np.random.default_rng(seed)
        self._epoch = result.database.epoch_s
        #: The (samples, racks) value matrix of every predictor channel,
        #: bound once: every window reads the same read-only views.
        self._values = {
            channel: result.database.channel(channel).values
            for channel in PREDICTOR_CHANNELS
        }
        #: Coarse cadence; the engine marks a rack down in the very
        #: step its CMF fires, so the last clean sample precedes the
        #: event by at least one coarse step.
        self._coarse_dt = result.config.dt_s
        self._noise = result.config.noise
        # Per-channel fine-scale noise sigmas (absolute units).
        self._noise_sigma = {
            Channel.FLOW: 0.25,
            Channel.INLET_TEMPERATURE: self._noise.inlet_noise_f,
            Channel.OUTLET_TEMPERATURE: self._noise.outlet_noise_f,
            Channel.POWER: 0.5,
            Channel.DC_TEMPERATURE: result.config.ambient.temp_noise_f,
            Channel.DC_HUMIDITY: result.config.ambient.humidity_noise_rh,
        }

    # -- internals ------------------------------------------------------------

    def _grid(self, end_epoch_s: float) -> np.ndarray:
        count = int(round(self.history_s / self.dt_s))
        return end_epoch_s - self.dt_s * np.arange(count, -1, -1, dtype="float64")

    def _coarse_series(
        self,
        channel: Channel,
        rack_index: int,
        grid: np.ndarray,
        cutoff_epoch_s: float,
        event: Optional[CmfEvent] = None,
    ) -> np.ndarray:
        """Interpolate one rack's coarse channel onto a window grid.

        Only coarse samples at or before ``cutoff_epoch_s`` are used
        (no post-failure leakage); beyond the last usable sample the
        series holds its final value.  ``event``, if given, divides the
        usable coarse samples by its precursor factors (the
        counterfactual de-imprinting of the signature).

        ``np.interp`` reads only the samples bracketing each grid point
        and clamps to the end values, so the series is built from the
        slice that starts at the last usable (finite) sample at or
        before ``grid[0]`` and ends at the cutoff: the result is bit for
        bit what interpolating every usable sample in the history gives,
        at a cost independent of the history length.
        """
        column = self._values[channel][:, rack_index]
        hi = int(np.searchsorted(self._epoch, cutoff_epoch_s + 1e-6, side="right"))
        lo = min(int(np.searchsorted(self._epoch, grid[0], side="right")), hi) - 1
        while lo > 0 and not np.isfinite(column[lo]):
            lo -= 1
        lo = max(lo, 0)
        values = column[lo:hi]
        usable = np.isfinite(values)
        if not usable.any():
            raise ValueError("no usable coarse telemetry before the window end")
        epochs = self._epoch[lo:hi][usable]
        values = values[usable]
        factor = None if event is None else _signature_factor(event, channel, epochs)
        if factor is not None:
            values = values / factor
        return np.interp(grid, epochs, values)

    def _noisy(
        self,
        channel: Channel,
        values: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        sigma = self._noise_sigma[channel]
        generator = self._rng if rng is None else rng
        return values + sigma * generator.standard_normal(values.shape)

    def _seed_roots(self) -> Tuple[np.random.SeedSequence, ...]:
        """(positive-noise, negative-candidate, negative-noise) roots.

        Re-derived on every call: ``SeedSequence`` spawning is
        stateful, so index-stable children require starting from a
        fresh root each time.
        """
        return tuple(np.random.SeedSequence(self._seed).spawn(3))

    # -- window construction -------------------------------------------------------

    def positive_window(
        self, event: CmfEvent, rng: Optional[np.random.Generator] = None
    ) -> LeadupWindow:
        """The lead-up window ending at one CMF event.

        Args:
            event: The terminating CMF.
            rng: Noise generator; defaults to the synthesizer's
                sequential stream (the bulk builders pass the window's
                own index-derived child instead).
        """
        grid = self._grid(event.epoch_s)
        rack = event.rack_id.flat_index
        channels: Dict[Channel, np.ndarray] = {}
        for channel in PREDICTOR_CHANNELS:
            clean = self._coarse_series(
                channel,
                rack,
                grid,
                cutoff_epoch_s=event.epoch_s - self._coarse_dt,
                event=event,
            )
            fine_factor = _signature_factor(event, channel, grid)
            series = clean if fine_factor is None else clean * fine_factor
            channels[channel] = self._noisy(channel, series, rng)
        return LeadupWindow(
            rack_id=event.rack_id,
            end_epoch_s=event.epoch_s,
            epoch_s=grid,
            channels=channels,
            is_positive=True,
        )

    def negative_window(
        self,
        rack_id: RackId,
        end_epoch_s: float,
        rng: Optional[np.random.Generator] = None,
    ) -> LeadupWindow:
        """A no-failure window for one rack ending at a reference time."""
        grid = self._grid(end_epoch_s)
        rack = rack_id.flat_index
        channels = {
            channel: self._noisy(
                channel,
                self._coarse_series(
                    channel, rack, grid, cutoff_epoch_s=end_epoch_s
                ),
                rng,
            )
            for channel in PREDICTOR_CHANNELS
        }
        return LeadupWindow(
            rack_id=rack_id,
            end_epoch_s=end_epoch_s,
            epoch_s=grid,
            channels=channels,
            is_positive=False,
        )

    # -- dataset assembly -------------------------------------------------------------

    def eligible_events(self) -> List[CmfEvent]:
        """The CMF events far enough in to carry a full lead-up window."""
        schedule = self._result.schedule
        assert schedule is not None
        start = self._result.start_epoch_s + self.history_s
        return [event for event in schedule.events if event.epoch_s >= start]

    def positive_windows(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> List[LeadupWindow]:
        """One window per eligible CMF event in the schedule.

        Args:
            lo: First eligible-event index to build (inclusive).
            hi: One past the last index (default: all).  Window ``i``
                is identical whichever slice it is built in, so
                ``positive_windows(0, k) + positive_windows(k, None)``
                equals ``positive_windows()`` bit for bit — the
                parallel report relies on this to shard the synthesis.
        """
        events = self.eligible_events()
        seeds = self._seed_roots()[0].spawn(len(events))
        stop = len(events) if hi is None else min(hi, len(events))
        return [
            self.positive_window(events[i], np.random.default_rng(seeds[i]))
            for i in range(lo, stop)
        ]

    def negative_candidates(
        self, count: int, exclusion_s: float = 24 * 3600.0
    ) -> List[Tuple[RackId, float]]:
        """The deterministic (rack, end-time) pairs of the negative class.

        Candidates are rejection-sampled from a dedicated child stream
        — cheap (no window construction), so a worker building one
        slice of the negatives re-derives the full pair list and picks
        its share.

        A candidate (time, rack) is rejected if the rack has a CMF
        within ``exclusion_s`` of the window end, mirroring the paper's
        negative-class construction.
        """
        schedule = self._result.schedule
        assert schedule is not None
        per_rack_times = {
            flat: np.array(
                [e.epoch_s for e in schedule.events if e.rack_id.flat_index == flat]
            )
            for flat in range(constants.NUM_RACKS)
        }
        lo = self._result.start_epoch_s + self.history_s
        hi = self._result.end_epoch_s - 1.0
        rng = np.random.default_rng(self._seed_roots()[1])
        pairs: List[Tuple[RackId, float]] = []
        guard = 0
        while len(pairs) < count:
            guard += 1
            if guard > 50 * count:
                raise RuntimeError("negative window sampling failed to converge")
            end = float(rng.uniform(lo, hi))
            rack = int(rng.integers(constants.NUM_RACKS))
            times = per_rack_times[rack]
            if times.size and np.min(np.abs(times - end)) < exclusion_s:
                continue
            pairs.append((RackId.from_flat_index(rack), end))
        return pairs

    def negative_windows(
        self,
        count: int,
        exclusion_s: float = 24 * 3600.0,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> List[LeadupWindow]:
        """``count`` windows drawn evenly across the production period.

        Args:
            count: Total negative-class size (fixes the candidate list
                and the per-window noise seeds).
            exclusion_s: CMF exclusion radius for candidates.
            lo: First window index to build (inclusive).
            hi: One past the last index (default: all ``count``); as
                with :meth:`positive_windows`, slices concatenate to
                the full list bit for bit.
        """
        pairs = self.negative_candidates(count, exclusion_s)
        seeds = self._seed_roots()[2].spawn(count)
        stop = count if hi is None else min(hi, count)
        return [
            self.negative_window(
                pairs[i][0], pairs[i][1], np.random.default_rng(seeds[i])
            )
            for i in range(lo, stop)
        ]
