"""High-resolution lead-up window synthesis."""

import numpy as np
import pytest

from repro import constants, timeutil
from repro.facility.topology import RackId
from repro.failures.cmf import PrecursorSignature
from repro.simulation import WindowSynthesizer
from repro.simulation.engine import FacilityEngine
from repro.simulation.scenarios import MiraScenario
from repro.simulation.config import SimulationConfig
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

HOUR = timeutil.HOUR_S


class TestGeometry:
    def test_positive_count_matches_schedule(self, year_result, year_windows):
        positives, _ = year_windows
        eligible = [
            e
            for e in year_result.schedule.events
            if e.epoch_s >= year_result.start_epoch_s + 12.5 * HOUR
        ]
        assert len(positives) == len(eligible)

    def test_grid_cadence_is_monitor_native(self, year_windows):
        positives, _ = year_windows
        window = positives[0]
        assert np.allclose(np.diff(window.epoch_s), constants.MONITOR_SAMPLE_PERIOD_S)

    def test_window_ends_at_event(self, year_result, year_windows):
        positives, _ = year_windows
        event_times = {e.epoch_s for e in year_result.schedule.events}
        for window in positives[:10]:
            assert window.epoch_s[-1] == pytest.approx(window.end_epoch_s)
            assert window.end_epoch_s in event_times

    def test_all_predictor_channels_present(self, year_windows):
        positives, negatives = year_windows
        for window in (positives[0], negatives[0]):
            assert set(window.channels) == set(PREDICTOR_CHANNELS)


class TestSignatureContent:
    def test_positive_flow_collapses_at_end(self, year_windows):
        positives, _ = year_windows
        drops = []
        for window in positives:
            flow = window.channels[Channel.FLOW]
            baseline = window.lead_value(Channel.FLOW, 8 * HOUR)
            drops.append(flow[-1] / baseline)
        assert np.median(drops) < 0.5

    def test_positive_inlet_sags_then_rises(self, year_windows):
        positives, _ = year_windows
        sags = []
        finals = []
        for window in positives:
            baseline = window.lead_value(Channel.INLET_TEMPERATURE, 11 * HOUR)
            sags.append(
                window.lead_value(Channel.INLET_TEMPERATURE, 4 * HOUR) / baseline
            )
            finals.append(
                window.lead_value(Channel.INLET_TEMPERATURE, 0.0) / baseline
            )
        assert np.mean(sags) < 0.97
        assert np.mean(finals) > 1.02

    def test_negative_channels_stay_near_baseline(self, year_windows):
        _, negatives = year_windows
        ratios = []
        for window in negatives:
            baseline = window.lead_value(Channel.FLOW, 11 * HOUR)
            if baseline > 1.0:
                ratios.append(window.lead_value(Channel.FLOW, 0.0) / baseline)
        assert 0.9 < np.median(ratios) < 1.1

    def test_negatives_avoid_cmf_neighbourhoods(self, year_result, year_windows):
        _, negatives = year_windows
        for window in negatives:
            events = year_result.schedule.events_for_rack(window.rack_id)
            for event in events:
                assert abs(event.epoch_s - window.end_epoch_s) >= 24 * HOUR


class TestValidation:
    def test_requires_failure_injection(self):
        config = SimulationConfig(
            start=MiraScenario.demo(days=20).start,
            end=MiraScenario.demo(days=20).end,
            inject_failures=False,
        )
        result = FacilityEngine(config).run()
        with pytest.raises(ValueError):
            WindowSynthesizer(result)

    def test_bad_geometry_rejected(self, year_result):
        with pytest.raises(ValueError):
            WindowSynthesizer(year_result, dt_s=0.0)
        with pytest.raises(ValueError):
            WindowSynthesizer(year_result, dt_s=300.0, history_s=100.0)

    def test_value_interpolation(self, year_windows):
        positives, _ = year_windows
        window = positives[0]
        mid = (window.epoch_s[0] + window.epoch_s[-1]) / 2.0
        value = window.value_at(Channel.POWER, mid)
        assert np.isfinite(value)


def _whole_history_factors(event, epoch_s):
    """The precursor factors at every coarse timestamp (reference copy)."""
    tau = event.epoch_s - epoch_s
    condensation = event.reason == "condensation_risk"
    return {
        Channel.INLET_TEMPERATURE: PrecursorSignature.inlet_factor(
            tau, event.severity
        ),
        Channel.OUTLET_TEMPERATURE: PrecursorSignature.outlet_factor(
            tau, event.severity
        ),
        Channel.FLOW: PrecursorSignature.flow_factor(tau, event.severity),
        Channel.DC_HUMIDITY: PrecursorSignature.humidity_factor(
            tau, condensation_triggered=condensation, amplitude=event.severity
        ),
    }


class _MaskedSynthesizer(WindowSynthesizer):
    """Reference: masks and copies the rack's whole history per series."""

    def _coarse_series(self, channel, rack_index, grid, cutoff_epoch_s, event=None):
        database = self._result.database
        column = database.channel(channel).values[:, rack_index]
        epoch = database.epoch_s
        usable = np.isfinite(column) & (epoch <= cutoff_epoch_s + 1e-6)
        if not usable.any():
            raise ValueError("no usable coarse telemetry before the window end")
        values = column[usable]
        if event is not None:
            factor = _whole_history_factors(event, epoch).get(channel)
            if factor is not None:
                values = values / factor[usable]
        return np.interp(grid, epoch[usable], values)


def _assert_windows_equal(sliced, masked):
    assert len(sliced) == len(masked) > 0
    for a, b in zip(sliced, masked):
        assert (a.rack_id, a.end_epoch_s, a.is_positive) == (
            b.rack_id,
            b.end_epoch_s,
            b.is_positive,
        )
        assert np.array_equal(a.epoch_s, b.epoch_s)
        assert set(a.channels) == set(b.channels) == set(PREDICTOR_CHANNELS)
        for channel in PREDICTOR_CHANNELS:
            assert np.array_equal(a.channels[channel], b.channels[channel]), channel


def _pair_window(result, rack, end_epoch_s, seed=9):
    """The same negative window from the sliced and the masked synthesizer."""
    return [
        synthesizer.negative_window(
            RackId.from_flat_index(rack), end_epoch_s, np.random.default_rng(seed)
        )
        for synthesizer in (WindowSynthesizer(result), _MaskedSynthesizer(result))
    ]


class TestSlicedSeriesEquivalence:
    """The sliced interpolation is bit-identical to the masked one."""

    @pytest.fixture(params=["demo_result", "faulted_result"])
    def result(self, request):
        return request.getfixturevalue(request.param)

    def test_bulk_windows_bit_identical(self, result):
        sliced, masked = WindowSynthesizer(result), _MaskedSynthesizer(result)
        _assert_windows_equal(sliced.positive_windows(), masked.positive_windows())
        _assert_windows_equal(
            sliced.negative_windows(40), masked.negative_windows(40)
        )

    def test_faulted_telemetry_has_gaps(self, faulted_result):
        # The faulted case only pins the walk-back if there are gaps.
        for channel in PREDICTOR_CHANNELS:
            assert not np.isfinite(faulted_result.database.channel(channel).values).all()

    def test_grid_before_first_usable_sample(self, result):
        epoch = result.database.epoch_s
        end = float(epoch[0]) + 2 * HOUR
        for rack in (0, 17, 47):
            sliced, masked = _pair_window(result, rack, end)
            assert sliced.epoch_s[0] < epoch[0]
            _assert_windows_equal([sliced], [masked])

    def test_nan_run_just_before_grid_start(self, faulted_result):
        epoch = faulted_result.database.epoch_s
        synthesizer = WindowSynthesizer(faulted_result)
        pinned = 0
        for channel in PREDICTOR_CHANNELS:
            missing = ~np.isfinite(faulted_result.database.channel(channel).values)
            # The second sample of a NaN run of length >= 2, late enough
            # that a window starting there ends inside the data.
            run_rows, run_racks = np.nonzero(missing[1:] & missing[:-1])
            for row, rack in zip(run_rows + 1, run_racks):
                end = float(epoch[row]) + synthesizer.history_s
                if row < 2 or end > epoch[-1]:
                    continue
                sliced, masked = _pair_window(faulted_result, int(rack), end)
                assert sliced.epoch_s[0] == epoch[row]
                _assert_windows_equal([sliced], [masked])
                pinned += 1
                break
        assert pinned == len(PREDICTOR_CHANNELS)

    def test_no_usable_sample_still_rejected(self, demo_result):
        end = float(demo_result.database.epoch_s[0]) - HOUR
        for synthesizer in (
            WindowSynthesizer(demo_result),
            _MaskedSynthesizer(demo_result),
        ):
            with pytest.raises(ValueError, match="no usable coarse telemetry"):
                synthesizer.negative_window(RackId.from_flat_index(3), end)
