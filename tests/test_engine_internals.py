"""Engine internals: Theta ramp, excursions, fine-cadence consistency."""

import datetime as dt

import numpy as np
import pytest

from repro import constants, timeutil
from repro.simulation.config import SimulationConfig, ThetaConfig
from repro.simulation.engine import FacilityEngine
from repro.simulation.scenarios import MiraScenario
from repro.telemetry.records import Channel


def _theta_excess(engine, epoch_s):
    return float(engine._theta_supply_excess_grid_f(np.array([epoch_s]))[0])


def _excursion_delta(engine, epoch_s):
    return float(engine._excursion_delta_grid_f(np.array([epoch_s]))[0])


class TestThetaExcess:
    @pytest.fixture
    def engine(self):
        return FacilityEngine(MiraScenario.demo(days=5, seed=1))

    def test_zero_before_addition(self, engine):
        before = timeutil.to_epoch(dt.datetime(2016, 5, 1))
        assert _theta_excess(engine, before) == 0.0

    def test_peak_during_testing(self, engine):
        mid = timeutil.to_epoch(dt.datetime(2016, 10, 1))
        assert _theta_excess(engine, mid) == pytest.approx(
            engine.config.theta.heat_excess_f
        )

    def test_ramps_in(self, engine):
        added = timeutil.to_epoch(constants.THETA_ADDITION_DATE)
        ramp_s = engine.config.theta.ramp_days * timeutil.DAY_S
        halfway = _theta_excess(engine, added + ramp_s / 2)
        assert halfway == pytest.approx(engine.config.theta.heat_excess_f / 2, rel=0.05)

    def test_decays_after_settled(self, engine):
        settled = timeutil.to_epoch(constants.THETA_SETTLED_DATE)
        ramp_s = engine.config.theta.ramp_days * timeutil.DAY_S
        assert _theta_excess(engine, settled + 2 * ramp_s) == 0.0
        partway = _theta_excess(engine, settled + ramp_s / 2)
        assert 0.0 < partway < engine.config.theta.heat_excess_f


class TestExcursions:
    def test_excursions_generated_at_configured_rate(self):
        engine = FacilityEngine(MiraScenario.demo(days=365, seed=9))
        rate = engine.config.ambient.excursion_rate_per_year
        assert 0 < len(engine._excursions) < 4 * rate

    def test_excursion_delta_active_only_inside_window(self):
        engine = FacilityEngine(MiraScenario.demo(days=365, seed=9))
        excursion = engine._excursions[0]
        inside = _excursion_delta(engine, 
            (excursion.start_epoch_s + excursion.end_epoch_s) / 2
        )
        outside = _excursion_delta(engine, excursion.start_epoch_s - 1.0)
        assert inside >= excursion.magnitude_f
        assert outside < inside

    def test_excursions_sorted(self):
        engine = FacilityEngine(MiraScenario.demo(days=365, seed=9))
        starts = [e.start_epoch_s for e in engine._excursions]
        assert starts == sorted(starts)


class TestFineCadence:
    def test_300s_run_statistically_matches_hourly(self):
        """The monitor's native cadence and the hourly default agree."""
        start = dt.datetime(2015, 5, 4)
        coarse = FacilityEngine(
            SimulationConfig(
                start=start,
                end=start + dt.timedelta(days=4),
                dt_s=3600.0,
                seed=21,
                inject_failures=False,
            )
        ).run()
        fine = FacilityEngine(
            SimulationConfig(
                start=start,
                end=start + dt.timedelta(days=4),
                dt_s=300.0,
                seed=21,
                inject_failures=False,
            )
        ).run()
        assert fine.database.num_samples == 12 * coarse.database.num_samples
        for channel in (Channel.INLET_TEMPERATURE, Channel.FLOW):
            coarse_mean = coarse.database.channel(channel).overall_mean()
            fine_mean = fine.database.channel(channel).overall_mean()
            assert fine_mean == pytest.approx(coarse_mean, rel=0.02)
        coarse_power = coarse.database.system_power_mw().overall_mean()
        fine_power = fine.database.system_power_mw().overall_mean()
        assert fine_power == pytest.approx(coarse_power, rel=0.08)


class TestConfigSurface:
    def test_theta_config_immutable(self):
        theta = ThetaConfig()
        with pytest.raises(Exception):
            theta.heat_excess_f = 5.0

    def test_custom_theta_config_respected(self):
        config = SimulationConfig(
            start=dt.datetime(2016, 6, 1),
            end=dt.datetime(2016, 6, 10),
            theta=ThetaConfig(heat_excess_f=4.0),
            inject_failures=False,
        )
        engine = FacilityEngine(config)
        peak = timeutil.to_epoch(dt.datetime(2016, 10, 1))
        assert _theta_excess(engine, peak) == pytest.approx(4.0)


class TestThetaCounterfactual:
    """What the facility looks like if Theta never joins the loop."""

    @pytest.fixture(scope="class")
    def counterfactual(self):
        config = SimulationConfig(
            start=dt.datetime(2016, 5, 1),
            end=dt.datetime(2016, 10, 1),
            seed=77,
            theta=ThetaConfig(enabled=False),
            inject_failures=False,
        )
        return FacilityEngine(config).run()

    @pytest.fixture(scope="class")
    def factual(self):
        config = SimulationConfig(
            start=dt.datetime(2016, 5, 1),
            end=dt.datetime(2016, 10, 1),
            seed=77,
            inject_failures=False,
        )
        return FacilityEngine(config).run()

    def test_no_flow_step(self, counterfactual):
        flow = counterfactual.database.total_flow_gpm()
        theta = timeutil.to_epoch(constants.THETA_ADDITION_DATE)
        after = np.nanmean(flow.values[flow.epoch_s > theta + 30 * 86_400])
        assert after == pytest.approx(constants.FLOW_PRE_THETA_GPM, rel=0.02)

    def test_factual_has_flow_step(self, factual):
        flow = factual.database.total_flow_gpm()
        theta = timeutil.to_epoch(constants.THETA_ADDITION_DATE)
        after = np.nanmean(flow.values[flow.epoch_s > theta + 30 * 86_400])
        assert after == pytest.approx(constants.FLOW_POST_THETA_GPM, rel=0.02)

    def test_no_inlet_bump(self, counterfactual, factual):
        theta = timeutil.to_epoch(constants.THETA_ADDITION_DATE)
        def bump(result):
            inlet = result.database.channel(Channel.INLET_TEMPERATURE).across_racks()
            during = np.nanmean(inlet.values[inlet.epoch_s > theta + 30 * 86_400])
            before = np.nanmean(inlet.values[inlet.epoch_s < theta - 10 * 86_400])
            return during - before
        assert bump(factual) > bump(counterfactual) + 1.0
