"""Scenario presets for the facility simulator."""

from __future__ import annotations

import datetime as dt
from typing import Optional

from repro.simulation.config import SimulationConfig


class MiraScenario:
    """Named configurations of the six-year Mira study.

    Use the constructors to get a :class:`SimulationConfig`, tweak it
    with :func:`dataclasses.replace` if needed, then build it with
    :func:`repro.simulation.datasets.build_dataset`.
    """

    @staticmethod
    def full_study(seed: int = 20_140_101, dt_s: float = 3600.0) -> SimulationConfig:
        """The paper's full production period, 2014-01-01 .. 2019-12-31."""
        return SimulationConfig(seed=seed, dt_s=dt_s)

    @staticmethod
    def single_year(year: int, seed: int = 20_140_101, dt_s: float = 3600.0) -> SimulationConfig:
        """One calendar year of the study period.

        Raises:
            ValueError: if the year is outside 2014..2019.
        """
        if not 2014 <= year <= 2019:
            raise ValueError(f"year must be within the production period, got {year}")
        return SimulationConfig(
            start=dt.datetime(year, 1, 1),
            end=dt.datetime(year + 1, 1, 1),
            seed=seed,
            dt_s=dt_s,
        )

    @staticmethod
    def demo(
        days: int = 60,
        seed: int = 7,
        dt_s: float = 1800.0,
        start: Optional[dt.datetime] = None,
    ) -> SimulationConfig:
        """A short window for examples and quick tests.

        Raises:
            ValueError: if ``days`` is not positive.
        """
        if days <= 0:
            raise ValueError(f"days must be positive, got {days}")
        begin = start if start is not None else dt.datetime(2015, 3, 1)
        return SimulationConfig(
            start=begin,
            end=begin + dt.timedelta(days=days),
            seed=seed,
            dt_s=dt_s,
        )
