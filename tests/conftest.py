import time

import pytest

from risradar.arrays import OfdmParams
from risradar.scenario import default_scenario
from risradar.synthesis import train_peak_network


@pytest.fixture(scope="session")
def params():
    return OfdmParams(carrier_freq_hz=77e9, bandwidth_hz=200e6, num_subcarriers=100, num_symbols=50)


@pytest.fixture(scope="session")
def default_training():
    """Peak network trained once at scenario defaults; wall time recorded
    so the acceptance suite can charge it against its runtime budget."""
    scenario = default_scenario()
    start = time.monotonic()
    result = train_peak_network(
        scenario.target_angle_rad, scenario.num_peak_elements, scenario.network_spec()
    )
    result.wall_time_s = time.monotonic() - start
    return result
