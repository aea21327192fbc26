import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import cvcat

settings.register_profile(
    "cvcat",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "stress",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "cvcat"))

BENCHMARK_ALPHA_EFF = math.sqrt(2.6)
BENCHMARK_R = 0.4029
BENCHMARK_G = math.exp(-2 * BENCHMARK_R)
SIGNAL_ALPHA = BENCHMARK_ALPHA_EFF / math.sqrt(2)


@pytest.fixture(scope="session")
def benchmark_params():
    return {
        "alpha_eff": BENCHMARK_ALPHA_EFF,
        "r": BENCHMARK_R,
        "g": BENCHMARK_G,
        "signal_alpha": SIGNAL_ALPHA,
    }


@pytest.fixture(scope="session")
def child_env():
    """Environment for child interpreters that must import this cvcat."""
    src = str(Path(cvcat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
