"""Benchmark suite configuration.

``--repro-scale`` scales the two quality gates (``test_robust_sweep.py``,
``test_bounds_tightness.py``); CI runs them reduced with
``--repro-scale 0.3``.  The paper artifacts run at the one argument set of
their registry entry and read no option (``test_paper_artifacts.py``).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="1.0",
        help="multiplier on the quality gates' sizes (1.0 = committed runs)",
    )


@pytest.fixture(scope="session")
def scale_factor(request) -> float:
    return float(request.config.getoption("--repro-scale"))
