"""Benchmark suite configuration.

Each benchmark regenerates one table or figure of the paper, saves the
rendered artifact under ``benchmarks/results/`` and asserts the paper's
qualitative shape.  Run with::

    pytest benchmarks/ --benchmark-only

``--benchmark-only`` deselects the two quality gates (they take no
``benchmark`` fixture); run those by file name, as CI does::

    pytest benchmarks/test_robust_sweep.py benchmarks/test_bounds_tightness.py
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="1.0",
        help="multiplier on workload sizes (1.0 = default paper-shaped runs)",
    )


@pytest.fixture(scope="session")
def scale_factor(request) -> float:
    return float(request.config.getoption("--repro-scale"))
