"""The paper's figures, tables and ablations: one timed run of each.

Every entry of :data:`repro.bench.ARTIFACTS` is run once at its one argument
set, rendered, printed and saved as ``benchmarks/results/<name>.txt``.  Run
with::

    pytest benchmarks/ --benchmark-only

``--benchmark-only`` deselects the two quality gates (they take no
``benchmark`` fixture); run those by file name::

    pytest benchmarks/test_robust_sweep.py benchmarks/test_bounds_tightness.py

The paper's claims about each artifact are asserted, at the same arguments,
by the tier-1 module ``tests/bench/test_paper_artifacts.py``.
"""

import pytest

from repro.bench import ARTIFACTS, save_artifact


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_paper_artifact(benchmark, name):
    artifact = ARTIFACTS[name]
    result = benchmark.pedantic(artifact.run, rounds=1, iterations=1)
    text = artifact.render(result)
    print("\n" + text)
    save_artifact(name + ".txt", text)
