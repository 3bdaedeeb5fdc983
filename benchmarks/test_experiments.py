"""Every row of the experiment table (``experiments.EXPERIMENTS``):
run its workload once under pytest-benchmark, write its artifacts to
``results/`` and assert the paper's shape.

    PYTHONPATH=src python -m pytest benchmarks/test_experiments.py -k fig09_10
"""

import pytest

from experiments import EXPERIMENTS, RESULTS_DIR, run_once


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.id)
def test_experiment(benchmark, row):
    result = run_once(benchmark, row.workload)
    row.check(result, *row.paths(RESULTS_DIR))
