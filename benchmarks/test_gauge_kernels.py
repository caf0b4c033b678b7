"""Timings of the gauge sweeps (opt-in, not part of the test suite).

Run with

    PYTHONPATH=src python -m pytest benchmarks/test_gauge_kernels.py \
        --benchmark-only

The sizes are those of the ``gauge-check`` command at its default config
(the benchmark's analytic workload): 1000 associativity triples, 100,000
r pairs, 200 action pairs per class at 25 labels, and at most 200 pairs
searched for the first discrepant one.  Each round draws from a fresh
generator at the default seed, so every round does the same work.
"""

import numpy as np

from cpflow.cli import DEFAULT_CONFIG
from cpflow.gauge import (
    action_sweep,
    associativity_sweep,
    first_discrepancy,
    r_sweep,
)

GAUGE = DEFAULT_CONFIG["gauge"]
SEED = DEFAULT_CONFIG["seeds"]["rng"]


def labels():
    rng = np.random.default_rng(SEED)
    return [complex(rng.normal(), rng.normal())
            for _ in range(GAUGE["z_samples"])]


def fresh(sweep, *args):
    """sweep run on a new generator at the default seed."""
    return lambda: sweep(np.random.default_rng(SEED), *args)


def test_r_sweep(benchmark):
    r_min, residual = benchmark(fresh(r_sweep, GAUGE["r_samples"]))
    assert r_min >= -1e-12 and residual <= 1e-12


def test_associativity_sweep(benchmark):
    worst = benchmark(fresh(associativity_sweep, GAUGE["triples"]))
    assert worst <= 1e-12


def test_action_sweep(benchmark):
    worst = benchmark(fresh(action_sweep, GAUGE["pairs"], labels()))
    assert max(worst.values()) <= 1e-12


def test_first_discrepancy(benchmark):
    report = benchmark(fresh(first_discrepancy, GAUGE["pairs"], labels()))
    assert report["discrepant"]
