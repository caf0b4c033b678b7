"""Timings of the transport kernels (opt-in, not part of the test suite).

Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

pytest-benchmark prints min/median/max per kernel; add
``--benchmark-autosave`` to keep a run under ``.benchmarks/`` and
``--benchmark-compare`` to set a later run against it.  The inputs are
those of the ``covariance`` command at ``covariance.refinements: 6``
(the benchmark's transport workload), plus the slowly contracting
pairing tail of ``covariance: {labels: ["2.5"], t: 1.0e+5}`` at 6400
cells and ``gamma_grid`` of the identity on 600 cells (the largest Γ grid
of the transport workload).
"""

import numpy as np
import pytest

from cpflow.cli import DEFAULT_CONFIG
from cpflow.halfline import Grid, gamma_grid
from cpflow.semigroups import (
    bump_state,
    covariance_residuals,
    evolve,
    flow_inner,
    numeric_gram,
)

LABELS = [0.0, 1.0, 1j, 1 + 1j]
LENGTH = DEFAULT_CONFIG["grid"]["length"]
BASE_POINTS = DEFAULT_CONFIG["grid"]["points"]
LEVELS = 6
T = 1.0


def bumps(points):
    grid = Grid(LENGTH, points)
    return bump_state(grid, 3.0, 0.4), bump_state(grid, 3.5, 0.5)


def test_evolve(benchmark):
    f, _ = bumps(6400)
    res = benchmark(evolve, f, 1 + 1j, T)
    assert res.state.steps == 800


def test_flow_inner(benchmark):
    f, g = bumps(6400)
    ef, eg = evolve(f, 1.0, T).state, evolve(g, 1j, T).state
    value = benchmark(flow_inner, ef, eg)
    assert abs(value) <= 1.0


def test_numeric_gram(benchmark):
    f, _ = bumps(6400)
    gram = benchmark(numeric_gram, LABELS, T, f)
    assert gram.shape == (len(LABELS), len(LABELS))


def test_covariance_sweep(benchmark):
    states = [bumps(BASE_POINTS * 2 ** level) for level in range(LEVELS)]

    def sweep():
        return [float(covariance_residuals(LABELS, LABELS, T, f, g).max())
                for f, g in states]

    residuals = benchmark(sweep)
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] == pytest.approx(residuals[0] / 2 ** (LEVELS - 1),
                                          rel=0.5)


def test_pairing_tail(benchmark):
    # for w = z each outflow-free step contracts by about
    # 1 - (|z|^2 h)^2 / 2: a step loop would run ~10^8 steps here
    f, _ = bumps(6400)
    gram = benchmark(numeric_gram, [2.5], 1.0e5, f)
    assert abs(gram[0, 0]) < 1e-300  # |A|^N is about exp(-2429)


def test_gamma_grid(benchmark):
    grid = Grid(15.0, 600)
    out = benchmark(gamma_grid, np.eye(grid.points), grid)
    assert out.shape == (600, 600)
