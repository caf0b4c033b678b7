"""Timings of the closed-form weight kernels (opt-in, not part of the test
suite).

Run with

    PYTHONPATH=src python -m pytest benchmarks/test_weight_kernels.py \
        --benchmark-only

The inputs are those of the ``weights-unitality`` and ``decay`` commands
at their default config: omega1 on one 700-member sample block (the
analytic workload's 700 samples, which the runner runs as one block; 4
factors of 3 rates, linear lambda), the normalized weight xi at the
boundary identity I - Lambda, and the decay curve of the Delta-null
functional bumped below head level 3 up to n_max = 8.
"""

import numpy as np

from cpflow.cli import DEFAULT_CONFIG, _SAMPLE_BLOCK, _sample_block
from cpflow.halfline import ExpKernelVector
from cpflow.tensorspace import LambdaSequence, ProductVector, reference_state
from cpflow.weights import (
    HFunctional,
    WeightSeriesConfig,
    boundary_identity,
    build_delta_null_functional,
    identity_element,
    lemma_decay_curve,
    omega1,
    xi_from_nu,
)

SEQ = LambdaSequence(DEFAULT_CONFIG["lambda"]["kind"])
N_FACTORS = DEFAULT_CONFIG["tensor"]["factors"]
SERIES = WeightSeriesConfig(**DEFAULT_CONFIG["series"])
SAMPLES = 700  # weights.samples of the benchmark's analytic workload


def test_omega1_block(benchmark):
    rng = np.random.default_rng(DEFAULT_CONFIG["seeds"]["rng"])
    assert SAMPLES <= _SAMPLE_BLOCK  # the runner's one block
    rho = _sample_block(rng, SEQ, N_FACTORS,
                        DEFAULT_CONFIG["weights"]["factor_dim"], SAMPLES)
    res = benchmark(omega1, rho, boundary_identity(), SERIES, N_FACTORS)
    assert res.value.shape == (SAMPLES,)


def test_xi_at_boundary_identity(benchmark):
    vec, h = reference_state(SEQ, N_FACTORS), SEQ.reference(1)
    scale = HFunctional(((1.0, (vec, h), (vec, h)),))(
        identity_element()).real
    nu = HFunctional(((1.0 / scale, (vec, h), (vec, h)),))

    def xi_value():
        xi = xi_from_nu(nu, SERIES, n_factors=N_FACTORS)
        return xi.value(boundary_identity())

    assert abs(benchmark(xi_value) - 1.0) < 1e-8


def test_lemma_decay_curve(benchmark):
    head = DEFAULT_CONFIG["decay"]["head_level"]
    f0 = reference_state(SEQ, max(head + 1, 4))
    bumped = [fac + ExpKernelVector([(0.5, 1.5 + i)]) if i < head else fac
              for i, fac in enumerate(f0.factors)]
    rho = build_delta_null_functional(
        ProductVector(SEQ, bumped, f0.tail_start), f0)
    curve = benchmark(lemma_decay_curve, rho, DEFAULT_CONFIG["decay"]["n_max"])
    assert max(curve[head:]) <= 1e-12
