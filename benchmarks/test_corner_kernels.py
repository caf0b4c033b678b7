"""Timings of the matrix-model corner kernels (opt-in, not part of the test
suite).

Run with

    PYTHONPATH=src python -m pytest benchmarks/test_corner_kernels.py \
        --benchmark-only

The inputs are those of the ``corner`` command at its default config, at
N = 3 factors (the default) and N = 4 of dimension 2 (dim_k = 8 and 16)
and the three half-line cells (dim_h = 24 and 48), linear lambda, cuts
0.5 and 0.25, witness label -1.  The kernels are the model's construction
with its cached constants, the series weight at labels 1 and -1, the cut
and the boundary representation of the minimal weight at cut 0.5 (both
on the one cell of three that the cut keeps: 64 x 64 and 256 x 256
output rows), the Choi spectrum of the folded 2x2 corner there (a
128 x 128 Choi matrix at N = 3, 512 x 512 at N = 4), the subordination
check of the unital weight over the minimal one, and the
hypermaximality witness that follows it.
"""

import numpy as np
import pytest

from cpflow.cli import DEFAULT_CONFIG
from cpflow.cornercheck import (
    _folded_rep,
    hypermax_witness,
    subordination_check,
)
from cpflow.opbasis import DEFAULT_EDGES, MatrixModel, choi_min_eig
from cpflow.tensorspace import LambdaSequence

CORNER = DEFAULT_CONFIG["corner"]
CUTS = tuple(CORNER["cut_levels"])
FACTOR_DIM = DEFAULT_CONFIG["tensor"]["factor_dim"]
CONSTANTS = ("basis", "damping", "cross_overlap", "reference_coords",
             "delta_matrix", "shift", "pi_superop", "series_kernel")


def build_model(n_factors: int) -> MatrixModel:
    model = MatrixModel(n_factors=n_factors, factor_dim=FACTOR_DIM,
                        seq=LambdaSequence(DEFAULT_CONFIG["lambda"]["kind"]))
    for name in CONSTANTS:
        getattr(model, name)
    return model


@pytest.fixture(scope="module", params=[CORNER["factors"], 4],
                ids=lambda n: "N%d" % n)
def model(request):
    return build_model(request.param)


@pytest.fixture(scope="module")
def eta(model):
    """The density of the normalized weight, as run_corner."""
    nu = np.zeros((model.dim_h, model.dim_h))
    nu[0, 0] = 1.0
    return model.xi_eta(nu)[0]


@pytest.fixture(scope="module")
def weights(model, eta):
    """The minimal and the unital weight superoperators, as run_corner."""
    minimal = model.weight_superop()
    return minimal, minimal + model.gap_superop(eta)


def test_model_construction(benchmark, model):
    built = benchmark(build_model, model.n_factors)
    assert built.dim_k == FACTOR_DIM ** model.n_factors
    assert built.dim_h == built.dim_k * (len(DEFAULT_EDGES) - 1)


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_weight_superop(benchmark, model, z):
    out = benchmark(model.weight_superop, z)
    assert out.shape == (model.dim_h ** 2, model.dim_k ** 2)


def kept_dim(model) -> int:
    """Output dimension of a map after the cut CUTS[0]."""
    return model.dim_k * model.kept_cells(CUTS[0])


def test_apply_truncation(benchmark, model, weights):
    out = benchmark(model.apply_truncation, CUTS[0], weights[0])
    assert out.shape == (kept_dim(model) ** 2, model.dim_k ** 2)


def test_boundary_rep(benchmark, model, weights):
    rep, condition = benchmark(model.boundary_rep, weights[0], CUTS[0])
    assert rep.shape == (kept_dim(model) ** 2, model.dim_k ** 2)
    assert condition < 1e12


def test_choi_min_eig_folded_corner(benchmark, model, weights):
    z = complex(CORNER["witness_label"])
    diag_rep = model.boundary_rep(weights[0], CUTS[0])[0]
    folded = _folded_rep(model, diag_rep, model.weight_superop(z), CUTS[0])
    verdict = benchmark(choi_min_eig, folded, 2 * model.dim_k,
                        kept_dim(model))
    assert verdict.completely_positive


def test_subordination_check(benchmark, model, weights):
    minimal, full = weights
    verdict = benchmark(subordination_check, model, full, minimal, CUTS)
    assert verdict.subordinate


def test_hypermax_witness(benchmark, model, eta, weights):
    minimal, full = weights
    dominance = subordination_check(model, full, minimal, CUTS)
    report = benchmark(hypermax_witness, complex(CORNER["witness_label"]),
                       model, eta, dominance)
    assert report.witnessed
