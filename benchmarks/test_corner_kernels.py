"""Timings of the matrix-model corner kernels (opt-in, not part of the test
suite).

Run with

    PYTHONPATH=src python -m pytest benchmarks/test_corner_kernels.py \
        --benchmark-only

The inputs are those of the ``corner`` command at its default config, at
N = 3 factors (the default) and N = 4 of dimension 2 (dim_k = 8 and 16)
and the three half-line cells (dim_h = 24 and 48), linear lambda, cuts
0.5 and 0.25, witness label -1.  The kernels are the model's construction
with its cached constants (also at N = 6, dim_k = 64), the series weight
of the dim_k^2 unit densities at labels 1 and -1, the cut of those
minimal weight densities at cut 0.5 (to their blocks on the one cell of
three that the cut keeps: 8 x 8 and 16 x 16), the boundary
representation of the minimal weight there in word form (15 and 31
words), the cut's record (MatrixModel.cut: its words, mu_c and x) at
N = 3 and 5, timed on a fresh model so that it is built, not read from
the model's cache, the Choi spectrum of the folded
2x2 corner there (a 128 x 128 Choi matrix at N = 3, 512 x 512 at N = 4,
taken on the range of its 30 and 62 Choi vectors), the subordination
check of the unital weight over the minimal one, and the hypermaximality
witness that follows it, which reads its gap off the unital weight's
rank-one terms in that check.  The folded spectrum is the witness's
fallback kernel: the default witness certifies the corner by its 2x2
coefficient blocks and takes it only where a block's margin fails.  The
last two also run at N = 5 and 6 (dim_k = 32 and 64).  The derivation
residual of the ``corner`` runner, on the dim_k^2 unit densities at its
label 0.4 + 0.3i, runs at N = 3, 4 and 5, and the whole ``corner`` runner
(model, weights, every check and the derivation residual) at N = 4
and 5.

The largest sizes of the solve-path oracle of tests/test_wordform.py,
(N, m) = (4, 2) and (3, 3), run here too: they take 7 s and 2 min.
"""

import numpy as np
import pytest

from cpflow.cli import DEFAULT_CONFIG, Reporter, load_config, run_corner
from cpflow.cornercheck import (
    _folded_rep,
    derivation_residual,
    hypermax_witness,
    subordination_check,
)
from cpflow.opbasis import DEFAULT_EDGES, MatrixModel, choi_min_eig, is_cp
from cpflow.tensorspace import LambdaSequence
from references import unit_densities
from test_wordform import LARGE_SIZES, check_against_solve_path

CORNER = DEFAULT_CONFIG["corner"]
CUTS = tuple(CORNER["cut_levels"])
LABEL = complex(CORNER["witness_label"])
FACTOR_DIM = DEFAULT_CONFIG["tensor"]["factor_dim"]
DERIVATION_LABEL = 0.4 + 0.3j  # run_corner's
CONSTANTS = ("basis", "damping", "cross_overlap", "reference_coords",
             "delta_matrix", "shift", "slot_matrix", "tail_ratio")


def build_model(n_factors: int) -> MatrixModel:
    model = MatrixModel(n_factors=n_factors, factor_dim=FACTOR_DIM,
                        seq=LambdaSequence(DEFAULT_CONFIG["lambda"]["kind"]))
    for name in CONSTANTS:
        getattr(model, name)
    return model


def point_mass(model) -> np.ndarray:
    """The nu of run_corner."""
    nu = np.zeros((model.dim_h, model.dim_h))
    nu[0, 0] = 1.0
    return nu


@pytest.fixture(scope="module", params=[CORNER["factors"], 4],
                ids=lambda n: "N%d" % n)
def model(request):
    return build_model(request.param)


@pytest.fixture(scope="module", params=[CORNER["factors"], 4, 5, 6],
                ids=lambda n: "N%d" % n)
def corner_model(request):
    return build_model(request.param)


def test_model_construction(benchmark, model):
    built = benchmark(build_model, model.n_factors)
    assert built.dim_k == FACTOR_DIM ** model.n_factors
    assert built.dim_h == built.dim_k * (len(DEFAULT_EDGES) - 1)


def test_model_construction_at_six_factors(benchmark):
    built = benchmark(build_model, 6)
    assert built.dim_k == FACTOR_DIM ** 6


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_weight_superop(benchmark, model, z):
    out = benchmark(model.weight_superop, unit_densities(model.dim_k), z)
    assert out.shape == (model.dim_k ** 2, model.dim_h, model.dim_h)


def test_apply_truncation(benchmark, model):
    weights = model.weight_superop(unit_densities(model.dim_k))
    out = benchmark(model.apply_truncation, CUTS[0], weights)
    dim_out = model.cut(CUTS[0]).dim_out
    assert out.shape == (model.dim_k ** 2, dim_out, dim_out)


def test_boundary_rep(benchmark, model):
    rep = benchmark(model.boundary_rep, CUTS[0])
    assert rep.words.shape == (model.dim_k * model.cut(CUTS[0]).dim_out,
                               2 ** (model.n_factors + 1) - 1)


@pytest.mark.parametrize("n_factors", [CORNER["factors"], 5],
                         ids=lambda n: "N%d" % n)
def test_cut(benchmark, n_factors):
    # medians of 50 fresh models on a shared 2-core Xeon VM (OpenBLAS
    # 0.3.31): the record, 218 us at N = 3 and 1.14 ms at N = 5; the
    # words alone before the record held them (MatrixModel._dropped_words)
    # took 117-123 us and 1.05-1.08 ms, and the words, mu_c and x together
    # 236-253 us and 1.34-1.53 ms
    def fresh_model():
        return (build_model(n_factors),), {}

    cuts = []
    benchmark.pedantic(lambda m: cuts.append(m.cut(CUTS[0])),
                       setup=fresh_model, rounds=50)
    d = FACTOR_DIM ** n_factors
    assert all(c.words.shape == (d * c.dim_out, 2 ** (n_factors + 1) - 1)
               and c.x.shape == (d, d) for c in cuts)


@pytest.mark.parametrize("n_factors", [3, 4, 5], ids=lambda n: "N%d" % n)
def test_derivation_residual(benchmark, n_factors):
    built = build_model(n_factors)
    residual = benchmark(derivation_residual, built, DERIVATION_LABEL)
    assert residual < 1e-10


def test_choi_min_eig_folded_corner(benchmark, model):
    folded = _folded_rep(model, model.boundary_rep(CUTS[0]), LABEL, CUTS[0])
    verdict = benchmark(choi_min_eig, folded, 2 * model.dim_k,
                        model.cut(CUTS[0]).dim_out)
    assert is_cp(verdict.min_eigenvalue)


def test_subordination_check(benchmark, corner_model):
    verdict = benchmark(subordination_check, corner_model,
                        point_mass(corner_model), None, CUTS)
    assert verdict.subordinate


def test_hypermax_witness(benchmark, corner_model):
    dominance = subordination_check(corner_model, point_mass(corner_model),
                                    None, CUTS)
    report = benchmark(hypermax_witness, LABEL, corner_model, dominance)
    assert report.witnessed


@pytest.mark.parametrize("n_factors", [4, 5], ids=lambda n: "N%d" % n)
def test_run_corner(benchmark, n_factors, tmp_path):
    cfg = load_config(None)
    cfg["corner"]["factors"] = n_factors

    def fresh_run():
        rng = np.random.default_rng(cfg["seeds"]["rng"])
        return (cfg, Reporter("corner", cfg, tmp_path), rng), {}

    reps = []

    def run(c, rep, rng):
        reps.append(rep)
        run_corner(c, rep, rng)

    benchmark.pedantic(run, setup=fresh_run, rounds=3)
    assert reps and all(rep.records and rep.all_pass for rep in reps)


@pytest.mark.parametrize("n_factors, factor_dim", LARGE_SIZES)
def test_word_form_equals_solve_path(n_factors, factor_dim):
    check_against_solve_path(n_factors, factor_dim)
