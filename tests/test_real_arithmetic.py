"""The matrix model in real arithmetic: its dtype contract, and an oracle
that runs the same model in complex arithmetic."""

import numpy as np
import pytest

from cpflow import cli, cornercheck, opbasis
from cpflow.cli import COMMANDS, Reporter, load_config
from cpflow.cornercheck import WeightMatrix
from cpflow.opbasis import MatrixModel, choi_min_eig, is_cp
from references import (
    complex_model,
    dense_rep,
    dense_superop,
    unit_densities,
)

LABELS = (-1.0 + 0j, 1j, complex(np.exp(1j * np.pi / 4)))
CUTS = (0.5, 0.25)
CONSTANTS = ("damping", "h_damping", "cross_overlap", "delta_matrix",
             "shift", "slot_matrix")


def constant_matrices(model):
    """Every constant matrix of the model, by name."""
    out = {name: getattr(model, name) for name in CONSTANTS}
    out["reference_coords"] = model.reference_coords[0]
    return out


def assert_close(got, ref):
    """Entrywise agreement to 1e-13 relative to max(|value|, 1)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))


def corner_records(factors, label, out_dir):
    cfg = load_config(None)
    cfg["corner"]["factors"] = factors
    cfg["corner"]["witness_label"] = str(label)
    rep = Reporter("corner", cfg, out_dir)
    COMMANDS["corner"](cfg, rep, np.random.default_rng(cfg["seeds"]["rng"]))
    return rep.records


def default_model():
    cfg = load_config(None)
    return MatrixModel(n_factors=cfg["corner"]["factors"],
                       factor_dim=cfg["tensor"]["factor_dim"],
                       seq=cli._seq(cfg))


class TestDtypeContract:
    def test_constant_matrices_are_real(self):
        for name, mat in constant_matrices(default_model()).items():
            assert mat.dtype == np.float64, name

    def test_complex_model_promotes_every_constant(self):
        for name, mat in constant_matrices(
                complex_model(MatrixModel(n_factors=2))).items():
            assert mat.dtype == np.complex128, name

    def test_maps_keep_real_densities_real(self):
        model = default_model()
        rho = unit_densities(model.dim_k)
        mu = np.eye(model.dim_h)
        for image in (model.pi_superop(rho), model.lambda_superop(mu),
                      model.apply_truncation(0.25, mu),
                      model.weight_superop(rho)):
            assert image.dtype == np.float64

    def test_corner_campaign_choi_inputs_are_real(self, monkeypatch,
                                                  tmp_path):
        dtypes = []

        def recorded(factors, *args, **kwargs):
            dtypes.extend((factors.vectors.dtype, factors.weights.dtype))
            return choi_min_eig(factors, *args, **kwargs)

        for module in (opbasis, cornercheck, cli):
            monkeypatch.setattr(module, "choi_min_eig", recorded)
        cfg = load_config(None)
        rep = Reporter("corner", cfg, tmp_path)
        COMMANDS["corner"](cfg, rep,
                           np.random.default_rng(cfg["seeds"]["rng"]))
        assert rep.all_pass
        assert dtypes and all(d == np.float64 for d in dtypes)

    def test_nonreal_label_promotes(self):
        # the words stay real; only the coefficients take the label's type
        model = default_model()
        rho = unit_densities(model.dim_k)
        assert model.weight_superop(rho, 1j).dtype == np.complex128
        corner = WeightMatrix(model, None, 1j)
        for t in CUTS:
            rep = model.boundary_rep(t, 1j)
            assert rep.words.dtype == np.float64
            assert rep.coeffs.dtype == np.complex128
            fold = corner.boundary_rep(t)
            assert fold.vectors.dtype == np.float64
            assert fold.weights.dtype == np.complex128

    def test_real_label_stays_real(self):
        model = MatrixModel(n_factors=2)
        rho = unit_densities(model.dim_k)
        for z in (1.0, -1.0 + 0j, np.conj(-1.0 + 0j), -1):
            assert model.weight_superop(rho, z).dtype == np.float64
            assert model.boundary_rep(0.5, z).coeffs.dtype == np.float64

    def test_real_part_taken_without_tolerance(self):
        assert opbasis._real_if_exact([1.0 + 0j, -0.0j]).dtype == np.float64
        tiny = opbasis._real_if_exact([1.0 + 1e-300j])
        assert tiny.dtype == np.complex128 and tiny[0].imag == 1e-300


class TestComplexOracle:
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_model_matches_complex_path(self, n_factors):
        real = MatrixModel(n_factors=n_factors)
        ref = complex_model(real)
        nu = np.zeros((real.dim_h, real.dim_h))
        nu[0, 0] = 1.0
        assert_close(real.tail_ratio, ref.tail_ratio)
        labels = [1.0] + [w for z in LABELS for w in (z, np.conj(z))]
        units = unit_densities(real.dim_k)
        for z in labels:
            assert_close(real.weight_superop(units, z),
                         ref.weight_superop(units, z))
        checks = []
        for t in CUTS:
            kept = real.cut(t).dim_out
            pairs = [(real.boundary_rep(t, z), ref.boundary_rep(t, z))
                     for z in labels]
            pairs.append((real.boundary_rep(t, nu=nu),
                          ref.boundary_rep(t, nu=nu.astype(complex))))
            for rep, ref_rep in pairs:
                assert_close(dense_rep(real, t, rep),
                             dense_rep(ref, t, ref_rep))
                checks.append((rep.choi, ref_rep.choi, real.dim_k, kept))
            for z in LABELS:
                fold, ref_fold = (WeightMatrix(m, None, z).boundary_rep(t)
                                  for m in (real, ref))
                dims = (2 * real.dim_k, kept)
                assert_close(dense_superop(fold, *dims),
                             dense_superop(ref_fold, *dims))
                checks.append((fold, ref_fold) + dims)
        for factors, ref_factors, din, dout in checks:
            v = choi_min_eig(factors, din, dout)
            ref_v = choi_min_eig(ref_factors, din, dout)
            assert_close(v.min_eigenvalue, ref_v.min_eigenvalue)
            assert_close(v.trace, ref_v.trace)
            assert_close(v.hermiticity_defect, ref_v.hermiticity_defect)
            assert is_cp(v.min_eigenvalue) == is_cp(ref_v.min_eigenvalue)

    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("factors", [2, 3])
    def test_corner_records_match_complex_path(self, factors, label,
                                               monkeypatch, tmp_path):
        got = corner_records(factors, label, tmp_path / "real")
        monkeypatch.setattr(cli, "MatrixModel",
                            lambda **kw: complex_model(MatrixModel(**kw)))
        want = corner_records(factors, label, tmp_path / "complex")
        assert [(r["name"], r["pass"]) for r in got] \
            == [(r["name"], r["pass"]) for r in want]
        for record, ref in zip(got, want):
            if isinstance(ref["value"], bool):
                assert record["value"] is ref["value"]
            else:
                assert_close(record["value"], ref["value"])
