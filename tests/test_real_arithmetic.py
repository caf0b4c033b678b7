"""The matrix model in real arithmetic: its dtype contract, and an oracle
that runs the same model in complex arithmetic."""

import numpy as np
import pytest

from cpflow import cli, cornercheck, opbasis
from cpflow.cli import COMMANDS, Reporter, load_config
from cpflow.cornercheck import WeightMatrix
from cpflow.opbasis import MatrixModel, choi_min_eig
from references import complex_model, full_size

LABELS = (-1.0 + 0j, 1j, complex(np.exp(1j * np.pi / 4)))
CUTS = (0.5, 0.25)
CONSTANTS = ("damping", "h_damping", "cross_overlap", "delta_matrix",
             "shift", "pi_superop")


def constant_matrices(model):
    """Every constant matrix of the model, by name."""
    out = {name: getattr(model, name) for name in CONSTANTS}
    out["reference_coords"] = model.reference_coords[0]
    out["series_kernel"] = model.series_kernel[0]
    out.update(("cut(%g)" % t, model.cut(t)) for t in CUTS)
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
            if not name.startswith("cut"):
                assert mat.dtype == np.complex128, name

    def test_corner_campaign_choi_inputs_are_real(self, monkeypatch,
                                                  tmp_path):
        dtypes = []

        def recorded(superop, *args, **kwargs):
            dtypes.append(superop.dtype)
            return choi_min_eig(superop, *args, **kwargs)

        for module in (opbasis, cornercheck, cli):
            monkeypatch.setattr(module, "choi_min_eig", recorded)
        cfg = load_config(None)
        rep = Reporter("corner", cfg, tmp_path)
        COMMANDS["corner"](cfg, rep,
                           np.random.default_rng(cfg["seeds"]["rng"]))
        assert rep.all_pass
        assert dtypes and all(d == np.float64 for d in dtypes)

    def test_nonreal_label_promotes(self):
        model = default_model()
        corner = WeightMatrix(model, model.weight_superop(), 1j)
        (_, upper), (lower, _) = corner.blocks
        assert upper.dtype == lower.dtype == np.complex128
        for t in CUTS:
            assert corner.boundary_rep(t).dtype == np.complex128

    def test_real_label_stays_real(self):
        model = MatrixModel(n_factors=2)
        for z in (1.0, -1.0 + 0j, np.conj(-1.0 + 0j), -1):
            assert model.weight_superop(z).dtype == np.float64

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
        (eta, d_val), (ref_eta, ref_d) = real.xi_eta(nu), \
            ref.xi_eta(nu.astype(complex))
        assert_close(eta, ref_eta)
        assert_close(d_val, ref_d)
        minimal, ref_minimal = real.weight_superop(), ref.weight_superop()
        weights = [(minimal, ref_minimal),
                   (minimal + real.gap_superop(eta),
                    ref_minimal + ref.gap_superop(ref_eta))]
        for z in LABELS:
            weights += [(real.weight_superop(w), ref.weight_superop(w))
                        for w in (z, np.conj(z))]
        reps = []
        for got, want in weights:
            assert_close(got, want)
            for t in CUTS:
                (rep, cond), (ref_rep, ref_cond) = \
                    real.boundary_rep(got, t), ref.boundary_rep(want, t)
                assert_close(rep, ref_rep)
                assert_close(cond, ref_cond)
                reps.append((full_size(real, t, rep),
                             full_size(real, t, ref_rep), 1))
        for z in LABELS:
            corners = (WeightMatrix(real, weights[0][0], z),
                       WeightMatrix(ref, weights[0][1], z))
            for t in CUTS:
                fold, ref_fold = (c.boundary_rep(t) for c in corners)
                assert_close(fold, ref_fold)
                reps.append((full_size(real, t, fold),
                             full_size(real, t, ref_fold), 2))
        for rep, ref_rep, blocks in reps:
            dims = (blocks * real.dim_k, real.dim_h)
            v, ref_v = choi_min_eig(rep, *dims), choi_min_eig(ref_rep, *dims)
            assert_close(v.min_eigenvalue, ref_v.min_eigenvalue)
            assert_close(v.trace, ref_v.trace)
            assert_close(v.hermiticity_defect, ref_v.hermiticity_defect)
            assert v.completely_positive == ref_v.completely_positive

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
