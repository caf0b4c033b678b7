"""Finite matrix model: bases, predual maps, Choi spectra."""

import numpy as np
import pytest
from scipy.integrate import quad

from cpflow.cornercheck import WeightMatrix, fold_doubled
from cpflow.halfline import ExpKernelVector, inner_product
from cpflow.opbasis import (
    ChoiVerdict,
    MatrixModel,
    NonInvertibleSystemError,
    choi_matrix,
    choi_min_eig,
    identity_superop,
    orthonormal_span,
    tail_overlap,
    transpose_superop,
)
from cpflow.tensorspace import LambdaSequence, tail_weight_product
from references import assemble_doubled, doubled_entries


@pytest.fixture(scope="module")
def model():
    return MatrixModel(n_factors=3, factor_dim=2)


@pytest.fixture(scope="module")
def span_model():
    return MatrixModel(n_factors=3, factor_dim=2, h_kind="span")


def random_density(rng, dim, rank=None):
    a = rng.normal(size=(dim, rank or dim)) \
        + 1j * rng.normal(size=(dim, rank or dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def point_mass(model):
    nu = np.zeros((model.dim_h, model.dim_h), dtype=complex)
    nu[0, 0] = 1.0
    return nu


def rank_two(model):
    return random_density(np.random.default_rng(9), model.dim_h, rank=2)


def corner(model, entries, dim_out):
    """A 1x1 matrix of maps as its entry, a 2x2 one on the doubled space.

    Every entry maps K-densities to dim_out-densities.
    """
    if len(entries) == 1:
        return entries[0][0]
    return assemble_doubled(entries, model.dim_k, dim_out)


def reference_truncation(model, t, blocks):
    """Dense mu -> P mu P on densities with 1 or 2 diagonal blocks."""
    if blocks == 1:
        return model.truncation_superop(t)
    p_tilde = np.kron(np.eye(2 * model.dim_k), model.cut(t))
    return np.kron(p_tilde, p_tilde.T)


def reference_lambda(model, blocks):
    """Dense lambdahat on densities with 1 or 2 diagonal blocks."""
    if blocks == 1:
        return model.lambda_superop()
    d, mh = 2 * model.dim_k, model.h_dim
    eye = np.eye(d)
    t6 = np.einsum("bi,aj,pq->baiqjp", eye, eye, model.h_damping)
    return t6.reshape(d * d, (d * mh) ** 2)


class TestBases:
    def test_orthonormal_span_gram(self):
        basis = orthonormal_span([0.5, 1.5, 2.5])
        gram = np.array([[inner_product(u, v) for v in basis]
                         for u in basis])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_tail_overlap_full_range(self):
        f = ExpKernelVector([(1.0, 1.0)])
        assert tail_overlap(f, f, 0.0) == pytest.approx(
            inner_product(f, f))

    @pytest.mark.parametrize("t", [0.25, 1.3])
    def test_tail_overlap_matches_quadrature(self, t):
        f = ExpKernelVector([(1.0 + 0.5j, 0.7), (-0.3, 2.1 + 0.4j)])
        g = ExpKernelVector([(2.0, 1.3), (0.25j, 0.9 - 0.6j)])

        def part(fn):
            return quad(lambda x: fn(np.conj(f(x)) * g(x)), t, 60.0,
                        limit=200)[0]

        oracle = part(np.real) + 1j * part(np.imag)
        assert tail_overlap(f, g, t) == pytest.approx(oracle, abs=1e-10)

    def test_damping_is_contraction(self, model):
        evals = np.linalg.eigvalsh(model.damping)
        assert evals[0] > 0.0
        assert evals[-1] < 1.0

    def test_cell_damping_diagonal(self, model):
        off = model.h_damping - np.diag(np.diag(model.h_damping))
        assert np.linalg.norm(off) == 0.0

    def test_cut_is_projection_at_edges(self, model):
        for t in (0.25, 0.5):
            p = model.cut(t)
            np.testing.assert_allclose(p @ p, p, atol=1e-14)

    def test_cut_rejects_non_edges(self, model):
        with pytest.raises(ValueError):
            model.cut(0.3)

    def test_cut_commutes_with_damping(self, model):
        p = model.cut(0.25)
        e = model.h_damping
        assert np.linalg.norm(p @ e - e @ p) == 0.0

    def test_reference_fidelity_below_one(self, model):
        _, fid = model.reference_coords
        assert 0.0 < fid < 1.0

    def test_delta_matrix_trace(self, model):
        # compression of the infinite damping product against the exact tail
        tail = tail_weight_product(model.seq, model.n_factors + 1)
        evals = np.linalg.eigvalsh(model.delta_matrix)
        assert evals[0] > 0.0
        assert evals[-1] <= tail + 1e-12


class TestPredualMaps:
    def test_pred_pi_positive(self, model):
        rng = np.random.default_rng(0)
        rho = random_density(rng, model.dim_k)
        mu = model.pred_pi(rho)
        assert np.linalg.eigvalsh(mu)[0] >= -1e-12

    def test_pi_superop_matches_pred_pi(self, model):
        rng = np.random.default_rng(1)
        rho = random_density(rng, model.dim_k)
        direct = model.pred_pi(rho)
        via = (model.pi_superop @ rho.reshape(-1)).reshape(model.dim_h,
                                                           model.dim_h)
        np.testing.assert_allclose(direct, via, atol=1e-12)

    def test_lambda_superop_matches_pred_lambda(self, model):
        rng = np.random.default_rng(2)
        mu = random_density(rng, model.dim_h)
        direct = model.pred_lambda(mu)
        via = (model.lambda_superop() @ mu.reshape(-1)).reshape(
            model.dim_k, model.dim_k)
        np.testing.assert_allclose(direct, via, atol=1e-12)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_pred_lambda_maps_superop_columns(self, model, blocks):
        # two blocks: lambdahat of a doubled superoperator is the 2x2
        # matrix of lambdahat of its entries
        rng = np.random.default_rng(6)
        dh, cols = model.dim_h, 5 if blocks == 1 else model.dim_k ** 2
        entries = [[rng.normal(size=(dh * dh, cols))
                    + 1j * rng.normal(size=(dh * dh, cols))
                    for _ in range(blocks)] for _ in range(blocks)]
        images = [[model.pred_lambda(e) for e in row] for row in entries]
        np.testing.assert_allclose(
            corner(model, images, model.dim_k),
            reference_lambda(model, blocks) @ corner(model, entries, dh),
            atol=1e-12)

    def test_lambda_of_identity_is_damping_trace(self, model):
        mu = np.eye(model.dim_h, dtype=complex)
        out = model.pred_lambda(mu)
        expected = np.eye(model.dim_k) * np.trace(model.h_damping)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestWeightSuperop:
    def test_weight_preserves_positivity(self, model):
        rng = np.random.default_rng(3)
        omega = model.weight_superop()
        for _ in range(5):
            rho = random_density(rng, model.dim_k)
            mu = (omega @ rho.reshape(-1)).reshape(model.dim_h,
                                                   model.dim_h)
            assert np.linalg.eigvalsh(0.5 * (mu + mu.conj().T))[0] >= -1e-10

    def test_divergent_label_rejected(self, model):
        with pytest.raises(NonInvertibleSystemError):
            model.weight_superop(z=1e6)

    def test_xi_eta_normalization(self, model):
        eta, d_val = model.xi_eta(point_mass(model))
        assert 0.0 < d_val < 1.0
        np.testing.assert_allclose(eta, eta.conj().T, atol=1e-12)

    @pytest.mark.parametrize("make_nu", [point_mass, rank_two])
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_xi_eta_matches_big_space_series(self, n_factors, make_nu):
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu, dh = make_nu(m), m.dim_h
        # sum_n (pihat lambdahat)^n nu solved on the dim_h^2 coordinates
        big = m.pi_superop @ m.lambda_superop()
        d_ref = np.trace(nu @ np.kron(m.delta_matrix, m.h_damping)).real
        series = np.linalg.solve(np.eye(dh * dh) - big, nu.reshape(-1))
        ref = series.reshape(dh, dh) / (1.0 - d_ref)
        ref = 0.5 * (ref + ref.conj().T)
        eta, d_val = m.xi_eta(nu)
        assert d_val == pytest.approx(d_ref, rel=0, abs=1e-14)
        assert np.linalg.norm(eta - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("make_nu", [point_mass, rank_two])
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_xi_eta_fixed_point(self, n_factors, make_nu):
        # x = (1 - d) eta solves x - pihat lambdahat x = nu
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu = make_nu(m)
        eta, d_val = m.xi_eta(nu)
        x = (1.0 - d_val) * eta
        np.testing.assert_allclose(x - m.pred_pi(m.pred_lambda(x)), nu,
                                   rtol=0, atol=1e-12)

    def test_boundary_rep_cp_at_cell_edges(self, model):
        omega = model.weight_superop()
        for t in (0.5, 0.25):
            rep, cond = model.boundary_rep(omega, t)
            verdict = choi_min_eig(rep, model.dim_k, model.dim_h)
            assert verdict.completely_positive
            assert cond < 1e6


class TestGammaModel:
    def test_gamma_requires_span_variant(self, model):
        with pytest.raises(NotImplementedError):
            model.gamma_tensor

    def test_gamma_identity_relation(self, span_model):
        m = span_model.factor_dim
        ident = np.eye(m, dtype=complex).reshape(-1)
        g2 = span_model.gamma_tensor.reshape(m * m, m * m)
        image = (g2 @ ident).reshape(m, m)
        expected = np.eye(m) - span_model.damping
        np.testing.assert_allclose(image, expected, atol=1e-12)

    def test_pred_gamma_positive(self, span_model):
        rng = np.random.default_rng(4)
        mu = random_density(rng, span_model.dim_h)
        out = span_model.pred_gamma(mu)
        herm = 0.5 * (out + out.conj().T)
        assert np.linalg.eigvalsh(herm)[0] >= -1e-10


class TestChoi:
    def test_identity_map(self):
        v = choi_min_eig(identity_superop(3), 3, 3)
        assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert v.completely_positive

    def test_transpose_map(self):
        v = choi_min_eig(transpose_superop(2), 2, 2)
        assert v.min_eigenvalue == pytest.approx(-1.0)
        assert not v.completely_positive

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            choi_matrix(np.eye(4), 3, 3)

    def test_conjugation_choi_rank_one(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        superop = np.kron(k, k.conj())
        v = choi_min_eig(superop, 2, 2)
        assert v.completely_positive


def random_kraus_superop(rng, dim_in, dim_out, rank, cut_rows=()):
    """Superoperator of a random CP map; cut_rows are zero output rows."""
    out = np.zeros((dim_out * dim_out, dim_in * dim_in), dtype=complex)
    for _ in range(rank):
        k = rng.normal(size=(dim_out, dim_in)) \
            + 1j * rng.normal(size=(dim_out, dim_in))
        k[list(cut_rows)] = 0.0
        out += np.kron(k, k.conj())
    return out


class TestCutAwareKernels:
    """The cut-aware kernels against the dense reference path."""

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("t", [0.5, 0.25])
    def test_apply_truncation_equals_truncation_superop(self, blocks, t):
        # two blocks: the cut of a doubled superoperator is the 2x2 matrix
        # of the cuts of its entries
        small = MatrixModel(n_factors=2, factor_dim=2)
        rng = np.random.default_rng(7)
        dh, din = small.dim_h, small.dim_k
        entries = [[rng.normal(size=(dh * dh, din * din))
                    + 1j * rng.normal(size=(dh * dh, din * din))
                    for _ in range(blocks)] for _ in range(blocks)]
        masked = corner(small, [[small.apply_truncation(t, e) for e in row]
                                for row in entries], dh)
        dense = reference_truncation(small, t, blocks) \
            @ corner(small, entries, dh)
        assert np.array_equal(masked, dense)

    @pytest.mark.parametrize("n_factors", [2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_boundary_rep_matches_explicit_inverse(self, n_factors, blocks):
        # two blocks: the corner at z = 1j (upper != lower), solved entry
        # by entry and folded, against the fold of the four entries of the
        # inverse of the whole doubled system
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        omega = m.weight_superop()
        corner_matrix = WeightMatrix(m, omega, 1j)
        entries = [[omega]] if blocks == 1 else corner_matrix.blocks()
        for t in (0.5, 0.25):
            w_t = reference_truncation(m, t, blocks) \
                @ corner(m, entries, m.dim_h)
            system = np.eye(w_t.shape[1]) \
                + reference_lambda(m, blocks) @ w_t
            reference = w_t @ np.linalg.inv(system)
            if blocks == 1:
                rep, cond = m.boundary_rep(omega, t)
                assert cond == pytest.approx(np.linalg.cond(system),
                                             rel=1e-12)
            else:
                rep = corner_matrix.boundary_rep(t)
                reference = fold_doubled(
                    doubled_entries(reference, m.dim_k, m.dim_h),
                    m.dim_k, m.dim_h)
            np.testing.assert_allclose(rep, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cut_rows", [(), (0, 2), (1, 3, 4)])
    def test_choi_min_eig_matches_full_spectrum(self, cut_rows):
        rng = np.random.default_rng(8)
        din, dout = 3, 5
        # full Kraus rank: the Choi block on the live rows is positive
        # definite, so only the min(lambda, 0) rule gives the zero eigenvalue
        cp_map = random_kraus_superop(rng, din, dout, din * dout, cut_rows)
        other = random_kraus_superop(rng, din, dout, 1, cut_rows)
        for superop in (cp_map, cp_map - other):
            choi = choi_matrix(superop, din, dout)
            herm = 0.5 * (choi + choi.conj().T)
            v = choi_min_eig(superop, din, dout)
            assert v.min_eigenvalue == pytest.approx(
                np.linalg.eigvalsh(herm)[0], abs=1e-12)
            assert v.trace == np.trace(herm).real
            assert v.hermiticity_defect == np.linalg.norm(choi - herm)
        assert choi_min_eig(cp_map, din, dout).completely_positive

    def test_choi_min_eig_of_zero_map(self):
        v = choi_min_eig(np.zeros((16, 9)), 3, 4)
        assert v.min_eigenvalue == 0.0
        assert v.trace == 0.0
        assert v.completely_positive

    def test_span_basis_rejects_spectral_cuts(self, span_model):
        d2, dh2 = span_model.dim_k ** 2, span_model.dim_h ** 2
        omega = np.zeros((dh2, d2), dtype=complex)
        with pytest.raises(ValueError, match="cell basis"):
            span_model.apply_truncation(0.5, omega)
        with pytest.raises(ValueError, match="cell basis"):
            span_model.boundary_rep(omega, 0.5)
