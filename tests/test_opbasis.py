"""Finite matrix model: bases, predual maps, Choi spectra."""

import numpy as np
import pytest

from cpflow.cornercheck import WeightMatrix, subordination_check
from cpflow.halfline import inner_product
from cpflow.opbasis import (
    ChoiFactors,
    ChoiVerdict,
    MatrixModel,
    UNITAL_LIMIT,
    NonInvertibleSystemError,
    choi_min_eig,
    is_cp,
    orthonormal_span,
)
from cpflow.tensorspace import tail_weight_product
from references import (
    assemble_doubled,
    choi_matrix,
    cut_projection,
    dense_choi_min_eig,
    dense_lambda_superop,
    dense_letters,
    dense_pi_superop,
    dense_rep,
    dense_superop,
    doubled_entries,
    fold_doubled,
    full_size,
    full_size_boundary_rep,
    identity_superop,
    kraus,
    map_superop,
    on_columns,
    solve_boundary_rep,
    solve_weight_superop,
    solve_xi_eta,
    transpose_superop,
    truncation_superop,
)


@pytest.fixture(scope="module")
def model():
    return MatrixModel(n_factors=3, factor_dim=2)


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
        return truncation_superop(model, t)
    p_tilde = np.kron(np.eye(2 * model.dim_k), cut_projection(model, t))
    return np.kron(p_tilde, p_tilde.T)


class TestBases:
    def test_orthonormal_span_gram(self):
        basis = orthonormal_span([0.5, 1.5, 2.5])
        gram = np.array([[inner_product(u, v) for v in basis]
                         for u in basis])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_damping_is_contraction(self, model):
        evals = np.linalg.eigvalsh(model.damping)
        assert evals[0] > 0.0
        assert evals[-1] < 1.0

    def test_cell_damping_diagonal(self, model):
        off = model.h_damping - np.diag(np.diag(model.h_damping))
        assert np.linalg.norm(off) == 0.0

    def test_cut_is_projection_at_edges(self, model):
        for t in (0.25, 0.5):
            p = cut_projection(model, t)
            np.testing.assert_allclose(p @ p, p, atol=1e-14)

    def test_cut_rejects_non_edges(self, model):
        with pytest.raises(ValueError):
            model.cut(0.3)
        # the top edge keeps no cell: every representation there is zero
        with pytest.raises(ValueError, match="cut levels"):
            MatrixModel(2, 2).cut(2.0)
        with pytest.raises(ValueError, match="cut levels"):
            MatrixModel(2, 2).apply_truncation(2.0, np.eye(12))

    def test_cut_is_built_once_per_edge(self):
        # a level within 1e-12 of an edge names that edge and its record
        m = MatrixModel(2, 2)
        assert m.cut(0.5) is m.cut(0.5 + 1e-13)
        assert m.cut(0.25) is not m.cut(0.5)

    def test_kept_cells_are_a_top_suffix_of_the_cut(self, model):
        # the cut's rank, and its diagonal is 0 on the dropped cells and 1
        # on the kept ones, which split the cells below and above the cut
        for t in (0.0, 0.25, 0.5):
            n = model.cut(t).dim_out // model.dim_k
            cut = cut_projection(model, t)
            dropped, kept = model.cut(t).dropped, model.cut(t).kept
            assert isinstance(n, int)
            assert n == np.linalg.matrix_rank(cut)
            assert np.array_equal(np.diag(cut),
                                  [0.0] * (model.h_dim - n) + [1.0] * n)
            assert (dropped.start, dropped.stop, kept.start, kept.stop) \
                == (0, model.h_dim - n, model.h_dim - n, model.h_dim)

    def test_cut_commutes_with_damping(self, model):
        p = cut_projection(model, 0.25)
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
        mu = model.pi_superop(rho)
        assert np.linalg.eigvalsh(mu)[0] >= -1e-12

    def test_pi_superop_matches_pred_pi(self, model):
        # the predual of the shift endomorphism, rho -> s0* rho s0, against
        # its superoperator
        rng = np.random.default_rng(1)
        rho = random_density(rng, model.dim_k)
        via = (dense_pi_superop(model) @ rho.reshape(-1)).reshape(
            model.dim_h, model.dim_h)
        np.testing.assert_allclose(model.pi_superop(rho), via, atol=1e-12)

    def test_lambda_superop_matches_dense(self, model):
        rng = np.random.default_rng(2)
        mu = random_density(rng, model.dim_h)
        direct = model.lambda_superop(mu)
        via = (dense_lambda_superop(model) @ mu.reshape(-1)).reshape(
            model.dim_k, model.dim_k)
        np.testing.assert_allclose(direct, via, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
    def test_lambda_superop_on_kept_cells(self, model, t):
        # lambdahat on the kept cells against lambdahat of the cut
        # densities: bit for bit on the same kernel, since the dropped
        # cells add exact zeros; the dense product agrees to roundoff
        # only, since BLAS may fuse a product into the sum of two kept
        # cells.  The dropped cells' lambdahat is the rest, and exactly
        # zero when no cell is dropped
        rng = np.random.default_rng(10)
        dh = model.dim_h
        mu = rng.normal(size=(5, dh, dh)) + 1j * rng.normal(size=(5, dh, dh))
        dropped, kept = model.cut(t).dropped, model.cut(t).kept
        on_kept = model.lambda_superop(mu, kept)
        masked = (truncation_superop(model, t)
                  @ mu.reshape(5, -1).T).T.reshape(mu.shape)
        assert np.array_equal(on_kept, model.lambda_superop(masked))
        np.testing.assert_allclose(
            on_kept.reshape(5, -1).T,
            dense_lambda_superop(model) @ masked.reshape(5, -1).T,
            rtol=0, atol=1e-12)
        on_dropped = model.lambda_superop(mu, dropped)
        np.testing.assert_allclose(on_kept + on_dropped,
                                   model.lambda_superop(mu), rtol=0,
                                   atol=1e-12)
        if t == 0.0:
            assert on_dropped.shape == on_kept.shape
            assert not on_dropped.any()

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_lambda_superop_maps_superop_columns(self, model, blocks):
        # lambdahat on the columns of a superoperator, read as a stack of
        # densities; two blocks: lambdahat of a doubled superoperator is
        # the 2x2 matrix of lambdahat of its entries
        rng = np.random.default_rng(6)
        dh, cols = model.dim_h, 5 if blocks == 1 else model.dim_k ** 2
        entries = [[rng.normal(size=(dh * dh, cols))
                    + 1j * rng.normal(size=(dh * dh, cols))
                    for _ in range(blocks)] for _ in range(blocks)]
        images = [[on_columns(model.lambda_superop, e, dh) for e in row]
                  for row in entries]
        np.testing.assert_allclose(
            corner(model, images, model.dim_k),
            dense_lambda_superop(model, blocks) @ corner(model, entries, dh),
            atol=1e-12)

    @pytest.mark.parametrize("n_factors, factor_dim", [(3, 2), (4, 2),
                                                       (2, 3)])
    def test_series_kernel_matches_dense_product(self, n_factors,
                                                 factor_dim):
        # khat through the slot matrix Q, on the unit densities, against
        # lambdahat pihat as dense matrices from the cell damping and the
        # shift: each entry is summed in another order than the dense
        # product, so the two agree to roundoff, not bit for bit
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        k_hat = map_superop(lambda r: m._kernel(r, m.slot_matrix), m.dim_k)
        dense = dense_lambda_superop(m) @ dense_pi_superop(m)
        assert np.linalg.norm(k_hat - dense) \
            <= np.finfo(float).eps * np.linalg.norm(dense)

    @pytest.mark.parametrize("n_factors, factor_dim",
                             [(1, 2), (2, 2), (3, 2), (4, 2), (3, 3),
                              (5, 2), (6, 2)])
    def test_slot_kernel_is_the_kraus_map_of_the_letters(self, n_factors,
                                                         factor_dim):
        # khat and its dual through Q against the Kraus maps of the dense
        # letters from the shift and of their adjoints, on random
        # Hermitian stacks, over all cells and over the cells of a cut
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        letters = dense_letters(m)
        rng = np.random.default_rng(2)
        rho = rng.normal(size=(5, m.dim_k, m.dim_k))
        rho = rho + rho.swapaxes(1, 2)
        for cells in (slice(None), slice(0, 2), slice(0, 1)):
            q = m._slot_matrix_on(cells)
            for got, want in (
                    (m._kernel(rho, q), kraus(letters[cells], rho)),
                    (m._kernel_dual(rho, q),
                     kraus(letters[cells].conj().swapaxes(1, 2), rho))):
                assert np.linalg.norm(got - want) \
                    <= 1e-15 * np.linalg.norm(want)

    def test_lambda_of_identity_is_damping_trace(self, model):
        mu = np.eye(model.dim_h, dtype=complex)
        out = model.lambda_superop(mu)
        expected = np.eye(model.dim_k) * np.trace(model.h_damping)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestWeightSuperop:
    def test_weight_preserves_positivity(self, model):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_density(rng, model.dim_k)
            mu = model.weight_superop(rho)
            assert np.linalg.eigvalsh(0.5 * (mu + mu.conj().T))[0] >= -1e-10

    def test_divergent_label_rejected(self, model):
        with pytest.raises(NonInvertibleSystemError):
            model.weight_superop(np.eye(model.dim_k), z=1e6)

    @pytest.mark.parametrize("n_factors", [2, 3, 4])
    def test_stack_equals_one_density_at_a_time(self, n_factors):
        # leading axes broadcast: a stack of densities, at any label, is
        # mapped as each of its members alone, bit for bit
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        rng = np.random.default_rng(n_factors)
        dk = m.dim_k
        stack = (rng.normal(size=(2, 3, dk, dk))
                 + 1j * rng.normal(size=(2, 3, dk, dk)))
        for z in (1.0, -1.0, 1j, 0.4 + 0.3j):
            got = m.weight_superop(stack, z)
            assert got.shape == (2, 3, m.dim_h, m.dim_h)
            for i in np.ndindex(2, 3):
                assert np.array_equal(got[i], m.weight_superop(stack[i], z))

    def test_xi_eta_normalization(self, model):
        eta, d_val = solve_xi_eta(model, point_mass(model))
        assert 0.0 < d_val < 1.0
        np.testing.assert_allclose(eta, eta.conj().T, atol=1e-12)

    @pytest.mark.parametrize("d_scaled", [1.0 - 5e-9, 1.0, 2.0])
    @pytest.mark.parametrize("make_nu", [point_mass, rank_two])
    def test_singular_normalization_rejected(self, model, make_nu,
                                             d_scaled):
        # c nu with c nu(Lambda(Delta)) = d_scaled >= 1 - 1e-8: the
        # unital representation at every cut and a subordination check
        # over the unital weight reject it, carrying d
        nu = make_nu(model)
        nu_c = d_scaled / solve_xi_eta(model, nu)[1] * nu
        calls = [lambda: subordination_check(model, nu_c, None, (0.5, 0.25))]
        calls += [lambda t=t: model.boundary_rep(t, nu=nu_c)
                  for t in (0.0, 0.25, 0.5)]
        for call in calls:
            with pytest.raises(NonInvertibleSystemError) as err:
                call()
            assert err.value.condition == pytest.approx(d_scaled, rel=1e-12)

    @pytest.mark.parametrize("factor_dim", [1, 2, 3, 4])
    def test_both_raises_unreachable_for_densities(self, factor_dim):
        # for |z| <= 1 and a density nu neither raise is reached at
        # N <= 6: mu = kappa^T Q kappa <= lambda_max(Q) <= max_p h_p
        # ||X||_2^2 stays below _converging's margin, and the largest
        # nu(Lambda(Delta)) over densities, lambda_max(Delta (x) diag(h)),
        # = max_p h_p lambda_max(damping)^N prod_{i > N} (tail), below
        # UNITAL_LIMIT
        for n_factors in range(1, 7):
            m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
            kappa = m.reference_coords[0]
            h = np.diag(m.h_damping)
            damping = np.linalg.eigvalsh(m.damping)
            q_max = np.linalg.eigvalsh(m.slot_matrix)[-1]
            x_norm = np.linalg.norm(m.cross_overlap, 2)
            assert np.linalg.norm(kappa) == pytest.approx(1.0, rel=1e-15)
            assert m.tail_ratio <= q_max * (1.0 + 1e-12)
            assert q_max <= h.max() * x_norm ** 2 * (1.0 + 1e-12)
            assert h.max() * x_norm ** 2 < 1.0 - 1e-9
            assert damping[0] > 0.0
            d_max = (h.max() * damping[-1] ** n_factors
                     * tail_weight_product(m.seq, n_factors + 1))
            assert d_max < UNITAL_LIMIT
            if n_factors <= 3:
                # d_max is attained: the top eigenvector of Delta on the
                # cell of the largest h_p, as boundary_rep computes d
                delta = np.linalg.eigh(m.delta_matrix)[1][:, -1]
                v = np.kron(delta, np.eye(m.h_dim)[h.argmax()])
                d_val = np.trace(m.lambda_superop(np.outer(v, v))
                                 @ m.delta_matrix)
                assert d_val == pytest.approx(d_max, rel=1e-12)

    def test_normalization_just_below_the_threshold_accepted(self, model):
        nu = point_mass(model)
        nu_c = (1.0 - 2e-8) / solve_xi_eta(model, nu)[1] * nu
        assert solve_xi_eta(model, nu_c)[1] < 1.0 - 1e-8
        for t in (0.0, 0.25, 0.5):
            gap = model.boundary_rep(t, nu=nu_c).gap
            assert np.isfinite(gap.weights).all()

    @pytest.mark.parametrize("make_nu", [point_mass, rank_two])
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_xi_eta_matches_big_space_series(self, n_factors, make_nu):
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu, dh = make_nu(m), m.dim_h
        # sum_n (pihat lambdahat)^n nu solved on the dim_h^2 coordinates
        big = dense_pi_superop(m) @ dense_lambda_superop(m)
        d_ref = np.trace(nu @ np.kron(m.delta_matrix, m.h_damping)).real
        series = np.linalg.solve(np.eye(dh * dh) - big, nu.reshape(-1))
        ref = series.reshape(dh, dh) / (1.0 - d_ref)
        ref = 0.5 * (ref + ref.conj().T)
        eta, d_val = solve_xi_eta(m, nu)
        assert d_val == pytest.approx(d_ref, rel=0, abs=1e-14)
        assert np.linalg.norm(eta - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("make_nu", [point_mass, rank_two])
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_xi_eta_fixed_point(self, n_factors, make_nu):
        # x = (1 - d) eta solves x - pihat lambdahat x = nu
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu = make_nu(m)
        eta, d_val = solve_xi_eta(m, nu)
        x = (1.0 - d_val) * eta
        np.testing.assert_allclose(x - m.pi_superop(m.lambda_superop(x)),
                                   nu, rtol=0, atol=1e-12)

    def test_boundary_rep_cp_at_cell_edges(self, model):
        for t in (0.5, 0.25):
            rep = model.boundary_rep(t)
            verdict = dense_choi_min_eig(
                full_size(model, t, dense_rep(model, t, rep)), model.dim_k,
                model.dim_h)
            assert is_cp(verdict.min_eigenvalue)
            assert is_cp(choi_min_eig(rep.choi, model.dim_k,
                                      model.cut(t).dim_out).min_eigenvalue)


def whole(superop, dim_in, dim_out):
    """A superoperator as Choi factors: the identity and its Choi matrix."""
    return ChoiFactors(np.eye(dim_in * dim_out),
                       choi_matrix(superop, dim_in, dim_out))


def kraus_factors(kraus):
    """Choi factors of rho -> sum_k K_k rho K_k^*: the vectors vec(K_k^T)."""
    return ChoiFactors(np.array([k.T.reshape(-1) for k in kraus]).T,
                       np.eye(len(kraus)))


class TestChoi:
    """The dense oracle and the factor form on the same maps."""

    def test_identity_map(self):
        for v in (dense_choi_min_eig(identity_superop(3), 3, 3),
                  choi_min_eig(whole(identity_superop(3), 3, 3), 3, 3),
                  choi_min_eig(kraus_factors([np.eye(3)]), 3, 3)):
            assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
            assert is_cp(v.min_eigenvalue)

    def test_transpose_map(self):
        for v in (dense_choi_min_eig(transpose_superop(2), 2, 2),
                  choi_min_eig(whole(transpose_superop(2), 2, 2), 2, 2)):
            assert v.min_eigenvalue == pytest.approx(-1.0)
            assert not is_cp(v.min_eigenvalue)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            choi_matrix(np.eye(4), 3, 3)
        with pytest.raises(ValueError, match="Choi vectors"):
            choi_min_eig(ChoiFactors(np.eye(4), np.eye(4)), 3, 3)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 1), (1, 3), (1, 1)])
    @pytest.mark.parametrize("real", [True, False])
    def test_superop_unchanged(self, dims, real):
        # the Choi matrix of a map into or out of a 1-dimensional space is
        # a view of the superoperator
        din, dout = dims
        rng = np.random.default_rng(9)
        superop = rng.normal(size=(dout * dout, din * din))
        if not real:
            superop = superop + 1j * rng.normal(size=superop.shape)
        kept = superop.copy()
        v = dense_choi_min_eig(superop, din, dout)
        assert np.array_equal(superop, kept)
        assert v.hermiticity_defect > 0 or din * dout == 1
        w = choi_min_eig(whole(superop, din, dout), din, dout)
        assert w.min_eigenvalue == pytest.approx(v.min_eigenvalue,
                                                 abs=1e-12)
        assert w.trace == pytest.approx(v.trace, abs=1e-12)
        assert w.hermiticity_defect == pytest.approx(v.hermiticity_defect,
                                                     abs=1e-12)

    def test_transpose_map_unchanged(self):
        superop = transpose_superop(3)
        kept = superop.copy()
        dense_choi_min_eig(superop, 3, 3)
        assert np.array_equal(superop, kept)

    def test_conjugation_choi_rank_one(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        superop = np.kron(k, k.conj())
        assert is_cp(dense_choi_min_eig(superop, 2, 2).min_eigenvalue)
        factors = kraus_factors([k])
        np.testing.assert_allclose(dense_superop(factors, 2, 2), superop,
                                   rtol=0, atol=1e-12)
        v = choi_min_eig(factors, 2, 2)
        # one vector in a 4-dimensional Choi space: the minimum is the 0
        # of its orthogonal complement
        assert v.min_eigenvalue == 0.0
        assert v.trace == pytest.approx(np.linalg.norm(k) ** 2)

    def test_one_unscaled_rule(self):
        # the trace does not widen the tolerance: -2e-8 fails at trace 3
        assert not is_cp(ChoiVerdict(-2e-8, 3.0, 0.0).min_eigenvalue)
        assert is_cp(ChoiVerdict(-1e-8, 3.0, 0.0).min_eigenvalue)


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
        masked = corner(small, [[full_size(small, t, on_columns(
            lambda r: small.apply_truncation(t, r), e, dh))
                                 for e in row] for row in entries], dh)
        dense = reference_truncation(small, t, blocks) \
            @ corner(small, entries, dh)
        assert np.array_equal(masked, dense)

    @pytest.mark.parametrize("n_factors", [2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_boundary_rep_matches_explicit_inverse(self, n_factors, blocks):
        # two blocks: the corner at z = 1j (upper != lower), folded from
        # its entries' words, against the fold of the four entries of the
        # inverse of the whole doubled system
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        omega = solve_weight_superop(m)
        upper = solve_weight_superop(m, 1j)
        entries = [[omega]] if blocks == 1 else [[omega, upper],
                                                 [upper.conj(), omega]]
        for t in (0.5, 0.25):
            w_t = reference_truncation(m, t, blocks) \
                @ corner(m, entries, m.dim_h)
            system = np.eye(w_t.shape[1]) \
                + dense_lambda_superop(m, blocks) @ w_t
            reference = w_t @ np.linalg.inv(system)
            kept = m.cut(t).dim_out
            if blocks == 1:
                rep = dense_rep(m, t, m.boundary_rep(t))
            else:
                rep = dense_superop(WeightMatrix(m, None, 1j).boundary_rep(t),
                                    2 * m.dim_k, kept)
                reference = fold_doubled(
                    doubled_entries(reference, m.dim_k, m.dim_h),
                    m.dim_k, m.dim_h)
            rep = full_size(m, t, rep)
            np.testing.assert_allclose(rep, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_factors", [2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5])
    def test_boundary_rep_equals_full_size_oracle(self, n_factors, t):
        # on the solve path, the kept rows, C-contiguous, are the
        # full-size solve's rows bit for bit, and the condition number is
        # the same; the word sum, densified on the kept rows, is that
        # representation to 1e-13 relative
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        for z in (1.0, 1j):
            omega = solve_weight_superop(m, z)
            rep, cond = solve_boundary_rep(m, omega, t)
            want, want_cond = full_size_boundary_rep(m, omega, t)
            assert rep.flags.c_contiguous
            assert rep.shape == (m.cut(t).dim_out ** 2,
                                 m.dim_k ** 2)
            assert np.array_equal(full_size(m, t, rep), want)
            assert cond == want_cond
            got = dense_rep(m, t, m.boundary_rep(t, z))
            assert got.shape == rep.shape
            assert np.linalg.norm(got - rep) <= 1e-13 * np.linalg.norm(rep)

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
            v = dense_choi_min_eig(superop, din, dout)
            assert v.min_eigenvalue == pytest.approx(
                np.linalg.eigvalsh(herm)[0], abs=1e-12)
            assert v.trace == np.trace(herm).real
            assert v.hermiticity_defect == np.linalg.norm(choi - herm)
            w = choi_min_eig(whole(superop, din, dout), din, dout)
            assert w.min_eigenvalue == pytest.approx(v.min_eigenvalue,
                                                     abs=1e-12)
        assert is_cp(dense_choi_min_eig(cp_map, din, dout).min_eigenvalue)

    def test_choi_min_eig_of_zero_map(self):
        v = dense_choi_min_eig(np.zeros((16, 9)), 3, 4)
        assert v.min_eigenvalue == 0.0
        assert v.trace == 0.0
        assert is_cp(v.min_eigenvalue)
        w = choi_min_eig(ChoiFactors(np.zeros((12, 0)), np.zeros((0, 0))),
                         3, 4)
        assert (w.min_eigenvalue, w.trace, is_cp(w.min_eigenvalue)) \
            == (0.0, 0.0, True)
