"""Corner matrices, subordination order, hypermaximality witness."""

import numpy as np
import pytest

from cpflow.cornercheck import (
    DegenerateDirectionError,
    NonCompletelyPositiveInputError,
    derivation_residual,
    fold_doubled,
    hypermax_witness,
    offdiag_perturbation_min_eig,
    subordination_check,
)
from cpflow.opbasis import MatrixModel, choi_min_eig
from references import (
    assemble_doubled,
    identity_superop,
    permuted_choi_min_eig,
    transpose_superop,
)


@pytest.fixture(scope="module")
def model():
    return MatrixModel(n_factors=3, factor_dim=2)


@pytest.fixture(scope="module")
def nu(model):
    out = np.zeros((model.dim_h, model.dim_h), dtype=complex)
    out[0, 0] = 1.0
    return out


def witness_inputs(model, nu, cuts=(0.5, 0.25)):
    """eta and the dominance verdict of the unital over the minimal weight."""
    eta, _ = model.xi_eta(nu)
    minimal = model.weight_superop()
    dominance = subordination_check(model, minimal + model.gap_superop(eta),
                                    minimal, cuts)
    return eta, dominance


@pytest.fixture(scope="module")
def inputs(model, nu):
    return witness_inputs(model, nu)


class TestDoubledAssembly:
    def test_blockwise_action(self):
        rng = np.random.default_rng(0)
        d = 3
        blocks = [[rng.normal(size=(d * d, d * d)) for _ in range(2)]
                  for _ in range(2)]
        doubled = assemble_doubled(blocks, d, d)
        rho = rng.normal(size=(2 * d, 2 * d)) \
            + 1j * rng.normal(size=(2 * d, 2 * d))
        out = (doubled @ rho.reshape(-1)).reshape(2 * d, 2 * d)
        for a in range(2):
            for b in range(2):
                block_in = rho[a * d:(a + 1) * d, b * d:(b + 1) * d]
                expect = (blocks[a][b] @ block_in.reshape(-1)).reshape(d, d)
                np.testing.assert_allclose(
                    out[a * d:(a + 1) * d, b * d:(b + 1) * d], expect,
                    atol=1e-12)

    def test_diagonal_identity_blocks_are_cp(self):
        d = 2
        zero = np.zeros((d * d, d * d))
        doubled = assemble_doubled(
            [[identity_superop(d), zero], [zero, identity_superop(d)]],
            d, d)
        assert choi_min_eig(doubled, 2 * d, 2 * d).completely_positive

    def test_transpose_block_breaks_cp(self):
        d = 2
        doubled = assemble_doubled(
            [[identity_superop(d), transpose_superop(d)],
             [transpose_superop(d), identity_superop(d)]], d, d)
        assert not choi_min_eig(doubled, 2 * d, 2 * d).completely_positive


def random_entrywise_cp(rng, din, dout, rank, cut_rows=()):
    """Entries phi_ab = sum_k K_ak (.) K_bk^* of a random CP 2x2 map.

    The map is X -> sum_k K_k X K_k^* with K_k = diag(K_1k, K_2k);
    cut_rows are zero output rows of every K_ak.
    """
    blocks = [[np.zeros((dout * dout, din * din), dtype=complex)
               for _ in range(2)] for _ in range(2)]
    for _ in range(rank):
        kraus = []
        for _ in range(2):
            k = rng.normal(size=(dout, din)) \
                + 1j * rng.normal(size=(dout, din))
            k[list(cut_rows)] = 0.0
            kraus.append(k)
        for a in range(2):
            for b in range(2):
                blocks[a][b] += np.kron(kraus[a], kraus[b].conj())
    return blocks


def fold_cases():
    rng = np.random.default_rng(11)
    din, dout = 3, 4
    cases = []
    for cut_rows in ((), (0, 2)):
        # full Kraus rank: the live Choi block of the fold is positive
        # definite, so only the zero block of the doubled form gives 0
        cp_map = random_entrywise_cp(rng, din, dout, 2 * din * dout,
                                     cut_rows)
        other = random_entrywise_cp(rng, din, dout, 1, cut_rows)
        non_cp = [[cp_map[a][b] - 50.0 * other[a][b] for b in range(2)]
                  for a in range(2)]
        cases += [("cp", cp_map, din, dout, True),
                  ("non-cp", non_cp, din, dout, False)]
    d = 2
    zero = np.zeros((d * d, d * d))
    ident, transp = identity_superop(d), transpose_superop(d)
    cases += [("identity", [[ident, zero], [zero, ident]], d, d, True),
              ("transpose", [[ident, transp], [transp, ident]], d, d, False)]
    return cases


class TestFold:
    @pytest.mark.parametrize("name, blocks, din, dout, cp", fold_cases(),
                             ids=["cp", "non-cp", "cp-cut", "non-cp-cut",
                                  "identity", "transpose"])
    def test_choi_min_eig_equals_assembled(self, name, blocks, din, dout,
                                           cp):
        folded = choi_min_eig(fold_doubled(blocks, din, dout), 2 * din,
                              dout)
        assembled = choi_min_eig(assemble_doubled(blocks, din, dout),
                                 2 * din, 2 * dout)
        assert min(folded.min_eigenvalue, 0.0) == assembled.min_eigenvalue
        assert folded.completely_positive == assembled.completely_positive
        assert folded.completely_positive == cp

    def test_fold_is_compression_by_v(self):
        # psi(X) = V* Phi(X) V with V = [I; I]: the sum of the output blocks
        rng = np.random.default_rng(12)
        din, dout = 3, 2
        blocks = [[rng.normal(size=(dout * dout, din * din))
                   + 1j * rng.normal(size=(dout * dout, din * din))
                   for _ in range(2)] for _ in range(2)]
        x = rng.normal(size=(2 * din, 2 * din)) \
            + 1j * rng.normal(size=(2 * din, 2 * din))
        out = (assemble_doubled(blocks, din, dout) @ x.reshape(-1)) \
            .reshape(2 * dout, 2 * dout)
        v = np.vstack([np.eye(dout), np.eye(dout)])
        folded = (fold_doubled(blocks, din, dout) @ x.reshape(-1)) \
            .reshape(dout, dout)
        np.testing.assert_allclose(folded, v.T @ out @ v, rtol=0,
                                   atol=1e-12)


class TestBasisInvariance:
    def test_permutation_leaves_min_eig(self, model):
        omega = model.weight_superop()
        rep, _ = model.boundary_rep(omega, 0.5)
        base = choi_min_eig(rep, model.dim_k, model.dim_h).min_eigenvalue
        rng = np.random.default_rng(1)
        permuted = permuted_choi_min_eig(
            rep, model.dim_k, model.dim_h,
            rng.permutation(model.dim_k),
            rng.permutation(model.dim_h)).min_eigenvalue
        assert abs(base - permuted) < 1e-10


class TestSubordination:
    def test_reflexive(self, model):
        omega = model.weight_superop()
        v = subordination_check(model, omega, omega, (0.5, 0.25))
        assert v.subordinate

    def test_unital_dominates_minimal(self, model, nu):
        eta, _ = model.xi_eta(nu)
        minimal = model.weight_superop()
        full = minimal + model.gap_superop(eta)
        v = subordination_check(model, full, minimal, (0.5, 0.25))
        assert v.subordinate
        # the verdict keeps the Choi minima of both representations
        for t, up, low in zip((0.5, 0.25), v.upper_min_eigs,
                              v.lower_min_eigs):
            for weight, got in ((full, up), (minimal, low)):
                rep, _ = model.boundary_rep(weight, t)
                assert got == choi_min_eig(rep, model.dim_k,
                                           model.dim_h).min_eigenvalue

    def test_strict_order(self, model, nu):
        eta, _ = model.xi_eta(nu)
        minimal = model.weight_superop()
        full = minimal + model.gap_superop(eta)
        v = subordination_check(model, minimal, full, (0.5,))
        assert not v.subordinate
        assert v.difference_min_eigs[0] < -1e-4

    def test_non_cp_input_rejected(self, model):
        omega = model.weight_superop()
        bad = -omega
        with pytest.raises(NonCompletelyPositiveInputError) as err:
            subordination_check(model, omega, bad, (0.5,))
        assert err.value.eigenvalue < 0

    @pytest.mark.parametrize("cuts", [(), (2.0,), (0.5, 2.0)])
    def test_vacuous_cut_levels_rejected(self, model, cuts):
        # at the top edge every representation is the zero map, so even a
        # non-CP upper weight would pass
        omega = model.weight_superop()
        with pytest.raises(ValueError, match="cut levels"):
            subordination_check(model, -omega, omega, cuts)

    def test_non_cp_unital_weight_rejected(self, model, nu):
        # a negative nu makes the unital weight non-CP
        eta, _ = model.xi_eta(-nu)
        minimal = model.weight_superop()
        with pytest.raises(NonCompletelyPositiveInputError) as err:
            subordination_check(model, minimal + model.gap_superop(eta),
                                minimal, (0.5, 0.25))
        assert err.value.eigenvalue < 0


class TestHypermaxWitness:
    def test_witness_at_minus_one(self, model, inputs):
        rep = hypermax_witness(-1.0, model, *inputs)
        assert rep.minimal_cp
        assert rep.dominated
        assert rep.gap_nonzero
        assert rep.witnessed

    def test_witness_off_axis(self, model, nu):
        rep = hypermax_witness(1j, model, *witness_inputs(model, nu, (0.5,)))
        assert rep.witnessed

    def test_degenerate_direction(self, model, inputs):
        with pytest.raises(DegenerateDirectionError):
            hypermax_witness(1.0, model, *inputs)

    def test_off_circle_rejected(self, model, inputs):
        with pytest.raises(ValueError):
            hypermax_witness(0.5, model, *inputs)

    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_matches_dense_doubled_reference(self, n_factors):
        # the parent form: both 2x2 matrices assembled on the doubled space
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu = np.zeros((m.dim_h, m.dim_h), dtype=complex)
        nu[0, 0] = 1.0
        eta, dominance = witness_inputs(m, nu)
        minimal = m.weight_superop()
        full = minimal + m.gap_superop(eta)
        cuts = (0.5, 0.25)
        dims = (m.dim_k, m.dim_h)
        doubled = (2 * m.dim_k, 2 * m.dim_h)
        labels = (-1.0 + 0j, 1j, complex(np.exp(1j * np.pi / 4)))
        reports = [hypermax_witness(z, m, eta, dominance)
                   for z in labels]
        for z, rep in zip(labels, reports):
            assert rep.witnessed
            upper, lower = m.weight_superop(z), m.weight_superop(np.conj(z))
            for t, got_min, got_diff in zip(
                    cuts, rep.minimal_min_eigs,
                    rep.dominance.difference_min_eigs):
                def dense(diag):
                    return assemble_doubled(
                        [[m.boundary_rep(w, t)[0] for w in row]
                         for row in ((diag, upper), (lower, diag))], *dims)
                ref_min = choi_min_eig(dense(minimal), *doubled)
                ref_diff = choi_min_eig(dense(full) - dense(minimal),
                                        *doubled)
                assert min(got_min, 0.0) == ref_min.min_eigenvalue
                assert abs(got_diff - ref_diff.min_eigenvalue) <= 1e-15

    def test_zero_gap_reported(self, model, inputs):
        eta, dominance = inputs
        rep = hypermax_witness(-1.0, model, 0.0 * eta, dominance)
        assert not rep.gap_nonzero
        assert not rep.witnessed


class TestCornerIdentity:
    def test_derivation_residual_small(self, model):
        for z in (0.3, 0.4 + 0.3j, -0.7j):
            assert derivation_residual(model, z) < 1e-10

    def test_offdiag_shift_breaks_cp(self, model, nu):
        val = offdiag_perturbation_min_eig(model, -1.0, nu, 0.05, 0.5)
        assert val < -1e-8

    def test_offdiag_shift_matches_dense_doubled_reference(self, model, nu):
        eta, _ = model.xi_eta(nu)
        gap = 0.05 * eta.reshape(-1, 1) \
            @ model.delta_matrix.T.reshape(1, -1)
        diag = model.weight_superop()
        entries = ((diag, model.weight_superop(1j) + gap),
                   (model.weight_superop(-1j), diag))
        dense = assemble_doubled([[model.boundary_rep(w, 0.25)[0]
                                   for w in row] for row in entries],
                                 model.dim_k, model.dim_h)
        ref = choi_min_eig(dense, 2 * model.dim_k, 2 * model.dim_h)
        val = offdiag_perturbation_min_eig(model, 1j, nu, 0.05, 0.25)
        assert min(val, 0.0) == ref.min_eigenvalue
