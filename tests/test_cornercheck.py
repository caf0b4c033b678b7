"""Corner matrices, subordination order, hypermaximality witness."""

import tracemalloc

import numpy as np
import pytest

from cpflow import cornercheck
from cpflow.cornercheck import (
    DegenerateDirectionError,
    NonCompletelyPositiveInputError,
    _difference_min_eig,
    _kept_min_eig,
    _margin_bound,
    derivation_residual,
    hypermax_witness,
    subordination_check,
)
from cpflow.opbasis import MatrixModel, is_cp
from references import (
    assemble_doubled,
    choi_difference,
    choi_frobenius_norm,
    dense_choi_min_eig,
    dense_rep,
    dense_superop,
    fold_doubled,
    full_size,
    full_size_corner_minima,
    identity_superop,
    permuted_choi_min_eig,
    solve_boundary_rep,
    solve_unital_weight,
    solve_weight_superop,
    transpose_superop,
    unchunked_derivation_residual,
)


@pytest.fixture(scope="module")
def model():
    return MatrixModel(n_factors=3, factor_dim=2)


@pytest.fixture(scope="module")
def nu(model):
    out = np.zeros((model.dim_h, model.dim_h), dtype=complex)
    out[0, 0] = 1.0
    return out


def assert_pinned(got, want: float, atol: float) -> None:
    """A minimum against its dense oracle to atol where the verdict took
    the spectrum, and the CP verdict the oracle implies where a
    certificate stood in for it (got is None)."""
    if got is None:
        assert is_cp(want)
    else:
        assert abs(got - want) <= atol


def dominance_of(model, nu, cuts=(0.5, 0.25)):
    """The dominance verdict of the unital over the minimal weight."""
    return subordination_check(model, nu, None, cuts)


@pytest.fixture(scope="module")
def dominance(model, nu):
    return dominance_of(model, nu)


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
        assert is_cp(dense_choi_min_eig(doubled, 2 * d, 2 * d).min_eigenvalue)

    def test_transpose_block_breaks_cp(self):
        d = 2
        doubled = assemble_doubled(
            [[identity_superop(d), transpose_superop(d)],
             [transpose_superop(d), identity_superop(d)]], d, d)
        assert not is_cp(dense_choi_min_eig(doubled, 2 * d,
                                            2 * d).min_eigenvalue)


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
        folded = dense_choi_min_eig(fold_doubled(blocks, din, dout),
                                    2 * din, dout)
        assembled = dense_choi_min_eig(assemble_doubled(blocks, din, dout),
                                       2 * din, 2 * dout)
        assert min(folded.min_eigenvalue, 0.0) == assembled.min_eigenvalue
        assert is_cp(folded.min_eigenvalue) \
            == is_cp(assembled.min_eigenvalue) == cp

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
        rep = full_size(model, 0.5,
                        dense_rep(model, 0.5, model.boundary_rep(0.5)))
        base = dense_choi_min_eig(rep, model.dim_k,
                                  model.dim_h).min_eigenvalue
        rng = np.random.default_rng(1)
        permuted = permuted_choi_min_eig(
            rep, model.dim_k, model.dim_h,
            rng.permutation(model.dim_k),
            rng.permutation(model.dim_h)).min_eigenvalue
        assert abs(base - permuted) < 1e-10


class TestSubordination:
    def test_reflexive(self, model, nu):
        # the minimal weight has no rank-one term, so its difference has no
        # factors; a unital weight's cancels to rounding
        v = subordination_check(model, None, None, (0.5, 0.25))
        assert v.subordinate and v.difference_min_eigs == (0.0, 0.0)
        v = subordination_check(model, nu, nu, (0.5, 0.25))
        assert v.subordinate
        np.testing.assert_allclose(v.difference_min_eigs, 0.0, rtol=0,
                                   atol=1e-15)

    def test_unital_dominates_minimal(self, model, nu):
        v = subordination_check(model, nu, None, (0.5, 0.25))
        assert v.subordinate
        # the verdict keeps the minimal weight's Choi minima, and the
        # dense solve path agrees to rounding; the unital weight's is
        # not taken, since the minimal weight plus the difference is CP,
        # and the dense path finds it CP
        assert v.upper_min_eigs == (None, None)
        for t, up, low in zip((0.5, 0.25), v.upper_min_eigs,
                              v.lower_min_eigs):
            for weight, got in ((nu, up), (None, low)):
                rep, _ = solve_boundary_rep(
                    model, solve_unital_weight(model, weight), t)
                want = dense_choi_min_eig(full_size(model, t, rep),
                                          model.dim_k, model.dim_h)
                assert_pinned(got, want.min_eigenvalue, 1e-13)

    def test_strict_order(self, model, nu):
        # D = -E / s has a negative eigenvalue, so the lower bound of the
        # upper weight fails and its spectrum is taken: the minimal weight
        # is CP, and the dense path agrees with every minimum
        v = subordination_check(model, None, nu, (0.5,))
        assert not v.subordinate
        assert v.difference_min_eigs[0] < -1e-4
        assert not is_cp(v.lower_min_eigs[0] + v.difference_min_eigs[0])
        want, _ = full_size_corner_minima(model, None, nu, (0.5,), ())
        for name in ("upper", "lower", "difference"):
            got = getattr(v, "%s_min_eigs" % name)
            np.testing.assert_allclose(got, want[name], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    def test_negative_scale_against_oracles(self, n_factors):
        # an indefinite nu with d = 1/2 but tr(x lambdahat_c nu) = 2, so
        # the scale s = 1 - tr(x lambdahat_c nu) of the rank-one term is
        # -1: the difference x^T (x) E / s from extreme eigenvalues
        # equals the QR spectrum of its Choi factors and the dense one,
        # and the unital weight is rejected by name as the dense path
        # finds it not CP
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        t, dropped = 0.5, m.cut(0.5).dropped
        x = m.cut(t).x
        nu = 2.0 / np.sum(x.T * m.lambda_superop(point_mass(m, 0),
                                                 dropped)) * point_mass(m, 0)
        d_at = [np.trace(m.lambda_superop(w) @ m.delta_matrix)
                for w in (nu, point_mass(m, 2))]
        nu = nu - (d_at[0] - 0.5) / d_at[1] * point_mass(m, 2)
        assert 1.0 - np.sum(x.T * m.lambda_superop(nu, dropped)) \
            == pytest.approx(-1.0, rel=1e-12)
        up, low = m.boundary_rep(t, nu=nu), m.boundary_rep(t)
        want, _ = full_size_corner_minima(m, nu, None, (t,), ())
        got = _difference_min_eig(m, up, low, t)
        assert got < -0.5
        assert abs(got - want["difference"][0]) <= 1e-13
        qr = _kept_min_eig(m, choi_difference(up.gap, low.gap), m.dim_k, t)
        assert abs(got - qr) <= 1e-13
        with pytest.raises(NonCompletelyPositiveInputError,
                           match="upper") as err:
            subordination_check(m, nu, None, (t,))
        assert not is_cp(want["upper"][0])
        assert abs(err.value.eigenvalue - want["upper"][0]) <= 1e-13

    def test_non_cp_input_rejected(self, model, nu):
        # a negative nu makes the lower weight non-CP
        with pytest.raises(NonCompletelyPositiveInputError,
                           match="lower") as err:
            subordination_check(model, None, -nu, (0.5,))
        assert err.value.eigenvalue < 0

    @pytest.mark.parametrize("cuts", [(0.5, 0.5), (0.5, 0.5000000000001),
                                      (0.25, 0.0, 0.25)])
    def test_repeated_cut_edges_rejected(self, model, cuts):
        # one edge named twice would be checked, and reported, twice
        with pytest.raises(ValueError, match="distinct cell edges"):
            subordination_check(model, None, None, cuts)

    @pytest.mark.parametrize("cuts", [(), (2.0,), (0.5, 2.0)])
    def test_vacuous_cut_levels_rejected(self, model, nu, cuts):
        # at the top edge every representation is the zero map, so even a
        # non-CP upper weight would pass
        with pytest.raises(ValueError, match="cut levels"):
            subordination_check(model, -nu, None, cuts)

    def test_non_cp_unital_weight_rejected(self, model, nu):
        # a negative nu makes the unital weight non-CP: the minimal
        # weight plus the difference fails, so the unital weight's
        # spectrum is taken, and it is the dense path's
        with pytest.raises(NonCompletelyPositiveInputError,
                           match="upper") as err:
            subordination_check(model, -nu, None, (0.5, 0.25))
        assert err.value.eigenvalue < 0
        rep, _ = solve_boundary_rep(model, solve_unital_weight(model, -nu),
                                    0.5)
        want = dense_choi_min_eig(full_size(model, 0.5, rep), model.dim_k,
                                  model.dim_h)
        assert abs(err.value.eigenvalue - want.min_eigenvalue) <= 1e-13


class TestHypermaxWitness:
    def test_witness_at_minus_one(self, model, dominance):
        rep = hypermax_witness(-1.0, model, dominance)
        assert rep.minimal_cp
        assert rep.dominated
        assert rep.gap_nonzero
        assert rep.witnessed

    def test_witness_off_axis(self, model, nu):
        rep = hypermax_witness(1j, model, dominance_of(model, nu, (0.5,)))
        assert rep.witnessed

    def test_degenerate_direction(self, model, dominance):
        with pytest.raises(DegenerateDirectionError):
            hypermax_witness(1.0, model, dominance)

    def test_off_circle_rejected(self, model, dominance):
        with pytest.raises(ValueError):
            hypermax_witness(0.5, model, dominance)
        with pytest.raises(ValueError, match="unit circle"):
            hypermax_witness(complex("nan"), model, dominance)

    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_matches_dense_doubled_reference(self, n_factors):
        # the parent form: both 2x2 matrices assembled on the doubled
        # space from solved weights and solved representations
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu = np.zeros((m.dim_h, m.dim_h), dtype=complex)
        nu[0, 0] = 1.0
        dominance = dominance_of(m, nu)
        minimal = solve_weight_superop(m)
        full = solve_unital_weight(m, nu)
        cuts = (0.5, 0.25)
        dims = (m.dim_k, m.dim_h)
        doubled = (2 * m.dim_k, 2 * m.dim_h)
        labels = (-1.0 + 0j, 1j, complex(np.exp(1j * np.pi / 4)))
        reports = [hypermax_witness(z, m, dominance) for z in labels]
        for z, rep in zip(labels, reports):
            assert rep.witnessed
            upper = solve_weight_superop(m, z)
            lower = solve_weight_superop(m, np.conj(z))
            for t, got_min, got_diff in zip(
                    cuts, rep.minimal_min_eigs,
                    rep.dominance.difference_min_eigs):
                def dense(diag):
                    return assemble_doubled(
                        [[full_size(m, t, solve_boundary_rep(m, w, t)[0])
                          for w in row]
                         for row in ((diag, upper), (lower, diag))], *dims)
                ref_min = dense_choi_min_eig(dense(minimal), *doubled)
                ref_diff = dense_choi_min_eig(dense(full) - dense(minimal),
                                              *doubled)
                # different algorithms: the minima agree to rounding
                # (at most 5.3e-15 apart here), the difference's to 2.3e-16;
                # a minimum the coefficient blocks certify is not taken
                assert_pinned(got_min, ref_min.min_eigenvalue, 1e-13)
                assert abs(got_diff - ref_diff.min_eigenvalue) <= 1e-15

    def test_zero_gap_reported(self, model, nu):
        # the unital weight of 0 nu is the minimal one: its rank-one term
        # is exactly zero at every cut
        rep = hypermax_witness(-1.0, model, dominance_of(model, 0.0 * nu))
        assert rep.gap_norm == 0.0
        assert not rep.gap_nonzero
        assert not rep.witnessed

    @pytest.mark.parametrize("n_factors", [1, 2, 3, 4])
    def test_gap_is_the_solved_rank_one_term(self, n_factors):
        # at the default nu the gap is nonzero, and it is the largest
        # Frobenius norm over the cuts of the difference of the solved
        # unital and minimal representations (a superoperator's Frobenius
        # norm is its Choi matrix's)
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        nu = point_mass(m, 0)
        cuts = (0.5, 0.25)
        rep = hypermax_witness(-1.0, m, dominance_of(m, nu, cuts))
        assert rep.gap_norm > 0.0
        assert rep.gap_nonzero
        unital, minimal = (solve_unital_weight(m, w) for w in (nu, None))
        want = max(np.linalg.norm(solve_boundary_rep(m, unital, t)[0]
                                  - solve_boundary_rep(m, minimal, t)[0])
                   for t in cuts)
        assert rep.gap_norm == pytest.approx(want, rel=1e-12)
        # and the Gram form of the norm on the rank-one terms' factors
        gram = max(choi_frobenius_norm(choi_difference(up.gap, low.gap))
                   for up, low in rep.dominance.reps)
        assert rep.gap_norm == pytest.approx(gram, rel=1e-12)
        assert type(rep.gap_norm) is float and type(rep.witnessed) is bool

    def test_failing_margins_are_certified_by_their_bound(self, model,
                                                          dominance):
        # |z| = 1 + 5e-13 is on the circle to 1e-12, but |z^{n+1}| > 1, so
        # every word's coefficient margin fails by a few 1e-12; their sum
        # bounds the fold's minimum far above -CP_TOLERANCE, so no folded
        # spectrum is taken, and the dense path's is CP
        z = -(1.0 + 5e-13)
        for t, (_, low) in zip(dominance.cut_levels, dominance.reps):
            off = model.boundary_rep(t, z).coeffs
            assert (np.abs(off) > low.coeffs).any()
            assert -1e-10 < _margin_bound(low, off) < 0.0
        rep = hypermax_witness(z, model, dominance)
        assert rep.minimal_min_eigs == (None, None)
        assert rep.witnessed
        _, want = full_size_corner_minima(model, point_mass(model, 0), None,
                                          dominance.cut_levels, (z,))
        assert all(map(is_cp, want[z]))

    @pytest.mark.parametrize("n_factors, z", [
        (2, np.exp(0.1j)), (3, np.exp(0.1j)), (3, np.exp(2j))],
        ids=["N2-exp0.1i", "N3-exp0.1i", "N3-exp2i"])
    def test_rounded_powers_take_no_qr_spectrum(self, n_factors, z,
                                                monkeypatch):
        # these labels round some |z^{n+1}| an ulp above 1, so an exact
        # margin fails; the margin bound certifies every cut without a QR
        # spectrum, and the dense path agrees that the corner is CP
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        dominance = dominance_of(m, point_mass(m, 0))
        assert any((np.abs(m.boundary_rep(t, z).coeffs) > low.coeffs).any()
                   for t, (_, low) in zip(dominance.cut_levels,
                                          dominance.reps))

        def no_spectrum(*args):
            raise AssertionError("a QR spectrum was taken")

        monkeypatch.setattr(cornercheck, "choi_min_eig", no_spectrum)
        rep = hypermax_witness(z, m, dominance)
        assert rep.minimal_min_eigs == (None, None)
        assert rep.witnessed
        monkeypatch.undo()
        _, want = full_size_corner_minima(m, point_mass(m, 0), None,
                                          dominance.cut_levels, (z,))
        assert all(map(is_cp, want[z]))

    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_rank_one_diagonal_takes_the_folded_spectrum(self, n_factors):
        # a diagonal with a rank-one term is outside the margin bound: the
        # folded spectrum is taken at every cut, at labels whose margins
        # hold exactly as well as at rounded ones, and it is the dense
        # path's
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        upper, lower = 2.0 * point_mass(m, 0), point_mass(m, 0)
        cuts = (0.5, 0.25)
        dominance = subordination_check(m, upper, lower, cuts)
        labels = (-1.0 + 0j, complex(np.exp(0.1j)))
        _, want = full_size_corner_minima(m, upper, lower, cuts, labels)
        for z in labels:
            rep = hypermax_witness(z, m, dominance)
            assert None not in rep.minimal_min_eigs
            np.testing.assert_allclose(rep.minimal_min_eigs, want[z],
                                       rtol=0, atol=1e-13)

    def test_exact_margins_take_no_folded_spectrum(self, model, dominance):
        for z in (-1.0, 1j, -1j):
            assert hypermax_witness(z, model, dominance).minimal_min_eigs \
                == (None, None)


def point_mass(model, row: int) -> np.ndarray:
    out = np.zeros((model.dim_h, model.dim_h))
    out[row, row] = 1.0
    return out


def kept_outputs_cases():
    """Weights (upper, lower) on a model, by name, as the densities nu
    of their unital extensions (None: the minimal weight).

    Besides the unital weight over the minimal one, the unital weights
    of twice and once a density: with the point mass on the top cell of
    the first tensor index, the rank-one terms of their representations
    still have identically zero rows; with the normalized identity,
    both representations and their difference are positive definite
    when no cell is dropped, so the minimum at a cut that drops a cell
    is the 0 of the dropped block.
    """
    return {"unital-over-minimal": lambda model: (point_mass(model, 0),
                                                  None),
            "onto-top-cell": lambda model: (
                2.0 * point_mass(model, model.h_dim - 1),
                point_mass(model, model.h_dim - 1)),
            "onto-identity": lambda model: (
                2.0 * np.eye(model.dim_h) / model.dim_h,
                np.eye(model.dim_h) / model.dim_h)}


class TestKeptOutputsOracle:
    """On the kept outputs, every minimum is the full-size solve path's.

    Cut 0.0 keeps every cell, 0.25 and 0.5 drop one and two of three.
    """

    CUTS = (0.0, 0.25, 0.5)
    LABELS = (-1.0, 1j, complex(np.exp(0.01j)))

    @pytest.mark.parametrize("weights", sorted(kept_outputs_cases()))
    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    def test_minima_equal_full_size_path(self, n_factors, weights):
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        upper, lower = kept_outputs_cases()[weights](m)
        verdict = subordination_check(m, upper, lower, self.CUTS)
        assert verdict.subordinate
        want, want_witness = full_size_corner_minima(
            m, upper, lower, self.CUTS, self.LABELS)
        for name in ("upper", "lower", "difference"):
            got = getattr(verdict, "%s_min_eigs" % name)
            for got_t, want_t in zip(got, want[name], strict=True):
                assert_pinned(got_t, want_t, 1e-13)
        for z in self.LABELS:
            report = hypermax_witness(z, m, verdict)
            # a diagonal with a rank-one term takes every folded spectrum
            if lower is not None:
                assert None not in report.minimal_min_eigs
            for got_t, want_t in zip(report.minimal_min_eigs,
                                     want_witness[z], strict=True):
                assert_pinned(got_t, want_t, 1e-13)

    def test_top_cell_kept_block_has_zero_rows(self):
        # the minimal weight's words reach every kept row; the rank-one
        # term, densified on the kept rows, has identically zero rows
        m = MatrixModel(n_factors=1, factor_dim=2)
        upper, lower = kept_outputs_cases()["onto-top-cell"](m)
        verdict = subordination_check(m, upper, lower, self.CUTS)
        for t, (_, rep) in zip(self.CUTS, verdict.reps):
            kept = m.cut(t).dim_out
            gap = dense_superop(rep.gap, m.dim_k, kept)
            assert gap.shape == (kept * kept, m.dim_k ** 2)
            rows = gap.reshape(kept, kept, -1)
            assert not rows.any(axis=(1, 2)).all()
            assert rows.any()

    def test_identity_minimum_is_positive_only_without_a_drop(self):
        m = MatrixModel(n_factors=1, factor_dim=2)
        upper, lower = kept_outputs_cases()["onto-identity"](m)
        verdict = subordination_check(m, upper, lower, self.CUTS)
        for mins in (verdict.lower_min_eigs, verdict.difference_min_eigs):
            assert mins[0] > 0.0 and mins[1:] == (0.0, 0.0)
        # upper = lower + difference is CP by those, so not taken
        assert verdict.upper_min_eigs == (None,) * 3


class TestCornerIdentity:
    def test_derivation_residual_small(self, model):
        for z in (0.3, 0.4 + 0.3j, -0.7j):
            assert derivation_residual(model, z) < 1e-10

    def test_residual_checks_q_against_the_shift(self):
        # Q scaled by 1.1 keeps the tail identity (mu scales by 1.1), so
        # the series weight still sums, but its kernel is no longer
        # lambdahat pihat: the residual reads the mismatch
        m = MatrixModel(n_factors=3, factor_dim=2)
        vars(m)["slot_matrix"] = 1.1 * m.slot_matrix
        assert derivation_residual(m, 0.4 + 0.3j) > 1e-3

    def test_residual_runs_in_blocks_of_unit_densities(self):
        # at N = 4 the 256 unit densities run in 16 blocks: the traced peak
        # stays far below the 23 MB of all of them at once, and the root
        # sum of squares of the block norms is the norm of the whole
        m = MatrixModel(n_factors=4, factor_dim=2)
        want = unchunked_derivation_residual(m, 0.4 + 0.3j)
        tracemalloc.start()
        try:
            got = derivation_residual(m, 0.4 + 0.3j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("z", [0.4 + 0.3j, 0.3], ids=["complex", "real"])
    @pytest.mark.parametrize("n_factors", [2, 3, 4, 5])
    def test_blocks_equal_all_densities_at_once(self, n_factors, z):
        # each unit density's residual rounds as it would alone, so only
        # the sum of the squares differs from one norm of the whole
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        want = unchunked_derivation_residual(m, z)
        assert abs(derivation_residual(m, z) - want) <= 1e-15 * want
