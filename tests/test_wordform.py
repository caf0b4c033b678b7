"""Boundary representations in word form against their oracles.

The model sums every resolvent in its finite form and takes every Choi
spectrum on the range of the Choi factors (opbasis).  The oracles are
the solve path in tests/references.py (resolvent solves, the condition
number gate and dense Choi spectra), the Sherman-Morrison form of the
unital weight's rank-one term through eta, the corner coefficient
blocks, the dense letters from the shift with their words, the np.kron
and einsum forms that broadcast products and a matmul replaced, and the
tail identity in 50-digit arithmetic.  The tail ratios mu = kappa^T Q kappa and mu_c,
which the model reads off its slot matrix, are checked against the
letters' eigenvalues on the tail vector, against the fit of
khat^{N+1} = mu khat^N on Choi matrices of the letters' words, and
against their closed form sum_p h_p (X^T kappa)_p^2 in 50 digits.
"""

import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from cpflow.cli import DEFAULT_CONFIG
from cpflow.cornercheck import (
    _difference_min_eig,
    _folded_rep,
    _kept_min_eig,
)
from cpflow.opbasis import MatrixModel, is_cp
from references import (
    choi_tail_ratio,
    complex_model,
    dense_choi_min_eig,
    dense_letters,
    dense_rep,
    dense_superop,
    einsum_kernel,
    fold_doubled,
    kron_boundary_rep,
    kron_delta_matrix,
    kron_dropped_words,
    kron_folded_vectors,
    kron_gap,
    letter_dropped_words,
    map_superop,
    sherman_morrison_gap,
    solve_boundary_rep,
    solve_unital_weight,
    solve_weight_superop,
    solve_xi_eta,
    superop_lambda,
    superop_truncation,
    tail_eigenvalues,
    unit_densities,
)

LABELS = (1.0, -1.0, 1j, complex(np.exp(0.1j)), 0.4 + 0.3j)
CUTS = (0.0, 0.25, 0.5)
# (N, m) = (4, 2) and (3, 3) run in full in benchmarks/test_corner_kernels.py
# (7 s and 2 min: dense Choi spectra of folds up to 4374 x 4374), and
# (4, 2) at one cut and the labels 1 and -1 without the folds here; (4, 3)
# is left out, since its solve path needs a dense 59049 x 6561 weight
# superoperator at a complex label, 6.2 GB
LARGE_SIZES = [(4, 2), (3, 3)]
SIZES = [(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3)
         if (n, m) not in LARGE_SIZES + [(4, 3)]]


def point_mass(model):
    nu = np.zeros((model.dim_h, model.dim_h))
    nu[0, 0] = 1.0
    return nu


def unital_densities(model):
    """nu for the unital weight: a point mass, a random complex density
    and a mass on the top cell, which no cut drops."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(model.dim_h, 3)) + 1j * rng.normal(
        size=(model.dim_h, 3))
    top = np.zeros((model.dim_h, model.dim_h))
    top[model.h_dim - 1, model.h_dim - 1] = 1.0
    return [point_mass(model), a @ a.conj().T / np.trace(a @ a.conj().T),
            top]


def assert_rel(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def dense_kept_min(model, superop, dim_in, t):
    """The dense oracle of cornercheck._kept_min_eig."""
    kept = model.kept_cells(t)
    low = dense_choi_min_eig(superop, dim_in,
                             model.dim_k * kept).min_eigenvalue
    return low if kept == model.h_dim else min(low, 0.0)


def check_against_solve_path(n_factors: int, factor_dim: int,
                             labels=LABELS, cuts=CUTS,
                             folds: bool = True) -> None:
    """Every weight and boundary representation of the model at the
    labels and cuts against the solve path to 1e-13 relative, and the
    Choi minima of the corner run (unital, minimal, difference by its
    QR spectrum and from the extreme eigenvalues of its Kronecker
    factors, and with folds the minimal fold at each label) against
    dense spectra to 1e-12, with the same CP verdicts.  labels must
    hold 1."""
    m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
    nu = point_mass(m)
    weights = {z: solve_weight_superop(m, z) for z in labels}
    for z, want in weights.items():
        assert_rel(map_superop(lambda r: m.weight_superop(r, z), m.dim_k),
                   want)
    unital = solve_unital_weight(m, nu)
    dk = m.dim_k
    for t in cuts:
        reps = {z: m.boundary_rep(t, z) for z in labels}
        dense = {z: solve_boundary_rep(m, w, t)[0]
                 for z, w in weights.items()}
        for z in labels:
            assert_rel(dense_rep(m, t, reps[z]), dense[z])
        rep_u = m.boundary_rep(t, nu=nu)
        dense_u = solve_boundary_rep(m, unital, t)[0]
        assert_rel(dense_rep(m, t, rep_u), dense_u)
        pairs = [(rep_u.choi, dense_u), (reps[1.0].choi, dense[1.0]),
                 (rep_u.gap, dense_u - dense[1.0])]
        minima = [(_kept_min_eig(m, f, dk, t), dense_kept_min(m, d, dk, t))
                  for f, d in pairs]
        minima.append((_difference_min_eig(m, rep_u, reps[1.0], t),
                       minima[-1][1]))
        kept = dk * m.kept_cells(t)
        for z in labels if folds else ():
            fold = fold_doubled([[dense[1.0], dense[z]],
                                 [dense[z].conj(), dense[1.0]]], dk, kept)
            minima.append((
                _kept_min_eig(m, _folded_rep(m, reps[1.0], z, t), 2 * dk,
                              t),
                dense_kept_min(m, fold, 2 * dk, t)))
        for got, want in minima:
            assert abs(got - want) <= 1e-12
            assert is_cp(got) == is_cp(want)


class TestSolvePathOracle:
    @pytest.mark.parametrize("n_factors, factor_dim", SIZES)
    def test_word_form_equals_solve_path(self, n_factors, factor_dim):
        check_against_solve_path(n_factors, factor_dim)

    def test_word_form_equals_solve_path_at_four_factors(self):
        # the cheap part of (4, 2): one cut that drops a cell, labels 1
        # and -1, no folds
        check_against_solve_path(4, 2, labels=(1.0, -1.0), cuts=(0.25,),
                                 folds=False)

    @pytest.mark.parametrize("n_factors, factor_dim",
                             [(1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (2, 4)])
    def test_unital_gap_equals_sherman_morrison_oracle(self, n_factors,
                                                       factor_dim):
        # the rank-one term from nu alone against its Sherman-Morrison
        # form through eta, whose denominator 1 + beta is
        # (1 - tr(x lambdahat_c nu)) / (1 - d)
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        for nu in unital_densities(m):
            col = nu.reshape(-1, 1)
            for t in CUTS:
                kept = m.kept_cells(t)
                want, beta, x, d_val = sherman_morrison_gap(m, t, nu)
                assert_rel(dense_superop(m.boundary_rep(t, nu=nu).gap,
                                         m.dim_k, m.dim_k * kept), want)
                low_nu = superop_lambda(m, col) - superop_lambda(
                    m, superop_truncation(m, t, col), kept)
                tr_x_low = np.sum(x.T * low_nu.reshape(m.dim_k, m.dim_k))
                assert abs((1.0 + beta) * (1.0 - d_val)
                           - (1.0 - tr_x_low)) <= 1e-13 * abs(1.0 - tr_x_low)

    def test_unital_gap_is_the_sherman_morrison_term(self):
        # E = (I - B0 lambdahat_k) cut(eta) is a multiple of the
        # numerator cut(nu) + B0(lambdahat_c nu) the word factors are
        # built from
        m = MatrixModel(n_factors=3, factor_dim=2)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(m.dim_h, 2))
        nu = a @ a.T / np.trace(a @ a.T)
        eta, _ = solve_xi_eta(m, nu)
        for t in CUTS:
            dn = m.dim_k * m.kept_cells(t)
            b0 = dense_rep(m, t, m.boundary_rep(t))
            cut_eta = m.apply_truncation(t, eta).reshape(-1, 1)
            lam = m.lambda_superop(eta, m._cut_cells(t)[1]).reshape(-1, 1)
            e_issue = cut_eta - b0 @ lam
            gap = m.boundary_rep(t, nu=nu).gap
            # the rank-one Choi matrix is F' (x) E: its trace over the
            # input gives tr(F') E
            choi = gap.vectors @ gap.weights @ gap.vectors.T
            e_words = np.einsum("ikil->kl", choi.reshape(m.dim_k, dn,
                                                        m.dim_k, dn))
            e_words = e_words.reshape(-1, 1)
            scale = np.vdot(e_issue, e_words) / np.vdot(e_issue, e_issue)
            assert_rel(e_words, scale * e_issue)

    @pytest.mark.parametrize("n_factors, factor_dim",
                             SIZES + LARGE_SIZES + [(5, 2), (6, 2)])
    def test_words_equal_letter_products(self, n_factors, factor_dim):
        # the Choi vectors built slot by slot against the products of the
        # dense letters from the shift, column by column
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        for t in CUTS:
            vectors, lengths = m._dropped_words(t)
            want, want_lengths = letter_dropped_words(m, t)
            assert lengths.tolist() == want_lengths.tolist()
            assert_rel(vectors, want, rel=1e-15)

    def test_no_dropped_cell_has_no_tail(self):
        m = MatrixModel(n_factors=3, factor_dim=2)
        vectors, lengths = m._dropped_words(0.0)
        assert m._tail_ratio_of(m._slot_matrix_on(m._cut_cells(0.0)[0])) \
            == 0.0
        assert lengths.tolist() == [0]
        assert vectors.shape == (m.dim_k * m.dim_h, 1)

    def test_no_dropped_cell_reduces_e_to_the_cut_nu(self):
        # at cut 0 the dropped slice is empty, lambdahat_c nu is exactly
        # zero, the numerator cut(nu) + B0(lambdahat_c nu) is cut(nu), the
        # Sherman-Morrison form of E equals cut(nu) / (1 - d), and the
        # rank-one term's Choi matrix is F' (x) E
        m = MatrixModel(n_factors=3, factor_dim=2)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(m.dim_h, 2))
        nu = a @ a.T / np.trace(a @ a.T)
        dropped, kept = m._cut_cells(0.0)
        assert dropped == slice(0, 0)
        low = m.lambda_superop(nu, dropped)
        assert low.shape == (m.dim_k, m.dim_k) and not low.any()
        eta, d_val = solve_xi_eta(m, nu)
        want = m.apply_truncation(0.0, nu) / (1.0 - d_val)
        b0 = dense_rep(m, 0.0, m.boundary_rep(0.0))
        e_sm = m.apply_truncation(0.0, eta) - (
            b0 @ m.lambda_superop(eta, kept).reshape(-1)).reshape(want.shape)
        assert_rel(e_sm, want)
        gap = m.boundary_rep(0.0, nu=nu).gap
        dk, dn = m.dim_k, len(want)
        choi = (gap.vectors @ gap.weights @ gap.vectors.T).reshape(
            dk, dn, dk, dn)
        f = np.einsum("ikjk->ij", choi) / np.trace(want)
        assert_rel(choi, np.einsum("ij,kl->ikjl", f, want))


def bitwise_equal(got, want) -> bool:
    """Equal dtype, shape and bytes: a signed zero or NaN payload counts."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestBroadcastProducts:
    """The broadcast products and the kernel's matmul against the np.kron
    and einsum forms they replace (tests/references.py).

    A broadcast product forms each entry as the same single product as
    np.kron or a product-only einsum, so the words, the coefficients, x,
    E, Delta and every Choi factor built from them are equal bit for bit;
    the kernel's matmul sums in another order than the einsum, so it is
    equal to rounding.
    """

    @pytest.mark.parametrize("promote", [False, True],
                             ids=["real", "complex-model"])
    @pytest.mark.parametrize("n_factors", [2, 3, 4])
    def test_representations_equal_bit_for_bit(self, n_factors, promote):
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        m = complex_model(m) if promote else m
        assert bitwise_equal(m.delta_matrix, kron_delta_matrix(m))
        cases = ((1.0, None), (1.0, point_mass(m)), (-1.0, None),
                 (complex(np.exp(0.1j)), None))
        for t in (0.5, 0.25):
            assert all(map(bitwise_equal, m._dropped_words(t),
                           kron_dropped_words(m, t)))
            for z, nu in cases:
                got, want = m.boundary_rep(t, z, nu), kron_boundary_rep(
                    m, t, z, nu)
                for name in ("words", "coeffs", "x", "e"):
                    assert bitwise_equal(getattr(got, name),
                                         getattr(want, name)), name
                gap, want_gap = got.gap, kron_gap(got)
                assert bitwise_equal(gap.vectors, want_gap.vectors)
                assert bitwise_equal(gap.weights, want_gap.weights)
                assert bitwise_equal(_folded_rep(m, got, -1.0, t).vectors,
                                     kron_folded_vectors(got))

    @pytest.mark.parametrize("promote", [False, True],
                             ids=["real", "complex-model"])
    @pytest.mark.parametrize("n_factors", [2, 3, 4, 5])
    def test_kernel_equals_the_einsum_form(self, n_factors, promote):
        # real and complex densities, one and a stack, against the full
        # and a dropped-cell slot matrix; the complex model's Q stays
        # complex, so the kernel runs in complex arithmetic
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        m = complex_model(m) if promote else m
        rng = np.random.default_rng(n_factors)
        d = m.dim_k
        real = rng.normal(size=(5, d, d))
        stacks = (real, real + 1j * rng.normal(size=(5, d, d)), real[0],
                  unit_densities(d)[:16])
        for q in (m.slot_matrix, m._slot_matrix_on(m._cut_cells(0.5)[0])):
            assert q.dtype == (complex if promote else float)
            for rho in stacks:
                got, want = m._kernel(rho, q), einsum_kernel(m, rho, q)
                assert got.dtype == want.dtype == np.result_type(rho, q)
                assert got.shape == rho.shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(
                    np.abs(want))


class TestMinimalFoldIsCP:
    """The minimal corner is CP at every |z| <= 1 (hypermax_witness).

    Each word of the dropped-cell series carries the coefficient block
    [[1, z^{n+1}], [conj(z)^{n+1}, 1]], and the words of length N the
    block [[a, b], [conj(b), a]] with a = 1 / (1 - mu_c) and
    b = z^{N+1} / (1 - z mu_c).
    """

    LABELS = (-1.0, 1j, 0.5j, complex(np.exp(1e-6j)), 0.9)

    @pytest.mark.parametrize("z", LABELS)
    def test_coefficient_blocks_are_psd(self, z):
        for n_factors in (2, 3, 4):
            m = MatrixModel(n_factors=n_factors, factor_dim=2)
            for t in CUTS:
                ones = m.boundary_rep(t).coeffs
                off = m.boundary_rep(t, z).coeffs
                for a, b in zip(ones, off):
                    block = np.array([[a, b], [np.conj(b), a]])
                    assert np.linalg.eigvalsh(block)[0] >= -1e-15
                    assert abs(b) <= a

    @pytest.mark.parametrize("z", LABELS)
    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_fold_is_cp_against_dense_oracle(self, n_factors, z):
        m = MatrixModel(n_factors=n_factors, factor_dim=2)
        minimal = solve_weight_superop(m)
        upper = solve_weight_superop(m, z)
        dk = m.dim_k
        for t in CUTS:
            low = _kept_min_eig(m, _folded_rep(m, m.boundary_rep(t), z, t),
                                2 * dk, t)
            diag, off = (solve_boundary_rep(m, w, t)[0]
                         for w in (minimal, upper))
            fold = fold_doubled([[diag, off], [off.conj(), diag]], dk,
                                dk * m.kept_cells(t))
            want = dense_kept_min(m, fold, 2 * dk, t)
            assert is_cp(low) and is_cp(want)
            assert abs(low - want) <= 1e-12


def mp_matrix(a):
    return mp.matrix(np.asarray(a).tolist())


def mp_choi(stack):
    """sum_w vec(A_w) vec(A_w)^T of a list of 50-digit real matrices."""
    size = stack[0].rows * stack[0].cols
    out = mp.zeros(size, size)
    for a in stack:
        v = mp.matrix([a[i, j] for i in range(a.rows)
                       for j in range(a.cols)])
        out += v * v.T
    return out


def mp_norm(a):
    return mp.sqrt(mp.fsum(x ** 2 for x in a))


class TestFiftyDigitTail:
    """khat^{N+1} = mu khat^N in 50 digits at N = 2 (dim_k^2 = 16).

    The float shift is not promoted as it stands: its entries are the
    rounded products cross_overlap[j, c] * kappa[k], whose matrices in
    (j, k) have rank two in exact arithmetic, so the tail identity holds
    for them only to about 1e-17.  The shift is rebuilt in 50 digits
    from the promoted cross overlap and reference coordinates, exactly
    as MatrixModel.shift contracts them; the cell damping is promoted
    as it is.
    """

    def test_tail_ratios_match_float_model(self):
        mp.dps = 50
        try:
            self._check(MatrixModel(n_factors=2, factor_dim=2))
        finally:
            mp.dps = 15

    @staticmethod
    def _check(m):
        d, h, f = m.dim_k, m.h_dim, m.factor_dim
        cross = mp_matrix(m.cross_overlap)
        kappa = [mp.mpf(float(x)) for x in m.reference_coords[0]]
        damping = [mp.mpf(float(x)) for x in np.diag(m.h_damping)]
        # letters A_p = sqrt(h_p) (I (x) <p|) s0^*: A_p[(a, k), (j, a)]
        # = sqrt(h_p) cross[j, p] kappa[k] (rows (i1, i2), columns (j, i1))
        letters = []
        for p in range(h):
            a_p = mp.zeros(d, d)
            for a in range(f):
                for k in range(f):
                    for j in range(f):
                        a_p[a * f + k, j * f + a] = \
                            mp.sqrt(damping[p]) * cross[j, p] * kappa[k]
            letters.append(a_p)
        assert mp_norm(mp_matrix(dense_letters(m)[1]) - letters[1]) < 1e-15

        def words(lets, n):
            out = [mp.eye(d)]
            for _ in range(n):
                out = [a * w for a in lets for w in out]
            return out

        for cells, mu_float in [(h, m.tail_ratio)] + [
                (h - m.kept_cells(t),
                 m._tail_ratio_of(m._slot_matrix_on(m._cut_cells(t)[0])))
                for t in (0.25, 0.5)]:
            last = mp_choi(words(letters[:cells], 2))
            after = mp_choi(words(letters[:cells], 3))
            mu = mp.fsum(x * y for x, y in zip(last, after)) \
                / mp.fsum(x * x for x in last)
            assert mp_norm(after - mu * last) < mp.mpf("1e-45") \
                * mp_norm(after)
            assert abs(mu - mu_float) <= 1e-13


def tail_ratios(m):
    """(cells, mu) for all cells and for the dropped cells of each cut."""
    dropped = [m._cut_cells(t)[0] for t in CUTS]
    return [(slice(None), m.tail_ratio)] + [
        (c, m._tail_ratio_of(m._slot_matrix_on(c))) for c in dropped]


class TestTailVector:
    """mu and mu_c read off the slot matrix, against the dense letters,
    which have the tail vector K = kappa^{(x) N} as an eigenvector."""

    @pytest.mark.parametrize("n_factors, factor_dim", SIZES + LARGE_SIZES)
    def test_tail_ratios_match_letter_eigenvalues(self, n_factors,
                                                  factor_dim):
        # A_p K = a_p K for every letter, so mu_c = sum_p |a_p|^2 over
        # the cells
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        letters = dense_letters(m)
        for cells, mu in tail_ratios(m):
            eigs, residual = tail_eigenvalues(letters[cells],
                                              m.reference_coords[0],
                                              n_factors)
            assert residual <= 1e-12
            assert abs(mu - np.sum(np.abs(eigs) ** 2)) <= 1e-13

    @pytest.mark.parametrize("n_factors, factor_dim", SIZES + LARGE_SIZES)
    def test_tail_ratios_match_choi_fit(self, n_factors, factor_dim):
        # the full identity khat^{N+1} = mu khat^N on the Choi matrices of
        # the words of length N and N + 1, at every size the corner runs
        m = MatrixModel(n_factors=n_factors, factor_dim=factor_dim)
        for cells, mu in tail_ratios(m):
            want, residual = choi_tail_ratio(dense_letters(m)[cells],
                                             n_factors)
            assert residual <= 1e-12
            assert abs(mu - want) <= 1e-13

    @pytest.mark.parametrize("n_factors", [2, 3, 4, 5, 6])
    def test_tail_ratios_match_fifty_digit_closed_form(self, n_factors):
        # A_p K = sqrt(h_p) (X^T kappa)_p K, so mu = sum_p h_p
        # (X^T kappa)_p^2 over the cells, from the promoted cross overlap
        # X, cell damping and kappa, without Q or the letters; and since
        # |X| <= 1 (a compression of one orthonormal basis against
        # another), mu <= max_p h_p |X^T kappa|^2 <= h_0
        m = MatrixModel(n_factors=n_factors)
        mp.dps = 50
        try:
            cross = mp_matrix(m.cross_overlap)
            kappa = [mp.mpf(float(x)) for x in m.reference_coords[0]]
            damping = [mp.mpf(float(x)) for x in np.diag(m.h_damping)]
            overlaps = [mp.fsum(cross[j, p] * kappa[j]
                                for j in range(m.factor_dim))
                        for p in range(m.h_dim)]
            for cells, mu in tail_ratios(m):
                cell_ids = range(m.h_dim)[cells]
                want = mp.fsum(damping[p] * overlaps[p] ** 2
                               for p in cell_ids)
                assert abs(mu - want) <= 1e-15
            bound = max(damping) * mp.fsum(x ** 2 for x in overlaps)
            assert m.tail_ratio <= bound <= max(damping)
            assert np.linalg.norm(m.cross_overlap, 2) <= 1.0
        finally:
            mp.dps = 15

    def test_tail_and_words_stay_small_at_six_factors(self):
        # a fit of khat^7 = mu khat^6 on Choi matrices traces 717 MB here
        tracemalloc.start()
        try:
            m = MatrixModel(n_factors=6,
                            factor_dim=DEFAULT_CONFIG["tensor"]["factor_dim"])
            m.tail_ratio
            for t in DEFAULT_CONFIG["corner"]["cut_levels"]:
                m._dropped_words(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
