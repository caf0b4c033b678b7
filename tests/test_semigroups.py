"""Transport stepping, covariance and the semigroup laws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpflow.halfline import Grid
from cpflow.semigroups import (
    EvolveResult,
    FlowState,
    IncompatibleStatesError,
    InvalidExperimentError,
    UzParams,
    analytic_gram,
    bump_state,
    covariance,
    covariance_residuals,
    evolve,
    flow_inner,
    gram_min_eig,
    isometry_residual,
    numeric_gram,
    refinement_orders,
    semigroup_residual,
)
from references import full_numeric_gram

LABELS = [0.0, 1.0, 1j, 1 + 1j]


class TestCovarianceFormula:
    def test_self_label_vanishes(self):
        for z in LABELS:
            assert covariance(z, z) == pytest.approx(0.0, abs=1e-14)

    def test_zero_against_z(self):
        assert covariance(0.0, 2.0) == pytest.approx(-2.0)

    def test_printed_sample(self):
        assert covariance(1.0, 1j) == pytest.approx(-1.0 + 1.0j)

    @given(st.complex_numbers(max_magnitude=3, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=3, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_hermitian_symmetry(self, w, z):
        assert covariance(w, z) == pytest.approx(np.conj(covariance(z, w)))


class TestEvolve:
    def grid(self, n=200):
        return Grid(8.0, n)

    def test_time_zero_is_identity(self):
        f = bump_state(self.grid(), 3.0, 0.4)
        out = evolve(f, 1 + 1j, 0.0)
        np.testing.assert_array_equal(out.state.cells, f.cells)

    def test_zero_label_is_translation(self):
        f = bump_state(self.grid(), 3.0, 0.4)
        out = evolve(f, 0.0, 1.0).state
        assert out.norm() == pytest.approx(f.norm(), abs=1e-12)
        assert np.argmax(np.abs(out.cells[:, 0])) > np.argmax(
            np.abs(f.cells[:, 0]))

    def test_snap_reported(self):
        f = bump_state(self.grid(), 3.0, 0.4)
        res = evolve(f, 0.0, 0.503)
        assert res.snap_distance > 0.0

    def test_negative_time_rejected(self):
        f = bump_state(self.grid(), 3.0, 0.4)
        with pytest.raises(InvalidExperimentError):
            evolve(f, 0.0, -1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, t):
        f = bump_state(self.grid(), 3.0, 0.4)
        with pytest.raises(InvalidExperimentError, match="finite"):
            evolve(f, 1.0, t)

    def test_label_switch_rejected_after_feed(self):
        f = bump_state(self.grid(), 3.0, 0.4)
        fed = evolve(f, 1.0, 0.5).state
        with pytest.raises(IncompatibleStatesError):
            evolve(fed, 2.0, 0.5)

    def test_outflow_measured(self):
        f = bump_state(self.grid(), 7.0, 0.3)
        out = evolve(f, 0.0, 2.0).state
        assert out.outflow_mass > 0.5

    def test_norm_preserved_within_first_order(self):
        g = self.grid(800)
        f = bump_state(g, 3.0, 0.4)
        z = 1 + 1j
        ratio = evolve(f, z, 1.0).state.norm() / f.norm()
        assert ratio == pytest.approx(1.0, abs=20 * g.spacing)


def per_step_evolve(state, z, t):
    """evolve as a shift-and-damp loop over the whole state per step."""
    z = complex(z)
    h = state.grid.spacing
    n_steps = int(round(t / h))
    snap = abs(t - n_steps * h)
    damping = UzParams(z, h).step_damping
    cells = state.cells.copy()
    outflow = state.outflow_mass
    for _ in range(n_steps):
        outflow += h * float(np.sum(np.abs(cells[-1]) ** 2))
        cells[1:] = cells[:-1]
        cells[0] = 0.0
        cells *= damping
    return EvolveResult(
        FlowState(state.grid, cells, z, state.steps + n_steps,
                  outflow, state.source_cells),
        snap,
    )


def assert_same_evolution(res, ref):
    np.testing.assert_array_equal(res.state.cells, ref.state.cells)
    assert res.state.outflow_mass == ref.state.outflow_mass
    assert res.state.steps == ref.state.steps
    assert res.state.z == ref.state.z
    assert res.snap_distance == ref.snap_distance


class TestEvolveMatchesPerStepLoop:
    # t = 12.0 takes more steps than the 8.0-long grid has cells
    @pytest.mark.parametrize("points", [50, 1600])
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    @pytest.mark.parametrize("z", [0.0, 1 + 1j, -0.5j, 2.0])
    @pytest.mark.parametrize("t", [0.0, 0.503, 1.0, 12.0])
    def test_bit_identical(self, points, dim_k, z, t):
        grid = Grid(8.0, points)
        rng = np.random.default_rng(points + dim_k)
        f = FlowState(grid, rng.normal(size=(points, dim_k))
                      + 1j * rng.normal(size=(points, dim_k)))
        assert_same_evolution(evolve(f, z, t), per_step_evolve(f, z, t))

    @pytest.mark.parametrize("points", [50, 1600])
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    @pytest.mark.parametrize("z", [0.0, 1 + 1j])
    def test_continued_state_bit_identical(self, points, dim_k, z):
        grid = Grid(8.0, points)
        rng = np.random.default_rng(points * dim_k)
        f = FlowState(grid, rng.normal(size=(points, dim_k))
                      + 1j * rng.normal(size=(points, dim_k)))
        fed = per_step_evolve(f, z, 2.5).state
        assert fed.steps > 0 and fed.outflow_mass > 0.0
        for t in (0.0, 1.0, 9.0):
            assert_same_evolution(evolve(fed, z, t),
                                  per_step_evolve(fed, z, t))

    # evolve damps a float view of its own copy: the input must stay
    # untouched whatever the layout of its arrays (and flow_inner must
    # pair non-contiguous sources as the replay does)
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("z", [0.0, 1 + 1j])
    def test_input_layout_and_contents_kept(self, layout, z):
        points, dim_k = 50, 3
        grid = Grid(8.0, points)
        rng = np.random.default_rng(11)
        wide = (rng.normal(size=(2, points, 2 * dim_k))
                + 1j * rng.normal(size=(2, points, 2 * dim_k)))
        if layout == "fortran":
            cells, source = (np.asfortranarray(w[:, :dim_k]) for w in wide)
        else:
            cells, source = (w[:, ::2] for w in wide)
        f = FlowState(grid, cells, z, 7, 0.25, source)
        assert f.cells is cells and not f.cells.flags.c_contiguous
        kept = cells.tobytes(), source.tobytes()
        for t in (0.0, 1.0, 12.0):
            res = evolve(f, z, t)
            assert_same_evolution(res, per_step_evolve(f, z, t))
            assert res.state.source_cells is source
            assert flow_inner(res.state, res.state) == replayed_flow_inner(
                res.state, res.state)
            assert (cells.tobytes(), source.tobytes()) == kept


def replayed_flow_inner(f, g):
    """flow_inner by replaying the transport on copies of the sources."""
    h = f.grid.spacing
    a = f.source_cells.copy()
    b = g.source_cells.copy()
    d = UzParams(f.z, h).step_damping * UzParams(g.z, h).step_damping
    feed = h * np.conj(complex(f.z)) * complex(g.z)
    value = h * complex(np.vdot(a, b))
    for _ in range(f.steps):
        ov = h * complex(np.vdot(a[-1], b[-1]))
        a[1:] = a[:-1]
        a[0] = 0.0
        b[1:] = b[:-1]
        b[0] = 0.0
        value = d * ((value - ov) + feed * value)
    return value


class TestPairings:
    # (50, 12.0): more steps than cells
    @pytest.mark.parametrize("points, t", [(200, 1.0), (1600, 1.0),
                                           (50, 12.0)])
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    def test_matches_replayed_transport(self, points, t, dim_k):
        grid = Grid(8.0, points)
        rng = np.random.default_rng(points)
        f, g = (FlowState(grid, rng.normal(size=(points, dim_k))
                          + 1j * rng.normal(size=(points, dim_k)))
                for _ in range(2))
        for w in LABELS:
            for z in LABELS:
                ef, eg = evolve(f, w, t).state, evolve(g, z, t).state
                assert ef.steps > 0
                assert flow_inner(ef, eg) == replayed_flow_inner(ef, eg)

    # label 0 damps by exactly 1.0; continuing to 2.5 + 9.0 runs past the
    # 50 cells, so the zero-overlap steps of the recursion run too
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    @pytest.mark.parametrize("w, z", [(0.0, 1 + 1j), (-0.5j, 0.0)])
    def test_continued_states_match_replay(self, dim_k, w, z):
        points = 50
        grid = Grid(8.0, points)
        rng = np.random.default_rng(5 * dim_k)
        f, g = (FlowState(grid, rng.normal(size=(points, dim_k))
                          + 1j * rng.normal(size=(points, dim_k)))
                for _ in range(2))
        for t in (2.5, 1.0, 9.0):
            f, g = evolve(f, w, t).state, evolve(g, z, t).state
            assert flow_inner(f, g) == replayed_flow_inner(f, g)
            assert flow_inner(g, f) == replayed_flow_inner(g, f)
        assert f.steps > points

    def test_flow_inner_at_rest(self):
        g = Grid(8.0, 100)
        f = bump_state(g, 3.0, 0.4)
        assert flow_inner(f, f).real == pytest.approx(1.0)

    def test_step_mismatch_rejected(self):
        g = Grid(8.0, 100)
        f = bump_state(g, 3.0, 0.4)
        e1 = evolve(f, 1.0, 0.4).state
        with pytest.raises(IncompatibleStatesError):
            flow_inner(e1, f)

    def test_grid_mismatch_rejected(self):
        f = bump_state(Grid(8.0, 100), 3.0, 0.4)
        g = bump_state(Grid(8.0, 200), 3.0, 0.4)
        with pytest.raises(IncompatibleStatesError):
            flow_inner(f, g)


def pairwise_residual(w, z, t, f, g):
    """One covariance residual from its own pair of evolutions."""
    ef, eg = evolve(f, w, t).state, evolve(g, z, t).state
    t_snapped = (ef.steps - f.steps) * f.grid.spacing
    expected = np.exp(covariance(w, z) * t_snapped) * flow_inner(f, g)
    return float(abs(flow_inner(ef, eg) - expected))


class TestCovarianceResiduals:
    @pytest.mark.parametrize("points, t", [(200, 1.0), (400, 0.503),
                                           (200, 0.0)])
    def test_matches_one_pair_at_a_time(self, points, t):
        grid = Grid(8.0, points)
        f = bump_state(grid, 3.0, 0.4)
        # a phase on g makes (f, g) complex
        g = FlowState(grid, bump_state(grid, 3.5, 0.5).cells
                      * np.exp(2j * grid.midpoints)[:, None])
        ws = LABELS + [-0.5j]
        table = covariance_residuals(ws, LABELS, t, f, g)
        assert table.shape == (len(ws), len(LABELS))
        for i, w in enumerate(ws):
            for j, z in enumerate(LABELS):
                assert table[i, j] == covariance_residuals(
                    [w], [z], t, f, g)[0, 0]
                assert table[i, j] == pairwise_residual(w, z, t, f, g)

    @pytest.mark.parametrize("leaking", ["f", "g"])
    def test_outflow_guard(self, leaking):
        grid = Grid(8.0, 200)
        near = bump_state(grid, 3.0, 0.4)
        far = bump_state(grid, 7.5, 0.2)
        f, g = (far, near) if leaking == "f" else (near, far)
        with pytest.raises(InvalidExperimentError, match="outflow mass"):
            covariance_residuals(LABELS, LABELS, 3.0, f, g)


class TestCovarianceResidual:
    def residuals(self, points):
        grid = Grid(8.0, points)
        f = bump_state(grid, 3.0, 0.4)
        g = bump_state(grid, 3.5, 0.5)
        worst = 0.0
        for w in LABELS:
            for z in LABELS:
                worst = max(worst, covariance_residuals(
                    [w], [z], 1.0, f, g)[0, 0])
        return worst

    def test_first_order_convergence(self):
        res = [self.residuals(n) for n in (200, 400, 800)]
        orders = refinement_orders(res)
        assert min(orders) >= 0.8

    def test_exact_for_pure_damping(self):
        grid = Grid(8.0, 200)
        f = bump_state(grid, 3.0, 0.4)
        g = bump_state(grid, 3.5, 0.5)
        assert covariance_residuals([0.0], [1.0], 1.0, f, g)[0, 0] < 1e-12

    def test_outflow_guard(self):
        grid = Grid(8.0, 200)
        f = bump_state(grid, 7.5, 0.2)
        with pytest.raises(InvalidExperimentError):
            covariance_residuals([0.0], [0.0], 3.0, f, f)

    def test_time_zero_exact(self):
        grid = Grid(8.0, 200)
        f = bump_state(grid, 3.0, 0.4)
        assert covariance_residuals([1.0], [1j], 0.0, f, f)[0, 0] == 0.0


class TestSemigroupLaw:
    def test_bitwise_composition(self):
        grid = Grid(8.0, 400)
        f = bump_state(grid, 3.0, 0.4)
        h = grid.spacing
        for z in (0.0, 1.0, 1 + 1j):
            assert semigroup_residual(z, 10 * h, 5 * h, f) == 0.0

    def test_isometry_residual_halves(self):
        vals = []
        for n in (200, 400, 800):
            f = bump_state(Grid(8.0, n), 3.0, 0.4)
            vals.append(isometry_residual(1 + 1j, 1.0, f))
        orders = refinement_orders(vals)
        assert min(orders) >= 0.8


class TestGram:
    def test_analytic_gram_psd(self):
        assert gram_min_eig(analytic_gram(LABELS, 1.0)) >= -1e-12

    def test_numeric_gram_psd(self):
        f = bump_state(Grid(8.0, 200), 3.0, 0.4)
        assert gram_min_eig(numeric_gram(LABELS, 1.0, f)) >= -1e-12

    @pytest.mark.parametrize("labels", [LABELS, [0.3 - 0.7j, -1.2, 2j, 0.5]])
    def test_numeric_gram_is_exactly_hermitian(self, labels):
        f = bump_state(Grid(8.0, 200), 3.0, 0.4)
        gram = numeric_gram(labels, 1.0, f)
        np.testing.assert_array_equal(gram, gram.conj().T)
        full = full_numeric_gram(labels, 1.0, f)
        assert np.max(np.abs(gram - full)) <= 1e-15
        assert abs(gram_min_eig(gram) - gram_min_eig(full)) <= 1e-15

    def test_numeric_approaches_analytic(self):
        errs = []
        for n in (200, 400):
            f = bump_state(Grid(8.0, n), 3.0, 0.4)
            diff = numeric_gram(LABELS, 1.0, f) - analytic_gram(LABELS, 1.0)
            errs.append(np.max(np.abs(diff)))
        assert errs[1] < errs[0]


class TestFlowStateShape:
    def test_points_last_rejected(self):
        grid = Grid(4.0, 10)
        with pytest.raises(InvalidExperimentError):
            FlowState(grid, np.ones((2, grid.points)))

    def test_one_dimensional_is_one_channel(self):
        grid = Grid(4.0, 10)
        values = np.arange(grid.points, dtype=complex)
        state = FlowState(grid, values)
        assert state.dim_k == 1
        np.testing.assert_array_equal(state.cells[:, 0], values)


class TestParams:
    def test_step_damping(self):
        p = UzParams(2.0, 0.01)
        assert p.step_damping == pytest.approx(np.exp(-0.02))
