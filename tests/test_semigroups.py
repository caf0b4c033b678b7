"""Transport stepping, covariance and the semigroup laws."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc

from cpflow import semigroups
from cpflow.halfline import Grid
from cpflow.semigroups import (
    EvolveResult,
    FlowState,
    IncompatibleStatesError,
    InvalidExperimentError,
    StepCountError,
    analytic_gram,
    bump_state,
    covariance,
    covariance_residuals,
    evolve,
    flow_inner,
    gram_min_eig,
    numeric_gram,
    refinement_orders,
    semigroup_residual,
    _step_damping,
)
from references import (
    covariance_residuals_by_label,
    flow_norm,
    full_numeric_gram,
    isometry_residual,
    numeric_gram_by_label,
    padded_pairing,
    reference_evolve,
    reference_pairer,
)

LABELS = [0.0, 1.0, 1j, 1 + 1j]
EPS = np.finfo(float).eps

# The closed-form pairing's error bound, in units of eps (|start| +
# sum |ov_k|) against references.reference_pairer.
PAIRING_EPS = 2.0
# Both evaluations read the same rounded start and outflows, whose own
# rounding is about eps (|start| + sum |ov_k|): below that size the two
# errors compare rounding noise, not the recursions.
NOISE_EPS = 1.0


def pairing_errors(cases):
    """The errors of the closed form and of the step loop in cases of
    (closed, loop, reference value, scale), in units of eps * scale."""
    closed = [float(abs(mpc(c) - exact)) / (EPS * scale)
              for c, _, exact, scale in cases]
    loop = [float(abs(mpc(v) - exact)) / (EPS * scale)
            for _, v, exact, scale in cases]
    return closed, loop


def assert_pairings_accurate(cases):
    """Every closed-form pairing is within PAIRING_EPS of the reference,
    and its worst error is no larger than the step loop's (up to the
    rounding of the inputs, NOISE_EPS)."""
    closed, loop = pairing_errors(cases)
    assert max(closed) <= PAIRING_EPS, closed
    assert max(closed) <= max(max(loop), NOISE_EPS), (closed, loop)


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
        assert flow_norm(out) == pytest.approx(flow_norm(f), abs=1e-12)
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
        ratio = flow_norm(evolve(f, z, 1.0).state) / flow_norm(f)
        assert ratio == pytest.approx(1.0, abs=20 * g.spacing)


def per_step_evolve(state, z, t):
    """evolve as a shift-and-damp loop over the whole state per step."""
    z = complex(z)
    h = state.grid.spacing
    n_steps = int(round(t / h))
    snap = abs(t - n_steps * h)
    damping = _step_damping(z, h)
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
        cases = []
        for t in (0.0, 1.0, 12.0):
            res = evolve(f, z, t)
            assert_same_evolution(res, per_step_evolve(f, z, t))
            assert res.state.source_cells is source
            pair, scale = reference_pairer(res.state, res.state)
            cases.append((flow_inner(res.state, res.state),
                          replayed_flow_inner(res.state, res.state),
                          pair(z, z), scale))
            assert (cells.tobytes(), source.tobytes()) == kept
        assert_pairings_accurate(cases)


def replayed_flow_inner(f, g):
    """flow_inner by replaying the transport on copies of the sources."""
    h = f.grid.spacing
    a = f.source_cells.copy()
    b = g.source_cells.copy()
    d = _step_damping(f.z, h) * _step_damping(g.z, h)
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


# (50, 12.0): more steps than cells
REPLAY_GRIDS = [(200, 1.0), (1600, 1.0), (50, 12.0)]
# label 0 damps by exactly 1.0
CONTINUED_LABELS = [(0.0, 1 + 1j), (-0.5j, 0.0)]


def replay_cases(points, t, dim_k):
    """(closed, loop, reference, scale) of every label pair of two random
    states evolved by t."""
    grid = Grid(8.0, points)
    rng = np.random.default_rng(points)
    f, g = (FlowState(grid, rng.normal(size=(points, dim_k))
                      + 1j * rng.normal(size=(points, dim_k)))
            for _ in range(2))
    pair, scale = reference_pairer(f, g, int(round(t / grid.spacing)))
    cases = []
    for w in LABELS:
        for z in LABELS:
            ef, eg = evolve(f, w, t).state, evolve(g, z, t).state
            assert ef.steps > 0
            cases.append((flow_inner(ef, eg), replayed_flow_inner(ef, eg),
                          pair(w, z), scale))
    return cases


def continued_cases(dim_k, w, z):
    """The cases of two random states continued by 2.5, 1.0 and 9.0, each
    paired both ways; 2.5 + 9.0 runs past the 50 cells, so the
    outflow-free tail runs too."""
    points = 50
    grid = Grid(8.0, points)
    rng = np.random.default_rng(5 * dim_k)
    f, g = (FlowState(grid, rng.normal(size=(points, dim_k))
                      + 1j * rng.normal(size=(points, dim_k)))
            for _ in range(2))
    cases = []
    for t in (2.5, 1.0, 9.0):
        f, g = evolve(f, w, t).state, evolve(g, z, t).state
        for (u, x), (v, y) in (((f, w), (g, z)), ((g, z), (f, w))):
            pair, scale = reference_pairer(u, v)
            cases.append((flow_inner(u, v), replayed_flow_inner(u, v),
                          pair(x, y), scale))
    assert f.steps > points
    return cases


# evolve's worst relative cell error against the 50-digit reference, in
# units of steps * eps: each step multiplies by the rounded damping
EVOLVE_EPS = 2.0


class TestEvolveAgainstReference:
    """evolve against references.reference_evolve on 50 cells: a cell
    damped n times is off by at most EVOLVE_EPS n eps relative, and so is
    each pushed cell's share of the outflow (squared: 2 n)."""

    @pytest.mark.parametrize("dim_k", [1, 3])
    @pytest.mark.parametrize("z", [0.0, 1 + 1j, -0.5j, 2.0])
    @pytest.mark.parametrize("continued", [False, True])
    def test_error_grows_at_most_linearly(self, dim_k, z, continued):
        f, _ = random_states(50, dim_k, 23 + dim_k)
        if continued:
            f = evolve(f, z, 0.5).state
        h = f.grid.spacing
        for steps in (1, 10, 25, 49, 50, 10 ** 4):
            state = evolve(f, z, steps * h).state
            cells, outflow = reference_evolve(f, z, steps * h)
            for j in range(50):
                for c in range(dim_k):
                    exact = cells[j, c]
                    error = abs(mpc(state.cells[j, c]) - exact)
                    assert error <= EVOLVE_EPS * steps * EPS * abs(exact)
            pushed = min(steps, 50)
            assert abs(state.outflow_mass - outflow) \
                <= 2 * EVOLVE_EPS * pushed * EPS * outflow


class TestPairings:
    """flow_inner pairs in closed form; the step loop (the replayed
    transport) and the 50-digit reference of the recursion judge it."""

    @pytest.mark.parametrize("points, t", REPLAY_GRIDS)
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    def test_matches_replayed_transport(self, points, t, dim_k):
        assert_pairings_accurate(replay_cases(points, t, dim_k))

    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    @pytest.mark.parametrize("w, z", CONTINUED_LABELS)
    def test_continued_states_match_replay(self, dim_k, w, z):
        assert_pairings_accurate(continued_cases(dim_k, w, z))

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


TAIL_MULTIPLES = [1, "P+1", 5, 50]
# h conj(w) z rounds to -1 for (2.5, -2.5) at h = 0.16: A is exactly 0;
# for (1, -6.249999999999999) it is nextafter(-1, 0), for
# (1, -6.2499999993749995) about -(1 - 1e-10) and for
# (1, -6.249999937499999) about -(1 - 1e-8), where log1p(2a + a^2 + b^2)
# cancels to -1 or to rounding noise: A comes from log |1 + feed|
TAIL_LABELS = [(0.0, 0.0), (1 + 1j, 1 + 1j), (1 + 1j, -1 - 1j), (0.0, 2j),
               (2.5, -2.5), (1.0, -6.249999999999999),
               (1.0, -6.2499999993749995), (1.0, -6.249999937499999)]


def padded_case(multiple, w, z):
    """(closed, loop, reference, scale) of two random states on 50 cells
    evolved by a multiple of the cells (or P + 1) steps."""
    points = 50
    f, g = random_states(points, 2, 19)
    steps = points + 1 if multiple == "P+1" else multiple * points
    t = steps * f.grid.spacing
    ef, eg = evolve(f, w, t).state, evolve(g, z, t).state
    assert ef.steps == steps
    pair, scale = reference_pairer(f, g, steps)
    return (flow_inner(ef, eg), padded_pairing(f, g, steps, w, z),
            pair(w, z), scale)


class TestOutflowFreeTail:
    # past the P cells nothing flows out; w = z = 0 keeps its value,
    # w = -z decays to 0 within 50 P steps, w = z decays slowly
    @pytest.mark.parametrize("multiple", TAIL_MULTIPLES)
    @pytest.mark.parametrize("w, z", TAIL_LABELS)
    def test_matches_padded_recursion(self, multiple, w, z):
        assert_pairings_accurate([padded_case(multiple, w, z)])

    def test_huge_step_count_is_cheap(self):
        f = bump_state(Grid(8.0, 200), 3.0, 0.4)
        labels = [0.0, 3.0, -3.0]
        t = 10 ** 9 * f.grid.spacing
        start = time.perf_counter()
        gram = numeric_gram(labels, t, f)
        assert time.perf_counter() - start < 1.0
        # tracing slows the loop, so the memory is measured on a rerun
        tracemalloc.start()
        try:
            numeric_gram(labels, t, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # every pairing sits at its limit well before 10^6 steps: the
        # powers of A are 1 (label 0) or have underflowed to 0
        np.testing.assert_array_equal(
            gram, numeric_gram(labels, 10 ** 6 * f.grid.spacing, f))

    # For w = z each outflow-free step contracts by about
    # 1 - (|z|^2 h)^2 / 2, so a step loop runs ~10^8 steps to its fixed
    # point here (31 s for `covariance: {labels: ["2.5"], t: 1.0e+5,
    # refinements: 5}`); the closed form is O(P) in the steps.
    def test_slowly_contracting_tail_is_cheap(self):
        grid = Grid(8.0, 6400)
        f, g = bump_state(grid, 3.0, 0.4), bump_state(grid, 3.5, 0.5)
        labels, t = [2.5], 1.0e5

        def run():
            return (numeric_gram(labels, t, f),
                    covariance_residuals(labels, labels, t, f, g))

        start = time.perf_counter()
        gram, residuals = run()
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # |A|^N is about exp(-2429): the pairing underflows to 0, and the
        # residual is the whole of |(f, g)|
        assert gram[0, 0] == 0.0
        assert residuals[0, 0] == abs(flow_inner(f, g))


# Outflow-free tails far past any step loop's reach, on 50-cell grids of
# length L: (L, t, w, z) with a phase N arg A of 50 to 1000 radians and
# |A|^N between 0.2 and 0.5, so the rounding of log A, multiplied by N,
# is not hidden by an underflowing power
LONG_PHASES = [(1e-4, 1.0e6, 1.0, 1 + 1e-3j),
               (1e-3, 1.0e5, 1j, -1e-3 + 1j),
               (1e-4, 60.0, 10.0, 10 + 0.1j)]


class TestLongPhase:
    """The closed form at up to 5e11 steps, judged by the reference alone."""

    @pytest.mark.parametrize("length, t, w, z", LONG_PHASES)
    def test_long_phase_within_bound(self, length, t, w, z):
        grid = Grid(length, 50)
        f, g = random_states(50, 2, 23)
        f, g = FlowState(grid, f.cells), FlowState(grid, g.cells)
        steps = int(round(t / grid.spacing))
        exact, scale = reference_pairer(f, g, steps)
        _, log_a = semigroups._log_growth(w, z, grid.spacing)
        assert abs(steps * log_a.imag) >= 50
        assert np.exp(steps * log_a.real) >= 0.2
        value = semigroups._pairer(f, g, steps)(w, z)
        closed, _ = pairing_errors([(value, value, exact(w, z), scale)])
        assert closed[0] <= PAIRING_EPS


class TestClosedFormAgainstLoop:
    """The closed form against the step loop, both judged by the 50-digit
    reference, with no allowance for rounding noise."""

    def test_pooled_reference_cases(self):
        cases = [case for points, t in REPLAY_GRIDS for dim_k in (1, 2, 3)
                 for case in replay_cases(points, t, dim_k)]
        cases += [case for dim_k in (1, 2, 3) for w, z in CONTINUED_LABELS
                  for case in continued_cases(dim_k, w, z)]
        cases += [padded_case(multiple, w, z) for multiple in TAIL_MULTIPLES
                  for w, z in TAIL_LABELS]
        closed, loop = pairing_errors(cases)
        assert max(closed) <= max(loop)

    # the covariance command's six grids, bumps and labels at t = 1: the
    # loop multiplies by the rounded d once per step, so its relative
    # error grows with the step count; the closed form's does not
    def test_default_covariance_grids(self):
        for level in range(6):
            grid = Grid(8.0, 200 * 2 ** level)
            f, g = bump_state(grid, 3.0, 0.4), bump_state(grid, 3.5, 0.5)
            steps = int(round(1.0 / grid.spacing))
            exact, _ = reference_pairer(f, g, steps)
            pair = semigroups._pairer(f, g, steps)
            cases = []
            for w in LABELS:
                for z in LABELS:
                    value = exact(w, z)
                    cases.append((pair(w, z), padded_pairing(
                        f, g, steps, w, z), value, float(abs(value))))
            # relative errors, in units of eps
            closed, loop = pairing_errors(cases)
            assert max(closed) <= max(loop)
            assert max(closed) <= 8


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


# equal moduli with different phases share a step damping; 0.0 and -0.0j
# share it too but give feeds whose zeros differ in sign; e^{i pi/4} is
# not exactly on the unit circle, yet |z|^2 rounds to 1.0, while 1 + 1e-9
# has a damping of its own that a tolerance would merge with label 1's
ORACLE_LABELS = [1.0, 1j, -1.0, -1j, 0.0, -0.0j, np.exp(0.25j * np.pi),
                 1 + 1e-9, 1 + 1j]


def random_states(points, dim_k, seed):
    grid = Grid(8.0, points)
    rng = np.random.default_rng(seed)
    return [FlowState(grid, rng.normal(size=(points, dim_k))
                      + 1j * rng.normal(size=(points, dim_k)))
            for _ in range(2)]


class TestMatchesPerLabelReference:
    """covariance_residuals and numeric_gram pair from the sources, one
    closed-form sum per (w, z); the per-label bodies in references evolve
    and pair label by label, and the tables must agree bit for bit."""

    # (50, 12.0): more steps than cells
    @pytest.mark.parametrize("points, t", [(50, 1.0), (50, 12.0),
                                           (1600, 1.0)])
    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    def test_tables_bit_identical(self, points, t, dim_k, monkeypatch):
        f, g = random_states(points, dim_k, points + dim_k)
        ws = ORACLE_LABELS[::-1]
        # the outflow of random states is O(1): no gate here
        monkeypatch.setattr(semigroups, "OUTFLOW_TOLERANCE", np.inf)
        table = covariance_residuals(ws, ORACLE_LABELS, t, f, g)
        assert np.array_equal(table, covariance_residuals_by_label(
            ws, ORACLE_LABELS, t, f, g, np.inf))
        assert np.array_equal(numeric_gram(ORACLE_LABELS, t, f),
                              numeric_gram_by_label(ORACLE_LABELS, t, f))

    @pytest.mark.parametrize("dim_k", [1, 2, 3])
    @pytest.mark.parametrize("w, z", [(0.0, -0.0j), (1j, 1j),
                                      (1 + 1j, 0.0)])
    def test_continued_states_bit_identical(self, dim_k, w, z,
                                            monkeypatch):
        monkeypatch.setattr(semigroups, "OUTFLOW_TOLERANCE", np.inf)
        f, g = random_states(50, dim_k, 7 * dim_k)
        f, g = evolve(f, w, 2.5).state, evolve(g, z, 2.5).state
        assert f.steps > 0
        # labels equal to the state's own (0.0 == -0.0j) may continue it
        ws = [w, complex(w).conjugate() if w == 0 else w]
        zs = [z, z, -z if z == 0 else z]
        for t in (0.0, 1.0, 12.0):
            assert np.array_equal(
                covariance_residuals(ws, zs, t, f, g),
                covariance_residuals_by_label(ws, zs, t, f, g, np.inf))
            assert np.array_equal(numeric_gram(ws, t, f),
                                  numeric_gram_by_label(ws, t, f))

    # 1j has the step damping of label 1, so without the check the second
    # label would reuse the first one's cells instead of being rejected
    @pytest.mark.parametrize("labels", [[1.0, 1j], [1.0, -1.0], [0.0, 1.0]])
    def test_label_switch_rejected_for_every_label(self, labels):
        f, g = random_states(50, 1, 3)
        fed = evolve(f, labels[0], 0.5).state
        for table in (covariance_residuals, covariance_residuals_by_label):
            with pytest.raises(IncompatibleStatesError):
                table([labels[0]], labels, 1.0, evolve(g, labels[0],
                                                       0.5).state, fed)
        for gram in (numeric_gram, numeric_gram_by_label):
            with pytest.raises(IncompatibleStatesError):
                gram(labels, 1.0, fed)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_bad_time_rejected(self, t):
        f, g = random_states(50, 1, 4)
        with pytest.raises(InvalidExperimentError):
            covariance_residuals(LABELS, LABELS, t, f, g)
        with pytest.raises(InvalidExperimentError):
            numeric_gram(LABELS, t, f)


def gate_message(table, *args):
    """The outflow-gate message table(*args) raises, or None."""
    try:
        table(*args)
    except InvalidExperimentError as exc:
        return str(exc)
    return None


class TestOutflowGateParity:
    """covariance_residuals evolves each state once, under its label with
    the largest step damping; the reference evolves every label.  A larger
    damping never rounds to a smaller outflow, so the gates must fire
    together, with the same message, right at the reference's maximum."""

    @pytest.mark.parametrize("continued", [False, True])
    @pytest.mark.parametrize("leaking", ["f", "g"])
    def test_gate_fires_with_reference(self, continued, leaking,
                                       monkeypatch):
        grid = Grid(8.0, 200)
        near, edge = bump_state(grid, 3.0, 0.4), bump_state(grid, 6.5, 0.3)
        f, g = (edge, near) if leaking == "f" else (near, edge)
        # no label 0: every damping loop runs; the largest damping (1, 1j)
        # is not listed first
        ws = [1 + 1j, 1 + 1e-9, 1.0, 1j]
        zs = ws[::-1]
        if continued:
            f, g = evolve(f, 1 + 1e-9, 0.3).state, evolve(g, 1j, 0.3).state
            ws, zs = [1 + 1e-9, 1 + 1e-9], [1j]
        worst = max(evolve(s, z, 1.0).state.outflow_mass
                    for s, labels in ((f, ws), (g, zs)) for z in labels)
        assert worst > 1e-6
        args = (ws, zs, 1.0, f, g)
        for tol in (np.nextafter(worst, 0.0), worst):
            monkeypatch.setattr(semigroups, "OUTFLOW_TOLERANCE", tol)
            message = gate_message(covariance_residuals, *args)
            assert message == gate_message(covariance_residuals_by_label,
                                           *args, tol)
            assert (message is None) == (tol == worst)
        assert np.array_equal(covariance_residuals(*args),
                              covariance_residuals_by_label(*args, tol))


class TestHugeTime:
    # t / h overflows to inf, so there is no step count
    def test_every_entry_point_raises(self):
        f = bump_state(Grid(8.0, 200), 3.0, 0.4)
        with pytest.raises(InvalidExperimentError, match="too large"):
            evolve(f, 1.0, 1e308)
        with pytest.raises(InvalidExperimentError, match="too large"):
            covariance_residuals(LABELS, LABELS, 1e308, f, f)
        with pytest.raises(InvalidExperimentError, match="too large"):
            numeric_gram(LABELS, 1e308, f)


class TestHugeLabel:
    # |z|^2 overflows a float above |z| of about 1.34e154
    LABEL = 1e200

    @pytest.fixture()
    def f(self):
        return bump_state(Grid(8.0, 50), 3.0, 0.4)

    def test_evolve_raises(self, f):
        with pytest.raises(InvalidExperimentError, match=r"label .*1e\+200"):
            evolve(f, self.LABEL, 1.0)

    def test_covariance_residuals_raises(self, f):
        with pytest.raises(InvalidExperimentError, match=r"label .*1e\+200"):
            covariance_residuals([self.LABEL], [1.0], 1.0, f, f)

    def test_covariance_raises(self):
        with pytest.raises(InvalidExperimentError, match=r"label .*1e\+200"):
            covariance(self.LABEL, 1)


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

    # a positive t below h / 2 would pass with every residual exactly 0
    def test_positive_time_without_steps_raises(self):
        grid = Grid(8.0, 200)
        f = bump_state(grid, 3.0, 0.4)
        with pytest.raises(StepCountError, match="rounds to no step"):
            covariance_residuals([1.0], [1j], 0.4 * grid.spacing, f, f)


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
        assert state.cells.shape[1] == 1
        np.testing.assert_array_equal(state.cells[:, 0], values)


class TestParams:
    def test_step_damping(self):
        assert _step_damping(2.0, 0.01) == pytest.approx(np.exp(-0.02))
