"""Intertwining semigroups on K tensor L2(0, infinity).

U_z(t) is realized by explicit transport stepping: per step the cell
contents shift right by one cell, the boundary cell is fed with z times
the shift image of the previous state, and the whole state is damped by
exp(-|z|^2 h / 2).  The time step is locked to the grid spacing, so the
translation part is exact and all discretization error lives in the
boundary feed and the damping.

The shift S0 onto K is an isometry that no finite truncation of K can
represent faithfully, so the boundary feed is kept symbolic: fed cells
never share a grid position with transported cells (the feed enters at
cell zero and moves right in lockstep), and every inner product that
involves fed cells reduces, via (S0 f, S0 g) = (f, g), to the pairing of
the two states one step earlier.  Pairings are therefore computed by a
joint recursion over the step history instead of from materialized
boundary vectors.

With the feed symbolic, a pairing depends only on its two sources, its
step count and the two labels.  A step of its recursion is linear,
value -> A value - d outflow, so it is summed in closed form (_pairer):
O(P) per label pair whatever t / h, and on every tested case within
2 eps (|start| + sum |outflow|) of a 50-digit reference of the
recursion, while the error of a step loop grows with the step count.  A
covariance table or Gram matrix therefore pairs straight from the
sources, with one outflow sequence and one closed-form sum per label
pair, bit-identical to evolving and pairing label by label; only the
outflow gate evolves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .halfline import Grid


class InvalidExperimentError(ValueError):
    """An experiment violates its stated preconditions (e.g. outflow)."""


class StepCountError(InvalidExperimentError):
    """An evolution time has no finite step count t / h on the grid, or
    a positive one rounds to no step."""


class CoarseGridError(InvalidExperimentError):
    """A grid whose cells hold none of a state's mass."""


class IncompatibleStatesError(ValueError):
    """Two flow states cannot be combined (grid, label or step mismatch)."""


def _abs_squared(z: complex) -> float:
    """|z|^2 as abs(z) ** 2, or InvalidExperimentError naming the label
    where the square overflows (|z| above about 1.34e154)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        raise InvalidExperimentError(
            "label %r is too large: |z|^2 overflows" % (z,)) from None


def covariance(w: complex, z: complex) -> complex:
    """The covariance exponent c(w, z) with U_w(t)* U_z(t) = exp(c(w,z) t).

    c(w, z) = (2 conj(w) z - |w|^2 - |z|^2) / 2; c(z, z) = 0.
    """
    w = complex(w)
    z = complex(z)
    return 0.5 * (2.0 * np.conj(w) * z - _abs_squared(w) - _abs_squared(z))


def _step_damping(z: complex, h: float) -> float:
    """The damping exp(-|z|^2 h / 2) of one U_z step of length h."""
    return float(np.exp(-0.5 * _abs_squared(z) * h))


@dataclass(frozen=True)
class FlowState:
    """A function in K tensor L2(0, L) sampled on grid cells.

    cells[j] is the K-coordinate vector carried by cell j (the transported
    channel); cells has shape (points, dim_k), and a 1-D array of length
    points is one channel.  source_cells keeps the initial data so
    pairings can replay the feed recursion; steps counts applied transport
    steps; fed cells are implicit (cells [0, steps) belong to the boundary
    feed and carry no explicit coordinates).
    """

    grid: Grid
    cells: np.ndarray
    z: complex = 0.0
    steps: int = 0
    outflow_mass: float = 0.0
    source_cells: np.ndarray | None = None

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=complex)
        if cells.ndim == 1:
            cells = cells[:, None]
        if cells.ndim != 2 or cells.shape[0] != self.grid.points:
            raise InvalidExperimentError(
                "cell array must have shape (points,) or (points, dim_k), "
                "got %r for %d points" % (cells.shape, self.grid.points))
        object.__setattr__(self, "cells", cells)
        src = self.source_cells
        object.__setattr__(self, "source_cells",
                           cells.copy() if src is None else src)


def bump_state(grid: Grid, center: float, width: float) -> FlowState:
    """A normalized Gaussian bump in one K-coordinate channel."""
    x = grid.midpoints
    with np.errstate(over="ignore"):  # an overflowing offset is a zero
        profile = np.exp(-0.5 * ((x - center) / width) ** 2)
    norm = np.sqrt(grid.spacing) * np.linalg.norm(profile)
    if not norm > 0.0:
        raise CoarseGridError(
            "the bump at %r is zero at every midpoint of the %d-point "
            "grid on [0, %r)" % (center, grid.points, grid.length))
    profile /= norm
    return FlowState(grid, profile)


@dataclass(frozen=True)
class EvolveResult:
    state: FlowState
    snap_distance: float


def _step_count(state: FlowState, labels, t: float) -> int:
    """The steps evolve(state, z, t) takes for each z in labels, after
    evolve's checks on t, on t/h (finite, and small enough to index) and
    on the labels."""
    if not math.isfinite(t):
        raise InvalidExperimentError("evolution time must be finite")
    if t < 0:
        raise InvalidExperimentError("evolution time must be nonnegative")
    if state.steps > 0 and any(complex(z) != state.z for z in labels):
        raise IncompatibleStatesError(
            "a state carrying feed history can only continue under the "
            "same unit label")
    steps = t / state.grid.spacing
    if not math.isfinite(steps) or round(steps) > sys.maxsize:
        raise StepCountError(
            "evolution time %r is too large for the grid spacing" % t)
    return int(round(steps))


def evolve(state: FlowState, z: complex, t: float) -> EvolveResult:
    """Apply U_z(t) by whole-cell transport steps.

    t is snapped to the nearest multiple of the grid spacing; the snap
    distance is reported.  Per step: shift right, feed the boundary cell
    (symbolically) with z times the shifted previous state, damp by
    exp(-|z|^2 h / 2).  Mass pushed past the right edge is discarded and
    accumulated in outflow_mass.

    The cells are not moved per step: step k pushes out source cell
    P-1-k, and only the cells below it are damped.  The survivors land at
    offset n_steps once, at the end.  Every surviving value takes the
    same sequential multiplies in the same order as a shift-and-damp loop
    over the whole state, so the result is bit-identical to it
    (tests/test_semigroups); a closed-form power of the damping would
    not be.  The damping is one in-place multiply per step on the float
    view of a C-ordered copy (real and imaginary parts scale alike, so
    the values are those of the complex multiply), skipped when it is
    1.0 (label 0); steps past the P-th push out nothing and cost
    nothing.  A pushed cell is never touched again, so the outflow is
    read from the pushed cells after the loop with one reduction and
    added up in push order.
    """
    n_steps = _step_count(state, [z], t)
    z = complex(z)
    h = state.grid.spacing
    snap = abs(t - n_steps * h)
    damping = _step_damping(z, h)
    src = state.cells.copy(order="C")
    points = len(src)
    pushed = min(n_steps, points)
    if damping != 1.0:
        flat = src.view(np.float64)
        for edge in range(points - 1, points - 1 - pushed, -1):
            flat[:edge] *= damping
    outflow = state.outflow_mass
    masses = np.sum(np.abs(src[points - pushed:]) ** 2, axis=1)
    for mass in masses[::-1].tolist():
        outflow += h * mass
    cells = np.zeros_like(src)
    cells[n_steps:] = src[:max(points - n_steps, 0)]
    return EvolveResult(
        FlowState(state.grid, cells, z, state.steps + n_steps,
                  outflow, state.source_cells),
        snap,
    )


def _outflows(a: np.ndarray, b: np.ndarray, steps: int,
              h: float) -> np.ndarray:
    """The outflows h (a[P-1-k], b[P-1-k]) of a pairing of sources a and b
    at the steps k < min(steps, P), which push a cell past the right edge.

    All overlaps of pushed cells come from one batched product of the
    pushed rows.
    """
    first = len(a) - min(steps, len(a))
    overlaps = (a[first:].conj()[:, None, :] @ b[first:, :, None])[:, 0, 0]
    return h * overlaps[::-1]


# exp(x) rounds to 0.0 for every x <= _LOG_FLOOR; a |A| below
# exp(_LOG_FLOOR) makes every power A^k with k >= 1 exactly 0
_LOG_FLOOR = -746.0


def _log_growth(w: complex, z: complex, h: float) -> tuple[float, complex]:
    """(log d, log A) of one pairing step value -> A value - d outflow,
    with d = exp(-(|w|^2 + |z|^2) h / 2) and A = d (1 + h conj(w) z).

    Both come from the labels and h, not from the rounded d: log(1 + feed)
    is 0.5 log1p(2a + a^2 + b^2) + i atan2(b, 1 + a) for feed = a + ib
    with |feed| < 1/2 (numpy's complex log1p is not accurate near 0), and
    log |1 + feed| + i atan2(b, 1 + a) otherwise: there 1 + a is exact
    (Sterbenz) wherever it cancels, while the log1p argument would cancel
    to rounding noise, or to -1, as feed nears -1.  |A| <= 1 for all
    labels; a real part at or below _LOG_FLOOR is clamped to it, with
    phase 0, so every power of A is 0 or (for k = 0) 1, and none is nan.
    """
    w, z = complex(w), complex(z)
    feed = h * w.conjugate() * z
    a, b = feed.real, feed.imag
    log_d = -0.5 * (w.real * w.real + w.imag * w.imag
                    + z.real * z.real + z.imag * z.imag) * h
    if abs(feed) < 0.5:
        re = 0.5 * math.log1p(2.0 * a + (a * a + b * b))
    else:
        modulus = abs(1.0 + feed)
        re = math.log(modulus) if modulus else -math.inf
    re += log_d
    if not re > _LOG_FLOOR:  # also a nan from log d = -inf, |feed| = inf
        return log_d, complex(_LOG_FLOOR, 0.0)
    return log_d, complex(re, math.atan2(b, 1.0 + a))


def _pairer(f: FlowState, g: FlowState, extra: int):
    """pair(w, z) = flow_inner(evolve(f, w, .), evolve(g, z, .)) for the
    evolutions of f and g by extra more steps, read from the sources.

    A step of the pairing recursion is value -> A value - d outflow, so
    after N = steps steps, with outflows ov_1 .. ov_K (K = min(N, P)),

        value_N = A^(N-K) [A^K start - d sum_k A^(K-k) ov_k]:

    one exp over the ramp K, K-1, .., 0 of log A (_log_growth), one dot
    product with the outflows, and one exp for the outflow-free tail of
    N - K steps.  Time and memory are O(P), whatever t / h; at N = 0 the
    one power is exp(0) = 1 and the value is start.  The outflows are
    built once per pairer, and each call sums them afresh.

    Against the 50-digit reference of the recursion
    (tests/references.py::reference_pairer) the sum itself adds about
    eps (|start| + sum |ov_k|).  The powers of A add a relative error of
    about N eps (|log d| + |log(1 + feed)|), at most about
    eps t (|w|^2 + |z|^2) for small h, from the rounding of log A; this
    weighs only where the pairing is not small against |start| +
    sum |ov_k|.  Every tested case stays within 2 eps (|start| +
    sum |ov_k|): up to 2500 steps against the step loop, and up to 5e11
    steps with phases N arg A up to 1e3 radians and |A|^N >= 0.2
    against the reference alone (TestLongPhase).  The step loop
    multiplies by the rounded d once per step instead.  On the covariance command's six default grids the
    closed form is within 8.0e-16 relative (the rounding of start, which
    the loop shares), the loop within 4.1e-15 at 200 cells and 1.1e-13
    at 6400.  tests/test_semigroups pins both: TestPairings and
    TestOutflowFreeTail per case, TestClosedFormAgainstLoop on the
    pooled cases and those grids.
    """
    if f.grid != g.grid:
        raise IncompatibleStatesError("grid mismatch")
    if f.steps != g.steps:
        raise IncompatibleStatesError("step-count mismatch")
    h = f.grid.spacing
    steps = f.steps + extra
    a, b = f.source_cells, g.source_cells
    start = h * complex(np.vdot(a, b))
    outflows = _outflows(a, b, steps, h)
    ramp = np.arange(len(outflows), -1.0, -1.0)
    rest = steps - len(outflows)

    def pair(w: complex, z: complex) -> complex:
        log_d, log_a = _log_growth(w, z, h)
        powers = np.exp(ramp * log_a)
        value = powers[0] * start - math.exp(log_d) * (powers[1:] @ outflows)
        return complex(value * np.exp(rest * log_a))

    return pair


def flow_inner(f: FlowState, g: FlowState) -> complex:
    """(f, g) including the symbolic boundary-feed contributions.

    Both states must live on the same grid and have taken the same number
    of steps.  The pairing is a scalar recursion from the sources: with
    I_k = (U_w(kh) f0, U_z(kh) g0), one transport step gives

        I_k = d_w d_z [ (I_{k-1} - outflow_k) + h conj(w) z I_{k-1} ]

    because fed cells pair through (S0 a, S0 b) = (a, b); outflow_k is
    the mass pair that step k pushes past the right edge (_outflows).
    _pairer evaluates the recursion in closed form, in O(P) for any step
    count; tests/test_semigroups holds it against a 50-digit reference
    and against the step loop (tests/test_semigroups.py::
    replayed_flow_inner, tests/references.py::padded_pairing).
    """
    return _pairer(f, g, 0)(f.z, g.z)


OUTFLOW_TOLERANCE = 1e-8  # the mass allowed past the grid's right edge


def covariance_residuals(ws, zs, t: float, f: FlowState,
                         g: FlowState) -> np.ndarray:
    """[|(U_w(t) f, U_z(t) g) - exp(c(w,z) t) (f, g)|] over w in ws, z in zs.

    Each residual is expected O(h).  The pairings read only the sources
    and the step count, so the table builds one outflow sequence and sums
    the recursion in closed form once per (w, z); (f, g) is paired once.
    The values are bit-identical to pairing each (w, z) from its own pair
    of evolutions.

    The outflow gate evolves each state once, under its label with the
    largest step damping: a larger damping never rounds a cell to a
    smaller modulus, so that outflow is the largest over the labels.
    """
    base = flow_inner(f, g)
    steps = _step_count(f, ws, t)
    _step_count(g, zs, t)
    h = f.grid.spacing
    if t > 0 and not steps:
        # every residual would be exactly 0: a pass that checks nothing
        raise StepCountError(
            "evolution time %r rounds to no step of the grid spacing %r"
            % (t, h))
    outflow = max(evolve(s, max(labels, key=lambda z: _step_damping(z, h)),
                         t).state.outflow_mass
                  for s, labels in ((f, ws), (g, zs)) if labels)
    if outflow > OUTFLOW_TOLERANCE:
        raise InvalidExperimentError(
            "outflow mass %.3e exceeds the experiment tolerance; enlarge "
            "the grid" % outflow)
    pair = _pairer(f, g, steps)
    out = np.empty((len(ws), len(zs)))
    # Re c <= 0, and c t overflows only where exp(c t) is 0
    with np.errstate(over="ignore"):
        for i, w in enumerate(ws):
            for j, z in enumerate(zs):
                expected = np.exp(covariance(w, z) * (steps * h)) * base
                out[i, j] = abs(pair(w, z) - expected)
    return out


def semigroup_residual(z: complex, t: float, s: float, f: FlowState) -> float:
    """Norm distance between evolving by t+s and evolving by s then t.

    Zero by construction: both paths give every surviving cell the same
    sequence of per-step damping multiplies (no closed-form power), so
    the cells agree bit for bit.  Kept as a regression guard on the
    stepper.
    """
    one_shot = evolve(f, z, t + s).state
    two_step = evolve(evolve(f, z, s).state, z, t).state
    if one_shot.steps != two_step.steps:
        return float("inf")
    h = f.grid.spacing
    diff = one_shot.cells - two_step.cells
    return float(np.sqrt(h) * np.linalg.norm(diff))


def analytic_gram(zs, t: float) -> np.ndarray:
    """The matrix [exp(c(z_i, z_j) t)], a Gram matrix of evolved units."""
    zs = [complex(v) for v in zs]
    k = len(zs)
    out = np.empty((k, k), dtype=complex)
    # as in covariance_residuals: an overflowing c t has exp 0
    with np.errstate(over="ignore"):
        for i in range(k):
            for j in range(k):
                out[i, j] = np.exp(covariance(zs[i], zs[j]) * t)
    return out


def numeric_gram(zs, t: float, f: FlowState) -> np.ndarray:
    """Gram matrix of the evolved states U_{z_i}(t) f from the stepper.

    Nothing is evolved: the pairings read the source and the step count
    and share one outflow sequence, as in covariance_residuals.  Pairs
    each i < j once and fills the lower triangle with conjugates; the
    diagonal keeps the real part of each self-pairing (a squared norm),
    so the matrix is exactly Hermitian.
    """
    pair = _pairer(f, f, _step_count(f, zs, t))
    k = len(zs)
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        out[i, i] = pair(zs[i], zs[i]).real
        for j in range(i + 1, k):
            out[i, j] = pair(zs[i], zs[j])
            out[j, i] = out[i, j].conjugate()
    return out


def gram_min_eig(gram: np.ndarray) -> float:
    herm = 0.5 * (gram + gram.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])


def refinement_orders(residuals) -> list[float]:
    """log2 ratios of successive residuals from a halving-h refinement."""
    residuals = [float(r) for r in residuals]
    orders = []
    for a, b in zip(residuals, residuals[1:]):
        if b == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log2(a / b)))
    return orders
