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
step count and the scalars (d, feed) of its recursion.  A covariance
table or Gram matrix therefore pairs straight from the sources, with one
outflow sequence and one recursion per distinct (d, feed), bit-identical
to evolving and pairing label by label; only the outflow gate evolves.
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


def covariance(w: complex, z: complex) -> complex:
    """The covariance exponent c(w, z) with U_w(t)* U_z(t) = exp(c(w,z) t).

    c(w, z) = (2 conj(w) z - |w|^2 - |z|^2) / 2; c(z, z) = 0.
    """
    w = complex(w)
    z = complex(z)
    return 0.5 * (2.0 * np.conj(w) * z - abs(w) ** 2 - abs(z) ** 2)


def _step_damping(z: complex, h: float) -> float:
    """The damping exp(-|z|^2 h / 2) of one U_z step of length h."""
    return float(np.exp(-0.5 * abs(z) ** 2 * h))


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

    @property
    def dim_k(self) -> int:
        return self.cells.shape[1]

    def norm(self) -> float:
        return float(np.sqrt(max(flow_inner(self, self).real, 0.0)))


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


def _outflows(a: np.ndarray, b: np.ndarray, steps: int, h: float) -> list:
    """The outflows h (a[P-1-k], b[P-1-k]) of a pairing of sources a and b
    at the steps k < min(steps, P), which push a cell past the right edge.

    All overlaps of pushed cells come from one batched product of the
    pushed rows; tests/test_semigroups checks that it rounds exactly as
    np.vdot of each row pair (an elementwise sum or einsum did not).
    """
    first = len(a) - min(steps, len(a))
    overlaps = (a[first:].conj()[:, None, :] @ b[first:, :, None])[:, 0, 0]
    return [h * ov for ov in overlaps[::-1].tolist()]


def _pairer(f: FlowState, g: FlowState, extra: int):
    """pair(w, z) = flow_inner(evolve(f, w, .), evolve(g, z, .)) for the
    evolutions of f and g by extra more steps, read from the sources.

    The outflows are built once; the recursion runs once per distinct
    (d, feed), keyed on their exact bits (0.0 and -0.0 differ).  Past
    the P-th step nothing flows out, so a step is value -> d (value +
    feed value), which is the step with a zero outflow bit for bit.  The
    recursion stops at the first step that maps the value to itself bit
    for bit, since every later step does too: at once for w = z = 0, and
    at exact 0 or a subnormal fixed point after underflow otherwise.
    Memory is O(P) in the step count, and time is O(P) plus the steps to
    that fixed point, not t / h.  Each step contracts the value by
    |d (1 + feed)|, about exp(-|w - z|^2 h / 2) for w != z and
    1 - (|z|^2 h)^2 / 2 for w = z, so small |z|^2 h makes it long.
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
    rest = steps - len(outflows)
    done = {}

    def pair(w: complex, z: complex) -> complex:
        d = _step_damping(w, h) * _step_damping(z, h)
        feed = h * np.conj(complex(w)) * complex(z)
        key = d.hex(), feed.real.hex(), feed.imag.hex()
        if key not in done:
            value = start
            for ov in outflows:
                value = d * ((value - ov) + feed * value)
            for _ in range(rest):
                step = d * (value + feed * value)
                if (step.real.hex(), step.imag.hex()) \
                        == (value.real.hex(), value.imag.hex()):
                    break
                value = step
            done[key] = value
        return done[key]

    return pair


def flow_inner(f: FlowState, g: FlowState) -> complex:
    """(f, g) including the symbolic boundary-feed contributions.

    Both states must live on the same grid and have taken the same number
    of steps.  The pairing is a scalar recursion from the sources: with
    I_k = (U_w(kh) f0, U_z(kh) g0), one transport step gives

        I_k = d_w d_z [ (I_{k-1} - outflow_k) + h conj(w) z I_{k-1} ]

    because fed cells pair through (S0 a, S0 b) = (a, b); outflow_k is
    the mass pair that step k pushes past the right edge (_outflows).
    The recursion itself stays a scalar loop (_pairer).
    """
    return _pairer(f, g, 0)(f.z, g.z)


OUTFLOW_TOLERANCE = 1e-8  # the mass allowed past the grid's right edge


def covariance_residuals(ws, zs, t: float, f: FlowState,
                         g: FlowState) -> np.ndarray:
    """[|(U_w(t) f, U_z(t) g) - exp(c(w,z) t) (f, g)|] over w in ws, z in zs.

    Each residual is expected O(h).  The pairings read only the sources
    and the step count, so the table builds one outflow sequence and runs
    one recursion per distinct (d, feed); (f, g) is paired once.  The
    values are bit-identical to pairing each (w, z) from its own pair of
    evolutions.

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
