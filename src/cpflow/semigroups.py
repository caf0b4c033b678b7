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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .halfline import Grid


class InvalidExperimentError(ValueError):
    """An experiment violates its stated preconditions (e.g. outflow)."""


class IncompatibleStatesError(ValueError):
    """Two flow states cannot be combined (grid, label or step mismatch)."""


def covariance(w: complex, z: complex) -> complex:
    """The covariance exponent c(w, z) with U_w(t)* U_z(t) = exp(c(w,z) t).

    c(w, z) = (2 conj(w) z - |w|^2 - |z|^2) / 2; c(z, z) = 0.
    """
    w = complex(w)
    z = complex(z)
    return 0.5 * (2.0 * np.conj(w) * z - abs(w) ** 2 - abs(z) ** 2)


@dataclass(frozen=True)
class UzParams:
    """Stepping parameters for U_z on a given grid."""

    z: complex
    spacing: float

    @property
    def step_damping(self) -> float:
        return float(np.exp(-0.5 * abs(self.z) ** 2 * self.spacing))


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


def bump_state(grid: Grid, center: float, width: float,
               dim_k: int = 1) -> FlowState:
    """A normalized Gaussian bump in the first K-coordinate channel."""
    x = grid.midpoints
    profile = np.exp(-0.5 * ((x - center) / width) ** 2)
    profile /= np.sqrt(grid.spacing) * np.linalg.norm(profile)
    cells = np.zeros((grid.points, dim_k), dtype=complex)
    cells[:, 0] = profile
    return FlowState(grid, cells)


@dataclass(frozen=True)
class EvolveResult:
    state: FlowState
    snap_distance: float


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
    if not math.isfinite(t):
        raise InvalidExperimentError("evolution time must be finite")
    if t < 0:
        raise InvalidExperimentError("evolution time must be nonnegative")
    z = complex(z)
    if state.steps > 0 and z != state.z:
        raise IncompatibleStatesError(
            "a state carrying feed history can only continue under the "
            "same unit label")
    h = state.grid.spacing
    n_steps = int(round(t / h))
    snap = abs(t - n_steps * h)
    damping = UzParams(z, h).step_damping
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


def flow_inner(f: FlowState, g: FlowState) -> complex:
    """(f, g) including the symbolic boundary-feed contributions.

    Both states must live on the same grid and have taken the same number
    of steps.  The pairing is a scalar recursion from the sources: with
    I_k = (U_w(kh) f0, U_z(kh) g0), one transport step gives

        I_k = d_w d_z [ (I_{k-1} - outflow_k) + h conj(w) z I_{k-1} ]

    because fed cells pair through (S0 a, S0 b) = (a, b).  Step k pushes
    source cell P-1-k past the right edge of the P cells, so
    outflow_k = h (a0[P-1-k], b0[P-1-k]) for k < P and 0 after that.
    All overlaps of pushed cells come from one batched product of the
    pushed rows; tests/test_semigroups checks that it rounds exactly as
    np.vdot of each row pair (an elementwise sum or einsum did not).
    The recursion itself stays a scalar loop.
    """
    if f.grid != g.grid:
        raise IncompatibleStatesError("grid mismatch")
    if f.steps != g.steps:
        raise IncompatibleStatesError("step-count mismatch")
    h = f.grid.spacing
    if f.steps == 0:
        return h * complex(np.vdot(f.cells, g.cells))
    a, b = f.source_cells, g.source_cells
    d = UzParams(f.z, h).step_damping * UzParams(g.z, h).step_damping
    feed = h * np.conj(complex(f.z)) * complex(g.z)
    first = len(a) - min(f.steps, len(a))
    overlaps = (a[first:].conj()[:, None, :] @ b[first:, :, None])[:, 0, 0]
    outflows = itertools.chain((h * ov for ov in overlaps[::-1].tolist()),
                               itertools.repeat(0.0, f.steps - len(overlaps)))
    value = h * complex(np.vdot(a, b))
    for ov in outflows:
        value = d * ((value - ov) + feed * value)
    return value


def covariance_residuals(ws, zs, t: float, f: FlowState, g: FlowState,
                         outflow_tolerance: float = 1e-8) -> np.ndarray:
    """[|(U_w(t) f, U_z(t) g) - exp(c(w,z) t) (f, g)|] over w in ws, z in zs.

    Each residual is expected O(h).  f is evolved once per w and g once
    per z, and (f, g) is paired once, so a len(ws) x len(zs) table costs
    len(ws) + len(zs) evolutions.
    """
    base = flow_inner(f, g)
    efs = [evolve(f, w, t).state for w in ws]
    egs = [evolve(g, z, t).state for z in zs]
    outflow = max(e.outflow_mass for e in efs + egs)
    if outflow > outflow_tolerance:
        raise InvalidExperimentError(
            "outflow mass %.3e exceeds the experiment tolerance; enlarge "
            "the grid" % outflow)
    out = np.empty((len(efs), len(egs)))
    for i, (w, ef) in enumerate(zip(ws, efs)):
        t_snapped = (ef.steps - f.steps) * f.grid.spacing
        for j, (z, eg) in enumerate(zip(zs, egs)):
            expected = np.exp(covariance(w, z) * t_snapped) * base
            out[i, j] = abs(flow_inner(ef, eg) - expected)
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


def isometry_residual(z: complex, t: float, f: FlowState) -> float:
    """| ||U_z(t) f|| - ||f|| |, the O(h) boundary-feed discretization error.

    c(z, z) = 0 makes U_z(t) an isometry; in the stepper the damping and
    the boundary feed cancel only to first order in the step size, so this
    residual measures exactly the boundary-feed discretization and must
    shrink linearly under grid refinement.
    """
    ef = evolve(f, z, t).state
    return float(abs(ef.norm() - f.norm()))


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

    Pairs each i < j once and fills the lower triangle with conjugates;
    the diagonal keeps the real part of each self-pairing (a squared
    norm), so the matrix is exactly Hermitian.
    """
    states = [evolve(f, z, t).state for z in zs]
    k = len(states)
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        out[i, i] = flow_inner(states[i], states[i]).real
        for j in range(i + 1, k):
            out[i, j] = flow_inner(states[i], states[j])
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
