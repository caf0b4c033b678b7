"""Dense and direct reference forms that the package computes another way.

Each function here is the plain form of a computation that the package
does in a cheaper shape; the tests compare the two.
"""

from dataclasses import dataclass

import numpy as np

from cpflow.gauge import (
    FLOW,
    GENERAL,
    ISOMETRIC,
    UNITARY,
    GaugeParam,
    InvalidParameterError,
    UnitAction,
    r_term,
)
from cpflow.cli import _seq
from cpflow.halfline import ExpKernelVector, ExpMultiplier, Grid
from cpflow.opbasis import ChoiVerdict, MatrixModel, choi_min_eig
from cpflow.semigroups import evolve, flow_inner
from cpflow.tensorspace import ProductVector, TensorOperator, reference_state
from cpflow.weights import (
    BoundaryWeight,
    HElement,
    HFunctional,
    NonConvergenceError,
    SeriesValue,
    WeightSeriesConfig,
    boundary_identity,
    identity_element,
    omega1,
    rank_one,
    xi_from_nu,
)


def assemble_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the entrywise 2x2 map on the doubled space.

    blocks is a 2x2 nested sequence of superoperators, each of shape
    (dim_out^2, dim_in^2); block (a, b) acts on the (a, b) block of a
    doubled density.  cornercheck.fold_doubled is the folded form; like
    it, the result has the dtype numpy promotes the blocks to.
    """
    big = np.zeros((2 * dim_out, 2 * dim_out, 2 * dim_in, 2 * dim_in),
                   dtype=np.result_type(*(b for row in blocks for b in row)))
    for a in range(2):
        for b in range(2):
            s4 = np.asarray(blocks[a][b]).reshape(
                dim_out, dim_out, dim_in, dim_in)
            big[a * dim_out:(a + 1) * dim_out,
                b * dim_out:(b + 1) * dim_out,
                a * dim_in:(a + 1) * dim_in,
                b * dim_in:(b + 1) * dim_in] = s4
    return big.reshape(4 * dim_out * dim_out, 4 * dim_in * dim_in)


def doubled_entries(superop: np.ndarray, dim_in: int, dim_out: int):
    """The four entrywise blocks of a superoperator on the doubled space.

    Inverse of assemble_doubled on entrywise maps: block (a, b) is the
    part of the map from the (a, b) input block to the (a, b) output
    block.
    """
    s8 = superop.reshape(2, dim_out, 2, dim_out, 2, dim_in, 2, dim_in)
    return [[s8[a, :, b, :, a, :, b, :].reshape(dim_out * dim_out,
                                               dim_in * dim_in)
             for b in range(2)] for a in range(2)]


def identity_superop(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex)


def transpose_superop(dim: int) -> np.ndarray:
    """Superoperator of the matrix transpose (the canonical non-CP map)."""
    out = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            out[j * dim + i, i * dim + j] = 1.0
    return out


def complex_model(model: MatrixModel) -> MatrixModel:
    """The same model with its constant matrices promoted to complex128.

    MatrixModel keeps real data real; this is its complex form, in which
    every product, solve, condition number and Choi spectrum runs in
    complex arithmetic on data whose imaginary part is zero.  The leaf
    constants are model's, promoted; the shift, pihat and the series
    kernel are then built from them in complex arithmetic.
    """
    out = MatrixModel(model.n_factors, model.factor_dim, model.seq)
    for name in ("damping", "h_damping", "cross_overlap", "delta_matrix"):
        vars(out)[name] = getattr(model, name).astype(complex)
    kappa, fidelity = model.reference_coords
    vars(out)["reference_coords"] = (kappa.astype(complex), fidelity)
    return out


def truncation_superop(model, t: float) -> np.ndarray:
    """Superoperator of mu -> P mu P for the spectral cut at level t.

    MatrixModel.apply_truncation is the masked form.
    """
    p_tilde = np.kron(np.eye(model.dim_k), model.cut(t))
    return np.kron(p_tilde, p_tilde.T)


def dense_lambda_superop(model, blocks: int = 1) -> np.ndarray:
    """Dense lambdahat on densities with 1 or 2 diagonal blocks.

    MatrixModel.lambda_superop is the matrix-free form.
    """
    d, mh = blocks * model.dim_k, model.h_dim
    eye = np.eye(d)
    t6 = np.einsum("bi,aj,pq->baiqjp", eye, eye, model.h_damping)
    return t6.reshape(d * d, (d * mh) ** 2)


def permuted_choi_min_eig(superop: np.ndarray, dim_in: int, dim_out: int,
                          perm_in, perm_out,
                          tolerance: float = 1e-8) -> ChoiVerdict:
    """Choi spectrum after permuting the input and output operator bases.

    Basis permutations are unitary conjugations, so the minimum Choi
    eigenvalue must be unchanged up to round-off.
    """
    p_in = np.eye(dim_in)[:, list(perm_in)]
    p_out = np.eye(dim_out)[:, list(perm_out)]
    left = np.kron(p_out.T, p_out.T)
    right = np.kron(p_in, p_in)
    return choi_min_eig(left @ superop @ right, dim_in, dim_out, tolerance)


def omega_full(rho, element, xi, cfg=None, n_factors=None) -> complex:
    """The full weight omega(rho) = omega1(rho) + rho(Delta) xi."""
    base = omega1(rho, element, cfg, n_factors)
    return base.value + rho.delta_value() * xi.value(element)


def random_param_reference(rng: np.random.Generator,
                           klass: str = GENERAL) -> GaugeParam:
    """A random gauge parameter drawn with keyword-parsed generator calls.

    gauge.random_param draws the same stream through bound methods.
    """
    if klass not in (FLOW, UNITARY, ISOMETRIC, GENERAL):
        raise InvalidParameterError("unknown class %r" % (klass,))

    def cplx(scale=1.0):
        return complex(rng.normal(scale=scale), rng.normal(scale=scale))

    if klass == FLOW:
        return GaugeParam(rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform()),
                          klass=FLOW)
    if klass in (UNITARY, ISOMETRIC):
        a = np.exp(2j * np.pi * rng.uniform())
        b = cplx()
        return GaugeParam(a, b, -np.conj(a) * b, 1j * rng.normal(),
                          klass=klass)
    a = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
    return GaugeParam(a, cplx(), cplx(), complex(rng.uniform(0, 2),
                                                 rng.normal()))


def identity_param(klass: str = GENERAL) -> GaugeParam:
    return GaugeParam(1.0, 0.0, 0.0, 0.0, klass=klass)


def act_reference(g: GaugeParam, z: complex) -> UnitAction:
    """gauge.act in numpy scalar arithmetic (np.conj and a complex quotient).

    gauge.act takes the same steps on plain complex numbers.
    """
    z = complex(z)
    a, b, c, y = g.a, g.b, g.c, g.y
    label = a * z + b
    if g.on_unit_circle:
        rate = -(y + 1j * (a * np.conj(b) * z).imag)
    else:
        v = -(np.conj(a) * b + c) / (1.0 - abs(a) ** 2)
        rate = (-y - 0.5 * abs(v + z) ** 2 * (1.0 - abs(a) ** 2)
                + 1j * (np.conj(c) * z).imag)
    return UnitAction(label, complex(rate))


def composed_reference(g: GaugeParam, gp: GaugeParam, sign: int) -> tuple:
    """(a'', b'', c'', y'') of gauge.compose (sign 1) or compose_printed
    (sign -1) in numpy scalar arithmetic."""
    y2 = g.y + gp.y + sign * (0.5 * r_term(g, gp)
                              - 1j * (np.conj(g.c) * gp.b).imag)
    return g.a * gp.a, g.a * gp.b + g.b, np.conj(gp.a) * g.c + gp.c, y2


def full_numeric_gram(zs, t: float, f) -> np.ndarray:
    """Gram matrix pairing all k^2 evolved states; numeric_gram pairs i <= j."""
    states = [evolve(f, z, t).state for z in zs]
    return np.array([[flow_inner(u, v) for v in states] for u in states])


def series_by_shifting(rho, element, cfg, n_factors, z=1.0) -> SeriesValue:
    """The weight series by building each shifted functional and pairing it.

    weights._series reads the same orbit from per-slot tables.
    """
    target = element.pi_image(n_factors)
    delta_limit = rho.delta_value()
    telescopes = element.telescoping and z == 1.0
    explicit = cfg.max_terms
    if telescopes:
        explicit = min(cfg.max_terms, 4 * n_factors + 4)
    cur = rho
    terms = []
    zpow = z
    for _ in range(explicit):
        terms.append(zpow * cur(target))
        cur = cur.shifted()
        zpow = zpow * z
        cert = abs(zpow) * abs(cur(None) - delta_limit)
        if cert < cfg.tail_tolerance:
            return SeriesValue(np.sum(terms), np.array(terms), cert, False)
    if telescopes:
        # for I - Lambda the terms are rho_n(I) - rho_{n+1}(I), so the
        # remaining sum is exactly cur(I) - rho(Delta)
        tail = cur(None) - delta_limit
        return SeriesValue(np.sum(terms) + tail, np.array(terms), 0.0, True)
    partial = np.cumsum(terms)
    raise NonConvergenceError(
        "weight series still above tolerance after %d terms" % cfg.max_terms,
        partial)


def unitality_residuals_by_sample(cfg, rng):
    """The running (worst1, worst2) of cli.run_weights_unitality after each
    sample, with one functional per sample.

    The runner puts a block of samples through each weight series.  The
    draw is sample after sample, so the first k values are those of a run
    of k samples.
    """
    seq = _seq(cfg)
    n_factors = cfg["tensor"]["factors"]
    m = cfg["weights"]["factor_dim"]
    samples = cfg["weights"]["samples"]
    series = WeightSeriesConfig(max_terms=cfg["series"]["max_terms"],
                                tail_tolerance=cfg["series"]["tail_tolerance"])
    bid = boundary_identity()
    nu_vec = reference_state(seq, n_factors)
    nu_h = seq.reference(1)
    raw = HFunctional(((1.0, (nu_vec, nu_h), (nu_vec, nu_h)),))
    scale = raw(identity_element()).real
    nu = HFunctional(((1.0 / scale, (nu_vec, nu_h), (nu_vec, nu_h)),))
    xi = xi_from_nu(nu, series, n_factors=n_factors)
    xi_at_identity = xi.value(bid)
    worst1 = worst2 = 0.0
    for _ in range(samples):
        # one draw per sample, indexed [vector, factor, re/im, j]: the same
        # stream as one rng.normal(size=m) call per part, in that order
        parts = rng.normal(size=(2, n_factors, 2, m))
        coeffs = parts[:, :, 0] + 1j * parts[:, :, 1]
        vecs = [ProductVector(seq, tuple(
            ExpKernelVector([(row[j], 1.0 + j) for j in range(m)])
            for row in vec), n_factors + 1) for vec in coeffs]
        rho = rank_one(vecs[0], vecs[0]) + rank_one(vecs[1], vecs[1])
        val1 = omega1(rho, bid, series, n_factors=n_factors).value
        total, delta = rho(None), rho.delta_value()
        worst1 = max(worst1, abs(val1 - (total - delta)))
        # the full weight omega(rho) = omega1(rho) + rho(Delta) xi(I)
        worst2 = max(worst2, abs(val1 + delta * xi_at_identity - total))
        yield worst1, worst2


def unitality_records(rep, worst1: float, worst2: float) -> None:
    """The records cli.run_weights_unitality makes of its residuals."""
    rep.bound("minimal-weight-identity-residual", worst1, 1e-8, "le",
              "paper")
    rep.bound("unital-weight-residual", worst2, 1e-8, "le", "paper")


def lambda_of(k_op: TensorOperator) -> HElement:
    """Lambda(C) = C tensor multiplication-by-exp(-x)."""
    return HElement(terms=((1.0, ExpMultiplier(1.0), k_op),))


def on_boundary_identity(weight: BoundaryWeight) -> complex:
    return weight.value(boundary_identity())


def zero_boundary_weight(n_factors: int,
                         cfg: WeightSeriesConfig | None = None) -> BoundaryWeight:
    return BoundaryWeight(HFunctional(()), 0.0, n_factors,
                          cfg or WeightSeriesConfig())


# ---------------------------------------------------------------------------
# a weight that vanishes on an exhausting family yet has infinite mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonNormalRow:
    n: int
    weight_value: float
    partial_mass: float


def nonnormal_weight_demo(s: float, n_max: int,
                          points: int = 4000,
                          length: float = 12.0) -> list[NonNormalRow]:
    """Grid demonstration of a weight with no normal part.

    The generating function is h(x) = x^{-s/2} (1 - exp(-x))^{1/2} with
    s in (1, 2).  For each n a function g orthogonal to h and supported in
    [1/n, infinity) is built; the weight vanishes on it while the h-mass
    over [1/n, infinity) keeps growing as n increases.
    """
    if not (1.0 < s < 2.0):
        raise ValueError("the exponent must lie strictly between 1 and 2")
    grid = Grid(length, points)
    x = grid.midpoints
    h = x ** (-0.5 * s) * np.sqrt(1.0 - np.exp(-x))
    hsq = h * h
    dx = grid.spacing
    rows = []
    for n in range(1, n_max + 1):
        support = x >= 1.0 / n
        idx = np.nonzero(support)[0]
        half = idx[: len(idx) // 2]
        rest = idx[len(idx) // 2:]
        g = np.zeros_like(h)
        g[half] = h[half]
        c = (hsq[half].sum() / hsq[rest].sum())
        g[rest] = -c * h[rest]
        gnorm = np.sqrt(dx) * np.linalg.norm(g)
        weight_value = abs(dx * np.vdot(h, g / gnorm)) ** 2
        partial_mass = dx * hsq[support].sum()
        rows.append(NonNormalRow(n, float(weight_value), float(partial_mass)))
    return rows
