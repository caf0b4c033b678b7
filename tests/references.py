"""Dense and direct reference forms that the package computes another way.

Each function here is the plain form of a computation that the package
does in a cheaper shape; the tests compare the two.
"""

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
from cpflow.opbasis import ChoiVerdict, choi_min_eig
from cpflow.semigroups import evolve, flow_inner
from cpflow.weights import NonConvergenceError, SeriesValue, omega1


def assemble_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the entrywise 2x2 map on the doubled space.

    blocks is a 2x2 nested sequence of superoperators, each of shape
    (dim_out^2, dim_in^2); block (a, b) acts on the (a, b) block of a
    doubled density.  cornercheck.fold_doubled is the folded form.
    """
    big = np.zeros((2 * dim_out, 2 * dim_out, 2 * dim_in, 2 * dim_in),
                   dtype=complex)
    for a in range(2):
        for b in range(2):
            s4 = np.asarray(blocks[a][b], dtype=complex).reshape(
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
