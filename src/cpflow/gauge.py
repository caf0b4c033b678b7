"""The gauge-parameter group acting on units.

A local cocycle is parameterized by four complex numbers (a, b, c, y)
with |a| <= 1, Re(y) >= 0 and ac + b = 0 where |a| = 1.  It acts on the
unit labeled z by moving the label to a z + b and multiplying by
exp(lambda t), where the rate lambda depends on the branch:

    |a| < 1:  lambda = -y - |v + z|^2 (1 - |a|^2) / 2 + i Im(conj(c) z)
              with v = -(conj(a) b + c) / (1 - |a|^2)
    |a| = 1:  lambda = -(y + i Im(a conj(b) z))

All rates are stored per unit time so composition is additive.

compose() uses the action-consistent signs of the composition law, the
only ones keeping Re(y) >= 0 closed under composition.  The printed form
carries two sign slips (the i Im(conj(c) b') term and the r correction),
so it misses sequential action by the rate gap 2i Im(conj(c) b') - r,
which the symbolic tests prove and formula_discrepancy_report states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class InvalidParameterError(ValueError):
    """A gauge parameter violates the invariants of its declared class."""


GENERAL = "general-contractive"
UNITARY = "unitary"
FLOW = "flow"

_TOL = 1e-12


def on_unit_circle(z):
    """|z| = 1 to within _TOL, member by member for an array; False for
    a NaN or infinite z."""
    return abs(abs(z) - 1.0) <= _TOL


@dataclass(frozen=True)
class GaugeParam:
    """A parameter (a, b, c, y), or a block of parameters of one class.

    A block holds equal-shape complex arrays, one member per entry; the
    class invariants and the branch of act() hold for the whole block.
    """

    a: complex
    b: complex = 0.0
    c: complex = 0.0
    y: complex = 0.0
    klass: str = GENERAL

    def __post_init__(self):
        for name in ("a", "b", "c", "y"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray) and value.ndim:
                value = np.asarray(value, complex)
            else:
                value = complex(value)
            object.__setattr__(self, name, value)
        _validated(self.a, self.b, self.c, self.y, self.klass)

    @property
    def on_unit_circle(self) -> bool:
        on = on_unit_circle(self.a)
        if np.all(on):
            return True
        if not np.any(on):
            return False
        raise InvalidParameterError("block straddles the unit circle")


def _validated(a, b, c, y, klass: str):
    """|a|, once (a, b, c, y), numbers or equal-shape blocks, hold the
    invariants of the class; raises InvalidParameterError otherwise."""
    # each test is written as the invariant that must hold, which a NaN
    # member fails; first the invariants of every class
    modulus = abs(a)
    top = np.max(modulus)
    if not top <= 1.0 + _TOL:
        raise InvalidParameterError("|a| must not exceed 1")
    if not np.min(y.real) >= -_TOL:
        raise InvalidParameterError("Re(y) must be nonnegative")
    if not all(np.isfinite(part).all() for part in (b, c, y)):
        raise InvalidParameterError("b, c and y must be finite")
    if klass == UNITARY:
        if not np.all(on_unit_circle(modulus)):
            raise InvalidParameterError("unitary class needs |a| = 1")
        if not np.max(abs(a * c + b)) <= _TOL:
            raise InvalidParameterError("unitary class needs ac + b = 0")
        if not np.max(abs(y.real)) <= _TOL:
            raise InvalidParameterError("unitary class needs Re(y) = 0")
    elif klass == FLOW:
        if not (np.max(abs(b)) <= _TOL and np.max(abs(c)) <= _TOL
                and np.max(abs(y)) <= _TOL):
            raise InvalidParameterError("flow class needs b = c = y = 0")
    elif klass != GENERAL:
        raise InvalidParameterError("unknown class %r" % klass)
    elif not top < 1.0 - _TOL:
        # act's unit-circle rate holds only where ac + b = 0; drawn
        # general blocks have |a| <= 0.95 and skip it
        gap = np.where(on_unit_circle(modulus), abs(a * c + b), 0.0)
        if not np.max(gap) <= _TOL:
            raise InvalidParameterError(
                "general class needs ac + b = 0 where |a| = 1")
    return modulus


@dataclass(frozen=True)
class UnitAction:
    """Result of acting on the unit labeled z: new label and rate.

    The cocycle satisfies C(t) U_z(t) = exp(exponent_rate * t) U_new(t).
    """

    new_label: complex
    exponent_rate: complex


def act(g: GaugeParam, z: complex) -> UnitAction:
    """The action on label z; a block g acts on labels that broadcast
    against it, such as a column block on a row of labels."""
    a, b, c, y = g.a, g.b, g.c, g.y
    label = a * z + b
    if g.on_unit_circle:
        rate = -(y + 1j * (a * b.conjugate() * z).imag)
    else:
        # times the reciprocal: a complex quotient rounds differently, and
        # the action-oracle-residual records are pinned to this rounding
        v = -(a.conjugate() * b + c) * (1.0 / (1.0 - abs(a) ** 2))
        rate = (-y - 0.5 * abs(v + z) ** 2 * (1.0 - abs(a) ** 2)
                + 1j * (c.conjugate() * z).imag)
    return UnitAction(label, rate)


def r_term(g: GaugeParam, gp: GaugeParam) -> float:
    """The nonnegative correction entering the composed y parameter.

    Zero when either factor has |a| = 1.
    """
    if g.on_unit_circle or gp.on_unit_circle:
        return 0.0
    return _r_pair(g.a, g.b, g.c, gp.a, gp.b, gp.c)[0]


def _r_pair(a: complex, b: complex, c: complex,
            ap: complex, bp: complex, cp: complex, *,
            da=None, dap=None) -> tuple:
    """(r, r_sq) for |a|, |a'| < 1 on plain complex numbers or complex
    arrays: r as a sum of three squared moduli, and r_sq as one squared
    modulus over a positive denominator, nonnegative by construction,

        |(1-|a|^2) a' (conj(a') b' + c')
         + (1-|a'|^2) (b' (1-|a|^2) - conj(a) b - c)|^2
        / ((1-|a|^2) (1-|a'|^2) (1-|a a'|^2)).

    da and dap, when given, are 1 - |a|^2 and 1 - |a'|^2.
    """
    if da is None:
        da, dap = 1.0 - abs(a) ** 2, 1.0 - abs(ap) ** 2
    aap, apc = a * ap, ap.conjugate()
    daap = 1.0 - abs(aap) ** 2
    head, rest = apc * bp + cp, bp * da - a.conjugate() * b - c
    r = (abs(head) ** 2 / dap + abs(rest) ** 2 / da
         - abs(aap.conjugate() * (a * bp + b) + apc * c + cp) ** 2 / daap)
    return r, abs(da * ap * head + dap * rest) ** 2 / (da * dap * daap)


def r_sweep(rng: np.random.Generator, n: int) -> tuple[float, float]:
    """min r over n general pairs, and the square-form residual.

    Returns the minimum of r over n random general pairs together with
    max |r - r_sq| / max(r_sq, 1), both from _r_pair on whole blocks.  A
    block is the pairs of one _draw_block of 2m parameters, member j
    with member m + j as in _param_blocks; it is validated as general
    once, and its |a| gives 1 - |a|^2.  General draws have |a| <= 0.95,
    so r_term's unit-circle branch never applies.  Memory is
    O(_SWEEP_BLOCK) in n.
    """
    if n < 1:
        raise ValueError("r_sweep needs n >= 1")
    r_min = math.inf
    worst = 0.0
    for start in range(0, n, _SWEEP_BLOCK):
        m = min(_SWEEP_BLOCK, n - start)
        a, b, c, y = _draw_block(rng, GENERAL, 2 * m)
        d = 1.0 - _validated(a, b, c, y, GENERAL) ** 2
        r, r_sq = _r_pair(a[:m], b[:m], c[:m], a[m:], b[m:], c[m:],
                          da=d[:m], dap=d[m:])
        r_min = min(r_min, float(r.min()))
        worst = max(worst,
                    float((abs(r - r_sq) / np.maximum(r_sq, 1.0)).max()))
    return r_min, worst


def associativity_sweep(rng: np.random.Generator, n: int) -> float:
    """max |(g g') g'' - g (g' g'')| over the parts a, b, c, y of n random
    general triples, composed a block of at most _SWEEP_BLOCK triples at a
    time.
    """
    if n < 1:
        raise ValueError("associativity_sweep needs n >= 1")
    worst = 0.0
    for g, gp, gpp in _param_blocks(rng, GENERAL, n, 3, _SWEEP_BLOCK):
        left = compose(compose(g, gp), gpp)
        right = compose(g, compose(gp, gpp))
        worst = max(worst, *(float(abs(getattr(left, part)
                                       - getattr(right, part)).max())
                             for part in "abcy"))
    return worst


def action_sweep(rng: np.random.Generator, n: int, sample_zs) -> dict:
    """The worst action_composition_residual over n random pairs of each
    drawn class (UNITARY, FLOW, GENERAL, drawn in that order).

    A block holds at most max(_PAIR_ENTRIES, number of labels) (pair,
    label) entries, so memory is O(_PAIR_ENTRIES + number of labels)
    whatever n.
    """
    if n < 1:
        raise ValueError("action_sweep needs n >= 1")
    zs = np.asarray(sample_zs, complex)
    pairs = _pairs_per_block(len(zs))
    worst = {UNITARY: 0.0, FLOW: 0.0, GENERAL: 0.0}
    for klass in worst:
        for g, gp in _param_blocks(rng, klass, n, 2, pairs):
            worst[klass] = max(worst[klass], float(
                action_composition_residual(_column(g), _column(gp),
                                            zs).max()))
    return worst


def _pairs_per_block(n_labels: int) -> int:
    """Pairs in one action_sweep block at n_labels labels."""
    return max(1, _PAIR_ENTRIES // n_labels)


def _column(g: GaugeParam) -> GaugeParam:
    """A block as a column block, which acts on a row of labels.

    Drawn blocks never straddle |a| = 1 (a flow draw lands within _TOL of
    it with probability about 1e-12); act() raises on one that does.
    """
    return replace(g, **{part: getattr(g, part)[:, None] for part in "abcy"})


def first_discrepancy(rng: np.random.Generator, n: int, sample_zs):
    """formula_discrepancy_report of the first of up to n random general
    pairs, drawn one parameter at a time by random_param, whose report is
    discrepant; None if none is."""
    for _ in range(n):
        report = formula_discrepancy_report(random_param(rng),
                                            random_param(rng), sample_zs)
        if report["discrepant"]:
            return report
    return None


def _composed_class(g: GaugeParam, gp: GaugeParam) -> str:
    if g.klass == gp.klass and g.klass in (UNITARY, FLOW):
        return g.klass
    return GENERAL


def _composed(g: GaugeParam, gp: GaugeParam) -> tuple:
    """(a'', b'', c'', y'') of C C' by the law of compose()."""
    y2 = g.y + gp.y + (0.5 * r_term(g, gp)
                       - 1j * (g.c.conjugate() * gp.b).imag)
    return g.a * gp.a, g.a * gp.b + g.b, gp.a.conjugate() * g.c + gp.c, y2


def compose(g: GaugeParam, gp: GaugeParam) -> GaugeParam:
    """Parameter of C C', acting first with gp then with g.

    Uses the action-consistent signs
        y'' = y + y' - i Im(conj(c) b') + r / 2,
    which sequential application of act() forces and which keep
    Re(y'') >= 0 (r >= 0).
    """
    return GaugeParam(*_composed(g, gp), klass=_composed_class(g, gp))


def action_composition_residual(g: GaugeParam, gp: GaugeParam, sample_zs):
    """Oracle: compare compose() against sequential action.

    Returns the max over sampled z of the exponent mismatch plus the label
    mismatch; the label part vanishes identically for the affine law.  All
    labels go through one act() call per side; for column blocks g, gp
    the result is the array of per-member residuals.
    """
    composed = compose(g, gp)
    z = np.asarray(sample_zs, complex)
    first = act(gp, z)
    second = act(g, first.new_label)
    direct = act(composed, z)
    gap = (abs(second.new_label - direct.new_label)
           + abs(first.exponent_rate + second.exponent_rate
                 - direct.exponent_rate))
    worst = gap.max(axis=-1)
    return worst if worst.ndim else float(worst)


def formula_discrepancy_report(g: GaugeParam, gp: GaugeParam,
                               sample_zs) -> dict:
    """Machine-readable comparison of compose() with the printed law.

    Contains the oracle residual of compose(), the printed law's proven
    rate gap |r - 2i Im(conj(c) b')| (its action residual at any label),
    and a reproducer (the parameter tuples and sample labels).
    """
    res_used = action_composition_residual(g, gp, sample_zs)
    res_printed = abs(r_term(g, gp) - 2j * (g.c.conjugate() * gp.b).imag)
    def tup(p):
        return [[p.a.real, p.a.imag], [p.b.real, p.b.imag],
                [p.c.real, p.c.imag], [p.y.real, p.y.imag]]
    return {
        "kind": "formula-discrepancy",
        "field": "composed y parameter",
        "residual_action_consistent": res_used,
        "residual_printed": res_printed,
        "discrepant": res_printed > 1e-10 >= res_used,
        "note": ("printed law differs by the sign of i*Im(conj(c)*b') and "
                 "of the r/2 correction; the action-consistent signs are "
                 "the ones closing Re(y) >= 0"),
        "reproducer": {
            "g": tup(g),
            "g_prime": tup(gp),
            "sample_labels": [[complex(z).real, complex(z).imag]
                              for z in sample_zs],
        },
    }


@dataclass(frozen=True)
class Reachability:
    reachable: bool
    witness: tuple[complex, complex] | None
    obstruction: str | None


def pair_reachable(src, dst, allowed: str = "a1") -> Reachability:
    """Can the affine label action send the pair src to the pair dst?

    allowed = "a1" restricts to a = 1 (translations only, the constraint
    arising in the examples); "unit" allows any |a| = 1.  The unique
    candidate is a = (z2' - z1') / (z2 - z1), b = z1' - a z1.
    """
    z1, z2 = (complex(v) for v in src)
    z1p, z2p = (complex(v) for v in dst)
    if z1 == z2 or z1p == z2p:
        raise InvalidParameterError("pairs must consist of distinct labels")
    a = (z2p - z1p) / (z2 - z1)
    b = z1p - a * z1
    if allowed == "a1":
        if abs(a - 1.0) <= _TOL:
            return Reachability(True, (a, b), None)
        return Reachability(False, None,
                            "requires a = %r with a != 1" % a)
    if allowed == "unit":
        if on_unit_circle(a):
            return Reachability(True, (a, b), None)
        return Reachability(False, None,
                            "requires a = %r with |a| != 1" % a)
    raise InvalidParameterError("unknown constraint set %r" % allowed)


def single_reachable(z0: complex, z1: complex) -> Reachability:
    """One-label transitivity under a = 1: witness b = z1 - z0."""
    return Reachability(True, (1.0 + 0.0j, complex(z1) - complex(z0)), None)


# ---------------------------------------------------------------------------
# random sampling helpers (seeded by the caller)
# ---------------------------------------------------------------------------

_TWO_PI_I = 2j * np.pi
_SWEEP_BLOCK = 1024  # pairs or triples per r_sweep or associativity block
# (pair, label) entries per action_sweep block: 200 pairs at 25 labels run
# in three blocks with a working set like that of one r_sweep block
_PAIR_ENTRIES = 2 * _SWEEP_BLOCK


def _draw_block(rng: np.random.Generator, klass: str, k: int) -> tuple:
    """(a, b, c, y) of k random parameters of the class, as complex arrays.

    Entry j is built from column j of the uniform rows u and the normal
    rows N of one block draw each:
        flow:     a = u0 exp(2 pi i u1), b = c = y = 0;
        unitary:  a = exp(2 pi i u0), b = N0 + i N1, c = -conj(a) b,
                  y = i N2;
        general:  a = 0.95 u0 exp(2 pi i u1), b = N0 + i N1,
                  c = N2 + i N3, y = 2 u2 + i N4.
    """
    if klass == FLOW:
        u = rng.random((2, k))
        zero = np.zeros(k, complex)
        return u[0] * np.exp(_TWO_PI_I * u[1]), zero, zero, zero
    if klass == UNITARY:
        u = rng.random((1, k))
        normal = rng.standard_normal((3, k))
        a = np.exp(_TWO_PI_I * u[0])
        b = normal[0] + 1j * normal[1]
        return a, b, -a.conj() * b, 1j * normal[2]
    u = rng.random((3, k))
    normal = rng.standard_normal((5, k))
    return (0.95 * u[0] * np.exp(_TWO_PI_I * u[1]),
            normal[0] + 1j * normal[1], normal[2] + 1j * normal[3],
            2.0 * u[2] + 1j * normal[4])


def _param_blocks(rng: np.random.Generator, klass: str, n: int, group: int,
                  size: int):
    """n random groups of `group` parameters of the class, as blocks of at
    most `size` groups.

    Each block is one _draw_block of group * m parameters, split into
    `group` blocks of m members that are validated as the class.
    """
    for start in range(0, n, size):
        m = min(size, n - start)
        parts = [v.reshape(group, m) for v in _draw_block(rng, klass,
                                                           group * m)]
        yield tuple(GaugeParam(*(v[i] for v in parts), klass=klass)
                    for i in range(group))


def random_param(rng: np.random.Generator, klass: str = GENERAL) -> GaugeParam:
    """A random parameter of the class: the one member of a block draw.

    An unknown class draws nothing.
    """
    if klass not in (FLOW, UNITARY, GENERAL):
        raise InvalidParameterError("unknown class %r" % (klass,))
    return GaugeParam(*(v[0] for v in _draw_block(rng, klass, 1)),
                      klass=klass)
