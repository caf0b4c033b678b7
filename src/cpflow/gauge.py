"""The gauge-parameter group acting on units.

A local cocycle is parameterized by four complex numbers (a, b, c, y)
with |a| <= 1, Re(y) >= 0 and ac + b = 0 where |a| = 1.  It acts on the
unit labeled z by moving the label to a z + b and multiplying by
exp(lambda t), where the rate lambda depends on the branch:

    |a| < 1:  lambda = -y - |v + z|^2 (1 - |a|^2) / 2 + i Im(conj(c) z)
              with v = -(conj(a) b + c) / (1 - |a|^2)
    |a| = 1:  lambda = -(y + i Im(a conj(b) z))

All rates are stored per unit time so composition is additive.

The composition law is cross-validated against sequential action.  The
printed form of the law carries two sign slips (the i Im(conj(c) b') term
and the r correction); compose() uses the action-consistent signs, which
are the only ones keeping Re(y) >= 0 closed under composition, and
compose_printed() keeps the literal form so the discrepancy can be
reported with a reproducer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np


class InvalidParameterError(ValueError):
    """A gauge parameter violates the invariants of its declared class."""


GENERAL = "general-contractive"
UNITARY = "unitary"
ISOMETRIC = "isometric"
FLOW = "flow"
RAW = "raw"  # unvalidated container, used only for cross-checking formulas

_TOL = 1e-12


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
    relax_isometric: bool = False

    def __post_init__(self):
        for name in ("a", "b", "c", "y"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray) and value.ndim:
                value = np.asarray(value, complex)
            else:
                value = complex(value)
            object.__setattr__(self, name, value)
        self.validate()

    def validate(self):
        a, b, c, y = self.a, self.b, self.c, self.y
        if self.klass == RAW:
            return
        # the invariants of every validated class
        modulus = abs(a)
        top = _largest(modulus)
        if top > 1.0 + _TOL:
            raise InvalidParameterError("|a| must not exceed 1")
        if _least(y.real) < -_TOL:
            raise InvalidParameterError("Re(y) must be nonnegative")
        if self.klass in (UNITARY, ISOMETRIC):
            if _largest(abs(modulus - 1.0)) > _TOL:
                raise InvalidParameterError("%s class needs |a| = 1" % self.klass)
            if _largest(abs(a * c + b)) > _TOL:
                raise InvalidParameterError("%s class needs ac + b = 0" % self.klass)
            if not self.relax_isometric and _largest(abs(y.real)) > _TOL:
                raise InvalidParameterError(
                    "%s class needs Re(y) = 0 (set relax_isometric to allow "
                    "Re(y) >= 0)" % self.klass)
        elif self.klass == FLOW:
            if max(_largest(abs(b)), _largest(abs(c)),
                   _largest(abs(y))) > _TOL:
                raise InvalidParameterError("flow class needs b = c = y = 0")
        elif self.klass != GENERAL:
            raise InvalidParameterError("unknown class %r" % self.klass)
        elif not top < 1.0 - _TOL:  # a NaN member checks the block too
            # act's unit-circle rate holds only where ac + b = 0; drawn
            # general blocks have |a| <= 0.95 and skip it
            on = abs(modulus - 1.0) <= _TOL
            if _largest(on & (abs(a * c + b) > _TOL)):
                raise InvalidParameterError(
                    "general class needs ac + b = 0 where |a| = 1")

    @property
    def on_unit_circle(self) -> bool:
        on = abs(abs(self.a) - 1.0) <= _TOL
        if not isinstance(on, np.ndarray):
            return on
        if on.all():
            return True
        if not on.any():
            return False
        raise InvalidParameterError("block straddles the unit circle")


def _largest(x):
    """The largest entry of a block, or a plain number itself."""
    return x.max() if isinstance(x, np.ndarray) else x


def _least(x):
    """The least entry of a block, or a plain number itself."""
    return x.min() if isinstance(x, np.ndarray) else x


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


def adjoint(g: GaugeParam) -> GaugeParam:
    """Parameter of the adjoint cocycle: a -> conj(a), b <-> c, y -> conj(y)."""
    return replace(g, a=g.a.conjugate(), b=g.c, c=g.b, y=g.y.conjugate())


def r_term(g: GaugeParam, gp: GaugeParam) -> float:
    """The nonnegative correction entering the composed y parameter.

    Zero when either factor has |a| = 1.
    """
    if g.on_unit_circle or gp.on_unit_circle:
        return 0.0
    return _r_value(g.a, g.b, g.c, gp.a, gp.b, gp.c)


def _r_value(a: complex, b: complex, c: complex,
             ap: complex, bp: complex, cp: complex) -> float:
    """r for |a|, |a'| < 1 on plain complex numbers or complex arrays."""
    da = 1.0 - abs(a) ** 2
    dap = 1.0 - abs(ap) ** 2
    daap = 1.0 - abs(a * ap) ** 2
    return (abs(ap.conjugate() * bp + cp) ** 2 / dap
            + abs(bp * da - a.conjugate() * b - c) ** 2 / da
            - abs((a * ap).conjugate() * (a * bp + b)
                  + ap.conjugate() * c + cp) ** 2 / daap)


def _r_square_form(a: complex, b: complex, c: complex,
                   ap: complex, bp: complex, cp: complex) -> float:
    """r as one squared modulus over a positive denominator:

        |(1-|a|^2) a' (conj(a') b' + c')
         + (1-|a'|^2) (b' (1-|a|^2) - conj(a) b - c)|^2
        / ((1-|a|^2) (1-|a'|^2) (1-|a a'|^2)),

    nonnegative by construction for |a|, |a'| < 1.
    """
    da = 1.0 - abs(a) ** 2
    dap = 1.0 - abs(ap) ** 2
    daap = 1.0 - abs(a * ap) ** 2
    num = (da * ap * (ap.conjugate() * bp + cp)
           + dap * (bp * da - a.conjugate() * b - c))
    return abs(num) ** 2 / (da * dap * daap)


def r_sweep(rng: np.random.Generator, n: int) -> tuple[float, float]:
    """min r over n general pairs, and the square-form residual.

    Returns the minimum of r over the pairs of _general_pairs(rng, n)
    together with max |r - r_sq| / max(r_sq, 1), r_sq being
    _r_square_form of the same pair.  Both kernels run on whole blocks.
    General draws have |a| <= 0.95, so r_term's unit-circle branch never
    applies.  Memory is O(_SWEEP_BLOCK) in n.
    """
    if n < 1:
        raise ValueError("r_sweep needs n >= 1")
    r_min = math.inf
    worst = 0.0
    for pairs in _general_pairs(rng, n):
        r = _r_value(*pairs)
        r_sq = _r_square_form(*pairs)
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
    if g.klass == gp.klass and g.klass in (UNITARY, ISOMETRIC, FLOW):
        return g.klass
    return GENERAL


def _composed(g: GaugeParam, gp: GaugeParam, sign: int) -> tuple:
    """(a'', b'', c'', y'') of C C' with
        y'' = y + y' + sign (r / 2 - i Im(conj(c) b')).
    """
    y2 = g.y + gp.y + sign * (0.5 * r_term(g, gp)
                              - 1j * (g.c.conjugate() * gp.b).imag)
    return g.a * gp.a, g.a * gp.b + g.b, gp.a.conjugate() * g.c + gp.c, y2


def compose(g: GaugeParam, gp: GaugeParam) -> GaugeParam:
    """Parameter of C C', acting first with gp then with g.

    Uses the action-consistent signs
        y'' = y + y' - i Im(conj(c) b') + r / 2,
    which sequential application of act() forces and which keep
    Re(y'') >= 0 (r >= 0).
    """
    return GaugeParam(*_composed(g, gp, 1), klass=_composed_class(g, gp),
                      relax_isometric=g.relax_isometric or gp.relax_isometric)


def compose_printed(g: GaugeParam, gp: GaugeParam) -> GaugeParam:
    """The composition law in its literal printed form,
        y'' = y + y' + i Im(conj(c) b') - r / 2,
    kept for cross-validation; see formula_discrepancy_report.
    """
    return GaugeParam(*_composed(g, gp, -1), klass=RAW)


def action_composition_residual(g: GaugeParam, gp: GaugeParam, sample_zs,
                                law=compose):
    """Oracle: compare the composition law against sequential action.

    Returns the max over sampled z of the exponent mismatch plus the label
    mismatch; the label part vanishes identically for the affine law.  All
    labels go through one act() call per side; for column blocks g, gp
    the result is the array of per-member residuals.
    """
    composed = law(g, gp)
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
    """Machine-readable comparison of the two composition-law variants.

    Contains the oracle residual of each variant and a reproducer (the
    parameter tuples and sample labels).
    """
    res_used = action_composition_residual(g, gp, sample_zs, law=compose)
    res_printed = action_composition_residual(g, gp, sample_zs,
                                              law=compose_printed)
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
        if abs(abs(a) - 1.0) <= _TOL:
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


def _draw(rng: np.random.Generator, klass: str) -> tuple:
    """Plain (a, b, c, y) of a random parameter of the given class.

    rng.uniform(0, s) is s * rng.random() and rng.normal() is
    rng.standard_normal() bit for bit, and rng.standard_normal(4) is four
    such calls in order, so the bound methods consume the generator
    exactly as those calls would; cmath.exp and the plain complex products
    stand for numpy's scalar exp and conj.  The tests compare every class
    with the keyword-call numpy form, value for value.
    """
    uniform, normal = rng.random, rng.standard_normal
    if klass == FLOW:
        return uniform() * cmath.exp(_TWO_PI_I * uniform()), 0j, 0j, 0j
    if klass in (UNITARY, ISOMETRIC):
        a = cmath.exp(_TWO_PI_I * uniform())
        b = complex(normal(), normal())
        return a, b, -a.conjugate() * b, 1j * normal()
    a = 0.95 * uniform() * cmath.exp(_TWO_PI_I * uniform())
    b_re, b_im, c_re, c_im = normal(4).tolist()  # one call for b and c
    return (a, complex(b_re, b_im), complex(c_re, c_im),
            complex(2.0 * uniform(), normal()))


def _draw_block(rng: np.random.Generator, klass: str, k: int) -> tuple:
    """(a, b, c, y) of k random parameters of the class, as complex arrays.

    Entry j is distributed as _draw(rng, klass), from the uniform rows u
    and the normal rows N of one block draw each:
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
    if klass in (UNITARY, ISOMETRIC):
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


def _general_pairs(rng: np.random.Generator, n: int):
    """n random general pairs, as blocks (a, b, c, a', b', c') of complex
    arrays with at most _SWEEP_BLOCK pairs each; see _param_blocks."""
    for g, gp in _param_blocks(rng, GENERAL, n, 2, _SWEEP_BLOCK):
        yield g.a, g.b, g.c, gp.a, gp.b, gp.c


def random_param(rng: np.random.Generator, klass: str = GENERAL) -> GaugeParam:
    """A random parameter of the class; an unknown class draws nothing."""
    if klass not in (FLOW, UNITARY, ISOMETRIC, GENERAL):
        raise InvalidParameterError("unknown class %r" % (klass,))
    return GaugeParam(*_draw(rng, klass), klass=klass)
