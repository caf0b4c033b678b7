"""Exact proofs of the gauge algebra in the |a| < 1 branch.

The package's own kernels run on Conj values: a sympy expression carried
together with the expression of its conjugate, in which every parameter
and its conjugate are independent symbols and |x|^2 is x * conj(x).  An
identity of the kernels is then an identity of rational functions, which
cancel(together(lhs - rhs)) decides.
"""

from types import SimpleNamespace

import sympy

from cpflow import gauge


class Conj:
    """A sympy expression and its conjugate, closed under the arithmetic
    the gauge kernels use."""

    def __init__(self, expr, conj):
        self.expr, self.conj = expr, conj

    @classmethod
    def lift(cls, value):
        if isinstance(value, Conj):
            return value
        value = complex(value)
        expr = (sympy.Rational(value.real)
                + sympy.I * sympy.Rational(value.imag))
        return cls(expr, sympy.conjugate(expr))

    def conjugate(self):
        return Conj(self.conj, self.expr)

    @property
    def imag(self):
        half = (self.expr - self.conj) / (2 * sympy.I)
        return Conj(half, half)

    def __abs__(self):
        return Modulus(self)

    def __neg__(self):
        return Conj(-self.expr, -self.conj)

    def __add__(self, other):
        other = Conj.lift(other)
        return Conj(self.expr + other.expr, self.conj + other.conj)

    def __sub__(self, other):
        return self + -Conj.lift(other)

    def __mul__(self, other):
        other = Conj.lift(other)
        return Conj(self.expr * other.expr, self.conj * other.conj)

    def __truediv__(self, other):
        other = Conj.lift(other)
        return Conj(self.expr / other.expr, self.conj / other.conj)

    __rmul__ = __mul__

    def __rsub__(self, other):
        return Conj.lift(other) - self

    def __rtruediv__(self, other):
        return Conj.lift(other) / self


class Modulus:
    """|x| of a Conj x; the kernels only ever square it."""

    def __init__(self, value):
        self.value = value

    def __pow__(self, k):
        assert k == 2
        square = self.value.expr * self.value.conj
        return Conj(square, square)


def is_zero(x) -> bool:
    """Whether a Conj value is identically zero as a rational function."""
    return sympy.cancel(sympy.together(Conj.lift(x).expr)) == 0


def param(name):
    """A parameter off the unit circle whose a, b, c, y and their
    conjugates are eight independent symbols."""
    fields = {}
    for part in "abcy":
        s, sbar = sympy.symbols("%s%s %s%s_bar" % (part, name, part, name))
        fields[part] = Conj(s, sbar)
    return SimpleNamespace(on_unit_circle=False, **fields)


def composed(g, gp):
    """C C' by gauge.compose's kernel, as a parameter off the unit circle."""
    a, b, c, y = gauge._composed(g, gp)
    return SimpleNamespace(on_unit_circle=False, a=a, b=b, c=c, y=y)


def printed(g, gp):
    """C C' by the literal printed law,
        y'' = y + y' + i Im(conj(c) b') - r / 2,
    with the a'', b'', c'' that both laws share."""
    law = composed(g, gp)
    law.y = (g.y + gp.y + 1j * (g.c.conjugate() * gp.b).imag
             - 0.5 * gauge.r_term(g, gp))
    return law


def action_gap(law):
    """(label, rate) of act(C C') minus act(C) after act(C')."""
    g, gp, z = param(""), param("p"), Conj(*sympy.symbols("z z_bar"))
    first = gauge.act(gp, z)
    second = gauge.act(g, first.new_label)
    direct = gauge.act(law(g, gp), z)
    return (second.new_label - direct.new_label,
            first.exponent_rate + second.exponent_rate - direct.exponent_rate)


def test_r_is_its_square_form():
    g, gp = param(""), param("p")
    pair = (g.a, g.b, g.c, gp.a, gp.b, gp.c)
    r, r_sq = gauge._r_pair(*pair)
    assert is_zero(r - r_sq)


def test_action_law():
    label_gap, rate_gap = action_gap(composed)
    assert is_zero(label_gap)
    assert is_zero(rate_gap)


def test_printed_law_breaks_the_action_law():
    label_gap, rate_gap = action_gap(printed)
    assert is_zero(label_gap)
    assert not is_zero(rate_gap)
    # the printed signs of r / 2 and i Im(conj(c) b') both slip
    g, gp = param(""), param("p")
    slip = 2j * (g.c.conjugate() * gp.b).imag - gauge.r_term(g, gp)
    assert is_zero(rate_gap - slip)


def test_compose_is_associative():
    g, gp, gpp = param(""), param("p"), param("pp")
    left = composed(composed(g, gp), gpp)
    right = composed(g, composed(gp, gpp))
    for part in "abcy":
        assert is_zero(getattr(left, part) - getattr(right, part)), part
