"""Exact proofs of the algebra behind the word form of a boundary
representation (opbasis.MatrixModel.boundary_rep).

Operators are non-commutative sympy symbols and a label is a commutative
one.  Each identity is reduced to a polynomial identity in them, which
expand decides; the relations it uses (R^{-1} R = I for a resolvent, a
scalar v^T X u) enter as explicit terms that vanish.  The coefficient
of each product of operators, a rational function of the commutative
symbols, must cancel to zero.
"""

from collections import defaultdict

import sympy

LK, LC, PI, R = sympy.symbols("Lk Lc Pi R", commutative=False)
CUT, W, E0, VT, MINV = sympy.symbols("C W e vT Minv", commutative=False)
Z, BETA = sympy.symbols("z beta")


def vanishes(expr) -> bool:
    coefficients = defaultdict(list)
    for term in sympy.Add.make_args(sympy.expand(expr)):
        scalars, operators = term.args_cnc()
        coefficients[tuple(operators)].append(sympy.Mul(*scalars))
    return all(sympy.cancel(sympy.Add(*c)) == 0
               for c in coefficients.values())


def test_resolvent_on_the_dropped_cells():
    # R = (I - z lambdahat pihat)^{-1} with lambdahat = Lk + Lc, so
    # R^{-1} R - I = 0.  Then (I - z Lc Pi) R = I + z Lk Pi R, and
    # R (I + z Lk Pi R)^{-1} = (I - z Lc Pi)^{-1}: the boundary
    # representation cut o omega_z (I + Lk omega_z)^{-1}, omega_z = z Pi R,
    # is cut o z Pi (I - z Lc Pi)^{-1}
    r_inv = 1 - Z * (LK + LC) * PI
    lhs = (1 - Z * LC * PI) * R
    rhs = 1 + Z * LK * PI * R
    assert vanishes(lhs - rhs - (r_inv * R - 1))
    assert not vanishes(lhs - rhs)
    # the same step gives M = I + Lk omega_z = (I - z Lc Pi) R, so
    # M^{-1} = (I - z khat)(I - z khat_c)^{-1}, the factor of f^T and beta
    # in the Sherman-Morrison split
    m = 1 + LK * (Z * PI * R)
    assert vanishes(m - (1 - Z * LC * PI) * R - (1 - r_inv * R))


def test_sherman_morrison_split():
    # B_u = C (W + e v^T)(M + u v^T)^{-1} with M = I + Lk W, u = Lk e and
    # beta = v^T M^{-1} u equals B0 + E f^T with B0 = C W M^{-1},
    # E = C e - B0 u = (I - B0 Lk) C e and f^T = v^T M^{-1} / (1 + beta):
    # (B0 + E f^T)(M + u v^T) = C (W + e v^T), given M^{-1} M = I and the
    # scalar v^T M^{-1} u = beta
    m = 1 + LK * W
    u = LK * E0
    b0 = CUT * W * MINV
    e = CUT * E0 - b0 * u
    f_t = VT * MINV / (1 + BETA)
    lhs = (b0 + e * f_t) * (m + u * VT)
    rhs = CUT * (W + E0 * VT)
    relations = (CUT * W * (MINV * m - 1)
                 + e * VT * (MINV * m - 1) / (1 + BETA)
                 + e * (VT * MINV * u - BETA) * VT / (1 + BETA))
    assert vanishes(lhs - rhs - relations)
    assert not vanishes(lhs - rhs)
