"""Gauge parameter algebra: action, adjoints, composition, transitivity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpflow import gauge
from cpflow.gauge import (
    FLOW,
    GENERAL,
    ISOMETRIC,
    UNITARY,
    GaugeParam,
    InvalidParameterError,
    act,
    action_composition_residual,
    action_sweep,
    adjoint,
    associativity_sweep,
    compose,
    compose_printed,
    first_discrepancy,
    formula_discrepancy_report,
    pair_reachable,
    r_sweep,
    r_term,
    random_param,
    single_reachable,
)
from references import (
    act_reference,
    composed_reference,
    identity_param,
    random_param_reference,
)

RNG = np.random.default_rng(20240823)
ZS = [complex(RNG.normal(), RNG.normal()) for _ in range(25)]


class TestAction:
    def test_identity(self):
        out = act(identity_param(), 2 + 1j)
        assert out.new_label == 2 + 1j
        assert out.exponent_rate == 0.0

    def test_unitary_translation(self):
        g = GaugeParam(1.0, 1.0, -1.0, 0.0, klass=UNITARY)
        out = act(g, 0.0)
        assert out.new_label == pytest.approx(1.0)
        assert out.exponent_rate == pytest.approx(0.0)

    def test_flow_rate(self):
        g = GaugeParam(0.5, klass=FLOW)
        out = act(g, 2.0)
        assert out.new_label == pytest.approx(1.0)
        assert out.exponent_rate == pytest.approx(-1.5)

    def test_contractive_rates_have_nonpositive_real_part(self):
        for _ in range(200):
            g = random_param(RNG)
            for z in ZS[:5]:
                assert act(g, z).exponent_rate.real <= 1e-12


class TestValidation:
    def test_contraction_bound(self):
        with pytest.raises(InvalidParameterError):
            GaugeParam(1.5)

    def test_negative_real_y(self):
        with pytest.raises(InvalidParameterError):
            GaugeParam(0.5, y=-1.0)

    def test_unitary_constraint(self):
        with pytest.raises(InvalidParameterError):
            GaugeParam(1.0, 1.0, 1.0, 0.0, klass=UNITARY)

    def test_isometric_follows_print(self):
        with pytest.raises(InvalidParameterError):
            GaugeParam(1.0, 1.0, -1.0, 0.5, klass=ISOMETRIC)

    def test_isometric_relax_switch(self):
        g = GaugeParam(1.0, 1.0, -1.0, 0.5, klass=ISOMETRIC,
                       relax_isometric=True)
        assert g.y == 0.5

    def test_flow_constraint(self):
        with pytest.raises(InvalidParameterError):
            GaugeParam(0.5, b=1.0, klass=FLOW)

    def test_general_on_circle_needs_unit_action_constraint(self):
        # act's |a| = 1 rate holds only where ac + b = 0
        message = "general class needs ac \\+ b = 0 where \\|a\\| = 1"
        with pytest.raises(InvalidParameterError, match=message):
            GaugeParam(1, 1, 0, 0)
        a = np.array([0.5, 1j, 1.0, np.exp(0.3j)])
        b = np.array([2.0, 1.0, 0.0, 1.0 + 1j])
        c = -a.conj() * b
        c[0] = 3.0  # off the circle: any c
        GaugeParam(a, b, c, np.zeros(4))
        c[2] = 1e-3
        with pytest.raises(InvalidParameterError, match=message):
            GaugeParam(a, b, c, np.zeros(4))


class TestAdjoint:
    def test_involution(self):
        g = random_param(RNG)
        gg = adjoint(adjoint(g))
        for name in "abcy":
            assert getattr(gg, name) == pytest.approx(getattr(g, name))

    def test_unitary_adjoint_action(self):
        g = random_param(RNG, UNITARY)
        for z in ZS[:5]:
            out = act(adjoint(g), z)
            assert out.new_label == pytest.approx(
                np.conj(g.a) * (z - g.b))

    def test_unitary_adjoint_is_inverse(self):
        g = random_param(RNG, UNITARY)
        e = compose(g, adjoint(g))
        assert e.a == pytest.approx(1.0)
        assert abs(e.b) < 1e-12
        assert abs(e.c) < 1e-12
        assert abs(e.y) < 1e-12


class TestComposition:
    def test_identity_neutral(self):
        g = random_param(RNG)
        for left in (compose(identity_param(), g),
                     compose(g, identity_param())):
            for name in "abcy":
                assert getattr(left, name) == pytest.approx(
                    getattr(g, name))

    def test_flow_closure(self):
        g = compose(random_param(RNG, FLOW), random_param(RNG, FLOW))
        assert g.klass == FLOW

    def test_associativity(self):
        worst = 0.0
        for _ in range(1000):
            a, b, c = (random_param(RNG) for _ in range(3))
            p1 = compose(compose(a, b), c)
            p2 = compose(a, compose(b, c))
            worst = max(worst, max(abs(getattr(p1, n) - getattr(p2, n))
                                   for n in "abcy"))
        assert worst < 1e-12

    def test_contractive_closure(self):
        for _ in range(500):
            g = compose(random_param(RNG), random_param(RNG))
            assert abs(g.a) <= 1.0 + 1e-12
            assert g.y.real >= -1e-12

    def test_r_nonnegative(self):
        assert min(r_term(random_param(RNG), random_param(RNG))
                   for _ in range(20000)) >= -1e-12

    def test_r_zero_on_circle(self):
        g = random_param(RNG, UNITARY)
        gp = random_param(RNG)
        assert r_term(g, gp) == 0.0


def r_terms(a, b, c, ap, bp, cp):
    """The three terms whose sum is gauge._r_value, on complex numbers."""
    da, dap = 1.0 - abs(a) ** 2, 1.0 - abs(ap) ** 2
    return (abs(ap.conjugate() * bp + cp) ** 2 / dap,
            abs(bp * da - a.conjugate() * b - c) ** 2 / da,
            abs((a * ap).conjugate() * (a * bp + b) + ap.conjugate() * c
                + cp) ** 2 / (1.0 - abs(a * ap) ** 2))


class TamperedGenerator:
    """A seeded generator whose uniform block number `block` has one entry
    set to `value`; r_sweep reads row 0 of a uniform block as |a| / 0.95
    and row 2 as Re(y) / 2."""

    def __init__(self, seed, block, entry, value):
        self._rng = np.random.default_rng(seed)
        self.block, self.entry, self.value = block, entry, value
        self.calls = 0

    def random(self, size):
        u = self._rng.random(size)
        if self.calls == self.block:
            u[self.entry] = self.value
        self.calls += 1
        return u

    def standard_normal(self, size):
        return self._rng.standard_normal(size)


class TestDraws:
    @pytest.mark.parametrize("klass", [GENERAL, UNITARY, ISOMETRIC, FLOW])
    @pytest.mark.parametrize("seed", [2024, 7])
    def test_same_stream_as_reference(self, klass, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            g, h = random_param(rng, klass), random_param_reference(ref, klass)
            assert (g.a, g.b, g.c, g.y, g.klass) == (h.a, h.b, h.c, h.y,
                                                     h.klass)
        assert rng.random() == ref.random()

    # the third draw at seed 2024 and the next rng.random() after it, as
    # drawn before unknown classes were rejected
    PINNED = {
        GENERAL: ("((0.2832422184829814-0.8825011317868586j), "
                  "(-1.2910916333479945-0.7756786842437912j), "
                  "(0.9030630777436289-1.4805813250203528j), "
                  "(0.5560827994840305+0.16378857220098098j))",
                  0.8071819864678583),
        UNITARY: ("((-0.6357129270140613+0.7719255627502011j), "
                  "(0.7508434731539183+0.6397595539314624j), "
                  "(-0.016525851645280587+0.9862986891666341j), "
                  "(-0-0.7313225212292476j))", 0.10538567974837565),
        FLOW: ("((0.6239266120103004+0.7761039897656865j), 0j, 0j, 0j)",
               0.07872553376199898),
    }
    PINNED[ISOMETRIC] = PINNED[UNITARY]

    @pytest.mark.parametrize("draw", [random_param, random_param_reference])
    @pytest.mark.parametrize("klass", [GENERAL, UNITARY, ISOMETRIC, FLOW])
    def test_known_class_stream_pinned(self, draw, klass):
        rng = np.random.default_rng(2024)
        g = [draw(rng, klass) for _ in range(3)][-1]
        assert g.klass == klass
        assert (repr((g.a, g.b, g.c, g.y)), rng.random()) == self.PINNED[klass]

    @pytest.mark.parametrize("draw", [random_param, random_param_reference])
    @pytest.mark.parametrize("klass", ["unitray", "general", "", None])
    def test_unknown_class_raises_before_drawing(self, draw, klass):
        rng = np.random.default_rng(2024)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="unknown class"):
            draw(rng, klass)
        assert rng.bit_generator.state == state
        assert rng.random() == np.random.default_rng(2024).random()

    # several whole blocks and a partial one
    SWEEP_N = 3 * gauge._SWEEP_BLOCK + 123

    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_sweep_agrees_with_scalar_kernels(self, seed):
        n = self.SWEEP_N
        r_min, residual = r_sweep(np.random.default_rng(seed), n)
        blocks = list(gauge._general_pairs(np.random.default_rng(seed), n))
        assert sum(len(block[0]) for block in blocks) == n
        r_all, sq_all, r_ref, sq_ref, scale = [], [], [], [], []
        for block in blocks:
            r_all.extend(gauge._r_value(*block))
            sq_all.extend(gauge._r_square_form(*block))
            for pair in zip(*block):
                pair = [complex(v) for v in pair]
                r_ref.append(gauge._r_value(*pair))
                sq_ref.append(gauge._r_square_form(*pair))
                scale.append(max(1.0, *r_terms(*pair)))
        r_all, sq_all, r_ref, sq_ref, scale = map(
            np.array, (r_all, sq_all, r_ref, sq_ref, scale))
        assert np.all(abs(r_all - r_ref) <= 1e-13 * scale)
        assert np.all(abs(sq_all - sq_ref) <= 1e-13 * scale)
        assert r_min == r_all.min()
        assert residual == (abs(r_all - sq_all) / np.maximum(sq_all, 1)).max()
        i = r_ref.argmin()
        assert abs(r_min - r_ref[i]) <= 1e-13 * scale[i]
        ref_residual = abs(r_ref - sq_ref) / np.maximum(sq_ref, 1.0)
        assert abs(residual - ref_residual.max()) <= 1e-13
        assert residual <= 1e-12

    @pytest.mark.parametrize("row, value", [(0, 2.0),    # |a| = 1.9
                                            (2, -1.0)])  # Re y = -2
    @pytest.mark.parametrize("block, column", [(0, 0), (0, -1),
                                               (3, 0), (3, -1)])
    def test_sweep_validates_every_block(self, row, value, block, column):
        rng = TamperedGenerator(2024, block, (row, column), value)
        with pytest.raises(InvalidParameterError):
            r_sweep(rng, self.SWEEP_N)
        assert rng.calls == block + 1

    def test_sweep_needs_a_sample(self):
        with pytest.raises(ValueError):
            r_sweep(np.random.default_rng(0), 0)


def scaled_gap(x, ref):
    """|x - ref| / max(1, |ref|), entrywise."""
    return abs(np.asarray(x) - ref) / np.maximum(1.0, abs(np.asarray(ref)))


class FixedGenerator:
    """Hands out given uniform rows U and normal rows N: whole blocks to
    _draw_block, or the entries of column j one call at a time to
    _draw."""

    def __init__(self, u, normal, column=None):
        self.u, self.normal = u, normal
        if column is not None:
            self.u_iter = iter(u[:, column].tolist())
            self.normal_iter = iter(normal[:, column].tolist())

    def random(self, size=None):
        if size is None:
            return next(self.u_iter)
        return self.u[:size[0]].copy()

    def standard_normal(self, size=None):
        if size is None:
            return next(self.normal_iter)
        if isinstance(size, int):  # _draw's normal(4)
            return np.array([next(self.normal_iter) for _ in range(size)])
        return self.normal[:size[0]].copy()


def member(g, i):
    """Member i of a block, rebuilt as a plain parameter."""
    return GaugeParam(g.a[i], g.b[i], g.c[i], g.y[i], klass=g.klass,
                      relax_isometric=g.relax_isometric)


class TestBlocks:
    """Parameter blocks through the unchanged act/compose kernels."""

    TRIPLES = 3 * gauge._SWEEP_BLOCK + 123
    LABELS = 25
    # whole pair blocks at 25 labels and a partial one
    PAIRS = gauge._pairs_per_block(LABELS) + 123

    @pytest.mark.parametrize("klass", [GENERAL, UNITARY])
    def test_act_on_plain_number_labels(self, klass):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_param(rng, klass)
            assert g.on_unit_circle == (klass == UNITARY)
            for z in (rng.normal(), -0.0, 0.0, 2.5, 0, 3, -7):
                out, ref = act(g, z), act(g, complex(z))
                assert (out.new_label, out.exponent_rate) \
                    == (ref.new_label, ref.exponent_rate)

    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_associativity_sweep_agrees_with_scalar_compose(self, seed):
        n = self.TRIPLES
        worst = associativity_sweep(np.random.default_rng(seed), n)
        blocks = list(gauge._param_blocks(np.random.default_rng(seed),
                                          GENERAL, n, 3, gauge._SWEEP_BLOCK))
        assert sum(len(g.a) for g, _, _ in blocks) == n
        members = []
        for g, gp, gpp in blocks:
            left = compose(compose(g, gp), gpp)
            right = compose(g, compose(gp, gpp))
            members.extend(max(abs(getattr(left, part)[i]
                                   - getattr(right, part)[i])
                               for part in "abcy")
                           for i in range(len(g.a)))
            for i in range(len(g.a)):
                p, pp, ppp = (member(h, i) for h in (g, gp, gpp))
                for block, ref in ((left, compose(compose(p, pp), ppp)),
                                   (right, compose(p, compose(pp, ppp)))):
                    for part in "abcy":
                        assert scaled_gap(getattr(block, part)[i],
                                          getattr(ref, part)) <= 1e-13
        assert worst == max(members)
        assert worst <= 1e-12

    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_action_sweep_agrees_with_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        zs = rng.normal(size=self.LABELS) + 1j * rng.normal(size=self.LABELS)
        n = self.PAIRS
        worst = action_sweep(np.random.default_rng(seed), n, zs)
        rng = np.random.default_rng(seed)
        pairs = gauge._pairs_per_block(len(zs))
        assert n % pairs
        for klass in (UNITARY, FLOW, GENERAL):
            members = []
            for g, gp in gauge._param_blocks(rng, klass, n, 2, pairs):
                res = action_composition_residual(gauge._column(g),
                                                  gauge._column(gp), zs)
                members.extend(res)
                for i in range(len(g.a)):
                    p, pp = member(g, i), member(gp, i)
                    ref = action_composition_residual(p, pp, zs)
                    scale = max(1.0, abs(act(compose(p, pp), zs)
                                         .exponent_rate).max())
                    assert abs(res[i] - ref) <= 1e-13 * scale
            assert len(members) == n
            assert worst[klass] == max(members)
            assert worst[klass] <= 1e-12

    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_first_discrepancy_is_the_first_discrepant_scalar_pair(self,
                                                                  seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        report = first_discrepancy(rng, 200, ZS)
        while True:
            expected = formula_discrepancy_report(random_param(ref),
                                                  random_param(ref), ZS)
            if expected["discrepant"]:
                break
        assert report == expected
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_first_discrepancy_none_after_n_agreeing_pairs(self,
                                                           monkeypatch):
        # b = c = 0 makes the printed law agree with the action
        calls = []
        def agreeing(rng, klass=GENERAL):
            calls.append(klass)
            return GaugeParam(0.5)
        monkeypatch.setattr(gauge, "random_param", agreeing)
        assert first_discrepancy(np.random.default_rng(0), 7, ZS) is None
        assert calls == [GENERAL] * 14

    @pytest.mark.parametrize("klass", [GENERAL, UNITARY, ISOMETRIC, FLOW])
    def test_block_draw_uses_the_scalar_formulas(self, klass):
        rng = np.random.default_rng(3)
        k = 500
        u, normal = rng.random((3, k)), rng.standard_normal((5, k))
        block = gauge._draw_block(FixedGenerator(u, normal), klass, k)
        for j in range(k):
            ref = gauge._draw(FixedGenerator(u, normal, j), klass)
            for part, value in zip(block, ref):
                # numpy's complex exp and products may round c = -conj(a) b
                # differently in the last place
                assert scaled_gap(part[j], value) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("sweep, klass, row, value", [
        ("associativity", GENERAL, 0, 2.0),  # |a| = 1.9
        ("associativity", GENERAL, 2, -1.0),  # Re y = -2
        ("action", FLOW, 0, 2.0),  # |a| = 2
        ("action", GENERAL, 0, 2.0),
        ("action", GENERAL, 2, -1.0),
    ])
    @pytest.mark.parametrize("later, column", [(0, 0), (0, -1), (2, 0),
                                               (2, -1)])
    def test_sweeps_validate_every_drawn_block(self, sweep, klass, row,
                                               value, later, column):
        zs = np.arange(self.LABELS) * 0.1j
        pairs = gauge._pairs_per_block(self.LABELS)
        if sweep == "associativity":
            n, blocks_before = self.TRIPLES, 0
            run = associativity_sweep
        else:
            # three blocks per class, unitary then flow then general
            n, classes = 2 * pairs + 7, (UNITARY, FLOW, GENERAL)
            blocks_before = 3 * classes.index(klass)
            def run(rng, n):
                return action_sweep(rng, n, zs)
        block = blocks_before + later
        rng = TamperedGenerator(2024, block, (row, column), value)
        with pytest.raises(InvalidParameterError):
            run(rng, n)
        assert rng.calls == block + 1

    def test_unitary_block_invariants(self):
        # unitary draws hold their invariants for any uniform and normal
        # values, so the blocks are crafted
        a = np.exp(1j * np.arange(4.0))
        b = np.arange(4.0) + 1j
        for i in (0, -1):
            for part, bad in (("a", 0.5), ("b", 5.0), ("y", 1.0 + 1j)):
                fields = {"a": a.copy(), "b": b.copy(),
                          "c": -a.conj() * b, "y": np.zeros(4, complex)}
                fields[part][i] = bad
                with pytest.raises(InvalidParameterError):
                    GaugeParam(klass=UNITARY, **fields)
        GaugeParam(a, b, -a.conj() * b, 1j * b.real, klass=UNITARY)
        with pytest.raises(InvalidParameterError, match="b = c = y = 0"):
            GaugeParam(a / 2, np.array([0, 0, 0, 1e-9]), klass=FLOW)

    def test_on_unit_circle_of_blocks(self):
        on, off = np.exp(1j * np.arange(3.0)), 0.5 * np.ones(3)
        assert GaugeParam(on).on_unit_circle is True
        assert GaugeParam(off).on_unit_circle is False
        mixed = GaugeParam(np.concatenate([on, off]))
        with pytest.raises(InvalidParameterError, match="straddles"):
            mixed.on_unit_circle
        with pytest.raises(InvalidParameterError, match="straddles"):
            act(mixed, 1.0)

    def test_straddling_block_uses_each_members_branch(self):
        # every combination of g and g' on and off the circle; C C' is on
        # it exactly when both are.  On the circle the rate is that of
        # ac + b = 0, which the members there satisfy.  act() reads one
        # branch per block, so the straddling column block raises and each
        # member passes on its own branch.
        rng = np.random.default_rng(5)
        unit = np.exp(2j * np.pi * rng.random((2, 8)))
        modulus = np.array([[1, 1, 0.5, 0.5] * 2, [1, 0.5] * 4])
        a = modulus * unit
        b, c = (rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
                for _ in range(2))
        c = np.where(modulus == 1, -a.conj() * b, c)
        y = rng.random((2, 8)) + 1j * rng.normal(size=(2, 8))
        g, gp = (GaugeParam(a[k], b[k], c[k], y[k]) for k in range(2))
        zs = ZS[:7]
        with pytest.raises(InvalidParameterError, match="straddles"):
            action_composition_residual(gauge._column(g),
                                        gauge._column(gp), zs)
        for i in range(8):
            p, pp = member(g, i), member(gp, i)
            assert (p.on_unit_circle, pp.on_unit_circle) \
                == (modulus[0, i] == 1, modulus[1, i] == 1)
            assert action_composition_residual(p, pp, zs) <= 1e-12

    @pytest.mark.parametrize("n_labels, pairs", [(25, 81), (10 ** 5, 1)])
    def test_pair_block_size_bound(self, n_labels, pairs):
        # computed, not run: a block holds about _PAIR_ENTRIES entries, or
        # one pair at more labels than that
        assert gauge._PAIR_ENTRIES <= 32 * gauge._SWEEP_BLOCK
        assert gauge._pairs_per_block(n_labels) == pairs
        # as full as the bound allows
        bound = max(gauge._PAIR_ENTRIES, n_labels)
        assert pairs * n_labels <= bound < (pairs + 1) * n_labels


@st.composite
def near_circle_pairs(draw):
    """g_s on the surface ac + b = 0 with |a| = s near 1, and a general g'.

    Returns (g_s, g_u, g', z), g_u being the unitary parameter
    (u, -u c, c, i Im y) with u = a / |a|.
    """
    unit = st.floats(min_value=-2.0, max_value=2.0)
    cplx = st.builds(complex, unit, unit)
    angle = st.floats(min_value=0.0, max_value=2 * np.pi)
    u = np.exp(1j * draw(angle))
    a = (1.0 - draw(st.floats(min_value=1e-6, max_value=1e-2))) * u
    c = draw(cplx)
    y = complex(draw(st.floats(min_value=0.0, max_value=2.0)), draw(unit))
    g = GaugeParam(a, -a * c, c, y)
    g_u = GaugeParam(u, -u * c, c, 1j * y.imag, klass=UNITARY)
    ap = draw(st.floats(min_value=0.0, max_value=0.95)) * np.exp(
        1j * draw(angle))
    gp = GaugeParam(ap, draw(cplx), draw(cplx),
                    complex(draw(st.floats(min_value=0.0, max_value=2.0)),
                            draw(unit)))
    return g, g_u, gp, draw(cplx)


class TestNearUnitCircle:
    """On ac + b = 0, r and the rate go continuously to the |a| = 1 branch."""

    @given(near_circle_pairs())
    @settings(max_examples=200, deadline=None)
    def test_rate_tends_to_unitary_rate(self, case):
        g, g_u, _, z = case
        da = 1.0 - abs(g.a) ** 2
        expected = (act(g_u, z).exponent_rate - g.y.real
                    - 0.5 * abs(z - g.c) ** 2 * da)
        assert abs(act(g, z).exponent_rate - expected) <= 1e-12

    @given(near_circle_pairs())
    @settings(max_examples=200, deadline=None)
    def test_r_vanishes_like_one_minus_modulus_squared(self, case):
        g, _, gp, _ = case
        da = 1.0 - abs(g.a) ** 2
        dap = 1.0 - abs(gp.a) ** 2
        limit = (abs(gp.a * (np.conj(gp.a) * gp.b + gp.c)
                     + dap * (gp.b - g.c)) ** 2
                 / (dap * (1.0 - abs(g.a * gp.a) ** 2)))
        assert abs(r_term(g, gp) / da - limit) <= 1e-6 * max(limit, 1.0)


class TestPlainComplexArithmetic:
    @pytest.mark.parametrize("klass", [GENERAL, UNITARY, ISOMETRIC, FLOW])
    @pytest.mark.parametrize("seed", [2024, 7, 11])
    def test_same_values_as_numpy_scalars(self, klass, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2000):
            g, gp = random_param(rng, klass), random_param(rng, klass)
            z = complex(rng.normal(), rng.normal())
            out, ref = act(g, z), act_reference(g, z)
            assert (out.new_label, out.exponent_rate) \
                == (ref.new_label, ref.exponent_rate)
            for law, sign in ((compose, 1), (compose_printed, -1)):
                h = law(g, gp)
                assert (h.a, h.b, h.c, h.y) \
                    == composed_reference(g, gp, sign)


class TestActionOracle:
    def test_unitary_class(self):
        for _ in range(100):
            g, gp = random_param(RNG, UNITARY), random_param(RNG, UNITARY)
            assert action_composition_residual(g, gp, ZS) < 1e-12

    def test_flow_class(self):
        for _ in range(100):
            g, gp = random_param(RNG, FLOW), random_param(RNG, FLOW)
            assert action_composition_residual(g, gp, ZS) < 1e-12

    def test_general_class(self):
        for _ in range(100):
            g, gp = random_param(RNG), random_param(RNG)
            assert action_composition_residual(g, gp, ZS) < 1e-12

    def test_printed_law_deviates_and_is_reported(self):
        found = False
        for _ in range(50):
            g, gp = random_param(RNG), random_param(RNG)
            report = formula_discrepancy_report(g, gp, ZS)
            if report["discrepant"]:
                found = True
                assert report["residual_action_consistent"] < 1e-12
                assert report["residual_printed"] > 1e-10
                assert "reproducer" in report
                break
        assert found

    def test_printed_law_agrees_when_terms_vanish(self):
        g = GaugeParam(0.5, 0.0, 0.0, 0.0)
        gp = GaugeParam(0.25, 0.0, 0.0, 0.0)
        assert action_composition_residual(g, gp, ZS,
                                           law=compose_printed) < 1e-12


class TestTransitivity:
    def test_rotation_obstruction(self):
        res = pair_reachable((0.0, 1.0), (0.0, 1j), "a1")
        assert not res.reachable
        assert "1j" in res.obstruction

    def test_rotation_allowed_on_circle(self):
        res = pair_reachable((0.0, 1.0), (0.0, 1j), "unit")
        assert res.reachable
        assert res.witness[0] == pytest.approx(1j)
        assert abs(res.witness[1]) < 1e-12

    def test_same_pair_reachable(self):
        res = pair_reachable((0.0, 1.0), (0.0, 1.0), "a1")
        assert res.reachable

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(InvalidParameterError):
            pair_reachable((1.0, 1.0), (0.0, 1.0), "a1")

    def test_single_unit_translation(self):
        for _ in range(100):
            z0 = complex(RNG.normal(), RNG.normal())
            z1 = complex(RNG.normal(), RNG.normal())
            wit = single_reachable(z0, z1)
            a, b = wit.witness
            assert a * z0 + b == pytest.approx(z1)
