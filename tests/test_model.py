import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet.geometry import RectDomain, first_eigenvalue
from rdnet.model import (Activation, CGSystem, Mode, SwitchedNetwork,
                         check_A1_sampled, check_A2_on_box,
                         check_H_conditions, constant_delay,
                         make_activation_fn, piecewise_cbrt,
                         piecewise_cbrt_antiderivative, signed_cbrt,
                         stationarity_map)


class TestScalarFunctions:
    def test_signed_cbrt(self):
        assert signed_cbrt(-8.0) == pytest.approx(-2.0)
        assert signed_cbrt(27.0) == pytest.approx(3.0)
        assert signed_cbrt(0.0) == 0.0

    def test_piecewise_cbrt_linear_core(self):
        # inside [-1, 1] the function is exactly (d/a) mu1 * u
        k = 0.1 / 1.0 * 12.0
        u = np.linspace(-1, 1, 21)
        np.testing.assert_allclose(piecewise_cbrt(u, 0.1, 1.0, 12.0), k * u)

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_piecewise_cbrt_continuous(self, u):
        eps = 1e-9
        lo = piecewise_cbrt(u - eps, 0.1, 1.0, 12.0)
        hi = piecewise_cbrt(u + eps, 0.1, 1.0, 12.0)
        assert abs(hi - lo) < 1e-7

    def test_piecewise_cbrt_odd(self):
        u = np.array([0.3, 1.7, 42.0])
        np.testing.assert_allclose(piecewise_cbrt(-u, 0.1, 1.0, 12.0),
                                   -piecewise_cbrt(u, 0.1, 1.0, 12.0))

    def test_antiderivative_matches_fd(self):
        u = np.linspace(-3, 3, 601)
        eps = 1e-6
        fd = (piecewise_cbrt_antiderivative(u + eps, 0.1, 1.0, 12.0)
              - piecewise_cbrt_antiderivative(u - eps, 0.1, 1.0, 12.0)) / (2 * eps)
        np.testing.assert_allclose(fd, piecewise_cbrt(u, 0.1, 1.0, 12.0),
                                   rtol=1e-6, atol=1e-6)


class TestActivationRegistry:
    def test_affine(self):
        f = make_activation_fn("affine", {"a": 2.0, "b": -1.0})
        assert f(3.0) == pytest.approx(5.0)

    def test_scaled_sine(self):
        f = make_activation_fn("scaled_sine", {"a": 9.75, "b": 0.5, "c": 0.25e-6})
        s = 1.3
        assert f(s) == pytest.approx((39 + 2 * s + 1e-6 * math.sin(s)) / 4)

    def test_saturation(self):
        f = make_activation_fn("saturation", {})
        np.testing.assert_allclose(f(np.array([-5.0, 0.3, 5.0])), [-1.0, 0.3, 1.0])

    def test_tabulated(self):
        f = make_activation_fn("tabulated", {"x": [0, 1], "y": [0, 2]})
        assert f(0.5) == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_activation_fn("nope", {})

    @pytest.mark.parametrize("name,params", [
        ("affine", {"a": 2.0, "b": -1.0}), ("identity", {}),
        ("scaled_sine", {"a": 9.75, "b": 0.5, "c": 0.25e-6}),
        ("piecewise_cbrt", {"d": 0.1, "a_weight": 1.0, "mu1": 12.0}),
        ("saturation", {"lo": -0.5, "hi": 2.0}),
        ("tabulated", {"x": [-1.0, 0.0, 3.0], "y": [0.0, 1.0, -2.0]})])
    def test_uniform_bundle_matches_components(self, name, params):
        act = Activation.uniform(name, params, 1.0, 3)
        v = np.random.default_rng(5).normal(scale=3.0, size=(3, 7, 9))
        out = act(v)
        np.testing.assert_array_equal(
            out, np.stack([act.component(i)(v[i]) for i in range(3)]))
        assert not np.shares_memory(out, v)

    def test_bundle_apply(self):
        act = Activation.per_neuron([
            ("affine", {"a": 1.0, "b": 0.0}, 1.0),
            ("affine", {"a": 2.0, "b": 1.0}, 2.0),
        ])
        out = act(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(out, [[1.0, 2.0], [7.0, 9.0]])
        np.testing.assert_allclose(act.G, np.diag([1.0, 2.0]))

    def test_rejects_nonpositive_lipschitz(self):
        with pytest.raises(ValueError):
            Activation.uniform("identity", {}, 0.0, 1)


class TestMode:
    def test_computes_lambda1(self):
        m = Mode([[0.1]], [[1.0]], [[0.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        assert m.lambda1 == pytest.approx(math.pi**2)

    def test_lambda1_is_derived_not_passed(self):
        dom = RectDomain((2.0, 3.0))
        m = Mode(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                 np.zeros(2), dom)
        assert m.lambda1 == first_eigenvalue(dom)
        with pytest.raises(TypeError):
            Mode([[0.1]], [[1.0]], [[0.0]], [[0.0]], [0.0], RectDomain((1.0,)),
                 lambda1=math.pi**2)

    def test_rejects_nondiagonal_D(self):
        with pytest.raises(ValueError):
            Mode([[0.1, 0.01], [0.0, 0.1]], np.eye(2), np.zeros((2, 2)),
                 np.zeros((2, 2)), np.zeros(2), RectDomain((1.0,)))


class TestSwitchedNetwork:
    def _mode(self):
        return Mode([[0.1]], [[1.0]], [[0.1]], [[0.1]], [0.0], RectDomain((1.0,)))

    def test_defaults_constant_delay(self):
        net = SwitchedNetwork((self._mode(),), Activation.uniform("identity", {}, 1.0, 1),
                              0.5, np.eye(1))
        assert net.delay(17.0) == 0.5

    def test_rejects_indefinite_psi(self):
        with pytest.raises(ValueError):
            SwitchedNetwork((self._mode(),), Activation.uniform("identity", {}, 1.0, 1),
                            0.5, -np.eye(1))

    def test_rejects_q_at_most_one(self):
        with pytest.raises(ValueError):
            SwitchedNetwork((self._mode(),), Activation.uniform("identity", {}, 1.0, 1),
                            0.5, np.eye(1), q=1.0)


class TestSampledChecks:
    def test_A1_holds_for_declared_constant(self):
        act = Activation.uniform("affine", {"a": 0.05, "b": -0.3}, 0.05, 1)
        verdict = check_A1_sampled(act, samples=2000)
        assert verdict.holds
        assert verdict.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_A1_detects_understated_constant(self):
        act = Activation.uniform("affine", {"a": 1.0, "b": 0.0}, 0.5, 1)
        verdict = check_A1_sampled(act, samples=2000)
        assert not verdict.holds
        assert verdict.worst_ratio == pytest.approx(2.0, abs=1e-9)
        assert verdict.witness is not None

    def test_A2_signed_bound(self):
        # map is -v + 0.5 v = -0.5 v: on [-1, 0] it lies in [0, 0.5] <= c D
        mode = Mode([[1.0]], [[1.0]], [[0.25]], [[0.25]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        good = check_A2_on_box(mode, act, c=0.6, box=[-1.0, 0.0], samples=500)
        assert good.holds
        bad = check_A2_on_box(mode, act, c=0.6, box=[-1.0, 1.0], samples=500)
        assert not bad.holds
        unsigned = check_A2_on_box(mode, act, c=0.6, box=[-1.0, 1.0], samples=500,
                                   signed=False)
        assert unsigned.holds

    def test_stationarity_map_columns(self):
        mode = Mode([[1.0]], [[2.0]], [[1.0]], [[1.0]], [0.5], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        out = stationarity_map(mode, act, np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_H_conditions_cellular_defaults(self):
        n = 2
        cg = CGSystem(
            A_lower=np.ones(n), A_upper=np.ones(n), B=np.full(n, 2.0),
            F=np.ones(n), G=np.ones(n), H=np.ones(n),
            C=0.1 * np.eye(n), D=0.1 * np.eye(n), M=np.zeros(n),
            N=np.zeros((n, n)), R=np.zeros(n), inputs=np.zeros(n),
            P=np.ones(n), tau=1.0)
        verdicts = check_H_conditions(cg, samples=500)
        assert verdicts["H1"].holds
        assert verdicts["H2"].holds
        assert verdicts["H3"].holds

    def test_H2_detects_shallow_decay(self):
        n = 1
        cg = CGSystem(
            A_lower=np.ones(n), A_upper=np.ones(n), B=np.full(n, 2.0),
            F=np.ones(n), G=np.ones(n), H=np.ones(n),
            C=0.1 * np.eye(n), D=0.1 * np.eye(n), M=np.zeros(n),
            N=np.zeros((n, n)), R=np.zeros(n), inputs=np.zeros(n),
            P=np.ones(n), tau=1.0,
            b_funcs=(lambda u: 0.5 * np.asarray(u, float),))
        assert not check_H_conditions(cg, samples=500)["H2"].holds
