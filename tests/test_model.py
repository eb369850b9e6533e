import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet.geometry import RectDomain, first_eigenvalue
from rdnet.model import (_LANES, ACTIVATIONS, Activation, Mode,
                         SwitchedNetwork, _as_box, check_A1_sampled,
                         piecewise_cbrt, piecewise_cbrt_antiderivative,
                         seeded_uniforms, signed_cbrt, stationarity_map)


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


_REGISTRY_CASES = [
    ("affine", {"a": 2.0, "b": -1.0}), ("identity", {}),
    ("scaled_sine", {"a": 9.75, "b": 0.5, "c": 0.25e-6}),
    ("piecewise_cbrt", {"d": 0.1, "a_weight": 1.0, "mu1": 12.0}),
    ("saturation", {"lo": -0.5, "hi": 2.0}),
    ("tabulated", {"x": [-1.0, 0.0, 3.0], "y": [0.0, 1.0, -2.0]})]


def _fn(name, params):
    """The registry function an Activation builds from name and params."""
    return Activation.uniform(name, params, 1.0, 1).fn


class TestActivationRegistry:
    def test_affine(self):
        f = _fn("affine", {"a": 2.0, "b": -1.0})
        assert f(3.0) == pytest.approx(5.0)

    def test_scaled_sine(self):
        f = _fn("scaled_sine", {"a": 9.75, "b": 0.5, "c": 0.25e-6})
        s = 1.3
        assert f(s) == pytest.approx((39 + 2 * s + 1e-6 * math.sin(s)) / 4)

    def test_saturation(self):
        f = _fn("saturation", {})
        np.testing.assert_allclose(f(np.array([-5.0, 0.3, 5.0])), [-1.0, 0.3, 1.0])

    def test_tabulated(self):
        f = _fn("tabulated", {"x": [0, 1], "y": [0, 2]})
        assert f(0.5) == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            _fn("nope", {})

    def test_saturation_rejects_misspelt_bounds(self):
        # "low"/"high" would otherwise fall back to the default [-1, 1]
        with pytest.raises(ValueError, match=r"\['high', 'low'\], expected \['lo', 'hi'\]"):
            Activation.uniform("saturation", {"low": -2.0, "high": 2.0}, 1.0, 1)

    def test_affine_rejects_extra_param(self):
        with pytest.raises(ValueError, match=r"\['c'\], expected \['a', 'b'\]"):
            Activation.uniform("affine", {"a": 1.0, "b": 0.0, "c": 3.0}, 1.0, 1)

    @pytest.mark.parametrize("name,params", _REGISTRY_CASES)
    def test_every_builder_rejects_an_unknown_param(self, name, params):
        with pytest.raises(ValueError, match="unknown activation params"):
            ACTIVATIONS[name]({**params, "typo": 1.0})

    @pytest.mark.parametrize("name,params", _REGISTRY_CASES)
    def test_uniform_bundle_matches_components(self, name, params):
        act = Activation.uniform(name, params, 1.0, 3)
        v = np.random.default_rng(5).normal(scale=3.0, size=(3, 7, 9))
        out = act(v)
        np.testing.assert_array_equal(
            out, np.stack([_fn(name, params)(v[i]) for i in range(3)]))
        assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("name,params", _REGISTRY_CASES)
    def test_float_matches_one_element_array(self, name, params):
        # simulate_ode steps scalar modes on floats through the activations
        # and evaluates each delay window's g(u(t - tau)) in one call on an
        # array; the antiderivatives, where there is one, keep the same promises
        rng = np.random.default_rng(11)
        xs = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 8.0, -27.0],
                             rng.normal(size=4000) * 10.0 ** rng.integers(-3, 4, 4000)])
        for fn in ACTIVATIONS[name](params):
            if fn is None:
                continue
            each = []
            for x in xs.tolist():
                got = np.asarray(fn(x), dtype=float)
                assert got.shape == () and got.tobytes() == fn(np.array([x])).tobytes(), x
                each.append(got)
            bulk = np.asarray(fn(xs), dtype=float)
            differ = np.flatnonzero(bulk.view(np.int64) != np.array(each).view(np.int64))
            assert bulk.shape == xs.shape and differ.size == 0, xs[differ[:5]]

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
        # no stored delay: the simulator runs the constant tau_max, so a copy
        # with another tau_max runs that one
        net = SwitchedNetwork((self._mode(),), Activation.uniform("identity", {}, 1.0, 1),
                              0.5, np.eye(1))
        assert net.delay is None
        assert dataclasses.replace(net, tau_max=0.2).delay is None

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

    @pytest.mark.parametrize("act, box, samples", [
        (Activation.uniform("piecewise_cbrt", {"d": 1.0, "a_weight": 2.0, "mu1": 3.0},
                            1.5, 1), [-50.0, 50.0], 500),
        (Activation.uniform("piecewise_cbrt", {"d": 1.0, "a_weight": 2.0, "mu1": 3.0},
                            1.5, 1), [-50.0, 50.0], 4096),
        (Activation("scaled_sine", {"a": 0.0, "b": 0.5, "c": 1.0}, (1.4, 1.6)),
         [[-3.0, 1.0], [-50.0, 50.0]], 300),
        (Activation("saturation", {}, (0.9, 1.0, 1.1)), None, 2000),
    ], ids=["cbrt-pure", "cbrt-numpy", "sine-2-boxes-pure", "saturation-3-numpy"])
    def test_A1_draws_match_numpy_uniform(self, act, box, samples):
        # the reference loop: per neuron, s then t from one seed-0
        # Generator's uniform(lo, hi, samples)
        rng = np.random.default_rng(0)
        box = _as_box(box if box is not None else [-100.0, 100.0], act.n)
        worst, witness = 0.0, None
        for i in range(act.n):
            lo, hi = box[i]
            s, t = rng.uniform(lo, hi, samples), rng.uniform(lo, hi, samples)
            s = np.concatenate([s, s])
            t = np.concatenate([t, np.clip(s[:samples] + 1e-6 * (hi - lo), lo, hi)])
            mask = np.abs(s - t) > 0
            rel = (np.abs(act.fn(s[mask]) - act.fn(t[mask])) / np.abs(s - t)[mask]
                   / act.lipschitz[i])
            j = int(np.argmax(rel))
            if rel[j] > worst:
                worst, witness = float(rel[j]), np.array([s[mask][j], t[mask][j]])
        verdict = check_A1_sampled(act, box=box, samples=samples)
        assert verdict.worst_ratio == worst
        assert verdict.witness.tobytes() == witness.tobytes()

    def test_stationarity_map_columns(self):
        mode = Mode([[1.0]], [[2.0]], [[1.0]], [[1.0]], [0.5], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        out = stationarity_map(mode, act, np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestSeededUniforms:
    """seeded_uniforms against numpy's PCG64 Generator, the reference."""

    SEEDS = [0, 1, 3, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**30]

    # one draw, cut into consecutive pieces of the given lengths, equals the
    # Generator's consecutive random(length) calls, as the CLI's starts read
    # their rows from one draw; "limit", "limit+1" and "split-numpy" are the
    # long streams of 4,096 and 4,097 draws. The "lanes" counts sit at the
    # block boundaries of the jumped-ahead stream, and 40,000 is the draw
    # of reproduce statement2's Lipschitz probes
    @pytest.mark.parametrize("counts", [
        [0], [1], [2], [4096], [4097], [2, 0, 3, 1], [4096, 1],
        [_LANES - 1], [_LANES], [_LANES + 1], [2 * _LANES + 1], [40_000],
    ], ids=["0", "1", "2", "limit", "limit+1", "split", "split-numpy",
            "lanes-1", "lanes", "lanes+1", "2lanes+1", "40000"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_default_rng_random(self, seed, counts):
        ours = seeded_uniforms(seed, sum(counts))
        rng = np.random.default_rng(seed)
        assert ours.dtype == np.float64 and len(ours) == sum(counts)
        for piece, count in zip(np.split(ours, np.cumsum(counts)[:-1]), counts):
            assert piece.tobytes() == rng.random(count).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_draws_are_generator_uniform(self, seed, n):
        ours = -1.0 + 2.0 * seeded_uniforms(seed, n)
        ref = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        assert ours.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**160), st.integers(0, 12))
    def test_bitwise_any_seed(self, seed, count):
        ref = np.random.default_rng(seed).random(count)
        assert seeded_uniforms(seed, count).tobytes() == ref.tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            seeded_uniforms(-1, 2)
