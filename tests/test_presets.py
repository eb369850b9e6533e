import hashlib

import mpmath
import numpy as np
import pytest

from rdnet import presets
from rdnet.geometry import Grid, RectDomain


def _field_mpmath(grid, dps=1200):
    """Reference field: every node pair's sine argument taken in mpmath.

    At 1200 digits the ~1e550 arguments keep ~650 digits below the units
    place; at 800 digits the field is the same to the last bit.
    """
    x1_axis, x2_axis = grid.axes()
    sin1 = np.ones(grid.shape)
    with mpmath.workdps(dps):
        for s in (1, 2, 3):
            c = 5 * (s + 1)
            f1 = [mpmath.mpf(float(x)) ** 33 * (mpmath.mpf(float(x)) - c) ** 353
                  for x in x1_axis]
            f2 = [mpmath.mpf(float(x)) ** 63 * (mpmath.mpf(float(x)) - c) ** 79
                  for x in x2_axis]
            for i, a in enumerate(f1):
                for k, b in enumerate(f2):
                    sin1[i, k] *= float(mpmath.sin(a * b))
    return np.stack([sin1, sin1**2])


class TestSwitchedBenchmarkInitial:
    @pytest.mark.parametrize("side, nodes", [(1.0, 31), (1.5, 9)])
    def test_matches_mpmath_oracle(self, side, nodes):
        # the 1.5-square has larger |a| and |b|, so wider fixed-point formats
        grid = Grid(RectDomain((side, side)), (nodes, nodes))
        field = presets.switched_benchmark_initial(grid)(0.0)
        assert np.max(np.abs(field - _field_mpmath(grid))) <= 1e-14

    def test_bounded_and_second_component_squared(self):
        grid = Grid(RectDomain((1.0, 1.0)), (41, 37))
        phi = presets.switched_benchmark_initial(grid)
        field = phi(0.0)
        assert field.shape == (2, 41, 37)
        assert np.all(np.abs(field) <= 1.0)
        assert np.array_equal(field[1], field[0] ** 2)
        assert phi(-1.0) is field

    def test_rejects_1d_grid(self):
        with pytest.raises(ValueError, match="2D grid"):
            presets.switched_benchmark_initial(Grid(RectDomain((1.0,)), (9,)))


def _floor_mpmath(g):
    with mpmath.workprec(g + 64):
        return int(mpmath.floor(mpmath.ldexp(1, g) / (2 * mpmath.pi)))


class TestIntegerInverseTwoPi:
    def test_matches_mpmath(self):
        for g in range(1, 6000, 7):
            assert presets._floor_pow2_over_2pi(g) == _floor_mpmath(g), g

    def test_narrow_guard_doubles_to_the_same_bits(self):
        # one guard bit cannot separate the bracket, so the loop must widen it
        for g in range(1, 6000, 97):
            assert presets._floor_pow2_over_2pi(g, guard=1) == _floor_mpmath(g), g

    def test_benchmark_grids(self, monkeypatch):
        exact, seen = presets._floor_pow2_over_2pi, []
        monkeypatch.setattr(presets, "_floor_pow2_over_2pi",
                            lambda g: seen.append(g) or exact(g))
        domain = presets.switched_benchmark(1).modes[0].domain
        for nodes in (31, 61, 101, 151):
            presets.switched_benchmark_initial(Grid(domain, (nodes, nodes)))
        assert len(seen) == 12
        for g in seen:
            assert exact(g) == _floor_mpmath(g), g

    @pytest.mark.parametrize("nodes, size, sha1", [
        (31, 15376, "8d73af8c742b1f5f6e823b0c81f1606ff83c3d61"),
        (101, 163216, "ced50cec7e7ef710aa79d03044f20c279d9df08c")])
    def test_field_bits_pinned(self, nodes, size, sha1):
        # pinned from the field whose P came from mpmath
        domain = presets.switched_benchmark(1).modes[0].domain
        field = presets.switched_benchmark_initial(Grid(domain, (nodes, nodes)))(0.0)
        data = field.tobytes()
        assert len(data) == size and hashlib.sha1(data).hexdigest() == sha1
