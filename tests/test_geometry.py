import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet.geometry import (MAX_AXIS_NODES, Grid, RectDomain, apply_laplacian,
                            eigenfunction, first_eigenvalue, helmholtz_solve,
                            l2_inner, l2_norm)


class TestRectDomain:
    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            RectDomain((1.0, 1.0, 1.0))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            RectDomain((1.0, 0.0))


class TestFirstEigenvalue:
    # reference eigenvalues for the three benchmark squares, 1e-3 absolute
    @pytest.mark.parametrize("lengths, expected", [
        ((1.0, 1.0), 19.7392),
        ((1.3, 1.3), 11.68),
        ((1.5, 1.5), 8.7730),
    ])
    def test_benchmark_squares(self, lengths, expected):
        assert first_eigenvalue(RectDomain(lengths)) == pytest.approx(expected, abs=1e-3)

    def test_unit_interval(self):
        assert first_eigenvalue(RectDomain((1.0,))) == pytest.approx(math.pi**2, rel=1e-14)

    def test_runtime_under_1ms(self):
        domain = RectDomain((1.3, 1.3))
        first_eigenvalue(domain)  # warm up
        start = time.perf_counter()
        for _ in range(100):
            first_eigenvalue(domain)
        assert (time.perf_counter() - start) / 100 < 1e-3


class TestGrid:
    def test_spacing_excludes_boundary(self):
        g = Grid(RectDomain((1.0,)), (3,))
        assert g.spacing == (0.25,)
        np.testing.assert_allclose(g.axes()[0], [0.25, 0.5, 0.75])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(RectDomain((1.0,)), (2,))

    def test_rejects_axis_above_node_limit(self):
        Grid(RectDomain((1.0,)), (MAX_AXIS_NODES,))
        for counts in [(MAX_AXIS_NODES + 1,), (9, MAX_AXIS_NODES + 1), (20000,)]:
            with pytest.raises(ValueError, match="interior nodes per axis"):
                Grid(RectDomain((1.0,) * len(counts)), counts)

    def test_cell_volume_2d(self):
        g = Grid(RectDomain((1.0, 2.0)), (9, 19))
        assert g.cell_volume == pytest.approx(0.1 * 0.1)


class TestLaplacian:
    def test_symmetry_within_1e12(self):
        for counts in [(25,), (11, 13)]:
            domain = RectDomain((1.0,) * len(counts))
            L = _csc_laplacian(Grid(domain, counts)).toarray()
            assert np.max(np.abs(L - L.T)) <= 1e-12

    def test_eigenfunction_is_discrete_eigenvector(self):
        # sin(k pi x) is an exact eigenvector of the 3-point stencil
        g = Grid(RectDomain((1.0,)), (40,))
        h = g.spacing[0]
        phi, _ = eigenfunction(g, (2,))
        lam_h = (2.0 / h**2) * (1.0 - math.cos(2 * math.pi * h))
        np.testing.assert_allclose(apply_laplacian(g, phi), -lam_h * phi,
                                   rtol=1e-11, atol=1e-11)

    def test_second_order_on_smooth_field(self):
        # truncation error drops by ~4 per refinement (second order)
        def error(nodes):
            g = Grid(RectDomain((1.0,)), (nodes,))
            x = g.axes()[0]
            u = np.sin(math.pi * x) * x**2
            exact = (-math.pi**2 * np.sin(math.pi * x) * x**2
                     + 4 * math.pi * np.cos(math.pi * x) * x
                     + 2 * np.sin(math.pi * x))
            return np.max(np.abs(apply_laplacian(g, u) - exact))

        ratio = error(49) / error(99)
        assert 3.2 < ratio < 4.8

    def test_shape_mismatch(self):
        g = Grid(RectDomain((1.0,)), (10,))
        with pytest.raises(ValueError):
            apply_laplacian(g, np.zeros(11))


def _csc_laplacian(grid: Grid) -> sp.csc_matrix:
    """The reference: the sparse CSC matrix the Laplacian once was.
    apply_laplacian must round exactly as its matrix-vector product does."""
    blocks = [sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(c, c)) / h**2
              for c, h in zip(grid.counts, grid.spacing)]
    if len(blocks) == 1:
        return blocks[0].tocsc()
    return sp.kronsum(blocks[1], blocks[0]).tocsc()


class TestStencilMatchesSparseProduct:
    @pytest.mark.parametrize("lengths,counts", [
        ((1.0,), (7,)), ((1.0,), (401,)), ((3.7,), (2000,)),
        ((1.0, 2.3), (9, 13)), ((1.0, 1.0), (31, 31)), ((0.7, 5.0), (101, 101)),
    ])
    def test_bitwise_equal(self, lengths, counts):
        grid = Grid(RectDomain(lengths), counts)
        ref = _csc_laplacian(grid)
        rng = np.random.default_rng(grid.size)
        for _ in range(3):
            u = rng.standard_normal(grid.shape) * 10.0 ** rng.uniform(-5, 5, grid.shape)
            flat = u.reshape(-1)
            flat[::7], flat[3::11], flat[5::13], flat[6::17] = -0.0, 5e-324, 1e300, -1e300
            with np.errstate(over="ignore", invalid="ignore"):
                got = apply_laplacian(grid, u)
                want = (ref @ u.ravel()).reshape(grid.shape)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestHelmholtz:
    def test_round_trip(self):
        g = Grid(RectDomain((1.0, 1.5)), (12, 17))
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(g.shape)
        for c in (0.0, 1.0, 37.5):
            u = helmholtz_solve(g, c, rhs)
            np.testing.assert_allclose(c * u - apply_laplacian(g, u), rhs,
                                       rtol=1e-10, atol=1e-10)

    def test_refinement_second_order(self):
        # manufactured solution u = sin(pi x): (c - Lap) u = (c + pi^2) u
        def error(nodes):
            g = Grid(RectDomain((1.0,)), (nodes,))
            x = g.axes()[0]
            exact = np.sin(math.pi * x)
            rhs = (2.0 + math.pi**2) * exact
            return np.max(np.abs(helmholtz_solve(g, 2.0, rhs) - exact))

        ratio = error(50) / error(101)
        assert 0.8 * 4 <= ratio <= 1.2 * 4

    def test_negative_c_rejected(self):
        g = Grid(RectDomain((1.0,)), (10,))
        with pytest.raises(ValueError):
            helmholtz_solve(g, -1.0, np.zeros(10))


CLOSED_FORM_GRIDS = [Grid(RectDomain((1.0,)), (401,)),
                     Grid(RectDomain((1.3, 1.5)), (9, 13))]


class TestSineBasisSolve:
    """helmholtz_solve against the discrete spectrum of the 3-/5-point stencil."""

    @pytest.mark.parametrize("grid", CLOSED_FORM_GRIDS, ids=["1d", "2d"])
    @pytest.mark.parametrize("c", [0.0, 2.0, 571.43])
    def test_sine_mode_divided_by_its_eigenvalue(self, grid, c):
        # any solver loses the rounding of a mode's samples times the condition
        # number (c + lam_max)/(c + lam_1), ~6.5e4 at 401 nodes and c = 0; above
        # k ~ 100 that exceeds 1e-12
        modes = [(1,), (7,), (100,)] if grid.domain.dims == 1 else \
            [(1, 1), (2, 5), (9, 1), (4, 13), (9, 13)]
        for k in modes:
            # sin(k pi x_j / l) at x_j = j l / (n + 1), the argument reduced
            # mod 2 pi in integers so that high modes are sampled to rounding
            factors = [np.sin(math.pi / (n + 1) * (ki * np.arange(1, n + 1) % (2 * n + 2)))
                       for ki, n in zip(k, grid.counts)]
            phi = factors[0] if len(factors) == 1 else np.outer(*factors)
            lam = sum((2.0 / h * math.sin(ki * math.pi * h / (2.0 * l))) ** 2
                      for ki, h, l in zip(k, grid.spacing, grid.domain.lengths))
            expected = phi / (c + lam)
            u = helmholtz_solve(grid, c, phi)
            assert np.max(np.abs(u - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("grid", CLOSED_FORM_GRIDS, ids=["1d", "2d"])
    @pytest.mark.parametrize("c", [0.0, 2.0, 571.43])
    def test_residual_of_random_rhs(self, grid, c):
        rhs = np.random.default_rng(11).standard_normal(grid.shape)
        u = helmholtz_solve(grid, c, rhs)
        op = c * np.eye(grid.size) - _csc_laplacian(grid).toarray()
        res = np.max(np.abs(op @ u.ravel() - rhs.ravel()))
        h = min(grid.spacing)
        assert res <= 1e-12 * (c + 8.0 / h**2) * np.max(np.abs(u))

    @pytest.mark.parametrize("grid", CLOSED_FORM_GRIDS, ids=["1d", "2d"])
    def test_smallest_discrete_eigenvalue_below_continuum(self, grid):
        lam1_h = sum(float(np.min(lam)) for _, lam in grid.sine_basis)
        assert lam1_h < first_eigenvalue(grid.domain)
        assert lam1_h == pytest.approx(first_eigenvalue(grid.domain), rel=0.05)

    def test_equal_axes_share_one_basis(self):
        (s1, lam1), (s2, lam2) = Grid(RectDomain((1.0, 1.0)), (151, 151)).sine_basis
        assert s2 is s1 and lam2 is lam1

    @pytest.mark.parametrize("lengths,counts", [((1.0, 1.0), (151, 149)),
                                                ((1.0, 2.0), (151, 151))],
                             ids=["counts", "lengths"])
    def test_rectangular_axes_get_their_own_basis(self, lengths, counts):
        grid = Grid(RectDomain(lengths), counts)
        (s1, lam1), (s2, lam2) = grid.sine_basis
        assert s2 is not s1 and lam2 is not lam1
        want = Grid(RectDomain(lengths[1:]), counts[1:]).sine_basis[0]
        assert s2.tobytes() == want[0].tobytes() and lam2.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("c", [3, 4, 101, 151, 201, 401, 2000])
    def test_basis_matches_fmod_construction(self, c):
        # the reference reduces the sine argument by fmod of the float
        # products k*j, as the basis was built before its sine table
        k = np.arange(1, c + 1)
        want = np.outer(k.astype(float), k)
        np.fmod(want, 2 * (c + 1), out=want)
        want *= math.pi / (c + 1)
        np.sin(want, out=want)
        want *= math.sqrt(2.0 / (c + 1))
        ((s, _),) = Grid(RectDomain((1.7,)), (c,)).sine_basis
        assert s.dtype == want.dtype and s.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", CLOSED_FORM_GRIDS, ids=["1d", "2d"])
    def test_basis_symmetric_and_self_inverse(self, grid):
        for s, _ in grid.sine_basis:
            np.testing.assert_array_equal(s, s.T)
            assert np.max(np.abs(s @ s - np.eye(len(s)))) <= 1e-13


class TestQuadrature:
    def test_eigenfunction_normalized(self):
        g = Grid(RectDomain((1.0, 1.3)), (30, 40))
        phi, ev = eigenfunction(g, (1, 2))
        assert l2_norm(g, phi) == pytest.approx(1.0, rel=1e-13)
        assert ev == pytest.approx((math.pi / 1.0)**2 + (2 * math.pi / 1.3)**2)

    def test_eigenfunctions_orthogonal(self):
        g = Grid(RectDomain((1.0,)), (64,))
        phi1, _ = eigenfunction(g, (1,))
        phi2, _ = eigenfunction(g, (2,))
        assert abs(l2_inner(g, phi1, phi2)) < 1e-12

    def test_vector_field_inner(self):
        g = Grid(RectDomain((1.0,)), (10,))
        a = np.ones((2,) + g.shape)
        # two unit components integrate to 2 * interior measure
        assert l2_inner(g, a, a) == pytest.approx(2 * 10 * g.cell_volume)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_norm_scales_linearly(self, scale):
        g = Grid(RectDomain((1.0,)), (15,))
        u = np.sin(math.pi * g.axes()[0])
        assert l2_norm(g, scale * u) == pytest.approx(scale * l2_norm(g, u), rel=1e-12)
