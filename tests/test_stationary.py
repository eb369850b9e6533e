import math

import numpy as np
import pytest

from rdnet import presets, stationary
from rdnet.geometry import (Grid, RectDomain, apply_laplacian, eigenfunction,
                            l2_inner, l2_norm)
from rdnet.model import Activation, Mode, stationarity_map
from rdnet.stationary import (StationaryProblem, energy_eval, energy_gradient,
                              find_stationary_multiplicity, fixed_point_solve,
                              residual, statement1_closed_form,
                              statement1_profile, variational_minimize)
from test_geometry import _csc_laplacian


def _energy_problem(counts, c0, source=0.0, weight=0.0, name="identity", params=None):
    """The scalar problem with energy terms c0, source and weight: D = 1,
    C = c0, A = weight, B = 0 and J = source, which C/D, J/D and (A+B)/D
    give back exactly."""
    domain = RectDomain((1.0,) * len(counts))
    mode = Mode([[1.0]], [[c0]], [[weight]], [[0.0]], [source], domain)
    act = Activation.uniform(name, params or {}, 1.0, 1)
    return StationaryProblem(mode, act, Grid(domain, counts))


def _preconditioned_error(jacobian, v, dense_p, dense_j, rng):
    """Largest relative 2-norm error, over three random fields x, of the
    preconditioned action x + K(v) P^-1 x that jacobian(v) gives Newton
    against dense_j @ solve(dense_p, x), and of its P^-1 against the
    dense solve."""
    pointwise, p_inv = jacobian(v)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal(v.shape)
        p_x = np.linalg.solve(dense_p, x.ravel())
        for got, want in ((x + pointwise(p_inv(x)), dense_j @ p_x), (p_inv(x), p_x)):
            worst = max(worst, np.linalg.norm(got.ravel() - want) / np.linalg.norm(want))
    return worst


class TestClosedFormProfile:
    def test_boundary_values_exact_zero(self):
        assert statement1_profile(0.0) == 0.0
        assert statement1_profile(1.0) == 0.0

    def test_midpoint_value(self):
        # frozen evaluation of the cosh form; the flat interior plateau sits
        # within 1e-6 of the lumped equilibrium 200/357
        assert statement1_profile(0.5) == pytest.approx(0.5602240888858194,
                                                        abs=1e-12)
        assert abs(statement1_profile(0.5) - 200.0 / 357.0) < 1e-6

    def test_satisfies_ode(self):
        # u'' = 1785 u - 1000 checked by central differences off the layers
        x = np.linspace(0.3, 0.7, 201)
        h = x[1] - x[0]
        u = statement1_profile(x)
        upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        np.testing.assert_allclose(upp, 1785 * u[1:-1] - 1000, atol=1e-3)

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            statement1_closed_form(Grid(RectDomain((2.0,)), (10,)))


class TestFixedPoint:
    def test_matches_closed_form(self):
        problem = presets.boundary_layer_problem(401)
        y, report = fixed_point_solve(problem)
        h = problem.grid.spacing[0]
        exact = statement1_closed_form(problem.grid)
        assert np.max(np.abs(y[0] - exact)) <= max(1e-4, 5 * h**2)
        assert report.residual < 1e-6

    def test_zero_problem_stays_zero(self):
        mode = Mode([[0.1]], [[1.0]], [[0.1]], [[0.1]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (21,)))
        y, report = fixed_point_solve(problem)
        assert np.array_equal(y, problem.zeros())
        assert report.iterations == 1
        assert report.error_bound == math.inf   # no contraction estimate yet

    def test_residual_small_at_solution(self):
        problem = presets.linear_variational_problem(101)
        y, _ = fixed_point_solve(problem, tol=1e-12)
        assert residual(problem, y) < 1e-9

    def test_error_bound_covers_error(self):
        # the map is affine here, so the bound is the geometric tail of the
        # updates and tight: tolerances keep the error far above rounding
        problem = presets.boundary_layer_problem(401)
        exact, _ = fixed_point_solve(problem, tol=1e-13)
        for tol in (1e-2, 1e-4, 1e-6):
            y, report = fixed_point_solve(problem, tol=tol)
            assert report.iterations > 1
            assert np.max(np.abs(y - exact)) <= report.error_bound < math.inf

    def test_iteration_budget_exhausted(self, monkeypatch):
        # the iteration stops at DEFAULT_MAX_ITER; this map needs 5 at tol 1e-8
        monkeypatch.setattr(stationary, "DEFAULT_MAX_ITER", 3)
        problem = presets.linear_variational_problem(11)
        with pytest.raises(stationary.DivergenceError,
                           match="did not converge in 3 iterations"):
            fixed_point_solve(problem)


class TestEnergy:
    def test_gradient_matches_fd(self):
        # directional derivatives against central finite differences of E
        problem = _energy_problem((31,), c0=2.0, source=1.0, weight=10.0,
                                  name="piecewise_cbrt",
                                  params={"a_weight": 1.0, "d": 0.1, "mu1": 12.0})
        g = problem.grid
        rng = np.random.default_rng(3)
        u = 0.5 * np.sin(math.pi * g.axes()[0])
        grad = energy_gradient(problem, u)
        for _ in range(5):
            v = rng.standard_normal(g.shape)
            eps = 1e-6
            fd = (energy_eval(problem, u + eps * v)
                  - energy_eval(problem, u - eps * v)) / (2 * eps)
            analytic = float(np.sum(grad * v)) * g.cell_volume
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9)

    def test_quadratic_minimizer_solves_ode(self):
        # 0.1 u'' = 1.98 u - 0.1 via the energy route
        problem = presets.linear_variational_problem(401)
        u, _ = variational_minimize(problem, tol=1e-10)
        exact = presets.linear_variational_profile(problem.grid.axes()[0])
        assert np.max(np.abs(u - exact)) < 1e-4

    def test_cross_solver_agreement(self):
        problem = presets.linear_variational_problem(201)
        u_var, _ = variational_minimize(problem, tol=1e-10)
        u_fp, _ = fixed_point_solve(problem, tol=1e-12)
        assert np.max(np.abs(u_var - u_fp[0])) < 1e-8

    def test_registry_activation_minimizer_unchanged(self):
        # frozen from the version that rebuilt the callables on every call
        problem = _energy_problem((41,), c0=2.0, source=1.0, weight=0.8,
                                  name="scaled_sine",
                                  params={"a": 0.1, "b": 0.3, "c": 0.5})
        u, report = variational_minimize(problem, tol=1e-10)
        assert report.iterations == 8
        assert report.energy == pytest.approx(-0.04276130540698486, rel=1e-12)
        assert float(u.max()) == pytest.approx(0.11818421633829695, rel=1e-12)
        assert float(u.sum()) == pytest.approx(3.3257755710878025, rel=1e-12)
        assert float(u[7]) == pytest.approx(0.07367607233466503, rel=1e-12)

    def test_descent_hands_over_to_newton(self):
        # energy ties at the rounding floor used to be accepted as descent
        # steps, so the descent ran its whole budget without reaching tol
        problem = _energy_problem((61,), c0=2.0, source=0.5, weight=10.0,
                                  name="piecewise_cbrt",
                                  params={"a_weight": 1.0, "d": 0.1, "mu1": 12.0})
        g = problem.grid
        for tol in (1e-8, 1e-10):
            u, report = variational_minimize(problem, tol=tol)
            assert report.iterations < 10_000
            assert report.grad_norm <= tol
            assert l2_norm(g, energy_gradient(problem, u)) <= tol

    @pytest.mark.parametrize("counts", [(61,), (9, 11)], ids=["1d", "2d"])
    def test_polish_action_is_the_dense_formula(self, monkeypatch, counts):
        # every Newton step of the polish solves with (I + K P^-1), P^-1 the
        # Helmholtz solve: it is diag(c0 - weight f') - Lap_h times P^-1,
        # P = c0 I - Lap_h, both built densely from the sparse reference
        problem = _energy_problem(counts, c0=2.0, source=0.5, weight=10.0,
                                  name="piecewise_cbrt",
                                  params={"a_weight": 1.0, "d": 0.1, "mu1": 12.0})
        grid = problem.grid
        dense_p = 2.0 * np.eye(grid.size) - _csc_laplacian(grid).toarray()
        f = lambda v: 10.0 * problem.activation.fn(v)
        rng = np.random.default_rng(5)
        newton, errors = stationary._newton, []

        def checking_newton(grid, F, jacobian, y, tol, roots=()):
            def checked(v):
                dense_j = dense_p - np.diag(stationary._slope(f, v).ravel())
                errors.append(_preconditioned_error(jacobian, v, dense_p, dense_j, rng))
                return jacobian(v)
            return newton(grid, F, checked, y, tol, roots)

        monkeypatch.setattr(stationary, "_newton", checking_newton)
        variational_minimize(problem, tol=1e-10)
        assert errors and max(errors) <= 1e-12

    def test_unknown_registry_activation_fails_up_front(self):
        with pytest.raises(KeyError):
            _energy_problem((11,), c0=1.0, weight=1.0, name="nope")

    @pytest.mark.parametrize("name, params, d, w", [
        ("identity", {}, 0.1, 0.02),
        ("affine", {"a": 0.05, "b": -0.3}, 0.001, 0.3),
        ("scaled_sine", {"a": 0.1, "b": 0.3, "c": 0.5}, 0.2, 0.8),
        # the activation's own d and a_weight differ from the mode's D and A
        ("piecewise_cbrt", {"d": 0.1, "a_weight": 1.0, "mu1": 12.0}, 0.2, 0.5),
    ], ids=["identity", "affine", "scaled_sine", "piecewise_cbrt"])
    def test_gradient_is_residual_over_diffusion(self, name, params, d, w):
        mode = Mode([[d]], [[1.5]], [[w]], [[0.0]], [0.3], RectDomain((1.0,)))
        act = Activation.uniform(name, params, 1.0, 1)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (41,)))
        grid = problem.grid
        x = grid.axes()[0]
        u = 1.5 * np.sin(math.pi * x) - 0.4 * np.sin(3 * math.pi * x)   # cbrt tails too
        grad = energy_gradient(problem, u)
        scaled = -(d * apply_laplacian(grid, u)
                   + stationarity_map(mode, act, u[None])[0]) / d
        assert l2_norm(grid, grad - scaled) <= 1e-12 * l2_norm(grid, scaled)

    def test_coupling_above_decay_minimizes(self):
        # W = 1.5 > C = 1, but -Lap_h + (C - W)/D stays positive definite
        mode = Mode([[0.1]], [[1.0]], [[1.0]], [[0.5]], [0.1], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (101,)))
        u, _ = variational_minimize(problem, tol=1e-10)
        fp, _ = fixed_point_solve(problem, tol=1e-12)
        assert np.max(np.abs(u - fp[0])) <= 1e-8

    def test_vector_problem_rejected(self):
        mode = Mode(np.eye(2) * 0.1, np.eye(2), np.zeros((2, 2)),
                    np.zeros((2, 2)), np.zeros(2), RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 2)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (11,)))
        with pytest.raises(ValueError, match="scalar"):
            energy_eval(problem, problem.grid.zeros())
        with pytest.raises(ValueError, match="scalar"):
            energy_gradient(problem, problem.grid.zeros())

    @pytest.mark.parametrize("n, name", [(2, "identity"), (1, "saturation")],
                             ids=["vector", "saturation"])
    def test_minimize_rejects_before_iterating(self, monkeypatch, n, name):
        # neither has an energy: a vector problem, and an activation with no
        # closed antiderivative; both fail before the first gradient
        def no_iteration(*args, **kwargs):
            raise AssertionError("minimization iterated")

        monkeypatch.setattr(stationary, "energy_gradient", no_iteration)
        monkeypatch.setattr(stationary, "energy_eval", no_iteration)
        mode = Mode(np.eye(n) * 0.1, np.eye(n), np.eye(n), np.zeros((n, n)),
                    np.full(n, 0.1), RectDomain((1.0,)))
        act = Activation.uniform(name, {}, 1.0, n)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (11,)))
        with pytest.raises(ValueError, match="scalar|antiderivative"):
            variational_minimize(problem)

    def test_antiderivative_registry(self):
        for name, params in [("affine", {"a": 2.0, "b": 1.0}),
                             ("identity", {}),
                             ("scaled_sine", {"a": 1.0, "b": 0.5, "c": 0.1})]:
            act = Activation.uniform(name, params, 1.0, 1)
            f, F = act.fn, act.antiderivative
            s = np.linspace(-2, 2, 101)
            eps = 1e-6
            fd = (F(s + eps) - F(s - eps)) / (2 * eps)
            np.testing.assert_allclose(fd, f(s), rtol=1e-6, atol=1e-6)
        for name in ("saturation", "tabulated"):
            params = {"x": [0.0, 1.0], "y": [0.0, 1.0]} if name == "tabulated" else {}
            assert Activation.uniform(name, params, 1.0, 1).antiderivative is None


class TestMultiplicity:
    def test_three_solutions_from_symmetric_inits(self):
        problem = presets.multiplicity_problem(101)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        inits = [0.5 / sup * phi1[None], -0.5 / sup * phi1[None], problem.zeros()]
        sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
        assert len(sols) >= 3
        h = grid.spacing[0]
        d = float(problem.mode.D[0, 0])
        for sol in sols:
            scale = d * problem.mode.lambda1 * max(l2_norm(grid, sol), 1.0)
            assert residual(problem, sol) <= 5 * h**2 * scale
        # one solution is zero, the other two mirror each other
        norms = sorted(l2_norm(grid, s) for s in sols)
        assert norms[0] < 1e-6
        assert norms[-1] == pytest.approx(norms[-2], rel=1e-6)

    @pytest.mark.parametrize("rel", [1e-12, -1e-12])
    def test_mirror_roots_keep_their_order_when_energies_tie(self, monkeypatch, rel):
        # the +-0.721 roots' energies agree to about 1e-11 relative; set the
        # negative root's to the positive root's times 1 + rel, on either side
        problem = presets.multiplicity_problem(101)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        inits = [0.5 / sup * phi1[None], -0.5 / sup * phi1[None], problem.zeros()]
        plus, = [s for s in find_stationary_multiplicity(problem, inits, tol=1e-6)
                 if l2_inner(grid, s[0], phi1) > 0.1]
        e_plus = energy_eval(problem, plus[0])
        assert e_plus < 0

        def nudged(p, u):
            negative = l2_inner(grid, u, phi1) < -0.1
            return e_plus * (1.0 + rel) if negative else energy_eval(p, u)
        monkeypatch.setattr(stationary, "energy_eval", nudged)
        sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
        projections = [l2_inner(grid, s[0], phi1) for s in sols]
        assert len(sols) == 3 and sols[0].tobytes() == plus.tobytes()
        assert projections[1] < -0.1 and abs(projections[2]) < 1e-6

    def test_scaled_eigenfunctions_near_stationary(self):
        problem = presets.multiplicity_problem(201)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        h = grid.spacing[0]
        d = float(problem.mode.D[0, 0])
        for t in np.linspace(-1.0, 1.0, 9):
            field = (t / sup * phi1)[None]
            scale = d * problem.mode.lambda1 * max(l2_norm(grid, field), 1e-12)
            assert residual(problem, field) <= 5 * h**2 * scale

    def test_deflation_converges_at_201_nodes(self):
        problem = presets.multiplicity_problem(201)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        inits = [0.5 / sup * phi1[None], -0.5 / sup * phi1[None], problem.zeros()]
        sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
        assert len(sols) == 3
        assert max(residual(problem, s) for s in sols) <= 1e-10
        norms = sorted(l2_norm(grid, s) for s in sols)
        assert norms[0] < 1e-12
        # the converged discrete solutions; Picard stopped at 0.720708
        assert norms[1] == pytest.approx(0.721045, abs=1e-6)
        assert norms[2] == pytest.approx(0.721045, abs=1e-6)
        assert np.max(np.abs(sols[0] + sols[1])) < 1e-9

    @pytest.mark.parametrize("case", [1, 2])
    def test_unique_solution_modes(self, case):
        network = presets.switched_benchmark(case)
        for mode in network.modes:
            grid = Grid(mode.domain, (15, 15))
            problem = StationaryProblem(mode, network.activation, grid)
            phi1, _ = eigenfunction(grid, (1, 1))
            amp = np.random.default_rng(case).uniform(-1.0, 1.0, problem.n)
            inits = [problem.zeros(), np.stack([a * phi1 for a in amp])]
            sols = find_stationary_multiplicity(problem, inits, tol=1e-10)
            reference, _ = fixed_point_solve(problem, tol=1e-13)
            assert len(sols) == 1
            assert np.max(np.abs(sols[0] - reference)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_search_action_is_the_dense_formula(self, monkeypatch, n):
        # every Newton step of the search solves with (I + K P^-1): it is
        # kron(D, Lap_h) - kron(C, I) + kron(W, I) diag(slope) times P^-1,
        # P = kron(D, Lap_h) - kron(C, I), built densely from the sparse
        # reference
        if n == 1:
            problem = presets.multiplicity_problem(41)
        else:
            # an asymmetric A, so every block of kron(W, I) is its own
            network = presets.switched_benchmark(1)
            m = network.modes[0]
            mode = Mode(m.D, m.C, [[0.5, 0.3], [-0.2, 0.4]], m.B, m.J, m.domain)
            problem = StationaryProblem(mode, network.activation, Grid(mode.domain, (7, 9)))
        grid, eye = problem.grid, np.eye(problem.grid.size)
        dense_p = (np.kron(problem.mode.D, _csc_laplacian(grid).toarray())
                   - np.kron(problem.mode.C, eye))
        coupling = np.kron(problem.W, eye)
        rng = np.random.default_rng(6)
        newton, errors = stationary._newton, []

        def checking_newton(grid, F, jacobian, y, tol, roots=()):
            def checked(v):
                slope = stationary._slope(problem.activation, v.reshape(n, -1)).ravel()
                errors.append(_preconditioned_error(jacobian, v, dense_p,
                                                    dense_p + coupling * slope, rng))
                return jacobian(v)
            return newton(grid, F, checked, y, tol, roots)

        monkeypatch.setattr(stationary, "_newton", checking_newton)
        phi1, _ = eigenfunction(grid, (1,) * grid.domain.dims)
        start = 0.5 / float(np.max(np.abs(phi1))) * np.stack([phi1] * n)
        find_stationary_multiplicity(problem, [start, -start, problem.zeros()])
        assert len(errors) > 3 and max(errors) <= 1e-12

    def test_known_root_start_adds_nothing(self, monkeypatch):
        problem = presets.multiplicity_problem(101)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        roots = find_stationary_multiplicity(problem, [0.5 / sup * phi1[None]])
        assert len(roots) == 3
        runs = []
        newton = stationary._newton
        monkeypatch.setattr(stationary, "_newton",
                            lambda *a, **k: runs.append(a[5][:]) or newton(*a, **k))
        sols = find_stationary_multiplicity(problem, [roots[0], roots[0]])
        # one run from the first start, none once the start itself is known
        assert len(sols) == 1 and runs == [[]]
        assert np.max(np.abs(sols[0] - roots[0])) < 1e-9

    def test_failing_deflated_runs_stall_out(self, monkeypatch):
        problem = presets.multiplicity_problem(201)
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        inits = [0.5 / sup * phi1[None], -0.5 / sup * phi1[None], problem.zeros()]
        runs = []   # (Jacobian evaluations, stall message or None) per run
        newton = stationary._newton

        def counting(grid, F, jacobian, y, tol, roots=()):
            calls = []
            counted = lambda v: calls.append(1) or jacobian(v)
            try:
                sol = newton(grid, F, counted, y, tol, roots)
            except stationary.DivergenceError as exc:
                runs.append((len(calls), str(exc)))
                raise
            runs.append((len(calls), None))
            return sol

        monkeypatch.setattr(stationary, "_newton", counting)
        sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
        norms = sorted(l2_norm(grid, s) for s in sols)
        assert norms[0] < 1e-12
        assert norms[1:] == pytest.approx([0.721045, 0.721045], abs=1e-6)
        assert sum(steps for steps, _ in runs) <= 55
        assert sorted(steps for steps, err in runs if err is None) == [2, 8, 14]
        stalled = [(steps, err) for steps, err in runs if err is not None]
        assert len(stalled) == 2
        stall_step = stationary.NEWTON_PATIENCE + 3
        for steps, err in stalled:
            assert steps == stall_step and f"stalled at step {stall_step}" in err

    def test_former_newton_cap_inputs_solve(self):
        # 7 x 143 nodes x 2 components, 2,002 unknowns, and 3 x 667 nodes were
        # refused while Newton's Jacobian was dense; both now solve, to the
        # fixed-point root
        network = presets.switched_benchmark(1)
        mode = network.modes[0]
        problem = StationaryProblem(mode, network.activation, Grid(mode.domain, (7, 143)))
        sols = find_stationary_multiplicity(problem, [problem.zeros()], tol=1e-10)
        reference, _ = fixed_point_solve(problem, tol=1e-13)
        assert len(sols) == 1
        assert np.max(np.abs(sols[0] - reference)) <= 1e-10
        problem = _energy_problem((3, 667), c0=1.0, source=1.0)
        u, report = variational_minimize(problem, tol=1e-10)
        reference, _ = fixed_point_solve(problem, tol=1e-13)
        assert report.grad_norm <= 1e-10
        assert np.max(np.abs(u - reference[0])) <= 1e-10

    def test_sorted_by_norm_without_antiderivative(self):
        # saturation has no closed antiderivative, so no energy to sort by;
        # W = 3 > C + D lambda1 = 1.99, so 0 and +-u* are all stationary
        mode = Mode([[0.1]], [[1.0]], [[3.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("saturation", {}, 1.0, 1)
        problem = StationaryProblem(mode, act, Grid(mode.domain, (51,)))
        grid = problem.grid
        phi1, _ = eigenfunction(grid, (1,))
        sup = float(np.max(np.abs(phi1)))
        inits = [2.0 / sup * phi1[None], -2.0 / sup * phi1[None], problem.zeros()]
        sols = find_stationary_multiplicity(problem, inits)
        assert len(sols) == 3
        assert max(residual(problem, s) for s in sols) <= 1e-10
        norms = [l2_norm(grid, s) for s in sols]
        # found last, zero comes first: ordered by norm, not by discovery
        assert norms[0] < 1e-12 and norms[0] <= norms[1] <= norms[2]
        assert norms[2] == pytest.approx(norms[1], rel=1e-12)
        assert np.max(np.abs(sols[1] + sols[2])) < 1e-9

    def test_requires_inits(self):
        problem = presets.multiplicity_problem(11)
        with pytest.raises(ValueError):
            find_stationary_multiplicity(problem, [])


class TestGmres:
    @staticmethod
    def _system(shape=(2, 4, 5)):
        # a random well-conditioned operator on fields of the given shape
        rng = np.random.default_rng(8)
        size = math.prod(shape)
        a = np.eye(size) + 0.3 * rng.standard_normal((size, size)) / math.sqrt(size)
        return (lambda v: (a @ v.ravel()).reshape(v.shape)), a, rng.standard_normal(shape)

    def test_matches_dense_solve(self):
        apply, a, b = self._system()
        x = stationary._gmres(apply, b)
        assert x.shape == b.shape
        want = np.linalg.solve(a, b.ravel())
        assert np.linalg.norm(x.ravel() - want) <= 1e-11 * np.linalg.norm(want)
        assert np.linalg.norm(apply(x) - b) <= 2 * stationary.GMRES_TOL * np.linalg.norm(b)

    def test_zero_rhs_gives_zero(self):
        apply, _, b = self._system()
        assert np.array_equal(stationary._gmres(apply, 0.0 * b), np.zeros(b.shape))

    def test_exhausted_budget_raises(self, monkeypatch):
        # the random system needs 21 iterations; neither GMRES nor a
        # Newton polish built on it may hand back an unconverged step
        monkeypatch.setattr(stationary, "GMRES_MAX_ITER", 3)
        apply, _, b = self._system()
        with pytest.raises(stationary.DivergenceError, match="GMRES did not converge in 3"):
            stationary._gmres(apply, b)
        monkeypatch.setattr(stationary, "GMRES_MAX_ITER", 1)
        # its descent stalls and hands over to Newton (see above)
        problem = _energy_problem((61,), c0=2.0, source=0.5, weight=10.0,
                                  name="piecewise_cbrt",
                                  params={"a_weight": 1.0, "d": 0.1, "mu1": 12.0})
        with pytest.raises(stationary.DivergenceError, match="GMRES did not converge in 1"):
            variational_minimize(problem, tol=1e-10)
