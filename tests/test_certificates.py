import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet import presets
from rdnet.certificates import (GAMMA_PROBE, _simplex_lattice, cg_check_C1,
                                cg_margin_matrix, cg_phi_tilde, cg_rates,
                                check_corollary34, check_uniqueness_A3,
                                margin_matrix, mode_margin_matrix,
                                search_certificate, solve_rate_equation,
                                verify_certificate)
from rdnet.geometry import RectDomain
from rdnet.model import Activation, CGSystem, Mode, SwitchedNetwork

# frozen margins of the benchmark feasible points, from an independent
# assembly of the combined matrix
CASE_MARGINS = {1: -1.07476163705326, 2: -2.6684826231351866, 3: -0.6105468087346873}


class TestModeMarginMatrix:
    def test_case1_mode1_entries(self):
        net = presets.switched_benchmark(1)
        Q = mode_margin_matrix(net.modes[0], net.activation.G, 0.38, 1.00001,
                               3.5, net.Psi)
        assert Q[0, 0] == pytest.approx(-1.22476565881738, abs=1e-10)
        assert Q[1, 1] == pytest.approx(-1.4206097468391674, abs=1e-10)
        assert Q[0, 1] == pytest.approx(-1.8e-7, abs=1e-12)

    def test_exactly_symmetric(self):
        net = presets.switched_benchmark(2)
        Q = mode_margin_matrix(net.modes[1], net.activation.G, 0.44, 1.00001,
                               3.5, net.Psi)
        assert np.array_equal(Q, Q.T)

    def test_rejects_bad_parameters(self):
        net = presets.switched_benchmark(1)
        with pytest.raises(ValueError):
            mode_margin_matrix(net.modes[0], net.activation.G, -0.1, 1.00001,
                               3.5, net.Psi)


class TestVerifyCertificate:
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_benchmark_cases_feasible(self, case):
        point = presets.CASE_POINTS[case]
        net = presets.switched_benchmark(case)
        cert = verify_certificate(net, point.beta, point.gamma)
        assert cert.feasible
        assert cert.margin == pytest.approx(CASE_MARGINS[case], abs=1e-9)
        assert cert.rate == pytest.approx(point.rate)
        # the side constraint gamma < min eig of the switching offset fails
        # for all three reference points and must be reported as such
        assert cert.theorem_constraint_ok is False

    def test_rate_orderings(self):
        rates = {}
        for case in (1, 2, 3):
            point = presets.CASE_POINTS[case]
            net = presets.switched_benchmark(case)
            rates[case] = verify_certificate(net, point.beta, point.gamma).rate
        assert rates[2] > rates[1]   # larger diffusion, faster certified rate
        assert rates[3] > rates[1]   # shorter delay, faster certified rate

    def test_infeasible_has_no_rate(self):
        net = presets.switched_benchmark(1)
        cert = verify_certificate(net, (1.0, 0.0, 0.0), 5.0)
        assert not cert.feasible
        assert cert.rate is None
        assert cert.margin > 0

    def test_rejects_off_simplex_beta(self):
        net = presets.switched_benchmark(1)
        with pytest.raises(ValueError):
            verify_certificate(net, (0.5, 0.5, 0.5), 0.38)

    @given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_margin_monotone_in_gamma(self, g1, g2):
        net = presets.switched_benchmark(1)
        lo, hi = sorted((g1, g2))
        m_lo = verify_certificate(net, (0.5676, 0.3633, 0.0691), lo).margin
        m_hi = verify_certificate(net, (0.5676, 0.3633, 0.0691), hi).margin
        assert m_hi >= m_lo - 1e-12

    def test_margin_monotone_in_q(self):
        net = presets.switched_benchmark(1)
        beta = (0.5676, 0.3633, 0.0691)
        m1 = verify_certificate(net, beta, 0.38, q=1.00001).margin
        m2 = verify_certificate(net, beta, 0.38, q=1.5).margin
        assert m2 > m1


class TestSearchCertificate:
    def test_beats_reference_point(self):
        net = presets.switched_benchmark(1)
        cert = search_certificate(net, beta_step=0.1,
                                  honor_theorem_constraint=False)
        assert cert.feasible
        assert cert.gamma >= 0.38
        assert cert.rate >= 0.19

    def test_honoring_mode_caps_gamma(self):
        net = presets.switched_benchmark(1)
        cert = search_certificate(net, beta_step=0.2, honor_theorem_constraint=True)
        psi_min = float(np.linalg.eigvalsh(net.Psi).min())
        assert cert.gamma <= psi_min
        assert cert.theorem_constraint_ok or not cert.feasible

    def test_search_matrix_at_result_is_negative(self):
        net = presets.switched_benchmark(3)
        cert = search_certificate(net, beta_step=0.25,
                                  honor_theorem_constraint=False)
        M = margin_matrix(net, cert.beta, cert.gamma, cert.q)
        assert np.linalg.eigvalsh(M).max() < 0

    # q must be rejected before the lattice's closed form, which divides by q
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_q_at_most_one_rejected_up_front(self, q):
        net = presets.switched_benchmark(1)
        with pytest.raises(ValueError, match="q must exceed 1"):
            search_certificate(net, q=q)


def _bisection_reference(network, beta_step, honor, gamma_cap=10.0, gamma_tol=1e-6):
    """The per-weight bisection on gamma that the closed form replaced."""
    psi_min = float(np.linalg.eigvalsh(network.Psi).min())
    cap = psi_min * (1.0 - 1e-9) if honor else gamma_cap
    tiny = min(gamma_tol, cap / 2)
    best = least = None
    for beta in _simplex_lattice(network.N, round(1.0 / beta_step)):
        cert = verify_certificate(network, beta, tiny)
        if not cert.feasible:
            if least is None or cert.margin < least.margin:
                least = cert
            continue
        lo, hi = tiny, cap
        if verify_certificate(network, beta, hi).feasible:
            lo = hi
        while hi - lo > gamma_tol:
            mid = 0.5 * (lo + hi)
            if verify_certificate(network, beta, mid).feasible:
                lo = mid
            else:
                hi = mid
        cert = verify_certificate(network, beta, lo)
        if best is None or (cert.gamma, -cert.margin) > (best.gamma, -best.margin):
            best = cert
    return least if best is None else best


def _with(net, modes=None, tau_max=None):
    return SwitchedNetwork(net.modes if modes is None else modes, net.activation,
                           net.tau_max if tau_max is None else tau_max, net.Psi,
                           net.q, net.gamma)


class TestClosedFormSearch:
    @pytest.mark.parametrize("honor", [False, True])
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_matches_bisection_reference(self, case, honor):
        net = presets.switched_benchmark(case)
        cert = search_certificate(net, beta_step=0.1, honor_theorem_constraint=honor)
        ref = _bisection_reference(net, 0.1, honor)
        assert cert.beta == ref.beta
        assert ref.gamma <= cert.gamma <= ref.gamma + 1e-6
        assert cert.feasible
        assert verify_certificate(net, cert.beta, cert.gamma, cert.q).feasible

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_optimal_on_lattice(self, case):
        net = presets.switched_benchmark(case)
        cert = search_certificate(net, beta_step=0.1, honor_theorem_constraint=False,
                                  gamma_cap=10.0)
        assert cert.feasible and cert.gamma < 10.0
        assert not verify_certificate(net, cert.beta, cert.gamma * (1 + 1e-6)).feasible

    def test_infeasible_everywhere_returns_least_margin(self):
        net = presets.switched_benchmark(1)
        # a strong self-excitation in every mode leaves no feasible weight
        modes = tuple(Mode(m.D, m.C, m.A + 5.0 * np.eye(2), m.B, m.J, m.domain)
                      for m in net.modes)
        net = _with(net, modes=modes)
        cert = search_certificate(net, beta_step=0.1, honor_theorem_constraint=False)
        assert cert.feasible is False
        assert cert.gamma == GAMMA_PROBE
        assert cert == _bisection_reference(net, 0.1, honor=False)
        margins = [verify_certificate(net, b, GAMMA_PROBE).margin
                   for b in _simplex_lattice(net.N, 10)]
        assert cert.margin == min(margins)

    @pytest.mark.parametrize("honor", [False, True])
    def test_zero_delay_returns_cap(self, honor):
        net = _with(presets.switched_benchmark(1), tau_max=0.0)
        cert = search_certificate(net, beta_step=0.1, honor_theorem_constraint=honor,
                                  gamma_cap=3.0)
        psi_min = float(np.linalg.eigvalsh(net.Psi).min())
        assert cert.feasible
        assert cert.gamma == (psi_min * (1.0 - 1e-9) if honor else 3.0)

    def test_random_networks_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n, N = 2, int(rng.integers(1, 4))
            modes = tuple(Mode(np.diag(rng.uniform(0.05, 0.2, n)),
                               np.diag(rng.uniform(0.2, 2.0, n)),
                               rng.uniform(-0.5, 0.5, (n, n)),
                               rng.uniform(-0.5, 0.5, (n, n)),
                               np.zeros(n), RectDomain((1.0,))) for _ in range(N))
            act = Activation.uniform("affine", {"a": 0.5, "b": 0.0},
                                     float(rng.uniform(0.3, 1.0)), n)
            net = SwitchedNetwork(modes, act, tau_max=float(rng.uniform(0.0, 2.0)),
                                  Psi=0.5 * np.eye(n))
            cert = search_certificate(net, beta_step=0.25, honor_theorem_constraint=False)
            ref = _bisection_reference(net, 0.25, honor=False)
            assert cert.beta == ref.beta
            assert ref.gamma <= cert.gamma <= ref.gamma + 1e-6
            assert cert.feasible

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            search_certificate(presets.switched_benchmark(1), beta_step=0.5,
                               honor_theorem_constraint=False, gamma_cap=0.0)

    @pytest.mark.parametrize("step", [0.3, 0.15, 0.4])
    def test_step_must_divide_one(self, step):
        with pytest.raises(ValueError, match="divide"):
            search_certificate(presets.switched_benchmark(1), beta_step=step)

    @pytest.mark.parametrize("step", [0.01, 0.05, 0.1, 0.2, 0.25])
    def test_steps_in_use_accepted(self, step):
        cert = search_certificate(presets.switched_benchmark(1), beta_step=step,
                                  honor_theorem_constraint=False)
        assert cert.feasible
        assert len(_simplex_lattice(3, round(1.0 / step))) == math.comb(round(1.0 / step) + 2, 2)


class TestUniqueness:
    # frozen worst eigenvalues of the per-mode gap matrices, eps=2, p=1
    A3_EIGS = (-0.9248604401089358, -0.7625003645872841, -0.7174683520871485)

    def test_benchmark_modes_eps2_p1(self):
        net = presets.switched_benchmark(1)
        results = check_uniqueness_A3(net.modes, epsilon=2.0, p=1.0,
                                      G=net.activation.G)
        assert all(r["holds"] for r in results)
        for r, expected in zip(results, self.A3_EIGS):
            assert r["max_eig"] == pytest.approx(expected, abs=1e-10)

    def test_scalar_benchmark_eps1(self):
        problem = presets.linear_variational_problem(11)
        results = check_uniqueness_A3([problem.mode], epsilon=1.0, p=0.02,
                                      activation=problem.activation)
        assert results[0]["holds"]

    def test_auto_p_is_largest_singular_value(self):
        net = presets.switched_benchmark(1)
        results = check_uniqueness_A3(net.modes, epsilon=2.0, p="auto",
                                      G=net.activation.G)
        expected = float(np.linalg.svd(net.modes[0].A + net.modes[0].B,
                                       compute_uv=False).max())
        assert results[0]["p"] == pytest.approx(expected)

    def test_corollary_delegates(self):
        net = presets.switched_benchmark(1)
        a = check_corollary34(net.modes, epsilon=2.0, G=net.activation.G)
        b = check_uniqueness_A3(net.modes, epsilon=2.0, p="auto",
                                G=net.activation.G)
        assert a == b


class TestRateEquation:
    def test_oracle_point(self):
        # root of lam = a - b e^lam for a = 0.002 pi^2 + 3.575, b = 0.005,
        # frozen from a 50-digit bisection oracle
        a = 0.002 * math.pi**2 + 3.575
        lam = solve_rate_equation(a, 0.005, 1.0)
        assert lam == pytest.approx(3.4389656289963535, abs=1e-10)

    def test_residual_below_1e12(self):
        a = 0.002 * math.pi**2 + 3.575
        lam = solve_rate_equation(a, 0.005, 1.0)
        assert abs(lam - a + 0.005 * math.exp(lam)) <= 1e-12

    def test_degenerate_cases(self):
        assert solve_rate_equation(2.0, 0.0, 5.0) == 2.0
        assert solve_rate_equation(2.0, 0.5, 0.0) == 1.5

    def test_rejects_a_not_exceeding_b(self):
        with pytest.raises(ValueError):
            solve_rate_equation(1.0, 1.0, 1.0)

    @given(st.floats(0.5, 5.0), st.floats(0.0, 0.4), st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_property(self, a, b, tau):
        lam = solve_rate_equation(a, b, tau)
        assert 0.0 <= lam <= a
        assert abs(lam - a + b * math.exp(lam * tau)) <= 1e-12

    def test_monotone_in_delay(self):
        lams = [solve_rate_equation(2.0, 0.5, tau) for tau in (0.5, 1.0, 2.0)]
        assert lams[0] > lams[1] > lams[2]


def _small_cg(tau=1.0):
    n = 2
    return CGSystem(
        A_lower=np.ones(n), A_upper=np.ones(n), B=np.full(n, 3.0),
        F=np.full(n, 0.5), G=np.full(n, 0.1), H=np.full(n, 0.5),
        C=0.2 * np.eye(n), D=0.1 * np.eye(n),
        M=np.full(n, 0.4), N=0.1 * np.eye(n), R=np.zeros(n),
        inputs=np.zeros(n), P=np.ones(n), tau=tau)


class TestCGCertificate:
    def test_block_matrix_shape_and_symmetry(self):
        M = cg_margin_matrix(_small_cg())
        assert M.shape == (6, 6)
        assert np.array_equal(M, M.T)

    def test_C1_holds_for_dominant_decay(self):
        verdict = cg_check_C1(_small_cg())
        assert verdict["holds"]
        assert verdict["max_eig"] < 0

    def test_phi_tilde_consistent_with_rates(self):
        cg = _small_cg()
        Phi = cg_phi_tilde(cg)
        rates = cg_rates(cg)
        assert rates.a_tilde == pytest.approx(
            float(np.linalg.eigvalsh(Phi).min()) / cg.P.max())
        assert rates.b == pytest.approx(float((cg.G**2).max() / cg.P.min()))
        # the internal root actually solves the rate equation
        res = rates.lam - rates.a_tilde + rates.b * math.exp(rates.lam * cg.tau)
        assert abs(res) <= 1e-10

    def test_rate_formula(self):
        cg = _small_cg()
        r = cg_rates(cg, delta=2.0)
        log_term = math.log(r.rho * math.exp(r.lam * cg.tau))
        assert r.rate == pytest.approx(0.5 * (r.lam - log_term / (2.0 * cg.tau)))
        assert r.delta_min == pytest.approx(math.sqrt(log_term / cg.tau))

    def test_rejects_weak_coupling_dominance(self):
        cg = _small_cg()
        weak = CGSystem(
            A_lower=cg.A_lower, A_upper=cg.A_upper, B=np.full(2, 0.01),
            F=cg.F, G=cg.G, H=cg.H, C=cg.C, D=cg.D, M=cg.M, N=cg.N, R=cg.R,
            inputs=cg.inputs, P=cg.P, tau=cg.tau)
        with pytest.raises(ValueError):
            cg_rates(weak)
