import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracheat.kernels import (
    FracParams,
    QuadratureSpec,
    heat_kernel,
    subordination_constant,
    dtn_constant,
    frac_heat_apply,
    marchaud_normalization,
    check_master_bounds,
    _leggauss,
)


class TestHeatKernel:
    def test_peak_value_exact(self):
        # (4 pi tau)^(-1/2) = 1 at tau = 1/(4 pi)
        assert heat_kernel(1.0 / (4.0 * math.pi), 0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_point(self):
        assert heat_kernel(1.0, 2.0, 1) == pytest.approx(
            (4.0 * math.pi) ** -0.5 * math.exp(-1.0), rel=1e-14)

    def test_normalization_quad_oracle(self):
        # independent adaptive quadrature of the n=1 kernel
        val, _ = quad(lambda z: heat_kernel(0.5, z, 1), -10.0, 10.0, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tau", [0.01, 0.3, 2.0])
    def test_normalization_across_tau(self, tau):
        width = 10.0 * math.sqrt(2.0 * tau)
        val, _ = quad(lambda z: heat_kernel(tau, z, 1), -width, width, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalization_n2_polar_oracle(self):
        # radial reduction: int_0^inf 2 pi r G(tau, r) dr = 1
        tau = 0.7
        val, _ = quad(lambda r: 2.0 * math.pi * r * heat_kernel(tau, np.array([r, 0.0]), 2),
                      0.0, 12.0 * math.sqrt(tau), epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_positive(self):
        assert heat_kernel(1e-3, 0.3, 1) > 0.0
        assert heat_kernel(50.0, 5.0, 1) > 0.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            heat_kernel(-1.0, 1.0, 1)


class TestConstants:
    def test_subordination_at_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert subordination_constant(0.5) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_subordination_small_s_limit(self):
        assert subordination_constant(1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_subordination_three_quarters_oracle(self):
        assert subordination_constant(0.75) == pytest.approx(
            0.75 / math.gamma(0.25), rel=1e-12)

    def test_dtn_at_half_exact(self):
        assert dtn_constant(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_dtn_three_quarters_oracle(self):
        expected = math.sqrt(2.0) * math.gamma(0.75) / math.gamma(0.25)
        assert dtn_constant(0.75) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.478, abs=5e-4)

    def test_dtn_sampling_matches_gamma_oracle(self):
        for s in np.arange(0.55, 0.96, 0.1):
            expected = 2.0 ** (2 * s - 1) * math.gamma(s) / math.gamma(1 - s)
            assert dtn_constant(float(s)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.1, 0.0, 1.0, 1.5])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError):
            subordination_constant(s)
        with pytest.raises(ValueError):
            dtn_constant(s)


class TestGaussNodes:
    def test_cached_and_read_only(self):
        xg, wg = _leggauss(24)
        assert _leggauss(24)[0] is xg
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(xg, ref_x) and np.array_equal(wg, ref_w)
        for arr in (xg, wg):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestFracParams:
    def test_weight_exponent(self):
        p = FracParams(s=0.75)
        assert p.a == pytest.approx(1.0 - 2.0 * 0.75, abs=0.0)
        assert -1.0 < p.a < 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
    def test_order_range(self, s):
        with pytest.raises(ValueError):
            FracParams(s=s)


class TestFracHeatApply:
    P = FracParams(s=0.75)
    Q = QuadratureSpec()
    PTS = [[0.0, 0.3], [0.4, -0.5]]

    def test_constant_annihilated(self):
        vals = frac_heat_apply(lambda t, x: 7.0 + 0.0 * t, self.P, self.Q, self.PTS)
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_linear_annihilated_by_symmetry(self):
        vals = frac_heat_apply(lambda t, x: x, self.P, self.Q, self.PTS)
        assert np.allclose(vals, 0.0, atol=1e-10)

    def test_linear_annihilated_n2(self):
        p = FracParams(s=0.6, n=2)
        vals = frac_heat_apply(lambda t, x: x[:, 0] - 2.0 * x[:, 1], p,
                               QuadratureSpec(nodes_per_decade=6),
                               [[0.0, 0.1, -0.2]])
        assert np.allclose(vals, 0.0, atol=1e-9)

    @pytest.mark.parametrize("s", [0.55, 0.75, 0.9])
    def test_exponential_eigenfunction(self, s):
        # Marchaud identity: exp(t) is an eigenfunction with eigenvalue 1
        p = FracParams(s=s)
        pts = [[0.0, 0.0], [0.5, 0.1]]
        vals = frac_heat_apply(lambda t, x: np.exp(t) + 0.0 * x, p, self.Q, pts)
        assert np.allclose(vals / np.exp([0.0, 0.5]), 1.0, atol=1e-4)

    def test_cosine_symbol(self):
        # time-independent data sees the spatial symbol |xi|^(2s)
        xi = 2.0
        vals = frac_heat_apply(lambda t, x: np.cos(xi * x), self.P, self.Q,
                               [[0.0, 0.3]])
        assert vals[0] == pytest.approx(xi ** 1.5 * math.cos(0.6), rel=2e-3)

    def test_linearity(self):
        u1 = lambda t, x: np.exp(t) + 0.0 * x
        u2 = lambda t, x: np.cos(x) + 0.0 * t
        both = lambda t, x: 2.0 * u1(t, x) - 3.0 * u2(t, x)
        a = frac_heat_apply(u1, self.P, self.Q, self.PTS)
        b = frac_heat_apply(u2, self.P, self.Q, self.PTS)
        c = frac_heat_apply(both, self.P, self.Q, self.PTS)
        assert np.allclose(c, 2.0 * a - 3.0 * b, atol=1e-9)

    def test_translation_invariance(self):
        t0, x0 = 0.3, -0.4
        u = lambda t, x: np.exp(t) * np.cos(x)
        shifted = lambda t, x: u(t - t0, x - x0)
        at = frac_heat_apply(shifted, self.P, self.Q, [[0.2, 0.1]])
        ref = frac_heat_apply(u, self.P, self.Q, [[0.2 - t0, 0.1 - x0]])
        assert at[0] == pytest.approx(ref[0], rel=1e-8, abs=1e-10)

    def test_convergence_diagnostics(self):
        vals, diag = frac_heat_apply(lambda t, x: np.exp(t) + 0.0 * x, self.P,
                                     self.Q, [[0.0, 0.0]],
                                     check_convergence=True)
        assert diag.converged
        assert diag.max_difference < 1e-4

    def test_bad_points_shape(self):
        with pytest.raises(ValueError):
            frac_heat_apply(lambda t, x: x, self.P, self.Q, [[0.0, 0.1, 0.2]])


class TestMarchaudNormalization:
    @pytest.mark.parametrize("s", [0.55, 0.65, 0.75, 0.85, 0.95])
    def test_identity(self, s):
        assert marchaud_normalization(s) == pytest.approx(1.0, abs=1e-6)


class TestMasterBounds:
    def test_rejects_degenerate_band(self):
        with pytest.raises(ValueError):
            check_master_bounds(FracParams(s=0.75), 1.0, 1.0)

    def test_heat_case_bounds_hold(self):
        rep = check_master_bounds(FracParams(s=0.75), 0.5, 2.0, z_range=(0.1, 10.0))
        assert rep.holds
        assert rep.lambda_lower > 0.0
        assert math.isfinite(rep.Lambda_upper)
        assert rep.lambda_lower < rep.Lambda_upper

    def test_lambda_scale_invariant_under_z_refinement(self):
        p = FracParams(s=0.6)
        a = check_master_bounds(p, 0.5, 2.0, z_range=(0.1, 10.0))
        b = check_master_bounds(p, 0.5, 2.0, z_range=(0.2, 20.0))
        assert b.lambda_lower == pytest.approx(a.lambda_lower, rel=0.05)
