import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracheat.kernels import FracParams
from fracheat.grids import ThinGrid
from fracheat.lorentz import SampledFunction, decreasing_rearrangement
from fracheat.moduli import (
    ModulusOfContinuity,
    ModulusPipelineConfig,
    DiniDivergenceError,
    dini_integral,
    verify_dini,
    least_concave_majorant,
    build_omega1,
    build_omega2,
    build_omega3_and_omega,
    summability_check,
    build_K,
)

CFG = ModulusPipelineConfig(gamma=0.05, delta_tilde=0.5, lam=1.0 / 16.0, kmax=24)

identity_mod = lambda: ModulusOfContinuity.from_callable(lambda r: r, name="id")
zero_mod = lambda: ModulusOfContinuity.from_callable(lambda r: 0.0 * np.asarray(r),
                                                     name="zero")
log_dini_mod = lambda: ModulusOfContinuity.from_callable(
    lambda r: np.where(np.asarray(r) > 0, r * np.log(np.e / np.maximum(r, 1e-300)), 0.0))
inv_log_sq_mod = lambda: ModulusOfContinuity.from_callable(
    lambda r: np.where(np.asarray(r) > 0, np.log(np.e / np.maximum(r, 1e-300)) ** -2.0, 0.0))


class TestDiniIntegral:
    def test_linear_modulus(self):
        assert dini_integral(identity_mod(), 0.2, 0.9) == pytest.approx(0.7, rel=1e-12)
        assert dini_integral(identity_mod(), 0.0, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_constant_diverges(self):
        omega = ModulusOfContinuity.from_callable(lambda r: np.ones_like(np.asarray(r, dtype=float)))
        with pytest.raises(DiniDivergenceError) as exc:
            dini_integral(omega, 0.0, 1.0)
        assert exc.value.partial_sums.size > 0

    def test_inverse_log_squared_closed_form(self):
        # substitution u = log(e/t): integral over (0,1) equals 1
        got = dini_integral(inv_log_sq_mod(), 0.0, 1.0)
        assert got == pytest.approx(1.0, rel=2e-3)

    def test_log_dini_quad_oracle(self):
        oracle, _ = quad(lambda t: math.log(math.e / t), 0.0, 0.3)
        assert dini_integral(log_dini_mod(), 0.0, 0.3) == pytest.approx(oracle, rel=1e-8)

    def test_verify_dini_flags(self):
        om = identity_mod()
        assert verify_dini(om) and om.is_dini is True
        bad = ModulusOfContinuity.from_callable(lambda r: np.ones_like(np.asarray(r, dtype=float)))
        assert not verify_dini(bad) and bad.is_dini is False


def brute_majorant_at_samples(r, w):
    """O(N^3) oracle: value of the least concave majorant at each sample is
    the max over chords through sample pairs bracketing it."""
    r, w = np.asarray(r, float), np.asarray(w, float)
    out = w.copy()
    N = len(r)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                if r[j] <= r[i] <= r[k] and r[k] > r[j]:
                    t = (r[i] - r[j]) / (r[k] - r[j])
                    out[i] = max(out[i], (1 - t) * w[j] + t * w[k])
    return out


class TestConcaveMajorant:
    def test_identity_on_concave_samples(self):
        r = np.linspace(0, 1, 21)
        w = np.sqrt(r)
        hull = least_concave_majorant(r, w)
        assert np.allclose(hull(r), w, atol=1e-12)

    def test_convex_input_gives_chord(self):
        r = np.linspace(0, 1, 21)
        hull = least_concave_majorant(r, r ** 2)
        assert np.allclose(hull(r), r, atol=1e-12)

    def test_matches_brute_force_hull(self):
        rng = np.random.default_rng(42)
        r = np.sort(rng.uniform(0, 1, 18))
        r[0] = 0.0
        w = np.cumsum(rng.uniform(0, 0.3, 18))
        hull = least_concave_majorant(r, w)
        assert np.allclose(hull(r), brute_majorant_at_samples(r, w), atol=1e-10)

    def test_dominates_and_idempotent(self):
        rng = np.random.default_rng(1)
        r = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 15))])
        w = np.concatenate([[0.0], np.sort(rng.uniform(0, 2, 15))])
        hull = least_concave_majorant(r, w)
        assert np.all(hull(r) >= w - 1e-12)
        again = least_concave_majorant(hull.samples_r, hull.samples_w)
        assert np.allclose(again(r), hull(r), atol=1e-12)
        assert hull.is_concave is True


class TestOmega1:
    def test_config_rejects_boundary_gamma(self):
        with pytest.raises(ValueError):
            ModulusPipelineConfig(gamma=0.5, delta_tilde=0.5)

    def test_zero_coefficient_modulus_gives_sqrt(self):
        om1 = build_omega1(zero_mod(), CFG)
        rs = np.geomspace(1e-6, 1.0, 40)
        assert np.allclose(om1(rs), np.sqrt(rs), rtol=1e-10)
        assert om1.scale_factor == pytest.approx(1.0)

    def test_linear_coefficient_modulus(self):
        # gamma/delta_tilde = 1/2 < 1 keeps the max at r
        cfg = ModulusPipelineConfig(gamma=0.25, delta_tilde=0.5)
        om1 = build_omega1(identity_mod(), cfg)
        rs = np.geomspace(1e-4, 1.0, 30)
        assert np.allclose(om1(rs), np.sqrt(rs), rtol=1e-9)

    def test_half_decreasing_property(self):
        om1 = build_omega1(log_dini_mod(), CFG)
        rs = np.geomspace(1e-8, 1.0, 60)
        assert om1.check_half_decreasing(rs)

    def test_majorizes_raw_construction(self):
        cfg = CFG
        omA = log_dini_mod()
        om1 = build_omega1(omA, cfg)
        rs = np.geomspace(1e-8, 1.0, 50)
        raw_tilde = np.maximum(np.asarray(omA(cfg.gamma * rs)) / cfg.delta_tilde, rs)
        # hull >= raw at build samples; between samples a concave input may
        # poke above the interpolated hull by the sampling gap only
        hull_unnorm = om1.tilde(rs) * om1.scale_factor
        assert np.all(hull_unnorm >= raw_tilde * (1.0 - 1e-3) - 1e-9)
        vr = om1.tilde.samples_r
        raw_at_vertices = np.maximum(np.asarray(omA(cfg.gamma * vr)) / cfg.delta_tilde, vr)
        assert np.all(om1.tilde(vr) * om1.scale_factor >= raw_at_vertices - 1e-12)

    def test_normalized_at_one(self):
        om1 = build_omega1(log_dini_mod(), CFG)
        assert om1.tilde(1.0) == pytest.approx(1.0, rel=1e-12)
        assert om1(1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.fixture
def tg():
    return ThinGrid(1, 1.0, 32, 32)


class TestOmega2:
    P = FracParams(s=0.75)

    def test_zero_data(self, tg):
        om2 = build_omega2(tg, np.zeros(tg.shape), CFG, self.P)
        rs = np.geomspace(1e-4, 1.0, 20)
        assert np.allclose(om2(rs), rs, rtol=1e-12)

    def test_constant_data_closed_form(self, tg):
        c = 2.0
        om2 = build_omega2(tg, np.full(tg.shape, c), CFG, self.P)
        s, g, dt = self.P.s, CFG.gamma, CFG.delta_tilde
        for r in [0.3, 0.6, 1.0]:
            expect = max(g * (g * r) ** (2 * s - 1) * c / dt, r)
            assert om2(r) == pytest.approx(expect, rel=1e-10)

    def test_monotone_on_samples(self, tg):
        rng = np.random.default_rng(9)
        f = np.abs(rng.normal(size=tg.shape)) + 0.1
        om2 = build_omega2(tg, f, CFG, self.P)
        assert om2.check_monotone(np.geomspace(1e-3, 1.0, 25))

    def test_clamp_diagnostic_below_resolution(self, tg):
        om2 = build_omega2(tg, np.ones(tg.shape), CFG, self.P)
        om2(1e-9)
        assert om2.diagnostics["clamped_evaluations"] >= 1


class TestOmega3AndOmega:
    def test_single_term_at_k0(self):
        om1 = ModulusOfContinuity.from_callable(lambda r: 0.5 * np.sqrt(r))
        om2 = ModulusOfContinuity.from_callable(lambda r: 3.0 * np.asarray(r, dtype=float) ** 0.25)
        omega = build_omega3_and_omega(om1, om2, CFG)
        assert omega.omega3_values[0] == pytest.approx(float(om1(1.0)) * float(om2(1.0)))

    def test_closed_form_convolution(self):
        # omega1 = omega2 = lam^(i/2) at dyadic points -> omega3 = (k+1) lam^(k/2)
        sq = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        k = np.arange(CFG.kmax + 1)
        assert np.allclose(omega.omega3_values, (k + 1) * CFG.lam ** (k / 2.0),
                           rtol=1e-12)

    def test_floor_at_sqrt(self):
        omega = build_omega3_and_omega(
            ModulusOfContinuity.from_callable(lambda r: np.sqrt(r)),
            ModulusOfContinuity.from_callable(lambda r: np.asarray(r, dtype=float)),
            CFG)
        assert np.all(omega.dyadic_values >= np.sqrt(omega.dyadic_radii) - 1e-15)

    def test_envelope_monotone_and_half_decreasing(self):
        sq = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        rs = np.geomspace(CFG.lam ** 10, 1.0, 300)
        vals = omega(rs)
        assert np.all(np.diff(vals) >= -1e-12)
        h = vals / np.sqrt(rs)
        assert np.all(np.diff(h) <= 1e-10 * h[:-1])

    def test_envelope_matches_grid_values(self):
        sq = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        assert np.allclose(omega(omega.dyadic_radii), omega.dyadic_values, rtol=1e-12)


def truncated_power_data(tg, s, n=1, trunc=0.02, amp=1.0):
    theta = n * (2 * s - 1) / (n + 2)  # critical Lorentz decay rate
    mesh = tg.meshgrid()
    X = mesh[1]
    return amp * np.maximum(np.abs(X), trunc) ** -theta


class TestSummability:
    P = FracParams(s=0.75)

    def test_synthetic_geometric_omega(self):
        # direct geometric series: sum over the dyadic grid of lam^(k/2)
        lam, kmax = CFG.lam, CFG.kmax
        total = sum(lam ** (k / 2.0) for k in range(kmax + 1))
        assert total == pytest.approx(1.0 / (1.0 - math.sqrt(lam)), abs=1e-10)

    def test_zero_pipeline_bounded(self, tg):
        rep = summability_check(zero_mod(), tg, np.zeros(tg.shape), self.P, CFG)
        assert rep.holds
        assert rep.sum_omega <= 2.0 / (1.0 - math.sqrt(CFG.lam))
        assert np.all(np.diff(rep.partial_sums_omega) >= -1e-15)

    def test_lipschitz_with_lorentz_data(self, tg):
        f = truncated_power_data(tg, self.P.s)
        rep = summability_check(identity_mod(), tg, f, self.P, CFG)
        assert rep.holds
        assert rep.sum_omega1_data_part <= 1.0 + 1e-12
        assert rep.cauchy_tail < 1e-8

    def test_log_dini_with_lorentz_data(self, tg):
        f = truncated_power_data(tg, self.P.s)
        rep = summability_check(log_dini_mod(), tg, f, self.P, CFG)
        assert rep.holds
        assert rep.cauchy_tail < 1e-8

    def test_non_dini_coefficient_refused(self, tg):
        bad = ModulusOfContinuity.from_callable(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        with pytest.raises(DiniDivergenceError):
            summability_check(bad, tg, np.zeros(tg.shape), self.P, CFG)


class TestBuildK:
    P = FracParams(s=0.75)

    def zero_profile(self):
        return decreasing_rearrangement(SampledFunction([1.0], [0.0]))

    def test_linear_omega1_zero_data(self):
        om1 = ModulusOfContinuity.from_callable(lambda r: np.asarray(r, dtype=float))
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        for r in [0.04, 0.25, 0.81]:
            assert K(r) == pytest.approx(2.0 * math.sqrt(r), rel=1e-9)

    def test_k2_component(self):
        om1 = ModulusOfContinuity.from_callable(lambda r: np.asarray(r, dtype=float))
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        assert K.components["K2"](0.25) == 0.5

    def test_monotone_and_half_decreasing(self, tg):
        rng = np.random.default_rng(12)
        f = np.abs(rng.normal(size=tg.shape))
        from fracheat.lorentz import gridded_to_sampled
        prof = decreasing_rearrangement(gridded_to_sampled(tg, f ** 2))
        om1 = build_omega1(log_dini_mod(), CFG)
        K = build_K(om1, prof, self.P, CFG)
        rs = np.geomspace(1e-4, 1.0, 25)
        vals = K(rs)
        assert np.all(np.diff(vals) >= -1e-10)
        h = vals / np.sqrt(rs)
        assert np.all(np.diff(h) <= 1e-8 * h[:-1])

    @staticmethod
    def per_a_loop_K(omega1, prof, p, scan_points=21):
        """K1 + K2 + K3 with one Gauss integral per shift a and a scalar g**
        per node: the loop the batched a-scan replaced, kept as reference."""
        from fracheat.lorentz import cylinder_measure_constant, profile_power_integral
        C = cylinder_measure_constant(p.n)
        alpha = (2.0 * p.s - 1.0) / (p.n + 2.0)
        a_scan = np.geomspace(1e-6, 2.0, scan_points)
        xg, wg = np.polynomial.legendre.leggauss(32)

        def shifted(fn, a, h):
            lo, hi = a, a + h
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            return half * float(np.dot(wg, fn(mid + half * xg)))

        def K(r):
            h1 = math.sqrt(r)
            k1 = dini_integral(omega1, 0.0, min(h1, 1.0))
            if h1 > 1.0:
                k1 += math.log(h1) * float(omega1(1.0))
            for a in a_scan:
                k1 = max(k1, shifted(
                    lambda t: np.asarray(omega1(np.minimum(t, 1.0))) / t, a, h1))
            h3 = C * r
            k3 = profile_power_integral(prof, alpha, h3)
            for a in a_scan:
                k3 = max(k3, shifted(
                    lambda u: u ** (alpha - 1.0) * np.sqrt(np.maximum(
                        [prof.double_star(float(x)) for x in u], 0.0)), a, h3))
            return k1 + math.sqrt(r) + k3
        return K

    # omega1(t) = t^2 makes omega1(t)/t increase, so the K1 sup sits at a > 0
    @pytest.mark.parametrize("om1", [
        build_omega1(log_dini_mod(), CFG),
        ModulusOfContinuity.from_callable(lambda r: np.asarray(r) ** 2)])
    def test_batched_scan_matches_per_a_loop(self, om1):
        from fracheat.lorentz import gridded_to_sampled
        tg16 = ThinGrid(1, 1.0, 16, 16)
        f = np.random.default_rng(3).normal(size=tg16.shape)
        prof = decreasing_rearrangement(gridded_to_sampled(tg16, f ** 2))
        K = build_K(om1, prof, self.P, CFG)
        ref = self.per_a_loop_K(om1, prof, self.P)
        rs = np.array([1e-5, 3e-3, 0.05, 0.3, 1.0, 2.5])
        np.testing.assert_allclose(K(rs), [ref(r) for r in rs], rtol=1e-12, atol=0)

    def test_concave_majorant_within_factor_two(self):
        om1 = build_omega1(log_dini_mod(), CFG)
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        rs = CFG.lam ** np.arange(8, -1, -1.0)
        vals = K(rs)
        hull = least_concave_majorant(rs, vals)
        assert np.all(hull(rs) <= 2.0 * vals + 1e-12)
