import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracheat.grids import ThinGrid
from fracheat.lorentz import (
    SampledFunction,
    cylinder_measure_constant,
    decreasing_rearrangement,
    lorentz_norm_forms,
    gridded_to_sampled,
    riesz_potential_I2,
    estimate1_constant,
    estimate1_check,
    estimate2_check,
    hardy_littlewood_check,
    _power_integral_table,
)

finite_vals = st.floats(min_value=-50, max_value=50, allow_nan=False)
pos_measures = st.floats(min_value=1e-3, max_value=10, allow_nan=False)


def brute_distribution_measure(f: SampledFunction, level: float) -> float:
    return float(np.sum(f.measures[np.abs(f.values) > level]))


def g_star(g, rho):
    """g* read off the step profile: plateaus[k] on [rho_k, rho_(k+1)), 0
    beyond the support (rho >= 0)."""
    k = np.searchsorted(g.breakpoints, rho, side="right") - 1
    return np.append(g.plateaus, 0.0)[k]


def measure_above(g, level: float) -> float:
    """mu({g* > level}): the plateaus strictly decrease, so the ones above
    level are the first count of them."""
    return float(g.breakpoints[np.count_nonzero(g.plateaus > level)])


class TestRearrangement:
    def test_indicator(self):
        f = SampledFunction([0.4, 0.6], [2.0, 0.0])
        g = decreasing_rearrangement(f)
        assert g_star(g, 0.2) == 2.0
        assert g_star(g, 0.5) == 0.0

    def test_identity_on_sorted_input(self):
        f = SampledFunction([1.0, 2.0, 0.5], [3.0, 2.0, 1.0])
        g = decreasing_rearrangement(f)
        assert np.allclose(g.plateaus, [3.0, 2.0, 1.0])
        assert np.allclose(g.breakpoints, [0.0, 1.0, 3.0, 3.5])

    def test_shuffled_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=40)
        meas = rng.uniform(0.1, 2.0, size=40)
        f = SampledFunction(meas, vals)
        g = decreasing_rearrangement(f)
        # oracle: plain descending sort of |values| with carried measures
        order = np.argsort(-np.abs(vals))
        cums = np.concatenate([[0.0], np.cumsum(meas[order])])
        mids = 0.5 * (cums[1:] + cums[:-1])
        assert np.allclose(g_star(g, mids), np.abs(vals)[order])

    def test_plateau_lost_to_rounding_dropped(self):
        # 1 + 1e-17 rounds to 1, so the last plateau has no width; it used
        # to raise "breakpoints must start at 0 and increase"
        g = decreasing_rearrangement(SampledFunction([1.0, 1e-17], [2.0, 1.0]))
        np.testing.assert_array_equal(g.breakpoints, [0.0, 1.0])
        np.testing.assert_array_equal(g.plateaus, [2.0])
        assert measure_above(g, 0.5) == 1.0

    def test_tiny_cell_mid_profile_dropped(self):
        f = SampledFunction([1.0, 1.0, 1e-17, 0.5], [1.0, 3.0, -2.0, 0.25])
        g = decreasing_rearrangement(f)
        np.testing.assert_array_equal(g.breakpoints, [0.0, 1.0, 2.0, 2.5])
        np.testing.assert_array_equal(g.plateaus, [3.0, 1.0, 0.25])
        for level in (0.0, 0.5, 1.5, 2.5):
            assert measure_above(g, level) == brute_distribution_measure(f, level)

    def test_uniform_grid_profile_unchanged(self):
        # the plain construction: merged plateaus, breakpoints the running
        # measure from 0
        tg = ThinGrid(1, 1.0, 32, 64)
        T, X = tg.meshgrid()
        f = gridded_to_sampled(tg, np.cos(3.0 * X) ** 2 + 0.1 * T + 0.0 * X)
        g = decreasing_rearrangement(f)
        v = np.abs(f.values)
        order = np.argsort(-v, kind="stable")
        keep = np.concatenate([[True], np.diff(v[order]) != 0.0])
        merged = np.bincount(np.cumsum(keep) - 1, weights=f.measures[order])
        np.testing.assert_array_equal(
            g.breakpoints, np.concatenate([[0.0], np.cumsum(merged)]))
        np.testing.assert_array_equal(g.plateaus, v[order][keep])

    @given(st.lists(st.tuples(pos_measures, finite_vals), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_equimeasurable(self, cells):
        meas, vals = zip(*cells)
        f = SampledFunction(np.array(meas), np.array(vals))
        g = decreasing_rearrangement(f)
        for level in list(np.abs(vals)) + [0.0, 0.5, 100.0]:
            assert measure_above(g, level) == pytest.approx(
                brute_distribution_measure(f, level), rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(pos_measures, finite_vals), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_double_star_dominates_and_nonincreasing(self, cells):
        meas, vals = zip(*cells)
        g = decreasing_rearrangement(SampledFunction(np.array(meas), np.array(vals)))
        rhos = np.linspace(1e-3, g.total_measure * 1.5, 37)
        ds = np.array([g.double_star(r) for r in rhos])
        assert np.all(ds + 1e-12 >= g_star(g, rhos))
        assert np.all(np.diff(ds) <= 1e-12 * np.maximum(ds[:-1], 1.0))


class TestDoubleStar:
    def test_inside_plateau(self):
        g = decreasing_rearrangement(SampledFunction([2.0], [5.0]))
        assert g.double_star(1.5) == pytest.approx(5.0)

    def test_beyond_support_closed_form(self):
        # g* = h on [0, m): g**(2m) = h m / (2m) = h/2
        g = decreasing_rearrangement(SampledFunction([2.0], [5.0]))
        assert g.double_star(4.0) == pytest.approx(2.5)

    def test_constant_profile(self):
        g = decreasing_rearrangement(SampledFunction([1.0, 1.0, 1.0], [3, 3, 3]))
        for rho in [0.5, 1.7, 3.0]:
            assert g.double_star(rho) == pytest.approx(3.0)

    def test_rejects_nonpositive_rho(self):
        g = decreasing_rearrangement(SampledFunction([1.0], [1.0]))
        with pytest.raises(ValueError):
            g.double_star(0.0)

    @staticmethod
    def scalar_integral(g, rho):
        """The per-point branch logic the array path replaces, as reference."""
        if rho <= 0.0:
            return 0.0
        if rho >= g.total_measure:
            return float(g._cum[-1])
        k = int(np.searchsorted(g.breakpoints, rho, side="right") - 1)
        return float(g._cum[k] + g.plateaus[k] * (rho - g.breakpoints[k]))

    def test_array_path_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        g = decreasing_rearrangement(
            SampledFunction(rng.uniform(0.1, 1.0, 12), rng.normal(size=12)))
        bps = g.breakpoints
        rhos = np.concatenate([0.5 * (bps[1:] + bps[:-1]),   # inside plateaus
                               bps[1:],                      # on breakpoints
                               bps[-1] * np.array([1.5, 4.0])])  # beyond support
        ref = np.array([self.scalar_integral(g, r) for r in rhos])
        assert np.array_equal(g.integral_g_star(rhos), ref)
        assert np.array_equal(g.double_star(rhos), ref / rhos)
        grid_rhos = rhos.reshape(2, -1)
        assert np.array_equal(g.double_star(grid_rhos), (ref / rhos).reshape(2, -1))
        assert g.integral_g_star(np.array([0.0, -1.0])).tolist() == [0.0, 0.0]
        one = g.double_star(rhos[3])
        assert isinstance(one, float) and one == ref[3] / rhos[3]

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_array_with_nonpositive_rho_raises(self, bad):
        g = decreasing_rearrangement(SampledFunction([1.0, 2.0], [1.0, 3.0]))
        with pytest.raises(ValueError):
            g.double_star(np.array([0.5, bad, 2.0]))


class TestLorentzNorm:
    def test_zero_function(self):
        f = SampledFunction([1.0, 2.0], [0.0, 0.0])
        assert lorentz_norm_forms(f, 3.0)[0] == 0.0

    def test_indicator_closed_form(self):
        m, h, p = 0.7, 2.5, 3.0
        f = SampledFunction([m, 1.0], [h, 0.0])
        assert lorentz_norm_forms(f, p)[0] == pytest.approx(h * m ** (1 / p),
                                                            rel=1e-12)

    def test_two_step_vs_layer_cake_oracle(self):
        f = SampledFunction([0.5, 1.5, 1.0], [4.0, 1.0, 0.0])
        p = 2.5
        oracle, _ = quad(lambda t: brute_distribution_measure(f, t) ** (1 / p),
                         0.0, 4.0, limit=200, points=[1.0, 4.0])
        assert lorentz_norm_forms(f, p)[0] == pytest.approx(oracle, rel=1e-10)

    def test_forms_differ_by_factor_p(self):
        rng = np.random.default_rng(3)
        f = SampledFunction(rng.uniform(0.1, 1, 20), rng.normal(size=20))
        p = 4.0
        dist, rearr = lorentz_norm_forms(f, p)
        assert rearr == pytest.approx(p * dist, rel=1e-12)

    @given(st.lists(st.tuples(pos_measures, finite_vals), min_size=1, max_size=20),
           st.floats(min_value=-3, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_scaling(self, cells, alpha):
        meas, vals = zip(*cells)
        f = SampledFunction(np.array(meas), np.array(vals))
        p = 3.0
        scaled = SampledFunction(f.measures, alpha * f.values)
        assert lorentz_norm_forms(scaled, p)[0] == pytest.approx(
            abs(alpha) * lorentz_norm_forms(f, p)[0], rel=1e-10, abs=1e-12)

    def test_nesting_on_truncated_powers(self):
        # Lp+eps finite => L(p,1) finite => Lp finite, seen through the
        # truncated family f = rho^-theta across the critical theta
        tg = ThinGrid(1, 1.0, 48, 48)
        T, X = tg.meshgrid()
        p = 6.0  # critical index for s = 0.75, n = 1
        theta_crit = 1.0 / p
        norms = {}
        for theta in [0.5 * theta_crit, theta_crit, 2.0 * theta_crit]:
            vals = np.minimum(np.abs(X), 1.0) ** -theta
            f = gridded_to_sampled(tg, vals)
            norms[theta] = lorentz_norm_forms(f, p)[0]
        # all finite at desk truncation, ordered by strength of singularity
        assert norms[0.5 * theta_crit] < norms[theta_crit] < norms[2 * theta_crit]
        assert all(np.isfinite(v) for v in norms.values())


@pytest.fixture
def tg():
    return ThinGrid(1, 1.0, 40, 40)


def random_piecewise(tg, rng, scale=1.0):
    return rng.normal(scale=scale, size=tg.shape)


class TestRieszPotential:
    def test_zero(self, tg):
        assert riesz_potential_I2(tg, np.zeros(tg.shape), (0.0, 0.0), 0.4,
                                  0.75) == pytest.approx(0.0)

    def test_constant_closed_form(self, tg):
        # f = c: I2 = c r^(2s-1) / (2s-1)
        c, r, s = 1.7, 0.4, 0.75
        got = riesz_potential_I2(tg, np.full(tg.shape, c), (0.0, 0.0), r, s)
        assert got == pytest.approx(c * r ** (2 * s - 1) / (2 * s - 1), rel=1e-8)

    def test_quadrature_self_convergence(self, tg, monkeypatch):
        import fracheat.lorentz as lorentz
        rng = np.random.default_rng(11)
        f = random_piecewise(tg, rng)
        monkeypatch.setattr(lorentz, "_I2_NODES_PER_DECADE", 32)
        coarse = riesz_potential_I2(tg, f, (0.0, 0.0), 0.35, 0.6)
        monkeypatch.setattr(lorentz, "_I2_NODES_PER_DECADE", 96)
        fine = riesz_potential_I2(tg, f, (0.0, 0.0), 0.35, 0.6)
        assert abs(fine - coarse) <= 1e-3 * max(abs(fine), 1e-12)

    def test_domain_guard(self, tg):
        with pytest.raises(ValueError):
            riesz_potential_I2(tg, np.ones(tg.shape), (0.9, 0.0), 0.5, 0.75)

    @pytest.mark.parametrize("r, s, bad", [(0.0, 0.75, "r"), (1.0, 0.75, "r"),
                                           (0.4, 0.5, "s"), (0.4, 1.0, "s")])
    def test_range_checks(self, tg, r, s, bad):
        with pytest.raises(ValueError, match=f"^{bad} must"):
            riesz_potential_I2(tg, np.ones(tg.shape), (0.0, 0.0), r, s)


class TestEstimate1:
    def test_zero_function(self, tg):
        rep = estimate1_check(tg, np.zeros(tg.shape), (0.0, 0.0), 0.4, 0.5, 0.75)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds

    def test_constant_closed_form_both_sides(self):
        # f = 1: lhs is a geometric sum, rhs = c * r^(2s-1)/(2s-1)
        s, sigma, n, r = 0.75, 0.5, 1, 0.4
        p = 2 * s - 1
        lhs_exact = (r / 2) ** p / (1 - sigma ** p)
        rhs_exact = estimate1_constant(s, sigma, n) * r ** p / p
        assert lhs_exact < rhs_exact
        tg = ThinGrid(1, 1.0, 64, 64)
        rep = estimate1_check(tg, np.ones(tg.shape), (0.0, 0.0), r, sigma, s)
        assert rep.holds
        assert rep.rhs == pytest.approx(rhs_exact, rel=1e-6)
        # truncated lhs sits below the exact infinite sum
        assert rep.lhs <= lhs_exact * (1 + 1e-9)

    def test_random_sweep_never_violates(self, tg):
        rng = np.random.default_rng(2024)
        for s in [0.6, 0.75, 0.9]:
            for sigma in [0.5, 0.25]:
                for _ in range(25):
                    f = random_piecewise(tg, rng)
                    assert estimate1_check(tg, f, (0.0, 0.0), 0.45, sigma,
                                           s).holds

    @pytest.mark.parametrize("r, sigma, s, bad", [
        (1.2, 0.5, 0.75, "r"), (0.4, 0.0, 0.75, "sigma"),
        (0.4, 1.0, 0.75, "sigma"), (0.4, 0.5, 0.45, "s")])
    def test_range_checks(self, tg, r, sigma, s, bad):
        with pytest.raises(ValueError, match=f"^{bad} must"):
            estimate1_check(tg, np.ones(tg.shape), (0.0, 0.0), r, sigma, s)


def per_radius_mean_sq(tg, f, center, radius):
    """(mean of f^2 over Q_radius)^(1/2) for one float radius, as the
    per-radius loops below called it."""
    return math.sqrt(max(tg.cylinder_mean(f ** 2, center, float(radius)), 0.0))


def per_radius_riesz(tg, f, center, r, s):
    """riesz_potential_I2 as it was before the array cylinder means: one
    cylinder_mean call per Gauss node."""
    from fracheat.kernels import _gauss_panels
    rho_min = tg.min_radius() / 8.0
    total = 0.0
    if r <= rho_min:
        rho_min = r
    else:
        n_panels = max(1, int(math.ceil(math.log10(r / rho_min) * 64 / 8)))
        u, wu = _gauss_panels(math.log(rho_min), math.log(r), n_panels, 8)
        rhos = np.exp(u)
        vals = np.array([per_radius_mean_sq(tg, f, center, rho) for rho in rhos])
        total += float(np.sum(wu * rhos * rhos ** (2.0 * s - 2.0) * vals))
    tail_amp = per_radius_mean_sq(tg, f, center, rho_min)
    return total + tail_amp * rho_min ** (2.0 * s - 1.0) / (2.0 * s - 1.0)


def per_radius_estimate1_lhs(tg, f, center, r, sigma, s):
    """estimate1_check's dyadic sum as the while loop computed it."""
    lhs, count, r_i = 0.0, 0, r / 2.0
    while r_i >= tg.min_radius():
        lhs += r_i ** (2.0 * s - 1.0) * per_radius_mean_sq(tg, f, center, r_i)
        r_i *= sigma
        count += 1
        if count > 200:
            break
    return lhs, count


# the benchmark's two thin grids and an n = 2 one
PARITY_GRIDS = [ThinGrid(1, 1.0, 16, 16), ThinGrid(1, 1.0, 32, 64),
                ThinGrid(2, 1.0, 64, 16)]


class TestPerRadiusParity:
    """The array-native cylinder means give the per-radius loops' values
    bit for bit."""

    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=["16x16", "32x64", "n2"])
    @pytest.mark.parametrize("s", [0.6, 0.83])
    def test_riesz_potential(self, grid, s):
        f = np.random.default_rng(5).normal(size=grid.shape) + 0.5
        center = (0.02,) + (-0.03,) * grid.n
        for r in (0.9, 0.45, grid.min_radius() / 10.0):
            assert riesz_potential_I2(grid, f, center, r, s) \
                == per_radius_riesz(grid, f, center, r, s)

    # sigma = 0.999 on 16 x 16 reaches the cap of 201 terms; r = 0.3 on
    # the coarse grids has no term at all
    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=["16x16", "32x64", "n2"])
    @pytest.mark.parametrize("r, sigma", [(0.9, 0.5), (0.9, 0.999), (0.3, 0.25)])
    def test_estimate1(self, grid, r, sigma):
        f = np.random.default_rng(6).normal(size=grid.shape)
        center = (0.0,) * (grid.n + 1)
        rep = estimate1_check(grid, f, center, r, sigma, 0.62)
        lhs, count = per_radius_estimate1_lhs(grid, f, center, r, sigma, 0.62)
        assert (rep.lhs, rep.radii_used) == (lhs, count)
        assert rep.rhs == rep.constant_used * per_radius_riesz(grid, f, center,
                                                               r, 0.62)
        if grid.nt == 16 and sigma == 0.999:
            assert count == 201


class TestEstimate2:
    def test_zero_function(self, tg):
        lhs, rhs, holds = estimate2_check(tg, np.zeros(tg.shape), (0.0, 0.0),
                                          0.3, 0.75)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_indicator_subcylinder(self, tg):
        T, X = tg.meshgrid()
        vals = ((np.abs(X) < 0.25) & (np.abs(T) < 0.0625)).astype(float) * 3.0
        lhs, rhs, holds = estimate2_check(tg, vals, (0.0, 0.0), 0.45, 0.75)
        assert holds
        assert np.isfinite(rhs) and rhs > 0.0
        # g = f^2 has the single plateau 9, so g** = 9 near zero and the
        # bound integral starts as the closed-form power integral
        gs = float(_power_integral_table(
            decreasing_rearrangement(gridded_to_sampled(tg, vals ** 2)), 0.1)(1e-6))
        assert gs == pytest.approx(3.0 * (1e-6) ** 0.1 / 0.1, rel=1e-9)

    def test_random_sweep_never_violates(self, tg):
        rng = np.random.default_rng(77)
        for s in [0.6, 0.75, 0.9]:
            for _ in range(30):
                f = random_piecewise(tg, rng)
                lhs, rhs, holds = estimate2_check(tg, f, (0.0, 0.0), 0.4, s)
                assert holds


class TestHardyLittlewood:
    def test_constant_equality(self, tg):
        assert hardy_littlewood_check(tg, np.full(tg.shape, 2.0), (0.0, 0.0), 0.3)

    def test_indicator_containing_cylinder(self, tg):
        T, X = tg.meshgrid()
        vals = (np.abs(X) < 0.2).astype(float)
        assert hardy_littlewood_check(tg, vals, (0.0, 0.0), 0.45)

    def test_random_sweep(self, tg):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = random_piecewise(tg, rng)
            t0 = rng.uniform(-0.5, 0.5)
            x0 = rng.uniform(-0.5, 0.5)
            rho = rng.uniform(0.05, 0.4)
            assert hardy_littlewood_check(tg, f, (t0, x0), rho)


class TestMeasureConstant:
    def test_values(self):
        assert cylinder_measure_constant(1) == pytest.approx(4.0)
        assert cylinder_measure_constant(2) == pytest.approx(2 * math.pi)

