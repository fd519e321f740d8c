import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fracheat.kernels import FracParams
from fracheat.generators import modulus_generator
from fracheat.grids import ThinGrid
from fracheat.lorentz import (
    RearrangedProfile,
    SampledFunction,
    _power_integral_table,
    decreasing_rearrangement,
    gridded_to_sampled,
)
from fracheat.moduli import (
    ModulusOfContinuity,
    ModulusPipelineConfig,
    DiniDivergenceError,
    dini_integral,
    least_concave_majorant,
    build_omega1,
    build_omega2,
    build_omega3_and_omega,
    summability_check,
    build_K,
    _sqrt_interp_dini,
)

CFG = ModulusPipelineConfig(gamma=0.05, delta_tilde=0.5, lam=1.0 / 16.0, kmax=24)

identity_mod = lambda: ModulusOfContinuity(lambda r: r, name="id")
zero_mod = lambda: ModulusOfContinuity(lambda r: 0.0 * np.asarray(r),
                                       name="zero")
log_dini_mod = lambda: ModulusOfContinuity(
    lambda r: np.where(np.asarray(r) > 0, r * np.log(np.e / np.maximum(r, 1e-300)), 0.0))
inv_log_sq_mod = lambda: ModulusOfContinuity(
    lambda r: np.where(np.asarray(r) > 0, np.log(np.e / np.maximum(r, 1e-300)) ** -2.0, 0.0))


def piecewise_sqrt_dini(omega1, b):
    """int_0^b omega1(t)/t dt for a build_omega1 modulus, piece by piece of
    its hull in sigma = sqrt t: 2 int w(sigma)/sigma dsigma with a 40-point
    Gauss rule per piece, in sigma on the first piece (where w/sigma is
    constant) and in log sigma on the others (where the integrand in
    u = log sigma is w(e^u), smooth).  Independent reference for the exact
    a = 0 term of K1."""
    sig = np.sqrt(omega1.samples_r)
    x, wx = np.polynomial.legendre.leggauss(40)
    top = math.sqrt(b)
    lo, hi = sig[:-1], np.minimum(sig[1:], top)
    lo, hi = lo[hi > lo], hi[hi > lo]
    s0 = 0.5 * hi[0] * (1.0 + x)
    total = 0.5 * hi[0] * float(np.dot(wx, omega1(s0 ** 2) / s0))
    ul, uh = np.log(lo[1:]), np.log(hi[1:])
    u = 0.5 * (ul + uh)[:, None] + 0.5 * (uh - ul)[:, None] * x
    total += float(np.sum(0.5 * (uh - ul) * (omega1(np.exp(2.0 * u)) @ wx)))
    return 2.0 * total


class TestDiniIntegral:
    def test_linear_modulus(self):
        assert dini_integral(identity_mod(), 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_constant_diverges(self):
        omega = ModulusOfContinuity(lambda r: np.ones_like(np.asarray(r, dtype=float)))
        with pytest.raises(DiniDivergenceError) as exc:
            dini_integral(omega, 1.0)
        assert exc.value.partial_sums.size > 0

    def test_inverse_log_squared_closed_form(self):
        # substitution u = log(e/t): integral over (0,1) equals 1
        got = dini_integral(inv_log_sq_mod(), 1.0)
        assert got == pytest.approx(1.0, rel=2e-3)

    def test_inverse_log_squared_small_b(self):
        # int_0^b dt / (t log(e/t)^2) = 1 / log(e/b) exactly.  The tail fit
        # counts the dyadic segments from t = 1: counted from b it read
        # +1.2% at 1e-20 and +165% at 1e-100, and called 1e-150 divergent
        for b in np.geomspace(1e-10, 1e-200, 20):
            assert dini_integral(inv_log_sq_mod(), b) == pytest.approx(
                1.0 / math.log(math.e / b), rel=1.3e-3)

    def test_log_dini_quad_oracle(self):
        oracle, _ = quad(lambda t: math.log(math.e / t), 0.0, 0.3)
        assert dini_integral(log_dini_mod(), 0.3) == pytest.approx(oracle, rel=1e-8)

    @staticmethod
    def reference_dini_from_zero(omega, b, tol=1e-10, max_segments=900):
        """dini_integral's rule without its overflow and divergence raises:
        every segment at once, the stop rule on the sum of all of them."""
        xg, wg = np.polynomial.legendre.leggauss(16)
        K = min(max_segments, int(math.floor(math.log2(b / 1e-280))))
        his = b * 0.5 ** np.arange(K)
        los = his * 0.5
        mids, halfs = 0.5 * (his + los), 0.5 * (his - los)
        t = (mids[:, None] + halfs[:, None] * xg[None, :]).ravel()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(omega(t), dtype=float) / t
        vals = np.nan_to_num(vals.reshape(K, -1), nan=0.0, posinf=0.0)
        segs = halfs * (vals @ wg)
        partial = np.cumsum(segs)
        small = np.nonzero(segs < tol * max(partial[-1], 1.0))[0]
        if small.size and small[0] >= 2:
            k = int(small[0])
            ratio = segs[k] / max(segs[k - 1], 1e-300)
            tail = segs[k] * ratio / (1.0 - ratio) if ratio < 0.9 else 0.0
            return float(partial[k] + tail)
        if small.size:
            return float(partial[-1])
        k1, k2 = K // 2, K - 1
        j1, j2 = (k + math.log2(1.0 / b) + 1.0 for k in (k1, k2))
        p_exp = math.log(max(segs[k1], 1e-300) / max(segs[k2], 1e-300)) \
            / math.log(j2 / j1)
        return float(partial[-1] + segs[k2] * j2 / (p_exp - 1.0))

    # identity and log_dini stop within a few segments, the pipeline omega1
    # after about 130; inv_log_sq never meets the stop rule and is
    # extrapolated; b = 1e-9 has 899 segments, not 900
    @pytest.mark.parametrize("make", [identity_mod, log_dini_mod,
                                      inv_log_sq_mod,
                                      lambda: build_omega1(inv_log_sq_mod(), CFG)],
                             ids=["identity", "log_dini", "inv_log_sq", "omega1"])
    def test_array_b_matches_full_reference(self, make):
        # each upper limit of an array, in its own call, is the reference
        # bit for bit: a different stop segment would move the value by
        # about the stop threshold, 1e-10
        omega = make()
        bs = np.concatenate([np.geomspace(1e-3, 1.0, 23), [0.37, 1e-9]])
        got = [dini_integral(omega, b) for b in bs]
        assert got == [self.reference_dini_from_zero(omega, b) for b in bs]
        assert all(isinstance(v, float) for v in got)

    def test_array_b_divergence_and_guards(self):
        ones = ModulusOfContinuity(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        with pytest.raises(DiniDivergenceError) as exc:
            dini_integral(ones, 0.5)
        assert exc.value.partial_sums.size == 900
        with pytest.raises(ValueError):
            dini_integral(identity_mod(), 1.5)

    @pytest.mark.parametrize("b", [1e-300, 1e-279])
    def test_underflow_guard_names_itself(self, b):
        # 1e-300 left no segment (IndexError), 1e-279 three, which
        # returned 0.875 b for omega(t) = t
        with pytest.raises(ValueError, match="1e-280 underflow guard"):
            dini_integral(identity_mod(), b)

    def test_tiny_b_above_guard_unchanged(self):
        # 1e-250 keeps 99 segments, and its value is the rule's bit for bit
        for make in (identity_mod, log_dini_mod):
            omega = make()
            for b in (1e-250, 1e-200, 4e-20):
                assert dini_integral(omega, b) \
                    == self.reference_dini_from_zero(omega, b)
        assert dini_integral(identity_mod(), 1e-250) == pytest.approx(
            1e-250, rel=1e-10)


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

    @staticmethod
    def loop_majorant_vertices(r, w):
        """The hull vertices with equal radii merged one sample at a time,
        as the array merge replaced, for reference."""
        order = np.argsort(r)
        r, w = r[order], w[order]
        if r[0] > 0.0:
            r = np.concatenate([[0.0], r])
            w = np.concatenate([[0.0], w])
        keep_r, keep_w = [r[0]], [w[0]]
        for ri, wi in zip(r[1:], w[1:]):
            if ri == keep_r[-1]:
                keep_w[-1] = max(keep_w[-1], wi)
            else:
                keep_r.append(ri)
                keep_w.append(wi)
        hull = []
        for pt in zip(keep_r, keep_w):
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) >= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(pt)
        return np.array([h[0] for h in hull]), np.array([h[1] for h in hull])

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_radii_merge_matches_loop(self, seed):
        # repeated radii (with and without r = 0) in shuffled order; the
        # merge keeps each radius's largest value, bit for bit
        rng = np.random.default_rng(seed)
        r = rng.choice(np.linspace(seed % 2, 1.0, 9), 40)
        w = rng.uniform(0.0, 1.0, 40) + 2.0 * r
        hull = least_concave_majorant(r, w)
        ref_r, ref_w = self.loop_majorant_vertices(r, w)
        assert np.array_equal(hull.samples_r, ref_r)
        assert np.array_equal(hull.samples_w, ref_w)


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
        h = om1(rs) / np.sqrt(rs)
        assert np.all(np.diff(h) <= 1e-10 * h[:-1])

    def test_majorizes_raw_construction(self):
        cfg = CFG
        omA = log_dini_mod()
        om1 = build_omega1(omA, cfg)
        rs = np.geomspace(1e-8, 1.0, 50)
        raw_tilde = np.maximum(np.asarray(omA(cfg.gamma * rs)) / cfg.delta_tilde, rs)
        # omega1(r^2) * scale_factor is the hull; between samples a concave
        # input may poke above the interpolated hull by the sampling gap only
        hull_unnorm = om1(rs ** 2) * om1.scale_factor
        assert np.all(hull_unnorm >= raw_tilde * (1.0 - 1e-3) - 1e-9)
        # at build_omega1's own samples the hull majorizes the raw values
        vr = np.unique(np.concatenate([
            [0.0], np.geomspace(1e-14, 1.0, 600), np.linspace(0.0, 1.0, 257)]))
        raw_at_samples = np.maximum(np.asarray(omA(cfg.gamma * vr)) / cfg.delta_tilde, vr)
        assert np.all(om1(vr ** 2) * om1.scale_factor >= raw_at_samples - 1e-12)

    def test_normalized_at_one(self):
        om1 = build_omega1(log_dini_mod(), CFG)
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
        vals = om2(np.geomspace(1e-3, 1.0, 25))
        assert np.all(np.diff(vals) >= -1e-12 * vals[:-1])

    def test_clamp_diagnostic_below_resolution(self, tg):
        # the clamp shows in the values: for gamma r < min_radius() the mean
        # is the one over Q_floor
        rng = np.random.default_rng(4)
        f = rng.normal(size=tg.shape)
        om2 = build_omega2(tg, f, CFG, self.P)
        s, g, dt = self.P.s, CFG.gamma, CFG.delta_tilde
        floor = tg.min_radius()
        mean = tg.cylinder_mean(f ** 2, tg.center, floor)
        rs = np.array([1e-9, 1e-4, 0.01, 1.0])
        assert np.all(g * rs < floor)
        expect = np.maximum(g * (g * rs) ** (2 * s - 1) * np.sqrt(mean) / dt, rs)
        assert np.any(expect > rs)
        np.testing.assert_allclose(om2(rs), expect, rtol=1e-13, atol=0)


    @staticmethod
    def per_radius_omega2(tg, f, cfg, p, rs):
        """build_omega2's values as its per-radius loop computed them: one
        float radius clamped at the floor, one cylinder_mean call each."""
        floor = tg.min_radius()
        out = []
        for ri in rs:
            r = cfg.gamma * ri
            avg = tg.cylinder_mean(f ** 2, tg.center, max(float(r), floor))
            intensity = float(r) ** (2.0 * p.s - 1.0) * math.sqrt(max(avg, 0.0))
            out.append(max(cfg.gamma * intensity / cfg.delta_tilde, ri))
        return np.array(out)

    # the benchmark's two thin grids and an n = 2 one; gamma = 0.45 puts
    # gamma r above the floor for the larger radii, and the amplitude 1e3
    # keeps the data term above r
    @pytest.mark.parametrize("grid", [ThinGrid(1, 1.0, 16, 16),
                                      ThinGrid(1, 1.0, 32, 64),
                                      ThinGrid(2, 1.0, 64, 16)],
                             ids=["16x16", "32x64", "n2"])
    @pytest.mark.parametrize("cfg", [CFG, ModulusPipelineConfig(gamma=0.45)],
                             ids=["pipeline", "unclamped"])
    def test_matches_per_radius_loop(self, grid, cfg):
        # s = 0.68: at 2s - 1 = 1/2 numpy's power is a square root, which
        # rounds as pow does
        p = FracParams(s=0.68)
        f = 1e3 * np.random.default_rng(8).normal(size=grid.shape)
        om2 = build_omega2(grid, f, cfg, p)
        rs = np.concatenate([cfg.lam ** np.arange(cfg.kmax + 1),
                             np.geomspace(1e-6, 2.0, 40)])
        ref = self.per_radius_omega2(grid, f, cfg, p, rs)
        assert np.any(ref > rs)
        assert np.array_equal(om2(rs), ref)
        assert [om2(r) for r in rs] == list(ref)


class TestDeclaredFields:
    def test_undeclared_attribute_rejected(self, tg):
        p = FracParams(s=0.75)
        om1 = build_omega1(log_dini_mod(), CFG)
        om2 = build_omega2(tg, np.ones(tg.shape), CFG, p)
        built = [least_concave_majorant([0.0, 1.0], [0.0, 1.0]), om1, om2,
                 build_omega3_and_omega(om1, om2, CFG),
                 build_K(om1, decreasing_rearrangement(SampledFunction([1.0], [1.0])),
                         p, CFG)]
        for om in built:
            assert not hasattr(om, "__dict__")
            with pytest.raises(AttributeError):
                om.diagnostics = {}


class TestOmega3AndOmega:
    def test_single_term_at_k0(self):
        om1 = ModulusOfContinuity(lambda r: 0.5 * np.sqrt(r))
        om2 = ModulusOfContinuity(lambda r: 3.0 * np.asarray(r, dtype=float) ** 0.25)
        omega = build_omega3_and_omega(om1, om2, CFG)
        # samples_w is max(omega3, sqrt R), ascending in r; here omega3 > 1
        assert omega.samples_w[-1] == pytest.approx(float(om1(1.0)) * float(om2(1.0)))

    def test_closed_form_convolution(self):
        # omega1 = omega2 = lam^(i/2) at dyadic points -> omega3 = (k+1) lam^(k/2)
        sq = ModulusOfContinuity(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        k = np.arange(CFG.kmax + 1)
        # omega3 >= sqrt R, so samples_w (ascending in r) is omega3
        assert np.allclose(omega.samples_w[::-1], (k + 1) * CFG.lam ** (k / 2.0),
                           rtol=1e-12)

    def test_floor_at_sqrt(self):
        omega = build_omega3_and_omega(
            ModulusOfContinuity(lambda r: np.sqrt(r)),
            ModulusOfContinuity(lambda r: np.asarray(r, dtype=float)),
            CFG)
        assert np.all(omega.samples_w >= np.sqrt(omega.samples_r) - 1e-15)

    def test_envelope_monotone_and_half_decreasing(self):
        sq = ModulusOfContinuity(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        rs = np.geomspace(CFG.lam ** 10, 1.0, 300)
        vals = omega(rs)
        assert np.all(np.diff(vals) >= -1e-12)
        h = vals / np.sqrt(rs)
        assert np.all(np.diff(h) <= 1e-10 * h[:-1])

    def test_envelope_matches_grid_values(self):
        sq = ModulusOfContinuity(lambda r: np.sqrt(r))
        omega = build_omega3_and_omega(sq, sq, CFG)
        assert np.allclose(omega(omega.samples_r), omega.samples_w, rtol=1e-12)

    @staticmethod
    def loop_envelope(R, wg, r):
        """The envelope one radius at a time, with the log bracketing and
        its rounding guards that the bisection replaced, for reference."""
        kmax, lam = len(R) - 1, R[1]
        out = np.empty(len(r))
        for idx, ri in enumerate(r):
            if ri >= R[0]:
                out[idx] = wg[0] * math.sqrt(ri / R[0]) if ri > R[0] else wg[0]
            elif ri <= R[kmax]:
                out[idx] = wg[kmax] * math.sqrt(max(ri, 0.0) / R[kmax])
            else:
                k = int(math.floor(math.log(ri) / math.log(lam)))
                k = min(max(k, 0), kmax - 1)
                while k > 0 and ri > R[k]:
                    k -= 1
                while k < kmax - 1 and ri <= R[k + 1]:
                    k += 1
                out[idx] = max(wg[k + 1], wg[k] * math.sqrt(ri / R[k]))
        return out

    @pytest.mark.parametrize("lam", [1.0 / 16.0, 0.2])
    def test_envelope_matches_loop(self, lam):
        cfg = ModulusPipelineConfig(lam=lam, kmax=12)
        omega = build_omega3_and_omega(
            build_omega1(log_dini_mod(), cfg),
            ModulusOfContinuity(
                lambda r: 0.3 * np.asarray(r, dtype=float) ** 0.4), cfg)
        R, wg = omega.samples_r[::-1], omega.samples_w[::-1]
        rng = np.random.default_rng(3)
        r = np.concatenate([
            [0.0, 1.0, 1.5, 40.0, R[-1] * 0.5],
            R, R * (1.0 + 1e-15), R * (1.0 - 1e-15),
            np.nextafter(R, 0.0), np.nextafter(R, 2.0),
            np.geomspace(R[-1] * 1e-3, 2.0, 400),
            np.exp(rng.uniform(math.log(R[-1]), 0.0, 400))])
        ref = self.loop_envelope(R, wg, r)
        assert np.array_equal(omega(r), ref)
        assert np.array_equal(omega(r[:400].reshape(20, 20)),
                              ref[:400].reshape(20, 20))
        assert omega(r[7]) == ref[7]
        assert omega(r[7:8]).shape == (1,)


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

    @staticmethod
    def inv_log_sq_data_bound(c, gamma, cfg):
        """The gamma-tuning bound omega(g)/dt + int_0^g omega(t)/t dt
        / ((-log sqrt lam) dt) for omega = c / log(e/r)^2 in closed form:
        with L = log(e/g) the integral is c / L."""
        L = 1.0 - math.log(gamma)
        return (c / (L * L) + c / (L * -math.log(math.sqrt(cfg.lam)))) \
            / cfg.delta_tilde

    @pytest.mark.parametrize("c, halvings", [(3.0, 3), (10.0, 17)])
    def test_gamma_tuned_by_halving(self, c, halvings):
        # the default gamma = 0.05 is halved until the coefficient part's
        # bound is <= 1; the closed form gives the same number of halvings
        cfg = ModulusPipelineConfig()
        tg = ThinGrid(1, 1.0, 16, 16)
        f = np.cos(2.0 * tg.meshgrid()[1])
        rep = summability_check(modulus_generator("inv_log_sq", c=c), tg, f,
                                self.P, cfg)
        assert rep.tuned_gamma == cfg.gamma * 0.5 ** halvings
        bounds = [self.inv_log_sq_data_bound(c, cfg.gamma * 0.5 ** k, cfg)
                  for k in range(halvings + 1)]
        assert min(bounds[:-1]) > 1.0 >= bounds[-1]
        # the bound reads 2.0e-5 (c = 3) and 5.5e-5 (c = 10) high through
        # dini_integral's tail fit, inside TestDiniIntegral's 1.3e-3; the
        # bounds on both sides of 1 above are 0.5% or more away from 1
        assert rep.bound_omega1_data_part == pytest.approx(bounds[-1],
                                                           rel=1e-4)
        assert rep.holds

    def test_gamma_tuning_gives_up(self):
        # c = 100: even 60 halvings leave the bound above 1 (about 3.2)
        cfg = ModulusPipelineConfig()
        assert self.inv_log_sq_data_bound(100.0, cfg.gamma * 0.5 ** 60,
                                          cfg) > 1.0
        tg = ThinGrid(1, 1.0, 16, 16)
        with pytest.raises(DiniDivergenceError, match="could not tune gamma"):
            summability_check(modulus_generator("inv_log_sq", c=100.0), tg,
                              np.cos(2.0 * tg.meshgrid()[1]), self.P, cfg)

    def test_non_dini_coefficient_refused(self, tg):
        bad = ModulusOfContinuity(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        with pytest.raises(DiniDivergenceError):
            summability_check(bad, tg, np.zeros(tg.shape), self.P, CFG)


class TestBuildK:
    P = FracParams(s=0.75)

    def zero_profile(self):
        return decreasing_rearrangement(SampledFunction([1.0], [0.0]))

    def test_linear_omega1_zero_data(self):
        # a zero coefficient modulus gives omega1(r) = sqrt r, linear in
        # sqrt r, so K1(r) = 2 r^(1/4) and K3 = 0
        om1 = build_omega1(modulus_generator("zero"), CFG)
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        for r in [0.04, 0.25, 0.81]:
            assert K(r) == 2.0 * math.sqrt(math.sqrt(r)) + math.sqrt(r)

    def test_k2_component(self):
        om1 = build_omega1(modulus_generator("zero"), CFG)
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        assert K.components["K2"](0.25) == 0.5

    def test_sup_over_shifts_sits_at_zero(self):
        # build_K takes both sups over shifts a at a = 0, which holds when
        # the integrands omega1(t)/t and u^(alpha-1) (g**(u))^(1/2) are
        # nonincreasing; "constant" is left out: omega1(0) > 0 there, so it
        # is not a modulus
        ts = np.geomspace(1e-12, 4.0, 2001)
        for name in ("zero", "lipschitz", "log_dini", "inv_log_sq", "power"):
            for gamma in (0.0125, 0.05, 0.45):
                om1 = build_omega1(modulus_generator(name),
                                   replace(CFG, gamma=gamma))
                v = om1(ts) / ts
                assert np.all(np.diff(v) <= 1e-13 * v[:-1]), (name, gamma)
        rng = np.random.default_rng(11)
        for tg in (ThinGrid(1, 1.0, 16, 16), ThinGrid(2, 1.0, 8, 8)):
            for _ in range(5):
                f = rng.uniform(0.1, 10.0) * rng.normal(size=tg.shape)
                prof = decreasing_rearrangement(gridded_to_sampled(tg, f ** 2))
                alpha = (2.0 * rng.uniform(0.51, 0.99) - 1.0) / (tg.n + 2.0)
                us = np.geomspace(1e-12, 4.0 * prof.total_measure, 2001)
                v = us ** (alpha - 1.0) * np.sqrt(prof.double_star(us))
                assert np.all(np.diff(v) <= 1e-13 * v[:-1]), tg.n

    def test_monotone_and_half_decreasing(self, tg):
        rng = np.random.default_rng(12)
        f = np.abs(rng.normal(size=tg.shape))
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
        """K1 + K2 + K3 of a build_omega1 modulus as sups over 21 shifts a,
        one Gauss integral per shift and a scalar g** per node.  Oracle for
        the closed-form K, which takes each sup at a = 0: a shift that beat
        a = 0 would show here."""
        from fracheat.lorentz import cylinder_measure_constant
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
            k1 = piecewise_sqrt_dini(omega1, min(h1, 1.0))
            if h1 > 1.0:
                k1 += math.log(h1) * float(omega1(1.0))
            for a in a_scan:
                k1 = max(k1, shifted(
                    lambda t: np.asarray(omega1(np.minimum(t, 1.0))) / t, a, h1))
            h3 = C * r
            k3 = float(_power_integral_table(prof, alpha)(h3))
            for a in a_scan:
                k3 = max(k3, shifted(
                    lambda u: u ** (alpha - 1.0) * np.sqrt(np.maximum(
                        [prof.double_star(float(x)) for x in u], 0.0)), a, h3))
            return k1 + math.sqrt(r) + k3
        return K

    # a t^2 coefficient modulus, which as omega1 itself would put the K1
    # sup at a > 0, goes through build_omega1 like any other
    @pytest.mark.parametrize("om1", [
        build_omega1(log_dini_mod(), CFG),
        build_omega1(ModulusOfContinuity(lambda r: np.asarray(r) ** 2), CFG)])
    def test_batched_scan_matches_per_a_loop(self, om1):
        tg16 = ThinGrid(1, 1.0, 16, 16)
        f = np.random.default_rng(3).normal(size=tg16.shape)
        prof = decreasing_rearrangement(gridded_to_sampled(tg16, f ** 2))
        K = build_K(om1, prof, self.P, CFG)
        ref = self.per_a_loop_K(om1, prof, self.P)
        rs = np.array([1e-5, 3e-3, 0.05, 0.3, 1.0, 2.5])
        np.testing.assert_allclose(K(rs), [ref(r) for r in rs], rtol=1e-12, atol=0)

    @staticmethod
    def reference_power_integral(prof, alpha, upper):
        """int_0^upper u^(alpha-1) (g**(u))^(1/2) du as it was computed
        plateau by plateau."""
        from fracheat.kernels import _gauss_panels
        bps = prof.breakpoints
        total = math.sqrt(max(prof.plateaus[0], 0.0)) \
            * min(upper, bps[1]) ** alpha / alpha
        if upper <= bps[1]:
            return total
        for k in range(1, len(prof.plateaus)):
            lo, hi = bps[k], min(upper, bps[k + 1])
            if hi <= lo:
                break
            n_panels = max(1, int(math.ceil(math.log10(hi / lo) * 2)) + 1)
            u, wu = _gauss_panels(lo, hi, n_panels, 24)
            total += float(np.sum(wu * u ** (alpha - 1.0) * np.sqrt(
                np.maximum(prof.double_star(u), 0.0))))
        if upper > prof.total_measure:
            mass = prof.integral_g_star(prof.total_measure)
            e = alpha - 0.5
            total += math.sqrt(mass) * (upper ** e - prof.total_measure ** e) / e
        return total

    def test_power_integral_panel_count_next_to_power_of_ten(self):
        # hi / lo = 100.00000000000006: math.log10 gives 2.0 and np.log10
        # 2.0000000000000004, so ceil(2 log10) and the panel count would
        # differ with numpy's rounding
        prof = RearrangedProfile(np.array([0.0, 1.0, 300.0]),
                                 np.array([3.0, 1.0]))
        upper = np.array([100.00000000000006, 50.0, 0.5, 400.0])
        ref = [self.reference_power_integral(prof, 0.2, u) for u in upper]
        np.testing.assert_allclose(_power_integral_table(prof, 0.2)(upper), ref,
                                   rtol=1e-12, atol=0)
        # the scalar path estimate2_check uses is the reference bit for bit
        table = _power_integral_table(prof, 0.2)
        assert [float(table(u)) for u in upper] == ref

    @staticmethod
    def per_radius_K(omega1, prof, p, scan_points=21):
        """K of a build_omega1 modulus as it was computed before it took
        arrays: a Python loop over radii, the exact Dini integral, the power
        integral plateau by plateau, one a-scan per radius.  Reference for
        the array-native, closed-form K."""
        from fracheat.lorentz import cylinder_measure_constant
        C = cylinder_measure_constant(p.n)
        alpha = (2.0 * p.s - 1.0) / (p.n + 2.0)
        a_scan = np.geomspace(1e-6, 2.0, scan_points)
        xg, wg = np.polynomial.legendre.leggauss(32)

        def power_integral(upper):
            return TestBuildK.reference_power_integral(prof, alpha, upper)

        def scan_max(fn_over_t, h):
            lo, hi = a_scan, a_scan + h
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = mid[:, None] + half[:, None] * xg
            vals = np.asarray(fn_over_t(t.ravel()), dtype=float).reshape(t.shape)
            return float(np.max(half * (vals @ wg)))

        def K(r):
            h = math.sqrt(r)
            k1 = piecewise_sqrt_dini(omega1, min(h, 1.0))
            if h > 1.0:
                k1 += math.log(h) * float(omega1(1.0))
            k1 = max(k1, scan_max(lambda t: omega1(np.minimum(t, 1.0)) / t, h))
            k3 = max(power_integral(C * r), scan_max(
                lambda u: u ** (alpha - 1.0)
                * np.sqrt(np.maximum(prof.double_star(u), 0.0)), C * r))
            return k1 + math.sqrt(r) + k3
        return K

    @staticmethod
    def random_profile():
        tg16 = ThinGrid(1, 1.0, 16, 16)
        f = np.random.default_rng(3).normal(size=tg16.shape)
        return decreasing_rearrangement(gridded_to_sampled(tg16, f ** 2))

    RADII = np.concatenate([np.geomspace(1e-6, 2.5, 37),
                            np.random.default_rng(7).uniform(1e-3, 1.2, 12)])

    @pytest.mark.parametrize("om1, zero", [
        (build_omega1(inv_log_sq_mod(), CFG), False),
        (build_omega1(ModulusOfContinuity(lambda r: np.asarray(r) ** 2), CFG),
         False),
        (build_omega1(log_dini_mod(), CFG), True)],
        ids=["omega1", "t_squared", "zero_profile"])
    def test_array_K_matches_per_radius_reference(self, om1, zero):
        prof = self.zero_profile() if zero else self.random_profile()
        K = build_K(om1, prof, self.P, CFG)
        ref = self.per_radius_K(om1, prof, self.P)
        np.testing.assert_allclose(K(self.RADII), [ref(r) for r in self.RADII],
                                   rtol=1e-12, atol=0)

    def test_array_K_matches_scalar_calls(self):
        prof = self.random_profile()
        K = build_K(build_omega1(inv_log_sq_mod(), CFG), prof, self.P, CFG)
        vals = K(self.RADII)
        scalar = np.array([K(r) for r in self.RADII])
        np.testing.assert_allclose(vals, scalar, rtol=1e-15, atol=0)
        for name in ("K1", "K3"):
            comp = K.components[name]
            np.testing.assert_allclose(comp(self.RADII),
                                       [comp(r) for r in self.RADII],
                                       rtol=1e-15, atol=0)
        assert K(self.RADII.reshape(7, 7)).shape == (7, 7)

    def test_calls_per_K_grow_with_chunks_not_radii(self):
        calls = {"omega1": 0, "double_star": 0}
        om1 = build_omega1(inv_log_sq_mod(), CFG)

        def counted_omega1(t):
            calls["omega1"] += 1
            return om1(t)
        prof = self.random_profile()
        double_star = prof.double_star

        def counted_double_star(u):
            calls["double_star"] += 1
            return double_star(u)
        prof.double_star = counted_double_star
        K = build_K(ModulusOfContinuity(counted_omega1, samples_r=om1.samples_r,
                                        samples_w=om1.samples_w),
                    prof, self.P, CFG)
        rng = np.random.default_rng(5)
        # 180 radii: about as many as one K call of gradient_modulus_probe
        for n in (3, 40, 180):
            calls.update(omega1=0, double_star=0)
            K(rng.uniform(1e-3, 1.2, n))
            # K1 reads the per-vertex table built with K; K3 makes one call
            # per panel count of the partial plateaus.  The radius-by-radius
            # K made two of each per radius.
            assert calls["omega1"] == 0
            assert calls["double_star"] <= 4

    @staticmethod
    def bent(om1):
        """omega1's samples on a function that is not their interpolant."""
        return ModulusOfContinuity(lambda r: om1(r) * (1.0 + 1e-6 * np.sin(
            40.0 * np.asarray(r))), samples_r=om1.samples_r,
            samples_w=om1.samples_w)

    # t^2 makes omega1(t)/t increase, so the K1 sup would sit at a > 0
    @pytest.mark.parametrize("om1", [
        ModulusOfContinuity(lambda r: np.asarray(r) ** 2),
        ModulusOfContinuity(lambda r: np.ones_like(np.asarray(r, dtype=float))),
        bent(build_omega1(inv_log_sq_mod(), CFG))],
        ids=["t_squared", "non_dini", "bent"])
    def test_omega1_not_from_build_omega1_raises(self, om1):
        with pytest.raises(ValueError, match="build_omega1"):
            build_K(om1, self.zero_profile(), self.P, CFG)

    GAMMAS = (0.05, 0.025, 0.0125)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("make", [inv_log_sq_mod, log_dini_mod],
                             ids=["inv_log_sq", "log_dini"])
    def test_k1_table_matches_per_piece_quadrature(self, make, gamma):
        om1 = build_omega1(make(), replace(CFG, gamma=gamma))
        bs = np.concatenate([np.geomspace(1e-6, 1.0, 41), [0.37, 1.0]])
        np.testing.assert_allclose(
            _sqrt_interp_dini(om1)(bs),
            [piecewise_sqrt_dini(om1, b) for b in bs], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_dyadic_rule_error_on_kinked_omega1(self, gamma):
        # the dyadic rule's Gauss panels straddle the hull's kinks: about
        # 1e-6 relative, far above its 1e-10 stop tolerance
        om1 = build_omega1(inv_log_sq_mod(), replace(CFG, gamma=gamma))
        bs = np.geomspace(1e-6, 1.0, 41)
        err = (np.array([dini_integral(om1, b) for b in bs])
               / _sqrt_interp_dini(om1)(bs) - 1.0)
        assert np.max(np.abs(err)) <= 1e-6

    def test_k1_table_only_for_sqrt_interpolants(self, tg):
        om1 = build_omega1(inv_log_sq_mod(), CFG)
        assert _sqrt_interp_dini(om1) is not None
        # linear in r, not in sqrt r
        rs = np.linspace(0.0, 1.0, 9)
        assert _sqrt_interp_dini(least_concave_majorant(rs, np.sqrt(rs))) is None
        f = np.ones(tg.shape)
        omega = build_omega3_and_omega(om1, build_omega2(tg, f, CFG, self.P), CFG)
        assert _sqrt_interp_dini(omega) is None
        assert _sqrt_interp_dini(identity_mod()) is None
        assert _sqrt_interp_dini(self.bent(om1)) is None

    def test_concave_majorant_within_factor_two(self):
        om1 = build_omega1(log_dini_mod(), CFG)
        K = build_K(om1, self.zero_profile(), self.P, CFG)
        rs = CFG.lam ** np.arange(8, -1, -1.0)
        vals = K(rs)
        hull = least_concave_majorant(rs, vals)
        assert np.all(hull(rs) <= 2.0 * vals + 1e-12)
