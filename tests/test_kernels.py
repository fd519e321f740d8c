import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fracheat import kernels
from fracheat.dtn import cosine_extension_data
from fracheat.kernels import (
    FracParams,
    QuadratureSpec,
    heat_kernel,
    subordination_constant,
    dtn_constant,
    frac_heat_apply,
    marchaud_normalization,
    check_master_bounds,
    _zeta_nodes,
    _ZETA_ORDER,
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

    def test_constant_annihilated_n2_default_spec(self):
        vals = frac_heat_apply(lambda t, x: 7.0 + 0.0 * t, FracParams(s=0.75, n=2),
                               self.Q, [[0.0, 0.3, -0.2]])
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_batch_size_does_not_change_values(self, monkeypatch):
        # batches that split every zeta grid unevenly against one batch per
        # tau node
        u = lambda t, x: np.exp(t) * np.cos(1.3 * x[:, 0] - 0.4 * x[:, 1])
        p, q = FracParams(s=0.7, n=2), QuadratureSpec(nodes_per_decade=6)
        pts = [[0.0, 0.1, -0.2], [0.3, -0.5, 0.4], [-0.2, 0.0, 0.9]]
        batched = frac_heat_apply(u, p, q, pts)
        monkeypatch.setattr(kernels, "_BATCH", 10 ** 9)
        whole = frac_heat_apply(u, p, q, pts)
        assert np.allclose(batched, whole, rtol=1e-12, atol=0.0)

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

    def test_diagnostics_report_the_tau_reached(self):
        # cosines stop early under the lattice rules at both n.  The node
        # values carry the rules' ~1e-9 aliasing at large tau, so a
        # _SETTLE_TOL at that floor stops late or never: at 3e-9 these
        # reach tau = 4.8e3 at both n, at 1e-9 no n = 1 cosine settles.
        # At 1e-8 the working rules stop by 274, the coarse ones by 416,
        # but the coarse n = 1 rules alias xi = 3 until 9.3e3.
        for n in (1, 2):
            for xi in (1.0, 3.0):
                for s in (0.6, 0.9):
                    _, diag = frac_heat_apply(
                        lambda t, x: np.cos(xi * (x if n == 1 else x[:, 0])),
                        FracParams(s=s, n=n), self.Q, [[0.0] * (1 + n)],
                        check_convergence=True)
                    assert diag.tau_reached < 1e3
                    aliased = n == 1 and xi == 3.0
                    assert diag.coarse_tau_reached < (1e4 if aliased else 1e3)

    def test_coarse_pass_of_an_aliased_n1_cosine_stops(self):
        # `dtn_dual_route` seed 4049, first pass, third case: cos(xi x) on
        # the 64 interior cell centres of 128^3.  The coarse rules alias
        # xi sqrt(tau) within the march; stopped at decade edges, the
        # coarse pass ran to tau = 1e9 on 602,112 u-points, and its delta
        # of 5.3e-5 was that aliasing.  It now stops at tau = 42, on 84,736.
        p, xi = FracParams(s=0.606537264864897), 2.432854650763925
        data = cosine_extension_data(p, xi)
        x = (2.0 * np.arange(64) - 63.0) / 128.0
        pts = np.column_stack([np.zeros(64), x])
        points = []

        def u(t, x):
            points.append(t.size)
            return data["u"](t, x)

        working = frac_heat_apply(u, p, self.Q, pts)
        working_points = sum(points)
        values, diag = frac_heat_apply(u, p, self.Q, pts,
                                       check_convergence=True)
        assert sum(points) - 2 * working_points <= 150_000
        assert diag.max_difference <= 1e-6
        assert np.array_equal(values, working)
        exact = data["exact"](0.0, x)
        assert np.max(np.abs(values - exact)) <= 2e-7 * np.max(np.abs(exact))

    def test_bad_points_shape(self):
        with pytest.raises(ValueError):
            frac_heat_apply(lambda t, x: x, self.P, self.Q, [[0.0, 0.1, 0.2]])

    def test_rejects_n_above_2(self):
        with pytest.raises(ValueError, match="n = 1 and 2"):
            frac_heat_apply(lambda t, x: x[:, 0], FracParams(s=0.75, n=3),
                            self.Q, [[0.0, 0.1, 0.2, 0.3]])

    def test_convergence_check_needs_a_coarser_spec(self):
        # nodes_per_decade = 4 coarsens to itself: the check would report
        # a zero delta while cos(3x) at s = 0.75 is 1.0% off
        q = QuadratureSpec(nodes_per_decade=4)
        assert q.coarsened() == q
        with pytest.raises(ValueError, match="nodes_per_decade=4"):
            frac_heat_apply(lambda t, x: np.cos(3.0 * x) + 0.0 * t, self.P,
                            q, [[0.0, 0.0]], check_convergence=True)


def _rules(q, n):
    """Every distinct zeta rule of `_ZETA_ORDER` at n and spec q."""
    factors = sorted({row[n] for row in _ZETA_ORDER})
    return [(f,) + _zeta_nodes(q, n, f) for f in factors]


def _g(zeta):
    n = zeta.shape[-1]
    return (4.0 * math.pi) ** (-0.5 * n) * np.exp(-np.sum(zeta * zeta,
                                                          axis=-1) / 4.0)


SPECS = {"default": QuadratureSpec(), "coarsened": QuadratureSpec().coarsened()}


class TestZetaRule:
    @pytest.mark.parametrize(
        "n, q", [(1, QuadratureSpec()), (2, QuadratureSpec()),
                 (1, QuadratureSpec().coarsened()),
                 (2, QuadratureSpec().coarsened())],
        ids=["1", "2", "1-coarsened", "2-coarsened"])
    def test_truncated_gaussian_mass(self, n, q):
        # each rule is a lattice, periodic with period 16 = 2 _Z_RADIUS per
        # axis: its weights sum to 1 less the weight its images outside the
        # box would carry, and its point set is symmetric under
        # zeta -> -zeta, so linear data stay annihilated
        shifts = np.array([c for c in np.ndindex(*(3,) * n) if any(
            d != 1 for d in c)], dtype=float) - 1.0
        for _, zeta, w in _rules(q, n):
            assert zeta.shape == (w.size, n) and zeta.T.flags.c_contiguous
            assert np.all(np.abs(zeta) < kernels._Z_RADIUS)
            cell = (2.0 * kernels._Z_RADIUS) ** n / w.size
            outside = sum(cell * _g(zeta + 16.0 * c).sum() for c in shifts)
            assert abs(1.0 - w.sum() - outside) <= 1e-15
            # near the Gaussian mass past the box, erfc(4) per axis
            tail = 1.0 - (1.0 - math.erfc(4.0)) ** n
            assert outside == pytest.approx(tail, rel=0.25)
            points = set(map(tuple, zeta.tolist()))
            assert len(points) == w.size
            assert {tuple(-a for a in pt) for pt in points} == points

    @pytest.mark.parametrize("spec, radii", [
        ("default", {1: 15.2, 2: 34.0, 3: 52.9, 4: 71.7, 6: 109.4, 8: 147.1}),
        ("coarsened", {1: 5.7, 2: 15.2, 3: 24.6, 4: 34.0, 6: 52.9,
                       8: 71.7})], ids=["default", "coarsened"])
    def test_trapezoid_rule(self, spec, radii):
        # G(zeta) cos(omega zeta) = exp(-omega^2) to 1e-7 up to each rule's
        # radius, 2 pi N / 16 - 4 for N points
        for f, zeta, w in _rules(SPECS[spec], 1):
            assert w.size == 2 * int(max(24, 4 * SPECS[spec].nodes_per_decade)
                                     * f / 2) + 1
            omega = np.linspace(0.0, radii[f], 1001)
            got = np.cos(np.outer(omega, zeta[:, 0])) @ w
            assert np.max(np.abs(got - np.exp(-omega ** 2))) <= 1e-7

    @pytest.mark.parametrize("spec, rules", [
        ("default", {0.6: (1_597, 11.6, 32.0), 1: (4_181, 21.3, 88.0),
                     1.5: (6_765, 26.5, 145.0), 2: (17_711, 45.4, 190.0)}),
        ("coarsened", {0.6: (377, 3.1, 5.7), 1: (987, 7.6, 19.0),
                       1.5: (1_597, 11.6, 32.0), 2: (4_181, 21.3, 88.0)})],
        ids=["default", "coarsened"])
    def test_lattice_rule(self, spec, rules):
        # (size, radius, axis): G(zeta) cos(omega . zeta) = exp(-|omega|^2)
        # to 1e-7 for 181 directions up to |omega| = radius, and along both
        # axes up to axis
        theta = np.linspace(0.0, math.pi, 181)
        for f, zeta, w in _rules(SPECS[spec], 2):
            size, radius, axis = rules[f]
            assert w.size == size
            for r in np.linspace(0.0, radius, 16):
                omega = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
                got = np.cos(omega @ zeta.T) @ w
                assert np.max(np.abs(got - math.exp(-r * r))) <= 1e-7
            r = np.linspace(0.0, axis, 951)
            for d in (0, 1):
                got = np.cos(np.outer(r, zeta[:, d])) @ w
                assert np.max(np.abs(got - np.exp(-r * r))) <= 1e-7

    def test_u_points_of_a_dual_route_2d_call(self):
        # the direct quadrature of `dtn_dual_route_2d`: four n = 2 points
        # with the refinement check, 16 for u at each point and its
        # finite-difference stencil, and the zeta points of the tau nodes up
        # to the stop node: tau = 130 for the working rule, 148 for the
        # coarse one (3,689,848 when each stopped at a decade edge, 1e4 and
        # 1e7; 9,091,648 when both marched to _TAU_HIGH)
        points = []

        def u(t, x):
            points.append(t.size)
            return np.cos(x[:, 0]) * np.cos(0.7 * x[:, 1]) + 0.0 * t

        pts = [[0.0, a, b] for a in (-0.3, 0.3) for b in (-0.3, 0.3)]
        frac_heat_apply(u, FracParams(s=0.75, n=2), QuadratureSpec(), pts,
                        check_convergence=True)
        assert sum(points) == 1_733_852


def _row_major_inner_sum(u, t, x0, u_here, srt, zeta, zw):
    """`kernels._inner_sum` with the shifted points formed as one row-major
    (m, k, n) array: the same batches and reduction."""
    (m, n), zeta = x0.shape, np.ascontiguousarray(zeta)
    inner = np.zeros(m)
    step = max(1, kernels._BATCH // m)
    for lo in range(0, zw.size, step):
        z, w = zeta[lo:lo + step], zw[lo:lo + step]
        xs = x0[:, None, :] - srt * z[None, :, :]
        shifted = kernels._eval_u(u, np.repeat(t, w.size), xs.reshape(-1, n),
                                  n).reshape(m, -1)
        inner += np.sum(w * (u_here[:, None] - shifted), axis=1)
    return inner


class TestColumnLayout:
    """The column-built points give the row-major sum bit for bit."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_zeta_grid_values_and_layout(self, n):
        # every rule is the rank-1 lattice i (1, gen) / N mod 1 of its N
        # points, stored by coordinate: zeta.T is C-contiguous
        for _, zeta, w in _rules(QuadratureSpec(), n):
            assert zeta.T.flags.c_contiguous
            k = np.rint(zeta * w.size / 16.0).astype(int)
            assert np.array_equal((16.0 / w.size) * k, zeta)
            assert np.array_equal(k[:, 0] % w.size, np.arange(w.size))
            if n == 2:
                gen = k[1, 1]
                assert np.array_equal(k[:, 1] % w.size,
                                      np.arange(w.size) * gen % w.size)

    @pytest.mark.parametrize("n, batch", [(1, 32768), (1, 1000), (2, 32768),
                                          (2, 1000)])
    def test_matches_row_major_bit_for_bit(self, n, batch, monkeypatch):
        monkeypatch.setattr(kernels, "_BATCH", batch)
        shapes = []

        def u(t, x):
            shapes.append((t.shape, x.shape))
            if n == 1:
                return np.exp(t) * np.cos(1.3 * x)
            return np.exp(t) * np.cos(1.3 * x[:, 0] - 0.4 * x[:, 1])

        p, q = FracParams(s=0.7, n=n), QuadratureSpec(nodes_per_decade=6)
        pts = np.array([[0.0] + [0.1, -0.2][:n], [0.3] + [-0.5, 0.4][:n],
                        [-0.2] + [0.0, 0.9][:n]])
        values, diag = frac_heat_apply(u, p, q, pts, check_convergence=True)
        # x is (M, n) at n = 2; at n = 1 u gets the one column, (M,)
        assert all(x == ((t[0], n) if n > 1 else t) for t, x in shapes)
        monkeypatch.setattr(kernels, "_inner_sum", _row_major_inner_sum)
        ref, ref_diag = frac_heat_apply(u, p, q, pts, check_convergence=True)
        assert np.array_equal(values, ref)
        assert np.array_equal(diag.coarse_values, ref_diag.coarse_values)
        assert ((diag.tau_reached, diag.coarse_tau_reached)
                == (ref_diag.tau_reached, ref_diag.coarse_tau_reached))


class TestSettledDecade:
    """The tau march stops at the first node where the inner integral is
    nonzero and has held within _SETTLE_TOL of its size over the last
    decade of nodes; at a zero tolerance it marches to _TAU_HIGH."""

    PTS = {1: [[0.0, 0.0], [0.4, -0.5]],
           2: [[0.0, 0.3, -0.2], [0.4, -0.5, 0.1]]}
    # name: (n, u, tau of the working and coarse stop nodes, rtol of the
    # working and coarse values to the full march).  The kink and the bump
    # vanish exactly near PTS, so their first node values are 0 and must
    # not count as settled: the operator is nonlocal, and their values are
    # not 0.  A coarse rtol of None compares with the closed form instead.
    DATA = {
        "cos_1e-3_n2": (2, lambda t, x: np.cos(1e-3 * x[:, 0]) + 0.0 * t,
                        (2.737684e8, 4.162072e8), (5e-12, 5e-12)),
        "lorentzian_in_t_n1": (1, lambda t, x: 1.0 / (1.0 + t * t) + 0.0 * x,
                               (1.021456e5, 1.080850e5), (1e-12, 1e-12)),
        "cos_0.03_n2": (2, lambda t, x: np.cos(0.03 * x[:, 0]) + 0.0 * t,
                        (3.652723e5, 2.402649e5), (5e-12, None)),
        "kink_n1": (1, lambda t, x: np.clip(np.abs(x) - 1.0, 0.0, 1.0)
                    + 0.0 * t, (3.652723e4, 9.251982e3), (1e-12, 1e-12)),
        "bump_off_support_n2": (2, lambda t, x: np.maximum(
            0.0, 1.0 - (x[:, 0] - 3.0) ** 2 - x[:, 1] ** 2) + 0.0 * t,
                                (9.789946e9, 9.251982e9), (0.0, 0.0)),
    }
    # the values and coarse values of the march to _TAU_HIGH, at s = 0.75
    # and PTS
    FULL = {
        "cos_1e-3_n2": ([3.162274624396482e-05, 3.162274367965734e-05],
                        [3.1622745798992194e-05, 3.162274326849355e-05]),
        "lorentzian_in_t_n1": ([0.3517099919923465, -0.2177654528492007],
                               [0.3517098799989869, -0.21776580561608647]),
        "cos_0.03_n2": ([0.005195940454046527, 0.005195566584095424],
                        [0.005195937796509129, 0.0051955639267162726]),
        "kink_n1": ([-0.23378515013313386, -0.3117385703251285],
                    [-0.2328051224005813, -0.312011319639614]),
        "bump_off_support_n2": ([-0.009536218602379874, -0.003661356143080808],
                                [-0.009745789131263546, -0.003746900834708283]),
    }

    def apply(self, name):
        n, u, _, _ = self.DATA[name]
        with warnings.catch_warnings():
            # the kink and the bump are not smooth enough to converge
            warnings.simplefilter("ignore", RuntimeWarning)
            return frac_heat_apply(u, FracParams(s=0.75, n=n),
                                   QuadratureSpec(), self.PTS[n],
                                   check_convergence=True)

    def full_march(self, name, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_SETTLE_TOL", 0.0)
            return self.apply(name)

    @pytest.mark.parametrize("name", DATA)
    def test_zero_tolerance_is_the_full_march(self, name, monkeypatch):
        values, diag = self.full_march(name, monkeypatch)
        last = [kernels._tau_nodes(q)[0][-1]
                for q in (QuadratureSpec(), QuadratureSpec().coarsened())]
        assert [diag.tau_reached, diag.coarse_tau_reached] == last
        # a few ulps: libm and SIMD builds differ in the last bit
        for got, want in zip((values, diag.coarse_values), self.FULL[name]):
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", DATA)
    def test_stop_matches_the_full_march(self, name, monkeypatch):
        _, _, reached, rtols = self.DATA[name]
        values, diag = self.apply(name)
        full, full_diag = self.full_march(name, monkeypatch)
        assert (diag.tau_reached, diag.coarse_tau_reached) == pytest.approx(
            reached, rel=1e-6)
        for got, want, rtol in ((values, full, rtols[0]), (
                diag.coarse_values, full_diag.coarse_values, rtols[1])):
            if rtol is None:
                # cos(0.03 x1): past the stop the full coarse march meets
                # the coarse lattice's aliasing, 8.05e-7 from the closed
                # form against 3.13e-7 at the stop
                x1 = np.array(self.PTS[2])[:, 1]
                exact = 0.03 ** 1.5 * np.cos(0.03 * x1)
                assert np.max(np.abs(got - exact)) <= np.max(
                    np.abs(want - exact))
            elif rtol == 0.0:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=rtol, atol=0.0)


class TestErrorTable:
    """Closed-form symbols with the default spec at t = 0, x = 0, where
    u = 1 and the error is the symbol's amplitude error.  Each bound is the
    worst case, on this table, of the schedule that used zeta factors
    1/2/4/8 for tau <= 16/64/256/inf: 6.511e-4 (cosines, n = 1 and 2),
    7.058e-6 (product of cosines) and 3.994e-7 (e^t cosine).  GAIN holds
    what later rules reached.  The lattice zeta rules give 2.43e-7 on the
    cosine at n = 1, held to 5e-7 (the Gauss tensor rules before them gave
    8.14e-5, their far-field noise never settling); the n = 2 families are
    held to 1e-6 (2.72e-7 and 2.80e-7 with the lattices, 8.09e-5 and
    6.82e-6 with the tensor rules); and e^t cosine to 2.5e-7 (1.25e-7, and
    3.99e-7 without the tail past the last sampled decade)."""
    Q = QuadratureSpec()
    # name: (n, u for a given xi, symbol lambda(xi) of (d_t - Lap), bound)
    FAMILIES = {
        "cos_n1": (1, lambda xi: lambda t, x: np.cos(xi * x) + 0.0 * t,
                   lambda xi: xi ** 2, 6.52e-4),
        "cos_n2": (2, lambda xi: lambda t, x: np.cos(xi * x[:, 0]) + 0.0 * t,
                   lambda xi: xi ** 2, 6.52e-4),
        "cos_cos_n2": (2, lambda xi: lambda t, x: (np.cos(xi * x[:, 0])
                                                   * np.cos(0.7 * xi * x[:, 1])),
                       lambda xi: 1.49 * xi ** 2, 7.06e-6),
        "exp_cos_n1": (1, lambda xi: lambda t, x: np.exp(t) * np.cos(xi * x),
                       lambda xi: 1.0 + xi ** 2, 4.0e-7),
    }
    GAIN = {"cos_n1": 5e-7, "cos_n2": 1e-6, "cos_cos_n2": 1e-6,
            "exp_cos_n1": 2.5e-7}

    def rel_error(self, family, s, xi):
        n, make_u, lam, _ = self.FAMILIES[family]
        val = frac_heat_apply(make_u(xi), FracParams(s=s, n=n), self.Q,
                              [[0.0] * (1 + n)])[0]
        exact = lam(xi) ** s
        return abs(val - exact) / exact

    @pytest.mark.parametrize("family", FAMILIES)
    def test_worst_relative_error(self, family):
        worst = max(self.rel_error(family, s, xi)
                    for s in (0.6, 0.9) for xi in (1.0, 3.0))
        assert worst <= self.FAMILIES[family][3]
        assert worst <= self.GAIN.get(family, math.inf)

    @pytest.mark.parametrize("s,xi,bound", [(0.58, 0.3, 2.65e-6),
                                            (0.55, 0.5, 2.93e-6),
                                            (0.55, 1 / 3, 5e-7),
                                            (0.55, 2 / 3, 5e-7),
                                            (0.55, 11 / 12, 5e-7)])
    def test_low_frequency_product(self, s, xi, bound):
        # a product of two low modes sees the square of the far-field
        # aliasing noise, so a lower zeta order past tau = 1e5 failed here;
        # the first two bounds are the old schedule's error at the point.
        # The lattice with the tail past _TAU_HIGH gives 1.96e-7 and
        # 1.85e-7; without the tail, whose share is 2.76e-6 at (0.55, 0.5),
        # 2.95e-6.  Marched to _TAU_HIGH, the last three read 7.35e-6,
        # 8.28e-6 and 7.61e-6, where the lattice meets the product's
        # spectrum far past the settled decade; stopped there, 1.79e-7.
        err = self.rel_error("cos_cos_n2", s, xi)
        assert err <= bound
        assert err <= 5e-7


class TestVerdict:
    """The refinement check at x = 0 on cosines of the closed-form symbol:
    it flags hard-band modes the zeta rules do not resolve, and passes
    normal-band ones.  The Gauss tensor zeta rules before the lattices
    flagged both normal cases, with deltas of 1.1e-2 and 1.2e-2 at errors
    of 7.1e-6 and 1.9e-7."""

    # name: (n, u, symbol, s, converged)
    CASES = {
        "hard_cos_n1": (1, lambda t, x: np.cos(12.0 * x) + 0.0 * t, 144.0,
                        0.55, False),
        "hard_cos_cos_n2": (2, lambda t, x: (np.cos(24.0 * x[:, 0])
                                             * np.cos(16.8 * x[:, 1])),
                            1.49 * 576.0, 0.55, False),
        "normal_cos_n1": (1, lambda t, x: np.cos(3.0 * x) + 0.0 * t, 9.0,
                          0.75, True),
        "normal_cos_n2": (2, lambda t, x: np.cos(2.5 * x[:, 0]) + 0.0 * t,
                          6.25, 0.65, True),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_flag_fires_when_the_error_exceeds_the_tolerance(self, name):
        n, u, symbol, s, converged = self.CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            values, diag = frac_heat_apply(u, FracParams(s=s, n=n),
                                           QuadratureSpec(), [[0.0] * (1 + n)],
                                           check_convergence=True)
        err = abs(values[0] - symbol ** s) / max(1.0, abs(values[0]))
        assert diag.converged == converged
        assert (err <= kernels._REFINE_TOL) == converged


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

    def test_heat_case_bounds_at_n2(self):
        # K z^(n+2s+2) = c_s (4 pi u)^(-n/2) u^(-s-1) e^(-1/(4u)) at
        # tau = u z^2; at n = 2 it peaks at u = 1/(4(s+2)) and decreases on
        # [c1, c2] = [1/2, 2], so the sampled minimum sits at u = c2
        s, c2 = 0.75, 2.0
        rep = check_master_bounds(FracParams(s=s, n=2), 0.5, c2)
        closed = subordination_constant(s) / (4.0 * math.pi) \
            * c2 ** -(s + 2.0) * math.exp(-1.0 / (4.0 * c2))
        assert closed == pytest.approx(0.0021595, rel=1e-4)
        assert rep.lambda_lower == pytest.approx(closed, rel=1e-9)
        assert math.isfinite(rep.Lambda_upper)
        assert rep.holds

    def test_lambda_scale_invariant_under_z_refinement(self):
        p = FracParams(s=0.6)
        a = check_master_bounds(p, 0.5, 2.0, z_range=(0.1, 10.0))
        b = check_master_bounds(p, 0.5, 2.0, z_range=(0.2, 20.0))
        assert b.lambda_lower == pytest.approx(a.lambda_lower, rel=0.05)
