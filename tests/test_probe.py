import math

import numpy as np
import pytest

from fracheat.kernels import FracParams
from fracheat.grids import ParabolicGrid, ScalarField, sample_scalar
from fracheat.extension import CoefficientField, solve_extension
from fracheat.generators import (
    coefficient_generator,
    thin_data_generator,
    modulus_generator,
)
from fracheat.moduli import ModulusOfContinuity
from fracheat.probe import (
    parabolic_distance,
    best_linear_fit,
    excess_with_fit,
    excess_sequence,
    one_step_improvement,
    campanato_excess_profile,
    gradient_modulus_probe,
    interior_probe,
    combined_norm,
)

P = FracParams(s=0.75)


def grid(nt=16, nx=20, ny=16, s=0.75):
    return ParabolicGrid(FracParams(s=s), nt=nt, nx=nx, ny=ny)


class TestParabolicDistance:
    def test_identical(self):
        assert parabolic_distance((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)) == 0.0

    def test_pure_time_gap(self):
        assert parabolic_distance((4.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == 2.0

    def test_random_pairs_vs_brute(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p1 = rng.normal(size=4)
            p2 = rng.normal(size=4)
            brute = max(math.sqrt(abs(p1[0] - p2[0])),
                        float(np.linalg.norm(p1[1:] - p2[1:])))
            assert parabolic_distance(p1, p2) == pytest.approx(brute, rel=1e-14)


def brute_force_fit(U, radius, center=None):
    """Dense weighted-lstsq oracle for the combined fit."""
    from fracheat.probe import _fit_weights, _design_columns
    g = U.grid
    if center is None:
        center = (g.center[0],) + tuple(g.center[1:]) + (0.0,)
    thin_w, thick_w, Xc = _fit_weights(g, center, radius)
    tr = g.trace_at_zero(U.values)
    ct = _design_columns(g, Xc, thick=False)
    ck = _design_columns(g, Xc, thick=True)
    rows = []
    targets = []
    sw_thin = np.sqrt(thin_w).ravel()
    sw_thick = np.sqrt(thick_w).ravel()
    for i in range(g.n + 1):
        rows.append(np.concatenate([sw_thin * ct[i].ravel(),
                                    sw_thick * ck[i].ravel()]))
    A = np.stack(rows, axis=1)
    bvec = np.concatenate([sw_thin * tr.ravel(),
                           sw_thick * U.values.ravel()])
    coef, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    return coef


class TestBestLinearFit:
    def test_linear_field_recovered(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 1.5 - 2.0 * x + 0.0 * t)
        fit = best_linear_fit(U, 0.5)
        assert fit.a == pytest.approx(1.5, abs=1e-10)
        assert fit.b[0] == pytest.approx(-2.0, abs=1e-10)
        assert fit.excess < 1e-12
        assert fit.normal_residual < 1e-12

    def test_even_field_zero_slope_mean_value(self):
        g = grid(nx=32, nt=24, ny=24)
        U = sample_scalar(g, lambda t, x, y: x ** 2 + 0.0 * t)
        r = 0.5
        fit = best_linear_fit(U, r)
        assert fit.b[0] == pytest.approx(0.0, abs=1e-12)
        # weighted-mean oracle: a* = r^2/3 for the x^2 field (thin and thick
        # x-moments share the same ratio on the symmetric cylinder)
        assert fit.a == pytest.approx(r ** 2 / 3.0, rel=2e-2)

    def test_matches_dense_lstsq_oracle(self):
        g = grid()
        rng = np.random.default_rng(8)
        U = ScalarField(g, rng.normal(size=g.shape))
        fit = best_linear_fit(U, 0.45)
        oracle = brute_force_fit(U, 0.45)
        assert fit.a == pytest.approx(oracle[0], abs=1e-10)
        assert fit.b[0] == pytest.approx(oracle[1], abs=1e-10)

    def test_projection_property(self):
        g = grid()
        rng = np.random.default_rng(3)
        U = ScalarField(g, rng.normal(size=g.shape))
        fit = best_linear_fit(U, 0.4)
        mesh = g.meshgrid()
        resid = ScalarField(g, U.values - (fit.a + fit.b[0] * mesh[1]))
        refit = best_linear_fit(resid, 0.4)
        assert abs(refit.a) < 1e-12 + 1e-10 * abs(fit.a)
        assert abs(refit.b[0]) < 1e-10

    def test_minimality_against_other_fits(self):
        g = grid()
        rng = np.random.default_rng(5)
        U = ScalarField(g, rng.normal(size=g.shape))
        fit_small = best_linear_fit(U, 0.25)
        fit_big = best_linear_fit(U, 0.5)
        e_optimal = fit_small.excess
        e_other = excess_with_fit(U, 0.25, fit_big)
        assert e_other >= e_optimal - 1e-14

    def test_empty_cylinder_rejected(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        with pytest.raises(ValueError):
            best_linear_fit(U, 0.5, center=(0.0, 5.0, 0.0))


class TestExcessSequence:
    def test_linear_field_zero_excess(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.3 + 0.9 * x + 0.0 * t)
        one = ModulusOfContinuity.from_callable(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        seq = excess_sequence(U, 0.25, 4, one)
        assert np.all(seq.excess < 1e-12)

    def test_quadratic_field_closed_form_rate(self):
        # U = x^2: E(r) = (16/45)(1 + 1/(1+a)) r^4 from exact moments
        g = grid(nt=64, nx=96, ny=48)
        U = sample_scalar(g, lambda t, x, y: x ** 2 + 0.0 * t)
        one = ModulusOfContinuity.from_callable(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        lam = 0.25
        seq = excess_sequence(U, lam, 3, one)
        a = g.params.a
        C = (16.0 / 45.0) * (1.0 + 1.0 / (1.0 + a))
        expect = C * seq.radii ** 4
        assert np.allclose(seq.excess[:3], expect[:3], rtol=0.08)
        # bound C lam^(2k) with omega = 1 (C = 16/15 > 1 at s = 3/4) holds
        # within the same 8%, with decaying ratio
        assert np.all(seq.ratios[:3] <= C * 1.08)
        assert seq.ratios[1] < seq.ratios[0]

    def test_time_dependent_field_closed_form(self):
        # U = x^2 + c t: the fit is l = r^2/3, and the residual's x- and
        # t-parts are orthogonal, so E(r) = (16/45 + 4c^2/3)(1 + 1/(1+a)) r^4.
        # Node weights applied to the square would read +96% here.
        c = 0.5
        g = grid(nt=16, nx=96, ny=16)
        U = sample_scalar(g, lambda t, x, y: x ** 2 + c * t)
        r = 0.25
        a = g.params.a
        expect = (16.0 / 45.0 + 4.0 * c ** 2 / 3.0) \
            * (1.0 + 1.0 / (1.0 + a)) * r ** 4
        assert best_linear_fit(U, r).excess == pytest.approx(expect, rel=2e-2)

    def test_kmax_clamped_to_resolution(self):
        g = grid(nt=8, nx=8, ny=8)
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        one = ModulusOfContinuity.from_callable(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        seq = excess_sequence(U, 0.25, 10, one)
        assert seq.clamped_kmax < 10
        assert seq.requested_kmax == 10

    def test_csv_export(self, tmp_path):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: x + 0.0 * t)
        one = ModulusOfContinuity.from_callable(
            lambda r: np.ones_like(np.asarray(r, dtype=float)))
        seq = excess_sequence(U, 0.25, 3, one)
        path = tmp_path / "seq.csv"
        seq.to_csv(path)
        # a one-radius sequence is one row: keep it 2-D
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (seq.ks.size, 5)
        assert np.allclose(data[:, 2], seq.excess, rtol=1e-12, atol=0.0)


class TestOneStepImprovement:
    def test_linear_input_succeeds_at_largest_scale(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.2 + 0.4 * x + 0.0 * t)
        lam, ratio, table = one_step_improvement(U)
        assert lam == 0.25
        assert ratio < 1e-10

    def test_smooth_solution_with_perturbation(self):
        g = grid(nt=20, nx=24, ny=20)
        base = solve_extension(
            g, CoefficientField.identity(1),
            lateral_dirichlet=lambda t, x, y: 0.3 * np.cos(x) * np.exp(-t),
            initial=lambda x, y: 0.3 * np.cos(x) * np.e)
        mesh = g.meshgrid()
        # solution-difference-like smooth perturbation mode
        mode = np.cos(4.0 * mesh[1]) * np.cos(2.0 * mesh[0]) \
            * (1.0 + mesh[2]) * np.ones(g.shape)
        scale = np.max(np.abs(base.values))
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            U = ScalarField(g, base.values + delta * scale * mode)
            lam, ratio, _ = one_step_improvement(U)
            assert lam is not None
            ratios.append(ratio)
        assert ratios[0] >= ratios[1] >= ratios[2] - 1e-12


class TestCampanato:
    def test_linear_field_zero_profile(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 1.0 + 0.5 * x + 0.0 * t)
        rep = campanato_excess_profile(U, (0.0, 0.0), [0.4, 0.2, 0.1])
        assert all(row["excess"] < 1e-12 for row in rep["rows"])

    def test_solved_instance_bounded_profile(self):
        g = grid(nt=24, nx=32, ny=24)
        coeff = coefficient_generator("dini_bump", eps=0.05)
        f = thin_data_generator("cosine", amp=0.05, xi=2.0)
        U = solve_extension(g, coeff, f=f,
                            lateral_dirichlet=lambda t, x, y: 0.05 * np.cos(x),
                            initial=lambda x, y: 0.05 * np.cos(x))
        K = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        rep = campanato_excess_profile(U, (0.0, 0.0), [0.4, 0.2, 0.1, 0.05],
                                       K=K)
        ratios = [row["ratio"] for row in rep["rows"]]
        assert all(np.isfinite(r) for r in ratios)
        assert rep["drift_tail_estimate"] < 1.0

    def test_two_center_gradient_difference(self):
        g = grid(nt=24, nx=40, ny=24)
        U = sample_scalar(g, lambda t, x, y: np.sin(x) + 0.0 * t)
        r1 = campanato_excess_profile(U, (0.0, -0.2), [0.3, 0.15, 0.075])
        r2 = campanato_excess_profile(U, (0.0, 0.2), [0.3, 0.15, 0.075])
        b1 = r1["limit_fit"].b[0]
        b2 = r2["limit_fit"].b[0]
        assert b1 == pytest.approx(math.cos(-0.2), abs=0.02)
        assert b2 == pytest.approx(math.cos(0.2), abs=0.02)


class TestGradientModulusProbe:
    def test_linear_field_zero_constants(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 2.0 * x + 0.0 * t)
        K = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        rep = gradient_modulus_probe(U, K, n_pairs=400, seed=1)
        assert rep.C_emp_interior < 1e-9
        assert rep.C_emp_boundary < 1e-9
        assert rep.geometry_ok

    def test_deterministic_given_seed(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: np.cos(2 * x) * (1 + y) + 0.1 * t)
        K = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        a = gradient_modulus_probe(U, K, n_pairs=300, seed=42)
        b = gradient_modulus_probe(U, K, n_pairs=300, seed=42)
        assert np.array_equal(a.pair_distances, b.pair_distances)
        assert a.C_emp_boundary == b.C_emp_boundary

    def test_smooth_solution_finite_and_stable(self):
        K = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        vals = []
        for nx in (24, 36):
            g = grid(nt=nx, nx=nx, ny=nx)
            f = thin_data_generator("cosine", amp=0.2, xi=1.0)
            U = solve_extension(g, CoefficientField.identity(1), f=f,
                                initial=lambda x, y: 0.0 * x)
            rep = gradient_modulus_probe(U, K, n_pairs=2000, seed=7)
            assert rep.geometry_ok
            vals.append(max(rep.C_emp_interior, rep.C_emp_boundary))
        assert all(np.isfinite(v) and v >= 0 for v in vals)
        assert vals[1] <= 3.0 * vals[0] + 0.2


def scalar_call_probe(U, K, n_pairs, seed):
    """The sampler with one scalar K call per pair, as the probe ran before
    it batched K: reference for the batched probe."""
    from fracheat.probe import _cells_in_half_cylinder
    grid = U.grid
    rng = np.random.default_rng(seed)
    gx, gy = grid.gradient(U.values)
    ti, xi_, yi = _cells_in_half_cylinder(grid)
    t_nodes, x_c, y_c = grid.t_nodes, grid.x_centers[0], grid.y_centers
    h_min = min(grid.dx, math.sqrt(grid.dt))
    decades, d = [], 0.45
    while d > h_min:
        decades.append(d)
        d /= 2.0
    n_dec = max(len(decades), 1)
    dists, ratios, cases = [], [], []
    ci = cb = ct = 0.0
    attempts = 0
    while len(dists) < n_pairs and attempts < 40 * n_pairs:
        attempts += 1
        i1 = (rng.choice(ti), rng.choice(xi_), rng.choice(yi))
        target = decades[rng.integers(0, n_dec)] * rng.uniform(0.5, 1.0)
        dt_ = rng.uniform(-1.0, 1.0) * target ** 2
        dx_ = rng.uniform(-1.0, 1.0) * target
        dy_ = rng.uniform(-1.0, 1.0) * target
        t2, x2, y2 = t_nodes[i1[0]] + dt_, x_c[i1[1]] + dx_, y_c[i1[2]] + dy_
        if abs(t2 - grid.center[0]) > 0.25 or abs(x2 - grid.center[1]) > 0.5 \
                or not 0.0 < y2 < 0.5:
            continue
        i2 = (int(np.argmin(np.abs(t_nodes - t2))),
              int(np.argmin(np.abs(x_c - x2))),
              int(np.argmin(np.abs(y_c - y2))))
        p1 = (t_nodes[i1[0]], x_c[i1[1]], y_c[i1[2]])
        p2 = (t_nodes[i2[0]], x_c[i2[1]], y_c[i2[2]])
        dist = parabolic_distance(p1, p2)
        if dist < h_min / 2.0 or dist > 0.45:
            continue
        inc = float(np.linalg.norm(np.array([gx[i1] - gx[i2], gy[i1] - gy[i2]])))
        ratio = inc / max(float(K(min(dist, 1.0))), 1e-300)
        interior = dist <= min(p1[2], p2[2]) / 4.0
        if interior:
            ci = max(ci, ratio)
        else:
            cb = max(cb, ratio)
        dists.append(dist)
        ratios.append(ratio)
        cases.append(0 if interior else 1)
    for _ in range(n_pairs // 4):
        j1, j2 = rng.choice(ti, size=2, replace=False)
        ix, iy = rng.choice(xi_), rng.choice(yi)
        dt_ = abs(t_nodes[j1] - t_nodes[j2])
        if dt_ <= 0:
            continue
        rdt = math.sqrt(dt_)
        du = abs(U.values[j1, ix, iy] - U.values[j2, ix, iy])
        ct = max(ct, du / max(float(K(min(rdt, 1.0))) * rdt, 1e-300))
    return dists, ratios, cases, (ci, cb, ct)


class TestBatchedK:
    def field(self):
        g = grid(nt=24, nx=24, ny=24)
        return sample_scalar(g, lambda t, x, y: np.cos(2 * x) * (1 + y ** 1.5)
                             + 0.3 * t * x)

    def test_K_called_once_on_array(self):
        calls = []

        def K(r):
            calls.append(np.shape(r))
            return np.sqrt(r) + r
        rep = gradient_modulus_probe(self.field(), K, n_pairs=300, seed=3)
        assert len(calls) == 1 and len(calls[0]) == 1
        assert 0 < calls[0][0] <= rep.pair_distances.size + rep.n_time

    def test_matches_scalar_call_reference(self):
        K = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r) + r)
        U = self.field()
        rep = gradient_modulus_probe(U, K, n_pairs=300, seed=11)
        dists, ratios, cases, consts = scalar_call_probe(U, K, 300, 11)
        assert np.array_equal(rep.pair_distances, dists)
        assert np.array_equal(rep.pair_ratios, ratios)
        assert np.array_equal(rep.pair_cases, cases)
        assert (rep.C_emp_interior, rep.C_emp_boundary, rep.C_emp_time) == consts
        assert min(consts) > 0.0


class TestInteriorProbe:
    def test_linear_field_zero_excess(self):
        # the k = 0 cube of side 0.3 spans 4 x- and y-cells per radius here
        g = grid(nx=32, ny=64)
        U = sample_scalar(g, lambda t, x, y: 1.0 + x - 0.5 * y + 0.0 * t)
        psi = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        rep = interior_probe(U, (0.0, 0.0, 0.55), 0.3, 0.25, 4, psi)
        assert len(rep["rows"]) >= 1
        assert all(row["excess"] < 1e-12 for row in rep["rows"])

    def test_smooth_field_fast_decay(self):
        # fine enough that three cubes 0.3 (1/2)^k span 4 cells per radius
        g = grid(nt=48, nx=112, ny=160)
        U = sample_scalar(g, lambda t, x, y: np.cos(x) * np.cosh(y) + 0.05 * t)
        psi = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        lam = 0.5
        rep = interior_probe(U, (0.0, 0.0, 0.55), 0.3, lam, 6, psi)
        rows = rep["rows"]
        assert len(rows) >= 3
        # smooth Taylor remainder: excess ~ r^4, i.e. decay order > 3
        orders = [math.log(rows[k]["excess"] / rows[k + 1]["excess"])
                  / math.log(1 / lam) for k in range(len(rows) - 1)]
        assert orders[0] > 3.0
        assert all(row["ratio"] < 10.0 for row in rows)

    def test_boundary_touching_cube_rejected(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        psi = ModulusOfContinuity.from_callable(lambda r: np.sqrt(r))
        with pytest.raises(ValueError):
            interior_probe(U, (0.0, 0.0, 0.2), 0.3, 0.25, 3, psi)


class TestRescalingInvariance:
    def test_excess_matches_under_parabolic_rescaling(self):
        # E(U_gamma at r) = kappa^2 E(U at gamma r) for
        # U_gamma(t, X) = kappa U(gamma^2 t, gamma X)
        form = lambda t, x, y: np.cos(1.3 * x) * np.exp(0.4 * t) * (1 + 0.5 * y)
        gam, kappa = 0.25, 0.7
        g1 = grid(nt=64, nx=64, ny=64)
        U1 = sample_scalar(g1, form)
        g2 = grid(nt=64, nx=64, ny=64)
        U2 = sample_scalar(g2, lambda t, x, y: kappa *
                           form(gam ** 2 * t, gam * x, gam * y))
        f1 = best_linear_fit(U1, gam * 0.5)
        f2 = best_linear_fit(U2, 0.5)
        assert f2.excess == pytest.approx(kappa ** 2 * f1.excess, rel=2e-2)


class TestCombinedNorm:
    def test_constant_field_closed_form(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 2.0 + 0.0 * t)
        a = g.params.a
        thin = 4.0 * 2.0 * 2.0      # value^2 * time * x measures
        thick = 4.0 * 2.0 * 2.0 / (1.0 + a)
        assert combined_norm(U) == pytest.approx(math.sqrt(thin + thick),
                                                 rel=1e-10)

    def test_time_linear_field_closed_form(self):
        # U = t: thin int t^2 = (2/3) 2, thick (2/3) 2 / (1 + a); at s = 3/4
        # the sum is 4 (node weights applied to t^2 read 4.031)
        U = sample_scalar(grid(), lambda t, x, y: t + 0.0 * x)
        assert combined_norm(U) ** 2 == pytest.approx(4.0, rel=1e-12)
