import math

import numpy as np
import pytest

from fracheat.kernels import FracParams
from fracheat.grids import ParabolicGrid, ScalarField
from fracheat.extension import CoefficientField, solve_extension
from fracheat.generators import (
    coefficient_generator,
    thin_data_generator,
)
from fracheat.moduli import ModulusOfContinuity
from fracheat.probe import (
    parabolic_distance,
    best_linear_fit,
    excess_sequence,
    gradient_modulus_probe,
    interior_probe,
    _fit,
    _pieces,
)

from fields import sample_scalar

P = FracParams(s=0.75)


def grid(nt=16, nx=20, ny=16, s=0.75):
    return ParabolicGrid(FracParams(s=s), nt=nt, nx=nx, ny=ny)


ONE = ModulusOfContinuity(lambda r: np.ones_like(np.asarray(r, dtype=float)))
SQRT = ModulusOfContinuity(lambda r: np.sqrt(r))


def norm_sq(U):
    """The squared combined norm of U over its unit cylinder: the trace
    L^2 over Q_1 plus the weighted L^2 over Q*_1, i.e. the excess of the
    fit l = 0 at r = 1."""
    g = U.grid
    return sum(_fit(g, _pieces(U, g.center, 1.0), np.zeros(g.n + 1))[1])


def limit_excess(U, center, radius, seq):
    """Thick-cylinder excess at `radius` of the Campanato limit fit, the
    last fit of the excess record `seq`."""
    limit = np.concatenate([[seq.fits[-1].a], seq.fits[-1].b])
    return _fit(U.grid, _pieces(U, center, radius)[1:], limit)[1][0]


class TestParabolicDistance:
    def test_arrays_equal_pair_by_pair(self):
        rng = np.random.default_rng(4)
        p1, p2 = rng.normal(size=(2, 3, 500))
        got = parabolic_distance(tuple(p1), tuple(p2))
        assert got.shape == (500,)
        assert np.array_equal(got, [parabolic_distance(a, b)
                                    for a, b in zip(p1.T, p2.T)])

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


def full_grid_terms(U, radius, center):
    """Thin and thick weights of the combined excess and its regressors
    (1, x - x0) as full sample-lattice arrays, from the public grid API."""
    g = U.grid
    window, wx, wy = g.cylinder_weights(center, radius)
    tw = g.time_weights(*window)
    thin_w = np.multiply.outer(tw, wx) * radius ** -(g.n + 2.0)
    thick_w = np.multiply.outer(np.multiply.outer(tw, wx), wy) \
        * radius ** -(g.n + 3.0 + g.params.a)
    mesh = g.meshgrid()
    cols = [np.ones(g.shape)] + [mesh[1 + d] - center[1 + d]
                                 for d in range(g.n)]
    return (g.trace_at_zero(U.values), window, thin_w, thick_w,
            [c[..., 0] for c in cols], cols)


def brute_force_fit(U, radius, center=None):
    """Dense weighted-lstsq oracle for the combined fit."""
    g = U.grid
    if center is None:
        center = (g.center[0],) + tuple(g.center[1:]) + (0.0,)
    tr, _, thin_w, thick_w, ct, ck = full_grid_terms(U, radius, center)
    sw_thin = np.sqrt(thin_w).ravel()
    sw_thick = np.sqrt(thick_w).ravel()
    A = np.stack([np.concatenate([sw_thin * ct[i].ravel(),
                                  sw_thick * ck[i].ravel()])
                  for i in range(g.n + 1)], axis=1)
    bvec = np.concatenate([sw_thin * tr.ravel(),
                           sw_thick * U.values.ravel()])
    coef, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    return coef


def loop_excess(U, radius, center, coef):
    """Thin and thick excess of coef . (1, x - x0) from full-lattice
    residual fields: the evaluation the separable fit replaced."""
    g = U.grid
    tr, window, _, _, ct, ck = full_grid_terms(U, radius, center)
    wx = g.cylinder_weights(center, radius)[1]
    lin_thin = sum(c * col for c, col in zip(coef, ct))
    lin_thick = sum(c * col for c, col in zip(coef, ck))
    e_thin = float(np.sum(wx * g.time_integral_sq(tr - lin_thin, *window))) \
        * radius ** -(g.n + 2.0)
    e_thick = g.weighted_norm_sq(U.values - lin_thick, center, radius) \
        * radius ** -(g.n + 3.0 + g.params.a)
    return e_thin, e_thick


def loop_fit(U, radius, center):
    """The moment loop over full-lattice weight and regressor arrays that
    assembled the combined fit before the separable form: reference for
    it.  Returns (coef, e_thin, e_thick)."""
    tr, _, thin_w, thick_w, ct, ck = full_grid_terms(U, radius, center)
    m = U.grid.n + 1
    M = np.zeros((m, m))
    rhs = np.zeros(m)
    for i in range(m):
        rhs[i] = float(np.sum(thin_w * ct[i] * tr)) \
            + float(np.sum(thick_w * ck[i] * U.values))
        for j in range(i, m):
            M[i, j] = M[j, i] = float(np.sum(thin_w * ct[i] * ct[j])) \
                + float(np.sum(thick_w * ck[i] * ck[j]))
    coef = np.linalg.solve(M, rhs)
    return (coef, *loop_excess(U, radius, center, coef))


def loop_interior(U, center, side, lam, kmax):
    """The interior probe's moment loop on full-lattice arrays: reference
    for the separable fit.  Returns [(excess, coef)] per resolved cube."""
    g = U.grid
    y0 = center[-1]
    mesh = g.meshgrid()
    cols = [np.ones(g.shape)] + [mesh[1 + d] - center[1 + d]
                                 for d in range(g.n)] + [mesh[-1] - y0]
    rows = []
    for k in range(kmax + 1):
        r = side * lam ** k
        wy = np.maximum(np.minimum(g.y_faces[1:], y0 + r)
                        - np.maximum(g.y_faces[:-1], y0 - r), 0.0)
        if r < 4.0 * g.dx or r < 4.0 * np.max(np.diff(g.y_faces)[wy > 0.0]):
            break
        window, wx, _ = g.cylinder_weights(center, r)
        w_space = np.multiply.outer(wx, wy) * r ** -(g.n + 3.0)
        w = np.multiply.outer(g.time_weights(*window), w_space)
        M = np.array([[np.sum(w * ci * cj) for cj in cols] for ci in cols])
        rhs = np.array([np.sum(w * ci * U.values) for ci in cols])
        coef = np.linalg.solve(M, rhs)
        resid = U.values - sum(c * col for c, col in zip(coef, cols))
        rows.append((float(np.sum(w_space * g.time_integral_sq(resid, *window))),
                     coef))
    return rows


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
        # dx = 0.05: r = 0.25 spans 5 cells
        g = grid(nx=40)
        rng = np.random.default_rng(5)
        U = ScalarField(g, rng.normal(size=g.shape))
        fit_small = best_linear_fit(U, 0.25)
        fit_big = best_linear_fit(U, 0.5)
        e_optimal = fit_small.excess
        center = (g.center[0],) + tuple(g.center[1:]) + (0.0,)
        coef_big = np.concatenate([[fit_big.a], fit_big.b])
        e_other = sum(_fit(g, _pieces(U, center, 0.25), coef_big)[1])
        assert e_other >= e_optimal - 1e-14

    def test_unresolved_radius_rejected(self):
        # dx = 0.1: r = 0.25 spans 2.5 cells, fewer than CELLS_PER_RADIUS
        U = sample_scalar(grid(), lambda t, x, y: x + 0.0 * t)
        with pytest.raises(ValueError, match="radius 0.25 spans"):
            best_linear_fit(U, 0.25)

    def test_empty_cylinder_rejected(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        with pytest.raises(ValueError):
            best_linear_fit(U, 0.5, center=(0.0, 5.0, 0.0))


def random_field(n, seed, nt, nx, ny):
    g = ParabolicGrid(FracParams(s=0.7, n=n), nt=nt, nx=nx, ny=ny)
    return ScalarField(g, np.random.default_rng(seed).normal(size=g.shape))


def assert_rel(got, ref):
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


class TestSeparableFitMatchesLoop:
    """The separable fit reproduces the full-lattice moment loop to 1e-12
    relative at n = 1 and n = 2 on fixed seeds."""

    @pytest.fixture(params=[(1, 0), (1, 1), (2, 0), (2, 1)],
                    ids=["n1-seed0", "n1-seed1", "n2-seed0", "n2-seed1"])
    def U(self, request):
        n, seed = request.param
        # dx = 1/14: every radius down to 0.3 spans at least 4 cells
        return random_field(n, seed, *((16, 28, 16) if n == 1 else (8, 28, 12)))

    @staticmethod
    def center(U):
        return (0.05,) + (0.1,) * U.grid.n + (0.0,)

    def test_best_linear_fit(self, U):
        c = self.center(U)
        for r in (0.9, 0.5, 0.3):
            fit = best_linear_fit(U, r, c)
            coef, e_thin, e_thick = loop_fit(U, r, c)
            assert_rel([fit.a, *fit.b], coef)
            assert_rel([fit.excess_thin, fit.excess_thick], [e_thin, e_thick])

    def test_excess_with_fit(self, U):
        # the excess of given coefficients, on cylinders around the fit's
        # center and around a shifted one
        c = self.center(U)
        fit = best_linear_fit(U, 0.35, c)
        coef = np.concatenate([[fit.a], fit.b])
        assert_rel(sum(_fit(U.grid, _pieces(U, c, 0.5), coef)[1]),
                   sum(loop_excess(U, 0.5, c, coef)))
        c2 = (0.0,) + (-0.1,) * U.grid.n + (0.0,)
        shifted = np.concatenate([[fit.a - 0.2 * float(np.sum(fit.b))], fit.b])
        assert_rel(sum(_fit(U.grid, _pieces(U, c2, 0.5), shifted)[1]),
                   sum(loop_excess(U, 0.5, c2, shifted)))

    def test_campanato_profile(self, U):
        # lam = 0.6 reads r = 1, 0.6 and 0.36, all resolved at dx = 1/14
        c = self.center(U)[:-1]
        seq = excess_sequence(U, 0.6, 2, ONE, c)
        assert seq.radii.size == 3
        limit = loop_fit(U, seq.radii[-1], c)[0]
        assert_rel([seq.fits[-1].a, *seq.fits[-1].b], limit)
        assert_rel([limit_excess(U, c, r, seq) for r in seq.radii],
                   [loop_excess(U, r, c, limit)[1] for r in seq.radii])

    @pytest.mark.parametrize("n", [1, 2])
    def test_interior_probe(self, n):
        U = random_field(n, 3, *((8, 24, 96) if n == 1 else (6, 24, 64)))
        center = (0.0,) * (n + 1) + (0.55,)
        psi = ModulusOfContinuity(lambda r: np.sqrt(r))
        seq = interior_probe(U, center, 0.45, 0.5, 3, psi)
        ref = loop_interior(U, center, 0.45, 0.5, 3)
        assert len(seq.fits) == len(ref) >= 1
        assert np.all(seq.excess_thin == 0.0)
        for fit, exc, (ref_exc, coef) in zip(seq.fits, seq.excess, ref):
            assert_rel(exc, ref_exc)
            assert_rel([fit.a, *fit.b], coef)

    @pytest.mark.parametrize("n", [1, 2])
    def test_symmetric_slopes_vanish(self, n):
        # slopes zero by symmetry come out at rounding level, so they are
        # held to an absolute 1e-14 max|U| instead
        g = ParabolicGrid(FracParams(s=0.7, n=n), nt=8, nx=16, ny=12)
        U = sample_scalar(g, lambda t, *xy: sum(x ** 2 for x in xy[:-1]) + t)
        c = (0.0,) * (n + 1) + (0.0,)
        fit = best_linear_fit(U, 0.5, c)
        coef, e_thin, e_thick = loop_fit(U, 0.5, c)
        umax = float(np.max(np.abs(U.values)))
        assert_rel(fit.a, coef[0])
        assert np.all(np.abs(fit.b - coef[1:]) <= 1e-14 * umax)
        assert np.all(np.abs(fit.b) <= 1e-14 * umax)
        assert_rel([fit.excess_thin, fit.excess_thick], [e_thin, e_thick])


class TestExcessSequence:
    def test_linear_field_zero_excess(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.3 + 0.9 * x + 0.0 * t)
        seq = excess_sequence(U, 0.25, 4, ONE)
        assert np.all(seq.excess < 1e-12)

    def test_quadratic_field_closed_form_rate(self):
        # U = x^2: E(r) = (16/45)(1 + 1/(1+a)) r^4 from exact moments
        g = grid(nt=64, nx=96, ny=48)
        U = sample_scalar(g, lambda t, x, y: x ** 2 + 0.0 * t)
        lam = 0.25
        seq = excess_sequence(U, lam, 3, ONE)
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
        seq = excess_sequence(U, 0.25, 10, ONE)
        assert seq.clamped_kmax < 10

    def test_unresolved_first_radius_rejected(self):
        # dx = 1/3: r = 1 spans 3 cells, fewer than CELLS_PER_RADIUS
        U = sample_scalar(grid(nt=8, nx=6, ny=8), lambda t, x, y: x + 0.0 * t)
        with pytest.raises(ValueError, match="first radius 1 "):
            excess_sequence(U, 0.25, 3, ONE)

    def test_one_radius_sequence_keeps_its_arrays(self):
        # dx = 0.1 resolves only r = 1 at lam = 1/4: every per-radius record
        # still holds one entry, not a scalar
        g = grid()
        U = sample_scalar(g, lambda t, x, y: x + 0.0 * t)
        seq = excess_sequence(U, 0.25, 3, ONE)
        assert seq.clamped_kmax == 0
        for rec in (seq.ks, seq.radii, seq.excess, seq.bounds, seq.ratios):
            assert rec.shape == (1,)
        assert seq.excess[0] == best_linear_fit(U, 1.0).excess
        assert seq.drift_a.shape == seq.drift_b.shape == (0,)


class TestOneStepImprovement:
    """E(lam) < lam^3 on input of unit combined norm: the k = 1 ratio of
    the excess record at omega = sqrt, here at lam = 1/2."""

    @staticmethod
    def one_step_ratio(U):
        unit = ScalarField(U.grid, U.values / math.sqrt(norm_sq(U)))
        return excess_sequence(unit, 0.5, 1, SQRT).ratios[1]

    def test_linear_input_succeeds_at_largest_scale(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.2 + 0.4 * x + 0.0 * t)
        assert self.one_step_ratio(U) < 1e-10

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
        ratios = [self.one_step_ratio(
            ScalarField(g, base.values + delta * scale * mode))
            for delta in (1e-1, 1e-2, 1e-3)]
        assert ratios[0] < 1.0
        assert ratios[0] >= ratios[1] >= ratios[2] - 1e-12


class TestCampanato:
    """The limit of the fits is the last fit of the excess record, and the
    drifts bound its distance to every earlier fit."""

    def test_linear_field_zero_profile(self):
        # dx = 0.1 resolves r = 1 and 0.5
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 1.0 + 0.5 * x + 0.0 * t)
        seq = excess_sequence(U, 0.5, 3, ONE, (0.0, 0.0))
        assert seq.radii.size == 2
        assert all(limit_excess(U, (0.0, 0.0), r, seq) < 1e-12
                   for r in seq.radii)
        assert np.all(seq.drift_a < 1e-10) and np.all(seq.drift_b < 1e-10)

    def test_solved_instance_bounded_profile(self):
        # dx = 1/16 resolves r = 1, 0.5 and 0.25
        g = grid(nt=24, nx=32, ny=24)
        coeff = coefficient_generator("dini_bump", eps=0.05)
        f = thin_data_generator("cosine", amp=0.05, xi=2.0)
        U = solve_extension(g, coeff, f=f,
                            lateral_dirichlet=lambda t, x, y: 0.05 * np.cos(x),
                            initial=lambda x, y: 0.05 * np.cos(x))
        seq = excess_sequence(U, 0.5, 3, SQRT, (0.0, 0.0))
        assert seq.radii.size == 3
        ratios = [limit_excess(U, (0.0, 0.0), r, seq) / (r ** 2 * SQRT(r) ** 2)
                  for r in seq.radii]
        assert all(np.isfinite(r) for r in ratios)
        assert np.all(np.isfinite(seq.ratios))
        om = SQRT(seq.radii[:-1])
        step_a = seq.drift_a * seq.radii[:-1] * om
        step_b = seq.drift_b * om
        limit = seq.fits[-1]
        for k, fit in enumerate(seq.fits):
            assert abs(limit.a - fit.a) <= step_a[k:].sum() * (1 + 1e-12)
            assert np.linalg.norm(limit.b - fit.b) \
                <= step_b[k:].sum() * (1 + 1e-12) + 1e-15
        assert step_a[-1] + step_b[-1] < 1.0

    def test_two_center_gradient_difference(self):
        # dx = 0.05 resolves r = 1, 0.5 and 0.25
        g = grid(nt=24, nx=40, ny=24)
        U = sample_scalar(g, lambda t, x, y: np.sin(x) + 0.0 * t)
        for x0 in (-0.2, 0.2):
            seq = excess_sequence(U, 0.5, 3, ONE, (0.0, x0))
            assert seq.radii[-1] == 0.25
            assert seq.fits[-1].b[0] == pytest.approx(math.cos(x0), abs=0.02)


class TestGradientModulusProbe:
    def test_linear_field_zero_constants(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 2.0 * x + 0.0 * t)
        K = ModulusOfContinuity(lambda r: np.sqrt(r))
        rep = gradient_modulus_probe(U, K, n_pairs=400, seed=1)
        assert rep.C_emp_interior < 1e-9
        assert rep.C_emp_boundary < 1e-9
        assert rep.geometry_ok

    def test_deterministic_given_seed(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: np.cos(2 * x) * (1 + y) + 0.1 * t)
        K = ModulusOfContinuity(lambda r: np.sqrt(r))
        a = gradient_modulus_probe(U, K, n_pairs=300, seed=42)
        b = gradient_modulus_probe(U, K, n_pairs=300, seed=42)
        assert np.array_equal(a.pair_distances, b.pair_distances)
        assert a.C_emp_boundary == b.C_emp_boundary

    def test_smooth_solution_finite_and_stable(self):
        K = ModulusOfContinuity(lambda r: np.sqrt(r))
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

    def test_no_resolvable_scale_rejected(self):
        # min(dx, sqrt(dt)) = 0.5 leaves no pair scale below 0.45
        U = sample_scalar(grid(nt=8, nx=4, ny=8), lambda t, x, y: x + 0.0 * t)
        K = ModulusOfContinuity(lambda r: np.sqrt(r))
        with pytest.raises(ValueError, match="no pair scale"):
            gradient_modulus_probe(U, K, n_pairs=10)


def pair_scales(grid):
    """min(dx, sqrt(dt)) and the probe's dyadic pair scales below 0.45."""
    h_min = min(grid.dx, math.sqrt(grid.dt))
    decades, d = [], 0.45
    while d > h_min:
        decades.append(d)
        d /= 2.0
    return h_min, decades


def half_cylinder_cells(grid):
    """Indices of the time nodes, x-cells and y-cells of Q*_(1/2) around
    the grid's center at n = 1, from literal comparisons."""
    t0, x0 = grid.center
    return (np.nonzero(np.abs(grid.t_nodes - t0) <= 0.25)[0],
            np.nonzero(np.abs(grid.x_centers[0] - x0) <= 0.5)[0],
            np.nonzero((grid.y_centers > 0.0) & (grid.y_centers < 0.5))[0])


def old_loop_probe(U, K, n_pairs, seed):
    """The sampler as it was before it drew its attempts in blocks: one
    attempt at a time, rng.choice cells, one scalar K call per pair.
    Reference for the distribution of the pairs; returns the pair
    distances, ratios and cases, the time pairs' sqrt(dt) and the three
    empirical constants."""
    grid = U.grid
    rng = np.random.default_rng(seed)
    gx, gy = grid.gradient(U.values)
    ti, xi_, yi = half_cylinder_cells(grid)
    t_nodes, x_c, y_c = grid.t_nodes, grid.x_centers[0], grid.y_centers
    h_min, decades = pair_scales(grid)
    n_dec = max(len(decades), 1)
    dists, ratios, cases, rdts = [], [], [], []
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
        rdts.append(rdt)
        du = abs(U.values[j1, ix, iy] - U.values[j2, ix, iy])
        ct = max(ct, du / max(float(K(min(rdt, 1.0))) * rdt, 1e-300))
    return dists, ratios, cases, rdts, (ci, cb, ct)


def scalar_call_probe(U, K, n_pairs, seed):
    """The probe pair by pair on the sampler's own draws (the same blocks
    of the same RNG calls): argmin snapping, the public parabolic_distance,
    the full-field grid.gradient and one scalar K call per pair.
    Reference for the array-native probe; returns what old_loop_probe
    does."""
    from fracheat.probe import PAIR_BLOCK
    grid = U.grid
    rng = np.random.default_rng(seed)
    gx, gy = grid.gradient(U.values)
    ti, xi_, yi = half_cylinder_cells(grid)
    axes = (grid.t_nodes, grid.x_centers[0], grid.y_centers)
    h_min, decades = pair_scales(grid)
    dists, ratios, cases, rdts = [], [], [], []
    ci = cb = ct = 0.0
    attempts = 0
    while len(dists) < n_pairs and attempts < 40 * n_pairs:
        m = min(PAIR_BLOCK, 4 * (n_pairs - len(dists)), 40 * n_pairs - attempts)
        attempts += m
        cells = [c[rng.integers(0, c.size, m)] for c in (ti, xi_, yi)]
        target = np.array(decades)[rng.integers(0, len(decades), m)] \
            * rng.uniform(0.5, 1.0, m)
        shift = rng.uniform(-1.0, 1.0, (3, m)) * (target ** 2, target, target)
        for k in range(m):
            if len(dists) == n_pairs:
                break
            i1 = tuple(int(c[k]) for c in cells)
            to = [ax[i] + d[k] for ax, i, d in zip(axes, i1, shift)]
            if abs(to[0] - grid.center[0]) > 0.25 \
                    or abs(to[1] - grid.center[1]) > 0.5 or not 0.0 < to[2] < 0.5:
                continue
            i2 = tuple(int(np.argmin(np.abs(ax - v))) for ax, v in zip(axes, to))
            p1, p2 = ([ax[i] for ax, i in zip(axes, ii)] for ii in (i1, i2))
            dist = parabolic_distance(p1, p2)
            if dist < h_min / 2.0 or dist > 0.45:
                continue
            dgx, dgy = gx[i1] - gx[i2], gy[i1] - gy[i2]
            inc = math.sqrt(dgx * dgx + dgy * dgy)
            ratio = inc / max(float(K(min(dist, 1.0))), 1e-300)
            interior = dist <= min(p1[2], p2[2]) / 4.0
            if interior:
                ci = max(ci, ratio)
            else:
                cb = max(cb, ratio)
            dists.append(dist)
            ratios.append(ratio)
            cases.append(0 if interior else 1)
    n_time = n_pairs // 4
    j1 = rng.integers(0, ti.size, n_time)
    j2 = rng.integers(0, ti.size - 1, n_time)
    ix, iy = (c[rng.integers(0, c.size, n_time)] for c in (xi_, yi))
    for k in range(n_time):
        # j2 is drawn from the ti.size - 1 indices other than j1
        a, b = ti[j1[k]], ti[j2[k] + (j2[k] >= j1[k])]
        rdt = math.sqrt(abs(axes[0][a] - axes[0][b]))
        rdts.append(rdt)
        du = abs(U.values[a, ix[k], iy[k]] - U.values[b, ix[k], iy[k]])
        ct = max(ct, du / max(float(K(min(rdt, 1.0))) * rdt, 1e-300))
    return dists, ratios, cases, rdts, (ci, cb, ct)


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
        self.check_scalar_call_reference(300, 11)      # one block of attempts

    def test_matches_scalar_call_reference_over_blocks(self):
        self.check_scalar_call_reference(3000, 5)      # two full blocks

    def check_scalar_call_reference(self, n_pairs, seed):
        K = ModulusOfContinuity(lambda r: np.sqrt(r) + r)
        U = self.field()
        rep = gradient_modulus_probe(U, K, n_pairs=n_pairs, seed=seed)
        dists, ratios, cases, rdts, consts = scalar_call_probe(U, K, n_pairs,
                                                               seed)
        assert np.array_equal(rep.pair_distances, dists)
        assert np.array_equal(rep.pair_ratios, ratios)
        assert np.array_equal(rep.pair_cases, cases)
        assert rep.n_time == len(rdts)
        assert (rep.C_emp_interior, rep.C_emp_boundary, rep.C_emp_time) == consts
        assert min(consts) > 0.0

    def test_default_pairs_one_K_call_bounded_memory(self):
        import tracemalloc
        g = grid(nt=48, nx=48, ny=48)
        U = sample_scalar(g, lambda t, x, y: np.cos(2 * x) * (1 + y ** 1.5)
                          + 0.3 * t * x)
        calls = []

        def K(r):
            calls.append(np.shape(r))
            return np.sqrt(r) + r
        tracemalloc.start()
        try:
            rep = gradient_modulus_probe(U, K, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.pair_distances.size == 10000 and len(calls) == 1
        # blocks of at most PAIR_BLOCK attempts peak at about 4.5 MB; one
        # uncapped block of 4 x 10,000 attempts already peaks at 8.7 MB
        assert peak < 6e6, peak


class TestPairStatistics:
    """The array sampler draws the RNG stream in a different order than the
    one-attempt loop, so its pairs differ; their distribution must not.
    The seeds were fixed before any comparison was run."""

    SEEDS = range(20)

    @pytest.fixture(scope="class")
    def runs(self):
        g = grid(nt=48, nx=48, ny=48)
        U = sample_scalar(g, lambda t, x, y: np.cos(2 * x) * (1 + y ** 1.5)
                          + 0.3 * t * x)
        K = ModulusOfContinuity(lambda r: np.sqrt(r) + r)
        old = [old_loop_probe(U, K, 500, s) for s in self.SEEDS]
        new = [scalar_call_probe(U, K, 500, s) for s in self.SEEDS]
        reps = [gradient_modulus_probe(U, K, n_pairs=500, seed=s)
                for s in self.SEEDS]
        return old, new, reps

    def test_pair_distances_same_distribution(self, runs):
        from scipy.stats import ks_2samp
        old, _, reps = runs
        pooled_old = np.concatenate([o[0] for o in old])
        pooled_new = np.concatenate([r.pair_distances for r in reps])
        assert ks_2samp(pooled_old, pooled_new).pvalue > 0.01

    def test_interior_fraction(self, runs):
        old, _, reps = runs
        n = sum(len(o[2]) for o in old)
        f_old = 1.0 - sum(np.sum(o[2]) for o in old) / n
        f_new = (sum(r.n_interior for r in reps)
                 / sum(r.pair_distances.size for r in reps))
        se = math.sqrt(2.0 * f_old * (1.0 - f_old) / n)
        assert abs(f_new - f_old) < 4.0 * se

    def test_time_pair_scales_same_distribution(self, runs):
        from scipy.stats import ks_2samp
        old, new, reps = runs
        # the replica's time pairs are the probe's (the same draws, and
        # C_emp_time equal bit for bit in TestBatchedK)
        assert [len(n[3]) for n in new] == [r.n_time for r in reps]
        assert [n[4][2] for n in new] == [r.C_emp_time for r in reps]
        assert ks_2samp(np.concatenate([o[3] for o in old]),
                        np.concatenate([n[3] for n in new])).pvalue > 0.01

    def test_median_constants_within_old_spread(self, runs):
        old, _, reps = runs
        consts_old = np.array([o[4] for o in old])
        consts_new = np.array([(r.C_emp_interior, r.C_emp_boundary,
                                r.C_emp_time) for r in reps])
        q1, q3 = np.percentile(consts_old, [25, 75], axis=0)
        gap = np.abs(np.median(consts_new, axis=0) - np.median(consts_old, axis=0))
        assert np.all(gap <= q3 - q1), (gap, q3 - q1)


class TestInteriorProbe:
    def test_linear_field_zero_excess(self):
        # the k = 0 cube of side 0.3 spans 4 x- and y-cells per radius here
        g = grid(nx=32, ny=64)
        U = sample_scalar(g, lambda t, x, y: 1.0 + x - 0.5 * y + 0.0 * t)
        psi = ModulusOfContinuity(lambda r: np.sqrt(r))
        seq = interior_probe(U, (0.0, 0.0, 0.55), 0.3, 0.25, 4, psi)
        assert np.all(seq.excess < 1e-12)

    def test_smooth_field_fast_decay(self):
        # fine enough that three cubes 0.3 (1/2)^k span 4 cells per radius
        g = grid(nt=48, nx=112, ny=160)
        U = sample_scalar(g, lambda t, x, y: np.cos(x) * np.cosh(y) + 0.05 * t)
        psi = ModulusOfContinuity(lambda r: np.sqrt(r))
        lam = 0.5
        seq = interior_probe(U, (0.0, 0.0, 0.55), 0.3, lam, 6, psi)
        assert seq.radii.size >= 3
        # smooth Taylor remainder: excess ~ r^4, i.e. decay order > 3
        orders = np.log(seq.excess[:-1] / seq.excess[1:]) / math.log(1 / lam)
        assert orders[0] > 3.0
        assert np.all(seq.ratios < 10.0)

    def test_cube_outside_y_range_rejected(self):
        # y0 = 1.6 with side 0.3 lies above the grid's y-range [0, 1]
        g = grid(nt=8, nx=32, ny=16)
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        psi = ModulusOfContinuity(lambda r: np.sqrt(r))
        with pytest.raises(ValueError, match="meets no y-cell"):
            interior_probe(U, (0.0, 0.0, 1.6), 0.3, 0.25, 3, psi)

    def test_unresolved_first_cube_rejected(self):
        # dx = 0.25: the cube of side 0.3 spans 1.2 x-cells per radius
        U = sample_scalar(grid(nt=8, nx=8, ny=64), lambda t, x, y: 0.0 * t)
        with pytest.raises(ValueError, match="first radius 0.3 "):
            interior_probe(U, (0.0, 0.0, 0.55), 0.3, 0.25, 3, SQRT)

    def test_boundary_touching_cube_rejected(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 0.0 * t)
        psi = ModulusOfContinuity(lambda r: np.sqrt(r))
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
    """The squared combined norm, the l = 0 excess at r = 1, in closed
    form."""

    def test_constant_field_closed_form(self):
        g = grid()
        U = sample_scalar(g, lambda t, x, y: 2.0 + 0.0 * t)
        a = g.params.a
        thin = 4.0 * 2.0 * 2.0      # value^2 * time * x measures
        thick = 4.0 * 2.0 * 2.0 / (1.0 + a)
        assert norm_sq(U) == pytest.approx(thin + thick, rel=2e-10)

    def test_time_linear_field_closed_form(self):
        # U = t: thin int t^2 = (2/3) 2, thick (2/3) 2 / (1 + a); at s = 3/4
        # the sum is 4 (node weights applied to t^2 read 4.031)
        U = sample_scalar(grid(), lambda t, x, y: t + 0.0 * x)
        assert norm_sq(U) == pytest.approx(4.0, rel=1e-12)

    def test_constant_field_closed_form_2d(self):
        # thin and thick parts both integrate over Q_1 = (-1, 1) x B_1:
        # 2 pi (1 + 1/(1 + a)); the disk overlap is exact at n = 2
        g = ParabolicGrid(FracParams(s=0.75, n=2), nt=4, nx=16, ny=8)
        U = sample_scalar(g, lambda t, x1, x2, y: 1.0 + 0.0 * t)
        expect = 2.0 * math.pi * (1.0 + 1.0 / (1.0 + g.params.a))
        assert norm_sq(U) == pytest.approx(expect, rel=1e-13)
