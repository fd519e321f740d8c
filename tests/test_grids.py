import math

import numpy as np
import pytest

from fracheat.kernels import FracParams
from fracheat.grids import (
    ThinGrid,
    ParabolicGrid,
    ScalarField,
    VectorField,
    sample_scalar,
    sample_thin,
    save_field,
    load_field,
)


@pytest.fixture
def grid():
    return ParabolicGrid(FracParams(s=0.75), nt=16, nx=20, ny=24)


class TestParabolicGrid:
    def test_boundary_face_present_and_grading(self, grid):
        assert grid.y_faces[0] == 0.0
        assert grid.y_faces[-1] == pytest.approx(grid.rho)
        assert grid.q >= 1.0

    def test_weights_sum_to_weighted_measure(self, grid):
        total = float(np.sum(grid.weighted_cell_measures()))
        assert total == pytest.approx(grid.weighted_measure(), rel=1e-12)

    def test_weights_positive(self, grid):
        assert np.all(grid.weighted_cell_measures() > 0.0)

    def test_weighted_norm_constant_field(self, grid):
        vals = np.ones(grid.shape)
        got = grid.weighted_norm_sq(vals)
        assert got == pytest.approx(grid.weighted_measure() * 2 * grid.rho ** 2,
                                    rel=1e-12)

    @pytest.mark.parametrize("r", [0.25, 0.5])
    def test_weighted_norm_time_linear_field(self, grid, r):
        # U = t: int y^a t^2 over Q*_r = (2 r^6 / 3) (2 r) r^(1+a)/(1+a);
        # node weights applied to t^2 read +200% at r = 1/4, +12.5% at 1/2
        a = grid.params.a
        vals = sample_scalar(grid, lambda t, x, y: t + 0.0 * x).values
        expect = (2 * r ** 6 / 3) * (2 * r) * r ** (1 + a) / (1 + a)
        got = grid.weighted_norm_sq(vals, center=(0.0, 0.0), radius=r)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_cylinder_integral_subdomain_closed_form(self, grid):
        # int over Q*_r of y^a dt dX = 2 r^2 * (2r)^n * r^(1+a)/(1+a)
        r = 0.5
        a = grid.params.a
        got = grid.integrate_thick(np.ones(grid.shape), center=(0.0, 0.0), radius=r)
        expect = 2 * r ** 2 * (2 * r) * r ** (1 + a) / (1 + a)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_time_weights_partial_window(self, grid):
        # integrating t over [lo, hi] must be exact for the linear field
        lo, hi = -0.3, 0.55
        w = grid.time_weights(lo, hi)
        got = float(np.sum(w * grid.t_nodes))
        assert got == pytest.approx((hi ** 2 - lo ** 2) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("lo,hi", [(None, None), (-0.3, 0.55),
                                       (0.01, 0.04), (0.9, 2.0), (-3.0, -2.0)])
    def test_time_weights_match_per_step_loop(self, grid, lo, hi):
        # reference: integrate the two hat functions step by step
        t = grid.t_nodes
        lo_, hi_ = max(t[0] if lo is None else lo, t[0]), \
            min(t[-1] if hi is None else hi, t[-1])
        ref = np.zeros_like(t)
        for k in range(len(t) - 1):
            a_, b_ = t[k], t[k + 1]
            l, h = max(a_, lo_), min(b_, hi_)
            if h <= l:
                continue
            right = ((h - a_) ** 2 - (l - a_) ** 2) / (2 * (b_ - a_))
            ref[k] += (h - l) - right
            ref[k + 1] += right
        assert np.allclose(grid.time_weights(lo, hi), ref, rtol=1e-13,
                           atol=1e-15)

    @pytest.mark.parametrize("lo,hi", [(-0.3, 0.55), (0.01, 0.04),
                                       (-1.0, 1.0), (0.9, 2.0)])
    def test_time_integral_sq_exact_on_interpolant(self, grid, lo, hi):
        from scipy.integrate import quad
        rng = np.random.default_rng(2)
        v = rng.normal(size=(grid.nt + 1, 3))
        got = grid.time_integral_sq(v, lo, hi)
        lo_, hi_ = max(lo, grid.t_nodes[0]), min(hi, grid.t_nodes[-1])
        ref = [quad(lambda t: np.interp(t, grid.t_nodes, v[:, j]) ** 2,
                    lo_, hi_, points=grid.t_nodes, limit=200)[0]
               for j in range(v.shape[1])]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_time_integral_sq_empty_window(self, grid):
        v = np.ones((grid.nt + 1, 2))
        assert np.all(grid.time_integral_sq(v, 2.0, 3.0) == 0.0)

    def test_trace_extrapolation_recovers_boundary_expansion(self, grid):
        b = 1.0 - grid.params.a
        fld = sample_scalar(grid, lambda t, x, y: 2.0 + 3.0 * x + 0.7 * y ** b)
        tr = grid.trace_at_zero(fld.values)
        X = grid.x_centers[0]
        assert np.allclose(tr, 2.0 + 3.0 * X[None, :], atol=1e-12)

    def test_gradient_linear_exact(self, grid):
        fld = sample_scalar(grid, lambda t, x, y: 1.0 + 2.0 * x - 0.5 * y)
        gx, gy = grid.gradient(fld.values)
        assert np.allclose(gx, 2.0, atol=1e-10)
        assert np.allclose(gy, -0.5, atol=1e-8)

    def test_interp_multilinear(self, grid):
        fld = sample_scalar(grid, lambda t, x, y: t + 2.0 * x + 3.0 * y)
        pts = np.array([[0.1, 0.2, 0.4], [-0.5, -0.3, 0.05]])
        got = grid.interp(fld.values, pts)
        expect = pts[:, 0] + 2 * pts[:, 1] + 3 * pts[:, 2]
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_grading(self):
        with pytest.raises(ValueError):
            ParabolicGrid(FracParams(s=0.75), q=0.5)


class TestThinGrid:
    def test_cylinder_weights_exact_1d(self):
        tg = ThinGrid(1, 1.0, 16, 16)
        w = tg.cylinder_weights((0.0, 0.0), 0.5)
        assert float(np.sum(w)) == pytest.approx(2 * 0.25 * 1.0, rel=1e-12)

    def test_cylinder_mean_of_constant(self):
        tg = ThinGrid(1, 1.0, 8, 8)
        vals = np.full(tg.shape, 3.25)
        assert tg.cylinder_mean(vals, (0.1, -0.2), 0.3) == pytest.approx(3.25)

    def test_offcenter_cylinder_exact_linear(self):
        tg = ThinGrid(1, 1.0, 64, 64)
        T, X = tg.meshgrid()
        # mean of x over a ball centered at x0 is x0 (symmetric weights)
        assert tg.cylinder_mean(X, (0.0, 0.25), 0.4) == pytest.approx(0.25, abs=1e-12)

    def test_ball_overlap_2d_disk_area(self):
        tg = ThinGrid(2, 1.0, 4, 40)
        w = tg._ball_overlap(np.array([0.0, 0.0]), 0.7)
        assert float(np.sum(w)) == pytest.approx(math.pi * 0.49, rel=2e-3)

    def test_contains_cylinder(self):
        tg = ThinGrid(1, 1.0, 8, 8)
        assert tg.contains_cylinder((0.0, 0.0), 0.5)
        assert not tg.contains_cylinder((0.9, 0.0), 0.5)


class TestFields:
    def test_scalar_shape_guard(self, grid):
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((2, 2)))

    def test_vector_normal_component_guard(self, grid):
        bad = np.zeros((grid.nt + 1, grid.nx, grid.n + 1))
        bad[..., -1] = 1.0
        with pytest.raises(ValueError):
            VectorField(grid, bad)

    def test_sample_thin_shape(self, grid):
        f = sample_thin(grid, lambda t, x: np.cos(x) * np.exp(t))
        assert f.shape == (grid.nt + 1, grid.nx)

    def test_field_roundtrip(self, tmp_path, grid):
        fld = sample_scalar(grid, lambda t, x, y: np.sin(t) + x * y)
        fld.meta["tag"] = "roundtrip"
        path = tmp_path / "f.fhf"
        save_field(path, fld)
        back = load_field(path)
        assert np.array_equal(back.values, fld.values)
        assert back.grid.ny == grid.ny
        assert back.meta["tag"] == "roundtrip"
