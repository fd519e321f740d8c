import math

import numpy as np
import pytest

from fracheat.kernels import FracParams
from fracheat.grids import (
    ThinGrid,
    ParabolicGrid,
    ScalarField,
    sample_thin,
    _ball_overlap,
    _interval_overlap,
)

from fields import sample_scalar


def weighted_measure(grid):
    """int y^a dX dy over the thick cylinder: (2 rho)^n rho^(1+a) / (1+a)."""
    a = grid.params.a
    return (2.0 * grid.rho) ** grid.n * grid.rho ** (1.0 + a) / (1.0 + a)


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
        assert total == pytest.approx(weighted_measure(grid), rel=1e-12)

    def test_weights_positive(self, grid):
        assert np.all(grid.weighted_cell_measures() > 0.0)

    def test_weighted_norm_constant_field(self, grid):
        vals = np.ones(grid.shape)
        got = grid.weighted_norm_sq(vals)
        assert got == pytest.approx(weighted_measure(grid) * 2 * grid.rho ** 2,
                                    rel=1e-12)

    @pytest.mark.parametrize("n, t_range", [(1, (-0.5, 0.75)), (2, None)])
    def test_weighted_norm_default_is_every_cell_and_time(self, n, t_range):
        # ones on rho = 1/2: |t_range| (2 rho)^n rho^(1+a)/(1+a) over the
        # whole time range and every cell, the square's corners at n = 2
        g = ParabolicGrid(FracParams(s=0.75, n=n), rho=0.5, nt=10, nx=8,
                          ny=8, t_range=t_range)
        a = g.params.a
        length = g.t_range[1] - g.t_range[0]
        expect = length * 0.5 ** (1 + a) / (1 + a)
        assert g.weighted_norm_sq(np.ones(g.shape)) == pytest.approx(
            expect, rel=1e-12)

    def test_interp_extrapolates_linearly(self):
        # beyond the last x-center (0.875) a linear field is continued, not
        # clamped: t + 2x + 3y at x = 0.999 is 3.498, clamping gives 3.25
        g = ParabolicGrid(FracParams(s=0.75), nt=4, nx=8, ny=8)
        vals = sample_scalar(g, lambda t, x, y: t + 2 * x + 3 * y).values
        got = g.interp(vals, np.array([[0.0, 0.999, 0.5]]))
        assert got[0] == pytest.approx(3.498, rel=1e-12)

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
        got = grid.weighted_norm_sq(np.ones(grid.shape), center=(0.0, 0.0),
                                    radius=r)
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
        # the same result from only the nodes the window reads
        cropped = v[grid.window_nodes(lo, hi)]
        assert np.array_equal(grid.time_integral_sq(cropped, lo, hi), got)

    def test_time_integral_product_exact_on_interpolants(self, grid):
        from scipy.integrate import quad
        rng = np.random.default_rng(3)
        u = rng.normal(size=(grid.nt + 1, 3))
        v = rng.normal(size=(grid.nt + 1, 3))
        got = grid.time_integral_product(u, v, -0.3, 0.55)
        ref = [quad(lambda t: np.interp(t, grid.t_nodes, u[:, j])
                    * np.interp(t, grid.t_nodes, v[:, j]),
                    -0.3, 0.55, points=grid.t_nodes, limit=200,
                    epsabs=1e-14, epsrel=1e-13)[0] for j in range(3)]
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)

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

    # the graded y-mesh, a uniform one (q = 1 at ny = 16 has exactly equal
    # steps), the three-cell minimum and n = 2
    @pytest.mark.parametrize("n, shape, q", [(1, (16, 20, 24), None),
                                             (1, (16, 20, 16), 1.0),
                                             (1, (4, 3, 3), None),
                                             (2, (4, 7, 5), None)])
    def test_gradient_at_every_cell_equals_gradient(self, n, shape, q):
        nt, nx, ny = shape
        g = ParabolicGrid(FracParams(s=0.7, n=n), nt=nt, nx=nx, ny=ny, q=q)
        values = np.random.default_rng(nx).normal(size=g.shape)
        if q == 1.0:
            assert np.all(np.diff(g.y_centers) == np.diff(g.y_centers)[0])
        cells = tuple(np.indices(g.shape).reshape(len(g.shape), -1))
        for full, at in zip(g.gradient(values), g.gradient_at(values, cells)):
            assert np.array_equal(full.ravel(), at)

    def test_interp_multilinear(self, grid):
        fld = sample_scalar(grid, lambda t, x, y: t + 2.0 * x + 3.0 * y)
        pts = np.array([[0.1, 0.2, 0.4], [-0.5, -0.3, 0.05]])
        got = grid.interp(fld.values, pts)
        expect = pts[:, 0] + 2 * pts[:, 1] + 3 * pts[:, 2]
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_grading(self):
        with pytest.raises(ValueError):
            ParabolicGrid(FracParams(s=0.75), q=0.5)


class TestIntervalOverlap:
    def windows(self):
        rng = np.random.default_rng(4)
        faces = np.sort(rng.uniform(0.0, 1.0, 17))
        faces[0], faces[-1] = 0.0, 1.0
        return faces, [(0.0, 1.0), (0.13, 0.61), (0.4, 0.4 + 1e-9),
                       (0.7, 0.2), (-1.0, 2.0), (1.5, 3.0)]

    def test_plain_overlap_bit_for_bit(self):
        faces, windows = self.windows()
        for lo, hi in windows:
            plain = np.maximum(np.minimum(faces[1:], hi)
                               - np.maximum(faces[:-1], lo), 0.0)
            assert np.array_equal(_interval_overlap(faces, lo, hi), plain)

    @pytest.mark.parametrize("a", [-0.8, -0.5, -0.1])
    def test_weighted_overlap_closed_form(self, a):
        faces, windows = self.windows()
        for lo, hi in windows:
            lo_, hi_ = max(lo, 0.0), hi
            expect = []
            for left, right in zip(faces[:-1], faces[1:]):
                l, r = max(left, lo_), min(right, hi_)
                expect.append((r ** (1 + a) - l ** (1 + a)) / (1 + a)
                              if r > l else 0.0)
            got = _interval_overlap(faces, lo_, hi_, a)
            assert np.allclose(got, expect, rtol=1e-13, atol=0.0)
            whole = (min(hi_, 1.0) ** (1 + a) - min(lo_, 1.0) ** (1 + a)) \
                / (1 + a)
            assert float(np.sum(got)) == pytest.approx(max(whole, 0.0),
                                                       rel=1e-13, abs=1e-300)


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
        w = _ball_overlap(tg.x_faces, np.array([0.0, 0.0]), 0.7)
        assert float(np.sum(w)) == pytest.approx(math.pi * 0.49, rel=1e-13)

    # a ball on the corner of four cells, or wholly inside one, far below
    # the cell size; with 24 x 24 subsamples per cut cell the first one met
    # no sample and its cylinder mean raised
    @pytest.mark.parametrize("x0, cells", [((0.0, 0.0), 4),
                                           ((0.08, 0.09), 1),
                                           ((0.013, 0.021), 1),
                                           ((1.0 / 6.0, 0.05), 2)])
    @pytest.mark.parametrize("radius", [1e-3, 5e-3, 0.05])
    def test_small_ball_overlap_2d_exact(self, x0, cells, radius):
        tg = ThinGrid(2, 1.0, 8, 12)
        w = _ball_overlap(tg.x_faces, np.array(x0), radius)
        assert float(np.sum(w)) == pytest.approx(math.pi * radius ** 2,
                                                 rel=1e-13)
        if radius < 0.01:
            assert np.count_nonzero(w) == cells
        assert tg.contains_cylinder((0.0,) + x0, radius)
        assert tg.cylinder_mean(np.ones(tg.shape), (0.0,) + x0, radius) \
            == pytest.approx(1.0, rel=1e-14)

    def test_ball_overlap_2d_cut_cells_match_quad(self):
        # each cut cell against the integral over x of its chord length
        from scipy.integrate import quad
        tg = ThinGrid(2, 1.0, 4, 8)
        x0, radius = np.array([0.13, -0.07]), 0.55
        w = _ball_overlap(tg.x_faces, x0, radius)
        fx, fy = tg.x_faces
        area = np.multiply.outer(np.diff(fx), np.diff(fy))
        cut = np.argwhere((w > 0.0) & (w < area))
        assert len(cut) >= 12

        def chord(x, y0, y1):
            h = math.sqrt(max(radius ** 2 - (x - x0[0]) ** 2, 0.0))
            return max(0.0, min(y1, x0[1] + h) - max(y0, x0[1] - h))
        for i, j in cut:
            ref, _ = quad(chord, fx[i], fx[i + 1], args=(fy[j], fy[j + 1]),
                          limit=200, epsabs=1e-13)
            assert w[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @staticmethod
    def per_radius_mean(tg, values, center, radius):
        """cylinder_mean as it was before it took arrays: one float radius,
        the weights an outer product, every cell summed in one np.sum."""
        t0, x0 = center[0], np.asarray(center[1:], dtype=float)
        wt = _interval_overlap(tg.t_faces, t0 - radius ** 2, t0 + radius ** 2)
        w = np.multiply.outer(wt, _ball_overlap(tg.x_faces, x0, radius))
        return float(np.sum(w * values) / float(np.sum(w)))

    # n = 1 on the modulus grids, n = 2 with the circle cutting cells;
    # 64 x 256 has more cells than one numpy reduction buffer (8192)
    @pytest.mark.parametrize("shape", [(1, 16, 16), (1, 32, 64), (1, 64, 256),
                                       (2, 8, 12), (2, 16, 16)])
    def test_array_mean_matches_per_radius(self, shape):
        n, nt, nx = shape
        tg = ThinGrid(n, 1.0, nt, nx)
        rng = np.random.default_rng(nt + nx)
        values = rng.normal(size=tg.shape) ** 2
        floor = tg.min_radius()
        # below the resolution, off the face lattice, past the grid
        radii = np.concatenate([[0.3 * floor, floor, 1.3],
                                np.geomspace(0.02, 0.99, 30),
                                rng.uniform(floor, 1.0, 12)])
        center = (0.013,) + (0.021,) * n
        got = tg.cylinder_mean(values, center, radii)
        assert got.shape == radii.shape
        assert np.array_equal(got, [tg.cylinder_mean(values, center, r)
                                    for r in radii])
        assert np.array_equal(got, [self.per_radius_mean(tg, values, center,
                                                         float(r))
                                    for r in radii])
        assert isinstance(tg.cylinder_mean(values, center, 0.4), float)
        assert np.array_equal(
            tg.cylinder_mean(values, center, radii[:40].reshape(8, 5)),
            got[:40].reshape(8, 5))

    def test_array_weights_stack_per_radius(self):
        tg = ThinGrid(2, 1.0, 6, 10)
        radii = np.array([0.05, 0.37, 0.8])
        w = tg.cylinder_weights((0.0, 0.1, -0.2), radii)
        assert w.shape == (3,) + tg.shape
        for wi, r in zip(w, radii):
            assert np.array_equal(wi, tg.cylinder_weights((0.0, 0.1, -0.2), r))

    def test_contains_cylinder(self):
        tg = ThinGrid(1, 1.0, 8, 8)
        assert tg.contains_cylinder((0.0, 0.0), 0.5)
        assert not tg.contains_cylinder((0.9, 0.0), 0.5)


class TestFields:
    def test_scalar_shape_guard(self, grid):
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((2, 2)))

    def test_sample_thin_shape(self, grid):
        f = sample_thin(grid, lambda t, x: np.cos(x) * np.exp(t))
        assert f.shape == (grid.nt + 1, grid.nx)

    def test_sample_thin_of_none_is_zero(self, grid):
        f = sample_thin(grid, None)
        assert f.shape == (grid.nt + 1, grid.nx)
        assert not np.any(f)

    @pytest.mark.parametrize("n, center, t_range", [
        (1, (0.2,), None), (2, (0.3, 0.1, -0.2), (0.0, 0.5))])
    def test_thin_and_thick_grids_share_lattice(self, n, center, t_range):
        tg = ThinGrid(n, 0.7, 6, 10, center=center, t_range=t_range)
        pg = ParabolicGrid(FracParams(s=0.6, n=n), rho=0.7, nt=6, nx=10,
                           ny=4, center=center, t_range=t_range)
        assert len(tg.center) == 1 + n and tg.center[0] == center[0]
        assert (tg.center, tg.t_range, tg.dx) == (pg.center, pg.t_range, pg.dx)
        assert tg.t_range == (t_range or (0.2 - 0.7 ** 2, 0.2 + 0.7 ** 2))
        np.testing.assert_array_equal(tg.t_faces, pg.t_nodes)
        for a, b in zip(tg.x_faces + tg.x_centers, pg.x_faces + pg.x_centers):
            np.testing.assert_array_equal(a, b)


class TestInCylinder:
    """Membership of Q*_r: |t - t0| <= r^2 and |x - x0| <= r closed,
    0 < y < r open."""

    def test_edges(self):
        g = ParabolicGrid(FracParams(s=0.75), nt=4, nx=4, ny=4)
        r, out = 0.5, lambda v: np.nextafter(v, 2.0 * v)
        t = np.array([-0.25, 0.25, out(-0.25), out(0.25)])
        x = np.array([-0.5, 0.5, out(-0.5), out(0.5)])
        y = np.array([np.nextafter(0.0, 1.0), np.nextafter(0.5, 0.0), 0.0, 0.5])
        for got in g.in_cylinder(r, t, x, y):
            assert got.tolist() == [True, True, False, False]
        assert [bool(m) for m in g.in_cylinder(r, 0.0, 0.0, -0.1)] \
            == [True, True, False]

    @pytest.mark.parametrize("n", [1, 2])
    def test_cell_masks_agree_with_point_tests(self, n):
        # the product of the per-axis cell masks is the point test at every
        # cell's (node, center) coordinates
        g = ParabolicGrid(FracParams(s=0.6, n=n), nt=12, nx=10, ny=9,
                          center=(0.3, -0.2, 0.1)[:1 + n])
        xs = np.meshgrid(*g.x_centers, indexing="ij", sparse=True)
        pts = np.meshgrid(g.t_nodes, *g.x_centers, g.y_centers, indexing="ij")
        for r in (0.2, 0.35, 0.5, 0.8):
            in_t, in_x, in_y = g.in_cylinder(r, g.t_nodes, *xs, g.y_centers)
            cells = np.multiply.outer(np.multiply.outer(in_t, in_x), in_y)
            assert cells.any() and not cells.all()
            assert np.array_equal(
                cells, np.logical_and.reduce(g.in_cylinder(r, *pts)))

    def test_ball_is_euclidean_disk_at_n2(self):
        # the x mask is the disk on the center mesh, in at every cell the
        # disk covers and out at every cell it misses (_ball_overlap)
        x0 = (0.1, -0.15)
        g = ParabolicGrid(FracParams(s=0.6, n=2), nt=2, nx=24, ny=4,
                          center=(0.0,) + x0)
        X, Y = np.meshgrid(*g.x_centers, indexing="ij")
        xs = np.meshgrid(*g.x_centers, indexing="ij", sparse=True)
        for r in (0.3, 0.55, 0.9):
            _, in_x, _ = g.in_cylinder(r, 0.0, *xs, 0.1)
            assert np.array_equal(in_x, np.hypot(X - x0[0], Y - x0[1]) <= r)
            w = _ball_overlap(g.x_faces, np.array(x0), r)
            assert in_x[w == g.dx ** 2].all() and not in_x[w == 0.0].any()
            assert 0 < in_x.sum() < in_x.size
