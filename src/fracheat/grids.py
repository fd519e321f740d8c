"""Tensor grids over parabolic cylinders, with the degenerate weight y^a
carried by exact per-cell quadrature weights.

Geometry conventions: the thin cylinder Q_rho(t0, x0) is the time interval
(t0 - rho^2, t0 + rho^2) times the spatial ball B_rho(x0); the thick
cylinder Q*_rho adds y in (0, rho).  For n = 1 the ball is an interval; for
n = 2 the grid itself is the tensor box (-rho, rho)^2 while cylinder
averages use Euclidean disks.  Every cylinder overlap below is exact.

Membership is one rule, `ParabolicGrid.in_cylinder`: a point lies in Q*_r
when |t - t0| <= r^2, |x - x0| <= r (both closed) and 0 < y < r (open); a
time level or a cell lies in it when its node or center does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import FracParams, _chunked, _pow

__all__ = [
    "ThinGrid",
    "ParabolicGrid",
    "ScalarField",
    "sample_thin",
]


def _interval_overlap(faces: np.ndarray, lo, hi,
                      a: float = 0.0) -> np.ndarray:
    """Per-cell integral of y^a over the overlap of the cells given by
    `faces` with [lo, hi], exact by the closed-form antiderivative; with
    a = 0 it is the overlap length.  Array lo, hi with a last axis of
    length 1 give one row of cells per interval."""
    left = np.maximum(faces[:-1], lo)
    right = np.maximum(np.minimum(faces[1:], hi), left)
    return (right ** (1.0 + a) - left ** (1.0 + a)) / (1.0 + a)


def _quadrant_area(x, y, r):
    """Area of the disk B_r(0) within [0, x] x [0, y], signed by the signs
    of x and y: below u = sqrt(r^2 - y^2) a column is cut by y, above it
    by the circle, whose area to the left of v is
    S(v) = (v sqrt(r^2 - v^2) + r^2 asin(v / r)) / 2."""
    ax, ay = np.minimum(np.abs(x), r), np.minimum(np.abs(y), r)
    lo = np.minimum(np.sqrt(r * r - ay * ay), ax)

    def S(v):
        return 0.5 * (v * np.sqrt(np.maximum(r * r - v * v, 0.0))
                      + r * r * np.arcsin(v / r))
    return np.sign(x) * np.sign(y) * (ay * lo + S(ax) - S(lo))


def _ball_overlap(x_faces, x0, radius) -> np.ndarray:
    """Per-cell overlap measure of the x-cells given by their per-axis
    faces with the ball B_radius(x0), exact: an interval overlap for
    n = 1; for n = 2 the cell's area where the ball covers it, and the
    disk-rectangle area (by signed quadrant areas at the cell's corners)
    where the circle cuts it.  For a 1-d array of radii the overlaps stack
    along a leading axis (broadcast at n = 1, radius by radius at n = 2)."""
    if len(x_faces) == 1:
        r = np.asarray(radius, dtype=float)[..., None]
        return _interval_overlap(x_faces[0], x0[0] - r, x0[0] + r) \
            .reshape(np.shape(radius) + (-1,))
    if np.ndim(radius):
        return np.stack([_ball_overlap(x_faces, x0, r) for r in radius])
    fx, fy = x_faces
    dx, dy = np.diff(fx), np.diff(fy)
    X, Y = np.meshgrid(0.5 * (fx[1:] + fx[:-1]), 0.5 * (fy[1:] + fy[:-1]),
                       indexing="ij")
    hx, hy = np.meshgrid(dx / 2, dy / 2, indexing="ij")
    cdist = np.hypot(X - x0[0], Y - x0[1])
    corner = np.hypot(hx, hy)
    area = np.multiply.outer(dx, dy)
    boundary = (cdist - corner < radius) & (cdist + corner > radius)
    A = _quadrant_area((fx - x0[0])[:, None], (fy - x0[1])[None, :], radius)
    cut = A[1:, 1:] - A[:-1, 1:] - A[1:, :-1] + A[:-1, :-1]
    return np.where(cdist + corner <= radius, area,
                    np.where(boundary, np.maximum(cut, 0.0), 0.0))


def _derivative_at(values, cells, axis, coords):
    """np.gradient(values, coords, axis=axis, edge_order=2)[cells] from
    numpy's own formulas and operation order at those cells only: the
    three-point stencil a f0 + b f1 + c f2 on the steps h1, h2 around the
    cell (one-sided at the two ends), and (f2 - f0) / (2 h) inside when
    the spacing is uniform."""
    h = np.diff(coords)
    i = cells[axis]
    lo = np.clip(i - 1, 0, coords.size - 3)
    f0, f1, f2 = (values[cells[:axis] + (lo + k,) + cells[axis + 1:]]
                  for k in range(3))
    first, last = i == 0, i == coords.size - 1
    if np.all(h == h[0]):
        d = h[0]
        a, b, c = (np.where(first, u, v) / d
                   for u, v in ((-1.5, 0.5), (2., -2.), (-0.5, 1.5)))
        return np.where(first | last, a * f0 + b * f1 + c * f2,
                        (f2 - f0) / (2. * d))
    h1, h2 = h[lo], h[lo + 1]
    s = h1 + h2
    a = np.where(first, -(2. * h1 + h2), np.where(last, h2, -h2)) / (h1 * s)
    b = np.where(first, s, np.where(last, -s, h2 - h1)) / (h1 * h2)
    c = np.where(first, -h1, np.where(last, 2. * h2 + h1, h1)) / (h2 * s)
    return a * f0 + b * f1 + c * f2


def _grading_exponent(a: float) -> float:
    """Default q of the y-mesh y_j = rho (j / ny)^q: measure-equidistributing,
    with q(1-a) capped at 6.  The cap does not bound the inter-center
    resistance spread (1/ny)^(q(1-a)): it shrinks as ny grows (ROADMAP
    item 15 owns the rule)."""
    return min(2.0 / (1.0 + a), 6.0 / (1.0 - a))


def _y_mesh(a: float, rho: float, ny: int, q: float):
    """Faces and centers of the graded y-mesh y_j = rho (j / ny)^q, its
    exact weighted cell measures w_y = int y^a dy, and the resistances
    int y^-a dy between consecutive centers (res_y) and from the last
    center to the top (res_top): the harmonic face treatment of the weight."""
    faces = rho * (np.arange(ny + 1) / ny) ** q
    centers = 0.5 * (faces[1:] + faces[:-1])
    w_y = np.diff(faces ** (1.0 + a)) / (1.0 + a)
    if np.any(w_y <= 0):
        raise ValueError("degenerate y mesh")
    b = 1.0 - a
    res_y = (centers[1:] ** b - centers[:-1] ** b) / b
    res_top = (rho ** b - centers[-1] ** b) / b
    return faces, centers, w_y, res_y, res_top


def _thin_lattice(grid, n: int) -> None:
    """Set what both grids share on (t, x): the center padded to
    (t0, x0_1, ..., x0_n) with x0 at the origin by default, the default
    t_range (t0 - rho^2, t0 + rho^2), and nx uniform x-cells per axis over
    (x0 - rho, x0 + rho) as x_faces, x_centers and their width dx."""
    if len(grid.center) == 1:
        grid.center = tuple([grid.center[0]] + [0.0] * n)
    t0 = grid.center[0]
    if grid.t_range is None:
        grid.t_range = (t0 - grid.rho ** 2, t0 + grid.rho ** 2)
    grid.x_faces = [np.linspace(c - grid.rho, c + grid.rho, grid.nx + 1)
                    for c in grid.center[1:]]
    grid.x_centers = [0.5 * (f[1:] + f[:-1]) for f in grid.x_faces]
    grid.dx = 2.0 * grid.rho / grid.nx


@dataclass
class ThinGrid:
    """Cell-based grid over the thin cylinder Q_rho(center)."""

    n: int
    rho: float
    nt: int
    nx: int
    center: tuple = (0.0,)  # (t0, x0_1, ..., x0_n); x defaults to origin
    t_range: tuple | None = None

    def __post_init__(self):
        _thin_lattice(self, self.n)
        self.t_faces = np.linspace(self.t_range[0], self.t_range[1], self.nt + 1)
        self.t_centers = 0.5 * (self.t_faces[1:] + self.t_faces[:-1])

    @property
    def shape(self):
        return (self.nt,) + (self.nx,) * self.n

    def cell_measures(self) -> np.ndarray:
        dt = np.diff(self.t_faces)
        m = dt
        for f in self.x_faces:
            m = np.multiply.outer(m, np.diff(f))
        return m

    def min_radius(self) -> float:
        """Smallest cylinder radius resolvable by at least one full cell."""
        dt = (self.t_faces[-1] - self.t_faces[0]) / self.nt
        return max(self.dx, math.sqrt(dt))

    def meshgrid(self):
        """Cell-center coordinate arrays broadcastable to `shape`."""
        axes = [self.t_centers] + self.x_centers
        return np.meshgrid(*axes, indexing="ij")

    def cylinder_weights(self, center, radius) -> np.ndarray:
        """Per-cell overlap measures with Q_radius(center), exact.
        For a 1-d array of radii, one set per radius along a leading axis."""
        t0, x0 = center[0], np.asarray(center[1:], dtype=float)
        r = np.asarray(radius, dtype=float)
        sq = _pow(r, 2)[..., None]
        wt = _interval_overlap(self.t_faces, t0 - sq, t0 + sq)
        wx = _ball_overlap(self.x_faces, x0, r)
        return wt.reshape(r.shape + (self.nt,) + (1,) * self.n) \
            * np.expand_dims(wx, r.ndim)

    def cylinder_mean(self, values: np.ndarray, center, radius):
        """Mean of values over Q_radius(center): a float for a scalar
        radius, one mean per radius for an array.  Each radius is summed
        over the trailing (cell) axes on its own, so it gets the value it
        gets alone; the radii go in chunks of kernels._BATCH weights."""
        def means(radii):
            w = self.cylinder_weights(center, radii)
            cells = tuple(range(1, w.ndim))
            tot = np.sum(w, axis=cells)
            if np.any(tot <= 0.0):
                raise ValueError("cylinder does not intersect the grid")
            return np.sum(w * values, axis=cells) / tot

        r = np.asarray(radius, dtype=float)
        out = _chunked(means, r.ravel(), math.prod(self.shape)).reshape(r.shape)
        return float(out) if out.ndim == 0 else out

    def contains_cylinder(self, center, radius: float) -> bool:
        t0, x0 = center[0], np.asarray(center[1:], dtype=float)
        c = np.asarray(self.center, dtype=float)
        if t0 - radius ** 2 < self.t_faces[0] - 1e-14 \
                or t0 + radius ** 2 > self.t_faces[-1] + 1e-14:
            return False
        return bool(np.all(np.abs(x0 - c[1:]) + radius <= self.rho + 1e-14))


@dataclass
class ParabolicGrid:
    """Tensor grid over the thick cylinder Q*_rho with a y-graded mesh
    y_j = rho (j / ny)^q and exact y^a cell weights.

    Time levels are nodes (nt + 1 of them over (t0 - rho^2, t0 + rho^2));
    space is cell-centered.
    """

    params: FracParams
    rho: float = 1.0
    nt: int = 32
    nx: int = 32
    ny: int = 32
    q: float | None = None
    center: tuple = (0.0,)
    t_range: tuple | None = None

    def __post_init__(self):
        a = self.params.a
        if self.q is None:
            self.q = _grading_exponent(a)
        if self.q < 1.0:
            raise ValueError("grading exponent q must be >= 1")
        _thin_lattice(self, self.params.n)
        self.t_nodes = np.linspace(self.t_range[0], self.t_range[1],
                                   self.nt + 1)
        self.y_faces, self.y_centers, self.w_y, self.res_y, self.res_top = \
            _y_mesh(a, self.rho, self.ny, self.q)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def spatial_shape(self):
        return (self.nx,) * self.n + (self.ny,)

    @property
    def shape(self):
        return (self.nt + 1,) + self.spatial_shape

    @property
    def dt(self) -> float:
        return (self.t_range[1] - self.t_range[0]) / self.nt

    def x_cell_measures(self) -> np.ndarray:
        m = np.diff(self.x_faces[0])
        for f in self.x_faces[1:]:
            m = np.multiply.outer(m, np.diff(f))
        return m

    def weighted_cell_measures(self) -> np.ndarray:
        """Space-only weighted measures int_cell y^a dX, shape spatial_shape."""
        return np.multiply.outer(self.x_cell_measures(), self.w_y)

    def meshgrid(self):
        """Node-time, cell-space coordinate arrays broadcastable to shape."""
        axes = [self.t_nodes] + self.x_centers + [self.y_centers]
        return np.meshgrid(*axes, indexing="ij")

    # -- time integration (fields are piecewise linear in t between nodes) --

    def _step_windows(self, t_lo: float | None, t_hi: float | None):
        """Step lengths h and the window [t_lo, t_hi] clipped to each step
        in its local coordinate u = (t - t_k) / h, so 0 <= u0 <= u1 <= 1."""
        t = self.t_nodes
        lo = t[0] if t_lo is None else t_lo
        hi = t[-1] if t_hi is None else t_hi
        h = np.diff(t)
        u0 = np.clip((lo - t[:-1]) / h, 0.0, 1.0)
        u1 = np.clip((hi - t[:-1]) / h, u0, 1.0)
        return h, u0, u1

    def time_weights(self, t_lo: float | None = None,
                     t_hi: float | None = None) -> np.ndarray:
        """Node weights integrating the piecewise-linear interpolant exactly
        over [t_lo, t_hi] (defaults: the whole time interval).

        The weights are linear in the field.  Applied to a squared field
        they integrate the interpolant of the square, not the square of the
        interpolant; use `time_integral_product` for squares and products."""
        h, u0, u1 = self._step_windows(t_lo, t_hi)
        # integrals of the hats 1 - u and u over [u0, u1] on each step
        w = np.zeros_like(self.t_nodes)
        w[:-1] += h * ((1.0 - u0) ** 2 - (1.0 - u1) ** 2) / 2.0
        w[1:] += h * (u1 ** 2 - u0 ** 2) / 2.0
        return w

    def time_integral_product(self, u: np.ndarray, v: np.ndarray,
                              t_lo: float | None = None,
                              t_hi: float | None = None) -> np.ndarray:
        """int u(t) v(t) dt over [t_lo, t_hi] for each spatial point of two
        (nt + 1, *spatial) arrays, exact on their piecewise-linear
        interpolants.

        The hat functions' Gram matrix int phi_k phi_j is tridiagonal with a
        closed form per step; only the steps the window meets are read.
        u and v may hold every time node or only the `window_nodes`.  The
        time axis is contracted by einsum: np.tensordot's threaded BLAS gemv
        ran 8x slower on a (129, 128 x 64) product on a 2-core host."""
        nodes = self.window_nodes(t_lo, t_hi)
        k0, k1 = nodes.start, nodes.stop - 1
        if k1 <= k0:
            return np.zeros(np.broadcast_shapes(u.shape, v.shape)[1:])
        h, u0, u1 = (x[k0:k1] for x in self._step_windows(t_lo, t_hi))
        a, b = (x if len(x) == k1 - k0 + 1 else x[nodes] for x in (u, v))
        cube = (u1 ** 3 - u0 ** 3) / 3.0
        diag = np.zeros(k1 - k0 + 1)
        diag[:-1] += h * ((1.0 - u0) ** 3 - (1.0 - u1) ** 3) / 3.0
        diag[1:] += h * cube
        off = h * ((u1 ** 2 - u0 ** 2) / 2.0 - cube)
        return (np.einsum("t,t...->...", diag, a * b)
                + np.einsum("t,t...->...", off, a[:-1] * b[1:])
                + np.einsum("t,t...->...", off, a[1:] * b[:-1]))

    def window_nodes(self, t_lo: float | None = None,
                     t_hi: float | None = None) -> slice:
        """The time nodes `time_integral_product` reads for [t_lo, t_hi]:
        the ends of the steps the window meets."""
        _, u0, u1 = self._step_windows(t_lo, t_hi)
        steps = np.nonzero(u1 > u0)[0]
        return slice(steps[0], steps[-1] + 2) if steps.size else slice(0, 0)

    def time_integral_sq(self, values: np.ndarray, t_lo: float | None = None,
                         t_hi: float | None = None) -> np.ndarray:
        """int v(t)^2 dt: the diagonal case of `time_integral_product`."""
        return self.time_integral_product(values, values, t_lo, t_hi)

    # -- cylinders (separable: time x space-ball x y-interval) --

    def in_cylinder(self, radius: float, t, *xy):
        """The t, x and y tests of Q*_radius around the grid's center (see
        the module docstring); the n x coordinates broadcast together.  On
        the grid's axes (the x_centers as an open mesh) they mask cells."""
        t0, *x0 = self.center
        *x, y = xy
        d2 = sum((xi - ci) ** 2 for xi, ci in zip(x, x0))
        return (np.abs(t - t0) <= radius ** 2, np.sqrt(d2) <= radius,
                (y > 0.0) & (y < radius))

    def cylinder_weights(self, center, radius: float):
        """Separable factors of Q*_radius(center): the time window
        (t0 - radius^2, t0 + radius^2), the x-cell overlaps with the ball
        B_radius(x0) and the per-cell integrals of y^a over (0, radius).
        Window and x overlaps alone describe the thin cylinder Q_radius."""
        t0 = center[0]
        x0 = np.asarray(center[1:1 + self.n], dtype=float)
        wx = _ball_overlap(self.x_faces, x0, radius)
        wy = _interval_overlap(self.y_faces, 0.0, radius, self.params.a)
        return (t0 - radius ** 2, t0 + radius ** 2), wx, wy

    def weighted_norm_sq(self, values: np.ndarray, center=None,
                         radius: float | None = None) -> float:
        """int y^a v^2 dt dX over Q*_radius(center), exact in time on the
        interpolant of v; with neither center nor radius, over every cell
        and the whole time range (one of them defaults to the grid's)."""
        if center is None and radius is None:
            return float(np.sum(self.weighted_cell_measures()
                                * self.time_integral_sq(values)))
        window, wx, wy = self.cylinder_weights(
            self.center if center is None else center,
            self.rho if radius is None else radius)
        sq = self.time_integral_sq(values, *window)
        return float(np.sum(np.multiply.outer(wx, wy) * sq))

    # -- interpolation and boundary trace --

    def interp(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at pts rows (t, x..., y); beyond the
        cell-center hull in space and the node hull in time it extrapolates
        linearly from the edge cells, without warning."""
        from scipy.interpolate import RegularGridInterpolator
        axes = [self.t_nodes] + self.x_centers + [self.y_centers]
        f = RegularGridInterpolator(tuple(axes), values, bounds_error=False,
                                    fill_value=None)
        return f(np.atleast_2d(pts))

    def trace_at_zero(self, values: np.ndarray) -> np.ndarray:
        """Boundary values at y = 0 by extrapolation in y^(1-a) through the
        first two layers (the natural boundary expansion of the weighted
        equation is U0 + U1 y^(1-a) + O(y^2))."""
        b = 1.0 - self.params.a
        e0 = self.y_centers[0] ** b
        e1 = self.y_centers[1] ** b
        u0 = values[..., 0]
        u1 = values[..., 1]
        return (u0 * e1 - u1 * e0) / (e1 - e0)

    # -- derivatives --

    def gradient(self, values: np.ndarray):
        """Spatial gradient (d/dx_1, ..., d/dx_n, d/dy) at cell centers,
        second order in the interior, one-sided at edges."""
        grads = []
        for axis in range(self.n):
            grads.append(np.gradient(values, self.x_centers[axis],
                                     axis=1 + axis, edge_order=2))
        grads.append(np.gradient(values, self.y_centers, axis=-1, edge_order=2))
        return grads

    def gradient_at(self, values: np.ndarray, cells):
        """`gradient` at the given cells only, cells holding one index array
        per axis of values; equal to `gradient` there bit for bit."""
        return [_derivative_at(values, cells, 1 + k, c) for k, c in
                enumerate(self.x_centers + [self.y_centers])]

    def time_derivative(self, values: np.ndarray) -> np.ndarray:
        return np.gradient(values, self.t_nodes, axis=0, edge_order=2)


@dataclass
class ScalarField:
    """Sampled scalar function on a ParabolicGrid (node-time, cell-space)."""

    grid: ParabolicGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")


def sample_thin(grid: ParabolicGrid, fn) -> np.ndarray:
    """Evaluate fn(t, x...) on the (node-time, x-cell) lattice; fn None
    gives zeros."""
    shape = (grid.nt + 1,) + (grid.nx,) * grid.n
    if fn is None:
        return np.zeros(shape)
    mesh = np.meshgrid(grid.t_nodes, *grid.x_centers, indexing="ij")
    return np.asarray(fn(*mesh), dtype=float) * np.ones(shape)

