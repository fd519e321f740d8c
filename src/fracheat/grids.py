"""Tensor grids over parabolic cylinders, with the degenerate weight y^a
carried by exact per-cell quadrature weights.

Geometry conventions: the thin cylinder Q_rho(t0, x0) is the time interval
(t0 - rho^2, t0 + rho^2) times the spatial ball B_rho(x0); the thick
cylinder Q*_rho adds y in (0, rho).  For n = 1 the ball is an interval and
every cylinder overlap below is exact.  For n = 2 the grid itself is the
tensor box (-rho, rho)^2 while cylinder averages use Euclidean balls, with
boundary cells resolved by subsampling.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .kernels import FracParams

__all__ = [
    "ThinGrid",
    "ParabolicGrid",
    "ScalarField",
    "VectorField",
    "sample_scalar",
    "sample_thin",
    "save_field",
    "load_field",
]

_MAGIC = b"FHF1"


def _interval_overlap(faces: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-cell overlap length of cells given by `faces` with [lo, hi]."""
    left = np.maximum(faces[:-1], lo)
    right = np.minimum(faces[1:], hi)
    return np.maximum(right - left, 0.0)


def _weighted_interval_overlap(faces: np.ndarray, lo: float, hi: float,
                               a: float) -> np.ndarray:
    """Per-cell y^a-weighted overlap with [lo, hi]: integral of y^a over the
    intersection, exact by the closed-form antiderivative."""
    left = np.maximum(faces[:-1], lo)
    right = np.minimum(faces[1:], hi)
    right = np.maximum(right, left)
    return (right ** (1.0 + a) - left ** (1.0 + a)) / (1.0 + a)


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
        if len(self.center) == 1:
            self.center = tuple([self.center[0]] + [0.0] * self.n)
        t0 = self.center[0]
        if self.t_range is None:
            self.t_range = (t0 - self.rho ** 2, t0 + self.rho ** 2)
        self.t_faces = np.linspace(self.t_range[0], self.t_range[1], self.nt + 1)
        self.x_faces = [np.linspace(c - self.rho, c + self.rho, self.nx + 1)
                        for c in self.center[1:]]
        self.t_centers = 0.5 * (self.t_faces[1:] + self.t_faces[:-1])
        self.x_centers = [0.5 * (f[1:] + f[:-1]) for f in self.x_faces]

    @property
    def shape(self):
        return (self.nt,) + (self.nx,) * self.n

    def cell_measures(self) -> np.ndarray:
        dt = np.diff(self.t_faces)
        m = dt
        for f in self.x_faces:
            m = np.multiply.outer(m, np.diff(f))
        return m

    @property
    def total_measure(self) -> float:
        return float((self.t_faces[-1] - self.t_faces[0])
                     * (2.0 * self.rho) ** self.n)

    def min_radius(self) -> float:
        """Smallest cylinder radius resolvable by at least one full cell."""
        dx = 2.0 * self.rho / self.nx
        dt = (self.t_faces[-1] - self.t_faces[0]) / self.nt
        return max(dx, math.sqrt(dt))

    def meshgrid(self):
        """Cell-center coordinate arrays broadcastable to `shape`."""
        axes = [self.t_centers] + self.x_centers
        return np.meshgrid(*axes, indexing="ij")

    def _ball_overlap(self, x0, radius) -> np.ndarray:
        """Per-cell overlap measure of x-cells with the ball B_radius(x0)."""
        if self.n == 1:
            return _interval_overlap(self.x_faces[0], x0[0] - radius, x0[0] + radius)
        # n = 2: classify cells against the disk, subsample boundary cells
        fx, fy = self.x_faces
        cx, cy = self.x_centers
        dx, dy = np.diff(fx), np.diff(fy)
        X, Y = np.meshgrid(cx, cy, indexing="ij")
        hx, hy = np.meshgrid(dx / 2, dy / 2, indexing="ij")
        cdist = np.hypot(X - x0[0], Y - x0[1])
        corner = np.hypot(hx, hy)
        area = np.multiply.outer(dx, dy)
        out = np.where(cdist + corner <= radius, area, 0.0)
        boundary = (cdist - corner < radius) & (cdist + corner > radius)
        sub = 24
        off = (np.arange(sub) + 0.5) / sub - 0.5
        for i, j in zip(*np.nonzero(boundary)):
            xs = X[i, j] + off * dx[i]
            ys = Y[i, j] + off * dy[j]
            XX, YY = np.meshgrid(xs, ys, indexing="ij")
            frac = np.mean(np.hypot(XX - x0[0], YY - x0[1]) < radius)
            out[i, j] = area[i, j] * frac
        return out

    def cylinder_weights(self, center, radius: float) -> np.ndarray:
        """Per-cell overlap measures with Q_radius(center); exact for n = 1."""
        t0, x0 = center[0], np.asarray(center[1:], dtype=float)
        wt = _interval_overlap(self.t_faces, t0 - radius ** 2, t0 + radius ** 2)
        wx = self._ball_overlap(x0, radius)
        return np.multiply.outer(wt, wx)

    def cylinder_mean(self, values: np.ndarray, center, radius: float) -> float:
        w = self.cylinder_weights(center, radius)
        tot = float(np.sum(w))
        if tot <= 0.0:
            raise ValueError("cylinder does not intersect the grid")
        return float(np.sum(w * values) / tot)

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
            # measure-equidistributing grading, capped so the inter-center
            # resistance spread (1/ny)^(q(1-a)) stays within what float64
            # sparse factorizations tolerate
            self.q = min(2.0 / (1.0 + a), 6.0 / (1.0 - a))
        if self.q < 1.0:
            raise ValueError("grading exponent q must be >= 1")
        if len(self.center) == 1:
            self.center = tuple([self.center[0]] + [0.0] * self.params.n)
        t0 = self.center[0]
        if self.t_range is None:
            self.t_range = (t0 - self.rho ** 2, t0 + self.rho ** 2)
        self.t_nodes = np.linspace(self.t_range[0], self.t_range[1],
                                   self.nt + 1)
        self.x_faces = [np.linspace(c - self.rho, c + self.rho, self.nx + 1)
                        for c in self.center[1:]]
        self.x_centers = [0.5 * (f[1:] + f[:-1]) for f in self.x_faces]
        self.dx = 2.0 * self.rho / self.nx
        self.y_faces = self.rho * (np.arange(self.ny + 1) / self.ny) ** self.q
        self.y_centers = 0.5 * (self.y_faces[1:] + self.y_faces[:-1])
        # exact weighted 1-d cell measures int y^a dy
        self.w_y = np.diff(self.y_faces ** (1.0 + a)) / (1.0 + a)
        if np.any(self.w_y <= 0):
            raise ValueError("degenerate y mesh")
        # resistances int y^-a dy between consecutive centers (and to the
        # top boundary): the harmonic face treatment of the weight.
        # Resistances are floored 16 decades below the largest one; cells
        # coupled more stiffly than that are numerically identical at
        # float64, and unfloored values overflow sparse factorizations.
        b = 1.0 - a
        yc = self.y_centers
        self.res_y = (yc[1:] ** b - yc[:-1] ** b) / b
        self.res_top = (self.rho ** b - yc[-1] ** b) / b
        floor = float(np.max(self.res_y)) * 1e-16
        self.res_y = np.maximum(self.res_y, floor)

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

    def weighted_measure(self) -> float:
        """Weighted measure of the full cylinder (exact closed form)."""
        a = self.params.a
        return float((2.0 * self.rho) ** self.n
                     * self.rho ** (1.0 + a) / (1.0 + a))

    def thin(self) -> ThinGrid:
        """Cell-based thin grid sharing this grid's time faces and x cells."""
        return ThinGrid(self.n, self.rho, self.nt, self.nx, self.center,
                        t_range=self.t_range)

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
        interpolant; use `time_integral_sq` for that."""
        h, u0, u1 = self._step_windows(t_lo, t_hi)
        # integrals of the hats 1 - u and u over [u0, u1] on each step
        w = np.zeros_like(self.t_nodes)
        w[:-1] += h * ((1.0 - u0) ** 2 - (1.0 - u1) ** 2) / 2.0
        w[1:] += h * (u1 ** 2 - u0 ** 2) / 2.0
        return w

    def time_integral_sq(self, values: np.ndarray, t_lo: float | None = None,
                         t_hi: float | None = None) -> np.ndarray:
        """int v(t)^2 dt over [t_lo, t_hi] for each spatial point of a
        (nt + 1, *spatial) array, exact on the piecewise-linear interpolant.

        The hat functions' Gram matrix int phi_k phi_j is tridiagonal with a
        closed form per step; only the steps the window meets are read."""
        h, u0, u1 = self._step_windows(t_lo, t_hi)
        steps = np.nonzero(u1 > u0)[0]
        if steps.size == 0:
            return np.zeros(values.shape[1:])
        k0, k1 = steps[0], steps[-1] + 1
        h, u0, u1 = h[k0:k1], u0[k0:k1], u1[k0:k1]
        v = values[k0:k1 + 1]
        cube = (u1 ** 3 - u0 ** 3) / 3.0
        diag = np.zeros(k1 - k0 + 1)
        diag[:-1] += h * ((1.0 - u0) ** 3 - (1.0 - u1) ** 3) / 3.0
        diag[1:] += h * cube
        off = h * ((u1 ** 2 - u0 ** 2) / 2.0 - cube)
        return (np.tensordot(diag, v * v, axes=1)
                + 2.0 * np.tensordot(off, v[:-1] * v[1:], axes=1))

    # -- cylinder weights (separable: time x space-ball x y-interval) --

    def _x_overlap(self, x0, radius: float) -> np.ndarray:
        if self.n == 1:
            return _interval_overlap(self.x_faces[0], x0[0] - radius, x0[0] + radius)
        thin = self.thin()
        return thin._ball_overlap(np.asarray(x0, dtype=float), radius)

    def thick_cylinder_weights(self, center, radius: float):
        """(time node weights, x overlaps, weighted y overlaps) whose outer
        product integrates fields against y^a dt dX over Q*_radius(center)."""
        t0 = center[0]
        x0 = np.asarray(center[1:1 + self.n], dtype=float)
        wt = self.time_weights(t0 - radius ** 2, t0 + radius ** 2)
        wx = self._x_overlap(x0, radius)
        wy = _weighted_interval_overlap(self.y_faces, 0.0, radius, self.params.a)
        return wt, wx, wy

    def integrate_thick(self, values: np.ndarray, center=None,
                        radius: float | None = None) -> float:
        """int y^a v dt dX over Q*_radius(center) (whole cylinder when no
        center/radius given)."""
        if center is None:
            center = self.center
        if radius is None:
            radius = self.rho
        wt, wx, wy = self.thick_cylinder_weights(center, radius)
        w = np.multiply.outer(np.multiply.outer(wt, wx), wy)
        return float(np.sum(w * values))

    def weighted_norm_sq(self, values: np.ndarray, center=None,
                         radius: float | None = None) -> float:
        """int y^a v^2 dt dX over Q*_radius(center) (whole cylinder when no
        center/radius given), exact in time on the interpolant of v."""
        if center is None:
            center = self.center
        if radius is None:
            radius = self.rho
        _, wx, wy = self.thick_cylinder_weights(center, radius)
        t0 = center[0]
        sq = self.time_integral_sq(values, t0 - radius ** 2, t0 + radius ** 2)
        return float(np.sum(np.multiply.outer(wx, wy) * sq))

    # -- interpolation and boundary trace --

    def interp(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at pts rows (t, x..., y); clamped to the
        cell-center hull in space and the node hull in time."""
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

    def trace(self) -> np.ndarray:
        return self.grid.trace_at_zero(self.values)

    def weighted_norm(self, center=None, radius=None) -> float:
        return math.sqrt(self.grid.weighted_norm_sq(self.values, center, radius))


@dataclass
class VectorField:
    """R^(n+1)-valued field F(t, x) on the thin variables with F_last = 0;
    stored on the (node-time, x-cell) lattice with a trailing component
    axis."""

    grid: ParabolicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.grid.nt + 1,) + (self.grid.nx,) * self.grid.n \
            + (self.grid.n + 1,)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")
        if np.any(self.values[..., -1] != 0.0):
            raise ValueError("normal component of F must vanish identically")


def sample_scalar(grid: ParabolicGrid, fn) -> ScalarField:
    """Evaluate fn(t, x..., y) on the grid lattice."""
    mesh = grid.meshgrid()
    return ScalarField(grid, np.asarray(fn(*mesh), dtype=float)
                       * np.ones(grid.shape))


def sample_thin(grid: ParabolicGrid, fn) -> np.ndarray:
    """Evaluate fn(t, x...) on the (node-time, x-cell) lattice."""
    axes = [grid.t_nodes] + grid.x_centers
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.asarray(fn(*mesh), dtype=float) * np.ones((grid.nt + 1,)
                                                        + (grid.nx,) * grid.n)


# -- file format: JSON header + flat little-endian float64, row-major --

def save_field(path, fld: ScalarField):
    g = fld.grid
    header = {
        "kind": "scalar",
        "n": g.n,
        "s": g.params.s,
        "a": g.params.a,
        "rho": g.rho,
        "nt": g.nt,
        "nx": g.nx,
        "ny": g.ny,
        "q": g.q,
        "center": list(g.center),
        "t_range": list(g.t_range),
        "order": "t,x...,y row-major",
        "meta": {k: v for k, v in fld.meta.items()
                 if isinstance(v, (int, float, str, bool))},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(fld.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(data.tobytes())


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a fracheat field file")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        raw = fh.read()
    grid = ParabolicGrid(FracParams(header["s"], header["n"]),
                         rho=header["rho"], nt=header["nt"], nx=header["nx"],
                         ny=header["ny"], q=header["q"],
                         center=tuple(header["center"]),
                         t_range=tuple(header["t_range"]))
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
    return ScalarField(grid, values, meta=header.get("meta", {}))
