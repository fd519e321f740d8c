"""Empirical probes of the excess-decay regularity mechanism: weighted
linear fits on shrinking parabolic cylinders, the dyadic excess sequence
with its modulus bound, the one-step improvement scan, thin-space Campanato
profiles, the gradient-modulus sampler, and the interior (unweighted cube)
variant.

The excess of a fit l(x) = a + b.(x - x0) on the cylinder pair at radius r
around a thin-space center (t0, x0) is

    E(r) = r^-(n+2)   int_(Q_r)  |U(.,.,0) - l|^2
         + r^-(n+3+a) int_(Q*_r) y^a |U - l|^2 .

Both integrals are exact in time on the piecewise-linear interpolant of U,
so a window shorter than one time step needs no floor.  In space the
cell-centered samples are integrated cell by cell, which resolves a radius
only when it spans CELLS_PER_RADIUS cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import ParabolicGrid, ScalarField

__all__ = [
    "LinearFit",
    "ExcessSequence",
    "ModulusProbeReport",
    "parabolic_distance",
    "best_linear_fit",
    "excess_with_fit",
    "excess_sequence",
    "one_step_improvement",
    "campanato_excess_profile",
    "gradient_modulus_probe",
    "interior_probe",
]


CELLS_PER_RADIUS = 4.0
"""Fewest spatial cells per radius a probe cylinder or cube must span.
Cell-sampled integration of a quadratic residual over a radius of m cells
errs by about (5/4) m^-2 relative: 8% at m = 4, the accuracy the excess
probes assert against closed forms."""


def _resolved(radius: float, widths) -> bool:
    """Whether `radius` spans CELLS_PER_RADIUS cells of the widest width."""
    return radius >= CELLS_PER_RADIUS * float(np.max(widths))


def parabolic_distance(p1, p2) -> float:
    """max(sqrt|t1-t2|, ||X1-X2||) for points (t, X) in the thick space."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return float(max(math.sqrt(abs(p1[0] - p2[0])),
                     np.linalg.norm(p1[1:] - p2[1:])))


@dataclass
class LinearFit:
    """l(x) = a + b.(x - center) with its combined weighted excess."""

    a: float
    b: np.ndarray
    excess: float
    excess_thin: float
    excess_thick: float
    center: tuple
    radius: float
    normal_residual: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        c = np.asarray(self.center[1:], dtype=float)
        if x.ndim <= 1 and c.size == 1:
            return self.a + self.b[0] * (x - c[0])
        return self.a + (x - c) @ self.b


def _fit_weights(grid: ParabolicGrid, center, radius: float):
    """Thin and thick weight stacks plus centered x-coordinate columns."""
    t0 = center[0]
    x0 = np.asarray(center[1:1 + grid.n], dtype=float)
    tw = grid.time_weights(t0 - radius ** 2, t0 + radius ** 2)
    wx = grid._x_overlap(x0, radius)
    wy = grid.thick_cylinder_weights(center, radius)[2]
    thin_w = np.multiply.outer(tw, wx) * radius ** -(grid.n + 2.0)
    thick_w = np.multiply.outer(np.multiply.outer(tw, wx), wy) \
        * radius ** -(grid.n + 3.0 + grid.params.a)
    Xc = [X - x0[d] for d, X in enumerate(grid.x_centers)]
    return thin_w, thick_w, Xc


def _excess_term(grid: ParabolicGrid, center, radius: float, resid,
                 thick: bool) -> float:
    """Normalized excess of a residual field U - l on the radius-r thin
    (or thick) cylinder, with its square integrated exactly in time; node
    weights would integrate the interpolant of the square instead."""
    if thick:
        return grid.weighted_norm_sq(resid, center, radius) \
            * radius ** -(grid.n + 3.0 + grid.params.a)
    t0 = center[0]
    w = grid._x_overlap(np.asarray(center[1:1 + grid.n], dtype=float), radius)
    sq = grid.time_integral_sq(resid, t0 - radius ** 2, t0 + radius ** 2)
    return float(np.sum(w * sq)) * radius ** -(grid.n + 2.0)


def _linear_values(cols, coef):
    """coef[0] cols[0] + sum_d coef[1 + d] cols[1 + d] on a sample lattice."""
    return sum(c * col for c, col in zip(coef, cols))


def _design_columns(grid: ParabolicGrid, Xc, thick: bool):
    """Regressor fields (1, x_1 - c_1, ..., x_n - c_n) over the thin or
    thick sample lattice."""
    shape = (grid.nt + 1,) + (grid.nx,) * grid.n + ((grid.ny,) if thick else ())
    cols = [np.ones(shape)]
    for d in range(grid.n):
        col = Xc[d].reshape((1,) + (1,) * d + (-1,) + (1,) * (grid.n - 1 - d)
                            + ((1,) if thick else ()))
        cols.append(np.broadcast_to(col, shape).copy())
    return cols


def best_linear_fit(U: ScalarField, radius: float, center=None) -> LinearFit:
    """Minimizer of the combined thin+thick excess functional over linear
    l(x); closed-form normal equations in the (1+n) coefficients."""
    grid = U.grid
    if center is None:
        center = (grid.center[0],) + tuple(grid.center[1:]) + (0.0,)
    thin_w, thick_w, Xc = _fit_weights(grid, center, radius)
    if float(np.sum(thin_w)) + float(np.sum(thick_w)) <= 0.0:
        raise ValueError("fit cylinder does not intersect the grid")
    tr = grid.trace_at_zero(U.values)
    cols_thin = _design_columns(grid, Xc, thick=False)
    cols_thick = _design_columns(grid, Xc, thick=True)

    m = grid.n + 1
    M = np.zeros((m, m))
    rhs = np.zeros(m)
    for i in range(m):
        rhs[i] = float(np.sum(thin_w * cols_thin[i] * tr)) \
            + float(np.sum(thick_w * cols_thick[i] * U.values))
        for j in range(i, m):
            M[i, j] = M[j, i] = \
                float(np.sum(thin_w * cols_thin[i] * cols_thin[j])) \
                + float(np.sum(thick_w * cols_thick[i] * cols_thick[j]))
    try:
        coef = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("degenerate moment matrix in linear fit") from exc
    nres = float(np.linalg.norm(M @ coef - rhs)
                 / max(np.linalg.norm(rhs), 1e-300))

    e_thin = _excess_term(grid, center, radius,
                          tr - _linear_values(cols_thin, coef), False)
    e_thick = _excess_term(grid, center, radius,
                           U.values - _linear_values(cols_thick, coef), True)
    return LinearFit(float(coef[0]), coef[1:].copy(), e_thin + e_thick,
                     e_thin, e_thick, tuple(center), radius, nres)


def excess_with_fit(U: ScalarField, radius: float, fit: LinearFit,
                    center=None) -> float:
    """Combined excess of a GIVEN linear function on the radius-r cylinder
    pair (used to assert minimality of the fitted one)."""
    grid = U.grid
    if center is None:
        center = fit.center
    Xc = _fit_weights(grid, center, radius)[2]
    tr = grid.trace_at_zero(U.values)
    shift = np.asarray(center[1:1 + grid.n]) - np.asarray(fit.center[1:1 + grid.n])
    base = fit.a + float(np.dot(fit.b, shift)) if np.any(shift) else fit.a
    coef = np.concatenate([[base], fit.b])
    cols_thin = _design_columns(grid, Xc, thick=False)
    cols_thick = _design_columns(grid, Xc, thick=True)
    return (_excess_term(grid, center, radius,
                         tr - _linear_values(cols_thin, coef), False)
            + _excess_term(grid, center, radius,
                           U.values - _linear_values(cols_thick, coef), True))


@dataclass
class ExcessSequence:
    """Per-scale excess records against the modulus bound."""

    lam: float
    ks: np.ndarray
    radii: np.ndarray
    excess_thin: np.ndarray
    excess_thick: np.ndarray
    bounds: np.ndarray
    ratios: np.ndarray
    fits: list
    drift_a: np.ndarray
    drift_b: np.ndarray
    clamped_kmax: int
    requested_kmax: int

    @property
    def excess(self):
        return self.excess_thin + self.excess_thick

    def to_csv(self, path):
        rows = np.column_stack([self.ks, self.radii, self.excess,
                                self.bounds, self.ratios])
        np.savetxt(path, rows, delimiter=",",
                   header="k,r,excess,bound,ratio", comments="")


def resolvable_kmax(grid: ParabolicGrid, lam: float, kmax: int) -> int:
    """Largest k <= kmax whose radius lam^k spans CELLS_PER_RADIUS x-cells,
    so the cell-sampled excess of a quadratic residual is within about 8%.
    Time sets no floor: the excess is exact in time on any window."""
    k = 0
    while k < kmax and _resolved(lam ** (k + 1), grid.dx):
        k += 1
    return k


def excess_sequence(U: ScalarField, lam: float, kmax: int, omega,
                    center=None) -> ExcessSequence:
    """Dyadic excess records E_k at radii lam^k around a thin-space center,
    against the bound lam^(2k) omega(lam^k)^2, with the fit-coefficient
    drifts |a_(k+1) - a_k| / (lam^k omega(lam^k)) and
    |b_(k+1) - b_k| / omega(lam^k)."""
    grid = U.grid
    k_eff = resolvable_kmax(grid, lam, kmax)
    ks = np.arange(k_eff + 1)
    radii = lam ** ks
    fits = [best_linear_fit(U, r, center) for r in radii]
    e_thin = np.array([f.excess_thin for f in fits])
    e_thick = np.array([f.excess_thick for f in fits])
    om = np.asarray(omega(radii), dtype=float)
    bounds = lam ** (2.0 * ks) * om ** 2
    ratios = (e_thin + e_thick) / np.maximum(bounds, 1e-300)
    da = np.array([abs(fits[k + 1].a - fits[k].a) / (radii[k] * om[k])
                   for k in range(k_eff)])
    db = np.array([np.linalg.norm(fits[k + 1].b - fits[k].b) / om[k]
                   for k in range(k_eff)])
    return ExcessSequence(lam, ks, radii, e_thin, e_thick, bounds, ratios,
                          fits, da, db, k_eff, kmax)


def combined_norm(U: ScalarField) -> float:
    """sqrt of the trace L^2 plus weighted L^2 over the field's cylinder."""
    grid = U.grid
    tr = grid.trace_at_zero(U.values)
    thin = float(np.sum(grid.x_cell_measures() * grid.time_integral_sq(tr)))
    thick = grid.weighted_norm_sq(U.values)
    return math.sqrt(thin + thick)


def one_step_improvement(U: ScalarField, lams=None, center=None):
    """Scan lam in {2^-2, ..., 2^-6} for the one-scale improvement
        E(lam) < lam^3
    on the input normalized to unit combined norm.  Returns
    (lam_found, achieved_ratio, table); lam_found is None when no scale
    achieves the bound."""
    if lams is None:
        lams = [2.0 ** -k for k in range(2, 7)]
    norm = combined_norm(U)
    if norm <= 0.0:
        return max(lams), 0.0, [(lam, 0.0) for lam in lams]
    Un = ScalarField(U.grid, U.values / norm)
    table = []
    for lam in sorted(lams, reverse=True):
        fit = best_linear_fit(Un, lam, center)
        ratio = fit.excess / lam ** 3
        table.append((lam, ratio))
    for lam, ratio in table:
        if ratio < 1.0:
            return lam, ratio, table
    return None, min(r for _, r in table), table


def campanato_excess_profile(U: ScalarField, center, radii, K=None) -> dict:
    """Thick-cylinder excess of the limiting fit (realized as the
    finest-radius fit) across the given radii; when the gradient modulus K
    is supplied the table also carries excess / (r^2 K(r)^2).

    The drift-tail column bounds the gap to the true limiting fit by the
    last observed inter-scale coefficient drifts."""
    grid = U.grid
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    fits = [best_linear_fit(U, r, center) for r in radii]
    limit_fit = fits[-1]
    limit_coef = np.concatenate([[limit_fit.a], limit_fit.b])
    rows = []
    for r, f in zip(radii, fits):
        cols = _design_columns(grid, _fit_weights(grid, center, r)[2], True)
        exc = _excess_term(grid, center, r,
                           U.values - _linear_values(cols, limit_coef), True)
        row = {"r": float(r), "excess": exc}
        if K is not None:
            row["ratio"] = exc / max(r ** 2 * float(K(r)) ** 2, 1e-300)
        rows.append(row)
    drifts = [abs(fits[i + 1].a - fits[i].a)
              + float(np.linalg.norm(fits[i + 1].b - fits[i].b))
              for i in range(len(fits) - 1)]
    return {"rows": rows, "limit_fit": limit_fit,
            "drift_tail_estimate": drifts[-1] if drifts else 0.0,
            "gradients": [f.b.copy() for f in fits]}


@dataclass
class ModulusProbeReport:
    """Empirical sup ratios of gradient increments against the modulus."""

    C_emp_interior: float
    C_emp_boundary: float
    C_emp_time: float
    n_interior: int
    n_boundary: int
    n_time: int
    geometry_ok: bool
    seed: int
    pair_distances: np.ndarray
    pair_ratios: np.ndarray
    pair_cases: np.ndarray

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.pair_distances,
                                          self.pair_ratios,
                                          self.pair_cases]),
                   delimiter=",", header="distance,ratio,case", comments="")


def _cells_in_half_cylinder(grid: ParabolicGrid):
    tmask = np.abs(grid.t_nodes - grid.center[0]) <= 0.25
    xmask = np.abs(grid.x_centers[0] - grid.center[1]) <= 0.5
    ymask = grid.y_centers < 0.5
    return (np.nonzero(tmask)[0], np.nonzero(xmask)[0], np.nonzero(ymask)[0])


def gradient_modulus_probe(U: ScalarField, K, n_pairs: int = 10000,
                           seed: int = 0) -> ModulusProbeReport:
    """Sample stratified point pairs in the half cylinder and report the
    empirical constants sup |grad U(p1) - grad U(p2)| / K(dist), split into
    the interior regime (dist <= y1/4) and the boundary regime, plus the
    time-increment ratio |U(t1,X) - U(t2,X)| / (K(sqrt dt) sqrt dt).

    K must accept an array of radii, as ModulusOfContinuity does: it is
    called once, on the distinct radii min(dist, 1) of all sampled pairs.
    The boundary-regime geometry fact y2 <= 6 dist is asserted pairwise.
    """
    grid = U.grid
    if grid.n != 1:
        raise NotImplementedError("the pair sampler runs at n = 1")
    rng = np.random.default_rng(seed)
    gx, gy = grid.gradient(U.values)
    ti, xi_, yi = _cells_in_half_cylinder(grid)
    t_nodes, x_c, y_c = grid.t_nodes, grid.x_centers[0], grid.y_centers

    h_min = min(grid.dx, math.sqrt(grid.dt))
    decades = []
    d = 0.45
    while d > h_min:
        decades.append(d)
        d /= 2.0
    n_dec = max(len(decades), 1)

    dists, incs, cases = [], [], []
    geometry_ok = True
    attempts = 0
    while len(dists) < n_pairs and attempts < 40 * n_pairs:
        attempts += 1
        i1 = (rng.choice(ti), rng.choice(xi_), rng.choice(yi))
        target = decades[rng.integers(0, n_dec)] * rng.uniform(0.5, 1.0)
        # random parabolic displacement at the target scale, snapped to cells
        dt_ = rng.uniform(-1.0, 1.0) * target ** 2
        dx_ = rng.uniform(-1.0, 1.0) * target
        dy_ = rng.uniform(-1.0, 1.0) * target
        t2 = t_nodes[i1[0]] + dt_
        x2 = x_c[i1[1]] + dx_
        y2 = y_c[i1[2]] + dy_
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
        g1 = np.array([gx[i1], gy[i1]])
        g2 = np.array([gx[i2], gy[i2]])
        y1_, y2_ = min(p1[2], p2[2]), max(p1[2], p2[2])
        interior = dist <= y1_ / 4.0
        if not interior:
            geometry_ok &= (y2_ <= 6.0 * dist + 1e-12)
        dists.append(dist)
        incs.append(float(np.linalg.norm(g1 - g2)))
        cases.append(0 if interior else 1)

    # time-increment pairs: same spatial cell, varying time separation
    rdts, dus = [], []
    for _ in range(n_pairs // 4):
        j1, j2 = rng.choice(ti, size=2, replace=False)
        ix = rng.choice(xi_)
        iy = rng.choice(yi)
        dt_ = abs(t_nodes[j1] - t_nodes[j2])
        if dt_ <= 0:
            continue
        rdts.append(math.sqrt(dt_))
        dus.append(abs(U.values[j1, ix, iy] - U.values[j2, ix, iy]))

    dists, rdts = np.asarray(dists), np.asarray(rdts)
    cases = np.asarray(cases, dtype=int)
    radii, inverse = np.unique(np.minimum(np.concatenate([dists, rdts]), 1.0),
                               return_inverse=True)
    k_vals = (np.atleast_1d(np.asarray(K(radii), dtype=float))[inverse]
              if radii.size else radii)
    ratios = np.asarray(incs) / np.maximum(k_vals[:dists.size], 1e-300)
    t_ratios = np.asarray(dus) / np.maximum(k_vals[dists.size:] * rdts, 1e-300)
    interior = cases == 0
    return ModulusProbeReport(
        float(ratios[interior].max(initial=0.0)),
        float(ratios[~interior].max(initial=0.0)),
        float(t_ratios.max(initial=0.0)),
        int(np.sum(interior)), int(np.sum(~interior)), int(rdts.size),
        bool(geometry_ok), seed, dists, ratios, cases)


def interior_probe(U: ScalarField, center, side: float, lam: float,
                   kmax: int, psi) -> dict:
    """Excess decay on full (unweighted) cubes strictly interior in y:
    fits are linear in all n+1 spatial coordinates, the normalization is
    r^-(N+2) with N = n+1, and the bound is lam^(2k) psi(lam^k)^2."""
    grid = U.grid
    t0 = center[0]
    x0 = np.asarray(center[1:1 + grid.n], dtype=float)
    y0 = center[-1]
    if y0 - side < 0.0 + side * 1e-9 or y0 < side:
        raise ValueError("cube touches the boundary layer")
    N = grid.n + 1
    rows = []
    mesh = grid.meshgrid()
    cols = [np.ones(grid.shape)] + \
        [np.broadcast_to(mesh[1 + d], grid.shape) - x0[d]
         for d in range(grid.n)] + \
        [np.broadcast_to(mesh[-1], grid.shape) - y0]
    dy = np.diff(grid.y_faces)
    for k in range(kmax + 1):
        r = side * lam ** k
        # plain (unweighted) y overlap on the interior slab
        yl, yh = y0 - r, y0 + r
        wy = np.maximum(np.minimum(grid.y_faces[1:], yh)
                        - np.maximum(grid.y_faces[:-1], yl), 0.0)
        if not (_resolved(r, grid.dx) and _resolved(r, dy[wy > 0.0])):
            break
        lo, hi = t0 - r ** 2, t0 + r ** 2
        wx = grid._x_overlap(x0, r)
        w_space = np.multiply.outer(wx, wy) * r ** -(N + 2.0)
        w = np.multiply.outer(grid.time_weights(lo, hi), w_space)
        mdim = N + 1
        M = np.zeros((mdim, mdim))
        rhs = np.zeros(mdim)
        for i in range(mdim):
            rhs[i] = float(np.sum(w * cols[i] * U.values))
            for j in range(i, mdim):
                M[i, j] = M[j, i] = float(np.sum(w * cols[i] * cols[j]))
        coef = np.linalg.solve(M, rhs)
        resid = U.values - _linear_values(cols, coef)
        exc = float(np.sum(w_space * grid.time_integral_sq(resid, lo, hi)))
        bound = lam ** (2.0 * k) * float(psi(lam ** k)) ** 2
        rows.append({"k": k, "r": r, "excess": exc, "bound": bound,
                     "ratio": exc / max(bound, 1e-300),
                     "coef": coef.copy()})
    return {"rows": rows, "lam": lam, "side": side, "center": tuple(center)}
