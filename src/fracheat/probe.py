"""Empirical probes of the excess-decay regularity mechanism: weighted
linear fits on shrinking parabolic cylinders, their excess records at the
radii side lam^k against a modulus bound (thin-space cylinders in
`excess_sequence`, cubes interior in y in `interior_probe`), and the
gradient-modulus sampler.

The excess of a fit l(x) = a + b.(x - x0) on the cylinder pair at radius r
around a thin-space center (t0, x0) is

    E(r) = r^-(n+2)   int_(Q_r)  |U(.,.,0) - l|^2
         + r^-(n+3+a) int_(Q*_r) y^a |U - l|^2 .

Both integrals are exact in time on the piecewise-linear interpolant of U,
so a window shorter than one time step needs no floor.  In space the
cell-centered samples are integrated cell by cell, which resolves a radius
only when it spans CELLS_PER_RADIUS cells.

Every probe excess is one separable weighted least-squares fit (`_fit`)
over "pieces": a field, a time window, normalized per-cell space weights
W and regressor columns C held on the space lattice only.  Because C is
constant in time, the normal equations are (sum of time weights) C^T W C
against C^T W (time weights . V), and the excess of a piece is
sum W int (V - coef . C)^2 dt.  The combined fit uses the trace and the
thick-cylinder pieces; the interior probe uses one unweighted-cube piece
with columns (1, x - x0, y - y0).

Both records come from one loop (`_excess_record`), which stops at the
first radius spanning fewer than CELLS_PER_RADIUS cells along an axis its
fit is linear in, and raises if that is the first.  The one-step
improvement E(lam) < lam^3 of unit-norm input is ratios[1] at omega =
sqrt; the Campanato limit of the fits is fits[-1], within the drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ParabolicGrid, ScalarField, _interval_overlap

__all__ = [
    "LinearFit",
    "ExcessSequence",
    "ModulusProbeReport",
    "parabolic_distance",
    "best_linear_fit",
    "excess_sequence",
    "gradient_modulus_probe",
    "interior_probe",
]


CELLS_PER_RADIUS = 4.0
"""Fewest spatial cells per radius a probe cylinder or cube must span.
Cell-sampled integration of a quadratic residual over a radius of m cells
errs by about (5/4) m^-2 relative: 8% at m = 4, the accuracy the excess
probes assert against closed forms."""


def parabolic_distance(p1, p2):
    """max(sqrt|t1-t2|, ||X1-X2||) for points (t, X) in the thick space; a
    float, or one distance per point pair when the coordinates are arrays."""
    dX = [np.subtract(a, b) for a, b in zip(p1[1:], p2[1:])]
    d = np.maximum(np.sqrt(np.abs(np.subtract(p1[0], p2[0]))),
                   np.sqrt(sum(c * c for c in dX)))
    return float(d) if np.ndim(d) == 0 else d


@dataclass
class LinearFit:
    """l(x) = a + b.(x - x0) with its combined weighted excess."""

    a: float
    b: np.ndarray
    excess: float
    excess_thin: float
    excess_thick: float
    normal_residual: float


def _columns(axes) -> np.ndarray:
    """Regressors (1, axes[0], ..., axes[-1]) stacked on the tensor lattice
    of the 1-d coordinate arrays `axes`."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([np.ones(mesh[0].shape), *mesh])


def _pieces(U: ScalarField, center, radius: float):
    """The trace and thick-cylinder pieces of the excess at radius r, each
    a tuple (field, time window, normalized space weights, columns
    (1, x - x0) on the space lattice)."""
    grid = U.grid
    window, wx, wy = grid.cylinder_weights(center, radius)
    C = _columns([x - c for x, c in zip(grid.x_centers, center[1:1 + grid.n])])
    thin = (grid.trace_at_zero(U.values), window,
            wx * radius ** -(grid.n + 2.0), C)
    thick = (U.values, window, np.multiply.outer(wx, wy)
             * radius ** -(grid.n + 3.0 + grid.params.a), C[..., None])
    return thin, thick


def _fit(grid: ParabolicGrid, pieces, coef=None):
    """The separable least-squares fit over all pieces (see the module
    docstring) and each piece's excess; with `coef` given only the
    excesses are evaluated.  Returns (coef, excesses, relative normal
    residual)."""
    nres = 0.0
    if coef is None:
        M = rhs = 0.0
        for V, window, W, C in pieces:
            tw = grid.time_weights(*window)
            WC = (W * C).reshape(len(C), -1)
            Cf = np.broadcast_to(C, (len(C),) + W.shape).reshape(len(C), -1)
            M = M + tw.sum() * (WC @ Cf.T)
            rhs = rhs + WC @ np.einsum("t,t...->...", tw, V).ravel()
        if M[0, 0] <= 0.0:
            raise ValueError("fit cylinder does not intersect the grid")
        try:
            coef = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("degenerate moment matrix in linear fit") from exc
        nres = float(np.linalg.norm(M @ coef - rhs)
                     / max(np.linalg.norm(rhs), 1e-300))
    excesses = [float(np.sum(W * grid.time_integral_sq(
        V[grid.window_nodes(*window)] - np.tensordot(coef, C, axes=1),
        *window)))
        for V, window, W, C in pieces]
    return coef, excesses, nres


def _linear_fit(grid: ParabolicGrid, pieces) -> LinearFit:
    """The LinearFit of `_fit` over pieces whose last is the thick one;
    the pieces before it, if any, make up the thin excess."""
    coef, (*thin, thick), nres = _fit(grid, pieces)
    e_thin = float(sum(thin))
    return LinearFit(float(coef[0]), coef[1:].copy(), e_thin + thick,
                     e_thin, thick, nres)


def _resolves(r: float, width: float, name=None) -> bool:
    """Whether the radius r spans CELLS_PER_RADIUS cells of the given width;
    if it does not and a name is given, raise ValueError naming it."""
    if r >= CELLS_PER_RADIUS * width:
        return True
    if name is not None:
        raise ValueError(f"the {name} {r:.3g} spans fewer than "
                         f"{CELLS_PER_RADIUS:g} cells")
    return False


def best_linear_fit(U: ScalarField, radius: float, center=None) -> LinearFit:
    """Minimizer of the combined thin+thick excess functional over linear
    l(x); closed-form normal equations in the (1+n) coefficients.  A
    radius spanning fewer than CELLS_PER_RADIUS x-cells raises ValueError."""
    grid = U.grid
    _resolves(radius, grid.dx, "radius")
    if center is None:
        center = (grid.center[0],) + tuple(grid.center[1:]) + (0.0,)
    return _linear_fit(grid, _pieces(U, center, radius))


@dataclass
class ExcessSequence:
    """Per-scale excess records against the modulus bound."""

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

    @property
    def excess(self):
        return self.excess_thin + self.excess_thick


def _excess_record(side: float, lam: float, kmax: int, omega, widths,
                   fit) -> ExcessSequence:
    """The LinearFits `fit(r)` at r = side lam^k up to the first radius
    that does not span CELLS_PER_RADIUS of the cells `widths(r)`, against
    the bound lam^(2k) omega(lam^k)^2, with the fit drifts
    |a_(k+1) - a_k| / (r_k omega(lam^k)) and |b_(k+1) - b_k| / omega(lam^k)."""
    scales = lam ** np.arange(kmax + 1)
    fits = []
    for r in side * scales:
        if not _resolves(r, np.max(widths(r)),
                         None if fits else "first radius"):
            break
        fits.append(fit(r))
    ks = np.arange(len(fits))
    radii = side * scales[ks]
    e_thin = np.array([f.excess_thin for f in fits])
    e_thick = np.array([f.excess_thick for f in fits])
    om = np.asarray(omega(scales[ks]), dtype=float)
    bounds = lam ** (2.0 * ks) * om ** 2
    ratios = (e_thin + e_thick) / np.maximum(bounds, 1e-300)
    da = np.array([abs(f1.a - f0.a) / (r * w)
                   for f0, f1, r, w in zip(fits, fits[1:], radii, om)])
    db = np.array([np.linalg.norm(f1.b - f0.b) / w
                   for f0, f1, w in zip(fits, fits[1:], om)])
    return ExcessSequence(ks, radii, e_thin, e_thick, bounds, ratios,
                          fits, da, db, len(fits) - 1)


def excess_sequence(U: ScalarField, lam: float, kmax: int, omega,
                    center=None) -> ExcessSequence:
    """Dyadic excess records E_k of the combined fit at radii lam^k around
    a thin-space center (see _excess_record); a radius is resolved by the
    x-cells it spans."""
    return _excess_record(1.0, lam, kmax, omega, lambda r: U.grid.dx,
                          lambda r: best_linear_fit(U, r, center))


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
    pair_distances: np.ndarray
    pair_ratios: np.ndarray
    pair_cases: np.ndarray


def _snap(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Index of the node of the ascending array nearest each v, a tie going
    to the lower index as in np.argmin(np.abs(nodes - v))."""
    i = np.clip(np.searchsorted(nodes, v), 1, nodes.size - 1)
    return np.where(v - nodes[i - 1] <= nodes[i] - v, i - 1, i)


PAIR_BLOCK = 4096
"""Most pair attempts the probe draws at once, so the temporaries of a
block stay a few hundred KB whatever n_pairs is."""


def gradient_modulus_probe(U: ScalarField, K, n_pairs: int = 10000,
                           seed: int = 0) -> ModulusProbeReport:
    """Sample stratified point pairs in the half cylinder Q*_(1/2) around
    the grid's center (ParabolicGrid.in_cylinder) and report the
    empirical constants sup |grad U(p1) - grad U(p2)| / K(dist), split into
    the interior regime (dist <= y1/4) and the boundary regime, plus the
    time-increment ratio |U(t1,X) - U(t2,X)| / (K(sqrt dt) sqrt dt).

    An attempt draws a cell of the half cylinder and a parabolic
    displacement at a random dyadic scale, and snaps the displaced point to
    the nearest node and cells.  Attempts go in blocks of at most
    min(PAIR_BLOCK, 4 x the pairs still missing), each block filtered as
    arrays and accepted in draw order, until n_pairs pairs are in or
    40 n_pairs attempts are spent.  Gradients are evaluated at the sampled
    cells only (ParabolicGrid.gradient_at).

    K must accept an array of radii, as ModulusOfContinuity does: it is
    called once, on the distinct radii min(dist, 1) of all sampled pairs.
    The boundary-regime geometry fact y2 <= 6 dist is asserted pairwise.
    """
    grid = U.grid
    if grid.n != 1:
        raise NotImplementedError("the pair sampler runs at n = 1")
    rng = np.random.default_rng(seed)
    axes = (grid.t_nodes, grid.x_centers[0], grid.y_centers)
    ti, xi_, yi = (np.nonzero(m)[0] for m in grid.in_cylinder(0.5, *axes))

    h_min = min(grid.dx, math.sqrt(grid.dt))
    decades = []
    d = 0.45
    while d > h_min:
        decades.append(d)
        d /= 2.0
    if not decades:
        raise ValueError(f"no pair scale is resolvable: min(dx, sqrt(dt)) = "
                         f"{h_min:.3g} >= 0.45, the largest pair distance")
    decades, n_dec = np.array(decades), len(decades)

    blocks = [(np.empty(0),) + (np.empty(0, dtype=int),) * 6]
    n_in = attempts = 0
    while n_in < n_pairs and attempts < 40 * n_pairs:
        m = min(PAIR_BLOCK, 4 * (n_pairs - n_in), 40 * n_pairs - attempts)
        attempts += m
        i1 = tuple(c[rng.integers(0, c.size, m)] for c in (ti, xi_, yi))
        target = decades[rng.integers(0, n_dec, m)] * rng.uniform(0.5, 1.0, m)
        # random parabolic displacement at the target scale, snapped to cells
        shift = rng.uniform(-1.0, 1.0, (3, m)) * (target ** 2, target, target)
        to = tuple(ax[i] + d for ax, i, d in zip(axes, i1, shift))
        i2 = tuple(_snap(ax, v) for ax, v in zip(axes, to))
        dist = parabolic_distance(*(tuple(ax[i] for ax, i in zip(axes, ii))
                                    for ii in (i1, i2)))
        ok = (np.logical_and.reduce(grid.in_cylinder(0.5, *to))
              & (dist >= h_min / 2.0) & (dist <= 0.45))
        keep = np.nonzero(ok)[0][:n_pairs - n_in]
        n_in += keep.size
        blocks.append((dist[keep],) + tuple(i[keep] for i in i1 + i2))
    dists, *idx = (np.concatenate(c) for c in zip(*blocks))
    y1, y2 = (axes[2][i] for i in idx[2::3])
    interior = dists <= np.minimum(y1, y2) / 4.0
    geometry_ok = bool(np.all(interior | (np.maximum(y1, y2)
                                          <= 6.0 * dists + 1e-12)))
    grads = grid.gradient_at(U.values, tuple(np.concatenate([a, b])
                                             for a, b in zip(idx[:3], idx[3:])))
    dg = [g[:dists.size] - g[dists.size:] for g in grads]
    incs = np.sqrt(sum(c * c for c in dg))

    # time-increment pairs: same spatial cell, two distinct time nodes
    n_time = n_pairs // 4
    j1 = rng.integers(0, ti.size, n_time)
    j2 = rng.integers(0, ti.size - 1, n_time)
    j1, j2 = ti[j1], ti[j2 + (j2 >= j1)]
    ix, iy = (c[rng.integers(0, c.size, n_time)] for c in (xi_, yi))
    rdts = np.sqrt(np.abs(axes[0][j1] - axes[0][j2]))
    dus = np.abs(U.values[j1, ix, iy] - U.values[j2, ix, iy])

    radii, inverse = np.unique(np.minimum(np.concatenate([dists, rdts]), 1.0),
                               return_inverse=True)
    k_vals = (np.atleast_1d(np.asarray(K(radii), dtype=float))[inverse]
              if radii.size else radii)
    ratios = incs / np.maximum(k_vals[:dists.size], 1e-300)
    t_ratios = dus / np.maximum(k_vals[dists.size:] * rdts, 1e-300)
    return ModulusProbeReport(
        float(ratios[interior].max(initial=0.0)),
        float(ratios[~interior].max(initial=0.0)),
        float(t_ratios.max(initial=0.0)),
        int(np.sum(interior)), int(np.sum(~interior)), int(rdts.size),
        geometry_ok, dists, ratios, np.where(interior, 0, 1))


def interior_probe(U: ScalarField, center, side: float, lam: float,
                   kmax: int, psi) -> ExcessSequence:
    """Excess decay on full (unweighted) cubes of radius side lam^k strictly
    interior in y: fits are linear in all n+1 spatial coordinates (the
    fits' b ends with the y-slope), the normalization is r^-(N+2) with
    N = n+1, the thin excess is 0 and the bound is lam^(2k) psi(lam^k)^2
    (see _excess_record).  A radius is resolved by the x- and y-cells its
    cube spans."""
    grid = U.grid
    y0 = center[-1]
    if y0 - side < side * 1e-9:
        raise ValueError("cube touches the boundary layer")
    C = _columns([x - c for x, c in zip(grid.x_centers, center[1:1 + grid.n])]
                 + [grid.y_centers - y0])

    def wy(r):
        w = _interval_overlap(grid.y_faces, y0 - r, y0 + r)
        if not np.any(w > 0.0):
            raise ValueError(f"cube [{y0 - r:.3g}, {y0 + r:.3g}] in y meets no "
                             f"y-cell of the grid (y in [0, {grid.rho:.3g}])")
        return w

    def widths(r):
        return np.append(np.diff(grid.y_faces)[wy(r) > 0.0], grid.dx)

    def fit(r):
        window, wx, _ = grid.cylinder_weights(center, r)
        W = np.multiply.outer(wx, wy(r)) * r ** -(grid.n + 3.0)
        return _linear_fit(grid, [(U.values, window, W, C)])

    return _excess_record(side, lam, kmax, psi, widths, fit)
