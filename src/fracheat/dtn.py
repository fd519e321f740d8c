"""Extraction of the weighted normal-derivative limit of extension
solutions (the Dirichlet-to-Neumann map) and the dual-route consistency
check against direct subordination quadrature.

The extension solution behaves like U0 + U1 y^(1-a) + O(y^2) at the bottom
face, so the flux y^a dU/dy is c0 + c1 y^(1+a) + ...; Richardson
extrapolation therefore runs in the variable eta = y^(1+a), with the
per-interval effective eta of each inter-center flux computed exactly.

Exact data for the identity come from one family of heat eigenfunctions,
e^(lam t) cos(xi x_1): the steady cosines at lam = 0, x-independent data
at xi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FracParams, QuadratureSpec, dtn_constant, frac_heat_apply
from .grids import ParabolicGrid, ScalarField, _grading_exponent, _y_mesh
from .extension import (CoefficientField, _flapack, _two_point,
                        solve_extension)

__all__ = [
    "DtnExtract",
    "extract_dtn",
    "steady_profile",
    "cosine_extension_data",
    "dtn_vs_direct",
]


@dataclass
class DtnExtract:
    """Per-(t, x) weighted normal-derivative limit -c_s lim y^a dU/dy.

    values has the thin shape (nt+1, nx...); flagged, of the same shape,
    marks the cells at the lateral boundary and those where the quadratic
    and the linear fit in eta differ by more than `_RESIDUAL_THRESHOLD` of
    the value.
    """

    values: np.ndarray
    flagged: np.ndarray


# at least this many flux intervals enter the fit, and at most
_LAYERS = 4
_MAX_LAYERS = 12
# a cell is flagged when the two fits differ by more than this share of
# its value
_RESIDUAL_THRESHOLD = 0.05
# intervals of lower resistance, relative to rho^(1-a), are skipped: there
# the U differences are float noise on strongly graded meshes.  Resistances
# scale as rho^(1-a), so the skipped intervals do not depend on rho.
_RESISTANCE_FLOOR = 1e-11
# the fit stops once eta exceeds this share of rho^(1+a)
_ETA_WINDOW = 0.45


def extract_dtn(U: ScalarField, p: FracParams) -> DtnExtract:
    """Extrapolate the flux y^a dU/dy through graded inter-center intervals
    to y = 0 and scale by -c_s.

    The flux of an extension solution is analytic in eta = y^(1+a) with the
    first model error only at order eta^(1 + 2/(1+a)), so the limit comes
    from a quadratic fit in eta.  The intervals are one contiguous run:
    from the first whose resistance reaches `_RESISTANCE_FLOOR` rho^(1-a),
    those with eta within `_ETA_WINDOW` rho^(1+a) (eta increases with the
    interval), clipped to between `_LAYERS` and `_MAX_LAYERS` of them.
    """
    grid = U.grid
    a = p.a
    yc = grid.y_centers
    eta_all = (1.0 - a) * (yc[1:] ** 2 - yc[:-1] ** 2) \
        / (2.0 * (yc[1:] ** (1.0 - a) - yc[:-1] ** (1.0 - a)))
    usable = np.nonzero(
        grid.res_y >= _RESISTANCE_FLOOR * grid.rho ** (1.0 - a))[0]
    if usable.size < _LAYERS:
        raise ValueError("mesh does not resolve enough flux layers")
    j0 = int(usable[0])
    in_window = np.count_nonzero(
        eta_all[j0:] <= _ETA_WINDOW * grid.rho ** (1.0 + a))
    m = int(np.clip(in_window, _LAYERS, _MAX_LAYERS))
    picked = slice(j0, j0 + m)

    # in place: a second temporary of this size added 1 MB to peak memory
    fluxes = np.diff(U.values[..., j0:j0 + m + 1], axis=-1)
    fluxes /= grid.res_y[picked]
    fluxes = np.moveaxis(fluxes, -1, 0)

    # only the constant terms of the quadratic and the linear fit are used:
    # the first rows of the two pseudo-inverses, applied in one product
    eta = eta_all[picked] / eta_all[picked][-1]
    rows = [np.linalg.pinv(np.vander(eta, N=k, increasing=True))[0]
            for k in (3, 2)]
    limit_2, limit_1 = np.stack(rows) @ fluxes.reshape(m, -1)

    thin_shape = U.values.shape[:-1]
    residual = np.abs(limit_2 - limit_1).reshape(thin_shape)
    c_s = dtn_constant(p.s)
    values = (-c_s * limit_2).reshape(thin_shape)

    scale_ref = np.maximum(np.abs(values), np.max(np.abs(values)) * 1e-3 + 1e-300)
    flagged = residual * c_s > _RESIDUAL_THRESHOLD * scale_ref
    for axis in range(1, 1 + grid.n):
        np.moveaxis(flagged, axis, 0)[[0, -1]] = True
    return DtnExtract(values, flagged)


def steady_profile(p: FracParams, xi: float):
    """Decaying radial profile phi of the steady extension of cos(xi x):
    (y^a phi')' = xi^2 y^a phi, phi(0) = 1, phi -> 0, solved on a graded
    1-d mesh of 4000 cells over (0, 14 / |xi|), built by `grids._y_mesh`
    as the main solver's is, with the solver's two-point y-operator
    (`extension._two_point`) plus a Dirichlet face at y = 0.

    Returns (phi, flux0): a vectorized interpolant and the flux limit
    lim_(y->0) y^a phi'(y)  (negative; -c_s * flux0 ~ xi^(2s))."""
    a = p.a
    n_cells = 4000
    ymax = 14.0 / max(abs(xi), 1e-6)
    _, centers, w, res, res_top = _y_mesh(a, ymax, n_cells,
                                          _grading_exponent(a))
    res_bot = centers[0] ** (1.0 - a) / (1.0 - a)

    # solve for psi = phi - 1 so the bottom flux psi(yc0)/res_bot is free of
    # the catastrophic cancellation a direct phi solve would suffer on
    # strongly graded meshes; psi(0) = 0 and psi(ymax) = -1
    main, off = _two_point(np.concatenate([[1.0 / res_bot], 1.0 / res,
                                           [1.0 / res_top]]))
    main += xi * xi * w
    rhs = -xi * xi * w               # forcing from the constant shift
    rhs[-1] -= 1.0 / res_top
    *_, psi_c, info = _flapack.dgtsv(off, main, off, rhs)
    if info != 0:
        raise RuntimeError(f"tridiagonal profile solve failed (info={info})")

    ys = np.concatenate([[0.0], centers, [ymax]])
    vals = np.concatenate([[1.0], 1.0 + psi_c, [0.0]])

    def phi(y):
        return np.interp(np.asarray(y, dtype=float), ys, vals)

    flux0 = psi_c[0] / res_bot
    return phi, float(flux0)


def cosine_extension_data(p: FracParams, xi: float, lam: float = 0.0):
    """Manufactured extension data for the heat eigenfunction
    u(t, x) = e^(lam t) cos(xi x_1), lam + xi^2 > 0, at n = 1 and 2.

    With k = sqrt(lam + xi^2), H^s u = k^(2s) u, and the extension is
    u phi_k(y) with phi_k the decaying profile of `steady_profile`
    (Stinga and Torrea 2017); the bottom flux datum is k^(2s) u / c_s.
    Returns the callables u(t, x) in `frac_heat_apply`'s convention, f(t,
    x...), lateral(t, x..., y), initial(x..., y), the slice at t = 0 (a
    grid starting elsewhere passes lateral at its own first node), and
    exact(t, x...) = H^s u.  For lam < 0, u grows backward in time without
    bound, and the direct route's march overflows (past lam tau = -709):
    such data serve the extension alone."""
    if not lam + xi * xi > 0.0:
        raise ValueError(f"need lam + xi^2 > 0, got lam = {lam}, xi = {xi}")
    k = math.sqrt(lam + xi * xi)
    phi, _ = steady_profile(p, k)
    c_s = dtn_constant(p.s)
    symbol = k ** (2.0 * p.s)

    # no exp at lam = 0: the direct route samples u at millions of points
    def wave(t, x1):
        c = np.cos(xi * x1)
        return c * np.exp(lam * t) if lam else c

    lateral = lambda t, *xy: wave(t, xy[0]) * phi(xy[-1])
    return {"u": lambda t, x: wave(t, np.reshape(x, (len(x), -1))[:, 0]),
            "f": lambda t, *x: symbol * wave(t, x[0]) / c_s,
            "lateral": lateral,
            "initial": lambda *xy: lateral(0.0, *xy),
            "exact": lambda t, *x: symbol * wave(t, x[0])}


def dtn_vs_direct(p: FracParams, xi: float, grid: ParabolicGrid) -> dict:
    """Dual-route consistency: solve the extension of cos(xi x) with
    manufactured data, extract the weighted flux limit, and compare with the
    direct subordination quadrature of the same u (and the closed-form
    spatial symbol) on the cells with |x - x0| <= rho / 2 and t >= t0.

    Returns per-route sup/L2 relative discrepancies; flagged cells
    (boundary-adjacent, or failing the extrapolation check) are excluded,
    and a ValueError is raised when that leaves none."""
    if grid.n != 1:
        raise NotImplementedError("the dual-route check runs at n = 1")
    data = cosine_extension_data(p, xi)
    U = solve_extension(grid, CoefficientField.identity(1), f=data["f"],
                        lateral_dirichlet=data["lateral"],
                        initial=data["initial"])
    ext = extract_dtn(U, p)

    X = grid.x_centers[0]
    keep_x = np.abs(X - grid.center[1]) <= 0.5 * grid.rho
    keep_t = (grid.t_nodes >= grid.center[0]) & (grid.t_nodes <= grid.t_range[1])

    # direct quadrature: u is time-independent, one x-line suffices
    pts = np.column_stack([np.zeros(keep_x.sum()), X[keep_x]])
    direct_line = frac_heat_apply(data["u"], p, QuadratureSpec(), pts)
    closed_line = data["exact"](0.0, X[keep_x])

    ext_block = ext.values[np.ix_(keep_t, keep_x)]
    flag_block = ext.flagged[np.ix_(keep_t, keep_x)]
    direct_block = np.broadcast_to(direct_line, ext_block.shape)
    closed_block = np.broadcast_to(closed_line, ext_block.shape)

    ok = ~flag_block
    if not ok.any():
        raise ValueError(
            f"no DtN cell left to compare at s = {p.s}: flagged fraction "
            f"{flag_block.mean():.3g} of {flag_block.size} cells")
    scale = float(np.max(np.abs(closed_block)))

    def sup_l2(aa, bb):
        d = np.abs(aa - bb)[ok]
        return float(np.max(d) / scale), float(
            math.sqrt(np.mean(d ** 2)) / scale)

    sup_ed, l2_ed = sup_l2(ext_block, direct_block)
    sup_ec, l2_ec = sup_l2(ext_block, closed_block)
    sup_dc, l2_dc = sup_l2(direct_block, closed_block)
    return {
        "xi": xi, "s": p.s,
        "sup_extension_vs_direct": sup_ed, "l2_extension_vs_direct": l2_ed,
        "sup_extension_vs_closed": sup_ec, "l2_extension_vs_closed": l2_ec,
        "sup_direct_vs_closed": sup_dc, "l2_direct_vs_closed": l2_dc,
        "cells_compared": int(ok.sum()), "cells_flagged": int(flag_block.sum()),
        "grid": {"nt": grid.nt, "nx": grid.nx, "ny": grid.ny},
    }
