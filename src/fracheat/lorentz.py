"""Rearrangement-based real analysis: decreasing rearrangements, Lorentz
L(p,1) quasi-norms, the Riesz-type parabolic potential, and the two dyadic
potential estimates used by the modulus pipeline.

All rearrangement quantities are computed exactly on step functions; only
cylinder averages of gridded data inherit grid error, which keeps the
inequality checks sharp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import _chunked, _gauss_panels, _pow

__all__ = [
    "SampledFunction",
    "RearrangedProfile",
    "Estimate1Report",
    "cylinder_measure_constant",
    "decreasing_rearrangement",
    "lorentz_norm_forms",
    "gridded_to_sampled",
    "riesz_potential_I2",
    "estimate1_constant",
    "estimate1_check",
    "estimate2_check",
    "hardy_littlewood_check",
]


def cylinder_measure_constant(n: int) -> float:
    """Measure of the unit thin cylinder Q_1 in R^(n+1): 2 * vol(B_1 in R^n),
    using the Euclidean-ball convention for B_1."""
    ball = {1: 2.0, 2: math.pi}.get(n)
    if ball is None:
        ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return 2.0 * ball


@dataclass
class SampledFunction:
    """A measurable function known through finitely many (cell measure,
    value) pairs."""

    measures: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.measures = np.asarray(self.measures, dtype=float).ravel()
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.measures.size == 0:
            raise ValueError("SampledFunction needs at least one cell")
        if self.measures.shape != self.values.shape:
            raise ValueError("measures and values must have matching length")
        if np.any(self.measures <= 0):
            raise ValueError("cell measures must be positive")


@dataclass
class RearrangedProfile:
    """Nonincreasing step rearrangement g* with exact running averages g**.

    breakpoints are cumulative measures rho_0 = 0 < rho_1 < ... < rho_K;
    g* equals plateau[k] on [rho_k, rho_(k+1)) and 0 beyond rho_K.
    """

    breakpoints: np.ndarray
    plateaus: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.plateaus = np.asarray(self.plateaus, dtype=float)
        if self.breakpoints[0] != 0.0 or np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must start at 0 and increase")
        if np.any(np.diff(self.plateaus) > 1e-15 * np.abs(self.plateaus[:-1])):
            raise ValueError("plateau values must be nonincreasing")
        widths = np.diff(self.breakpoints)
        self._cum = np.concatenate([[0.0], np.cumsum(widths * self.plateaus)])

    @property
    def total_measure(self) -> float:
        return float(self.breakpoints[-1])

    def integral_g_star(self, rho):
        """Exact int_0^rho g*(tau) dtau, elementwise for an array rho."""
        rho = np.asarray(rho, dtype=float)
        k = np.clip(np.searchsorted(self.breakpoints, rho, side="right") - 1,
                    0, len(self.plateaus) - 1)
        out = self._cum[k] + self.plateaus[k] * (rho - self.breakpoints[k])
        out = np.where(rho >= self.total_measure, self._cum[-1], out)
        out = np.where(rho <= 0.0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def double_star(self, rho):
        """g**(rho) = (1/rho) int_0^rho g*, elementwise for an array rho."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise ValueError("double_star needs rho > 0")
        out = self.integral_g_star(rho) / rho
        return float(out) if np.ndim(out) == 0 else out


def decreasing_rearrangement(f: SampledFunction) -> RearrangedProfile:
    """Nonincreasing equimeasurable step rearrangement of |f|."""
    vals = np.abs(f.values)
    order = np.argsort(-vals, kind="stable")
    v = vals[order]
    m = f.measures[order]
    # merge equal consecutive values so plateaus are strictly decreasing
    keep = np.concatenate([[True], np.diff(v) != 0.0])
    group = np.cumsum(keep) - 1
    merged_m = np.bincount(group, weights=m)
    merged_v = v[keep]
    running = np.cumsum(merged_m)
    # a plateau whose width is lost to rounding in the running measure has
    # no extent in the profile: drop it
    grows = np.diff(running, prepend=0.0) > 0.0
    return RearrangedProfile(np.concatenate([[0.0], running[grows]]),
                             merged_v[grows])


def lorentz_norm_forms(f: SampledFunction, p: float):
    """Both exact forms of the L(p,1) quasi-norm of f:

    distribution form   int_0^inf mu({|f| > t})^(1/p) dt
    rearrangement form  int_0^inf rho^(1/p) f*(rho) drho / rho  (= p * first)
    """
    if p <= 1.0:
        raise ValueError("the L(p,1) quasi-norm requires p > 1")
    g = decreasing_rearrangement(f)
    v = np.concatenate([g.plateaus, [0.0]])
    m = g.breakpoints[1:]
    dist = float(np.sum(m ** (1.0 / p) * (v[:-1] - v[1:])))
    rearr = float(np.sum(g.plateaus * p
                         * (g.breakpoints[1:] ** (1.0 / p)
                            - g.breakpoints[:-1] ** (1.0 / p))))
    return dist, rearr


def gridded_to_sampled(thin_grid, values: np.ndarray) -> SampledFunction:
    """View a gridded function as (cell measure, value) pairs."""
    return SampledFunction(thin_grid.cell_measures().ravel(),
                           np.asarray(values, dtype=float).ravel())


_I2_NODES_PER_DECADE = 64   # Gauss nodes per decade of rho


def riesz_potential_I2(thin_grid, f_values: np.ndarray, center, r: float,
                       s: float) -> float:
    """int_0^r rho^(2s-2) (mean of f^2 over Q_rho(center))^(1/2) drho,
    for r in (0, 1) and s in (1/2, 1).

    Log-spaced Gauss panels, _I2_NODES_PER_DECADE nodes a decade, down to a
    fraction of the cell scale; below that the cylinder average is constant
    in rho and the remaining piece is the closed-form power integral.  The
    cylinder means of all nodes are one array-native cylinder_mean call.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if not 0.5 < s < 1.0:
        raise ValueError("s must lie in (1/2, 1)")
    if not thin_grid.contains_cylinder(center, r):
        raise ValueError("potential cylinder exits the sampled domain")
    f_sq = np.asarray(f_values, dtype=float) ** 2
    rho_min = thin_grid.min_radius() / 8.0
    total = 0.0
    if r <= rho_min:
        rho_min = r
    else:
        decades = math.log10(r / rho_min)
        order = 8
        n_panels = max(1, math.ceil(decades * _I2_NODES_PER_DECADE / order))
        u, wu = _gauss_panels(math.log(rho_min), math.log(r), n_panels, order)
        rhos = np.exp(u)
        vals = np.sqrt(np.maximum(
            thin_grid.cylinder_mean(f_sq, center, rhos), 0.0))
        total += float(np.sum(wu * rhos * rhos ** (2.0 * s - 2.0) * vals))
    # below rho_min the average is frozen at its small-cylinder limit
    tail_amp = math.sqrt(max(
        thin_grid.cylinder_mean(f_sq, center, rho_min), 0.0))
    total += tail_amp * rho_min ** (2.0 * s - 1.0) / (2.0 * s - 1.0)
    return total


def estimate1_constant(s: float, sigma: float, n: int) -> float:
    """Explicit constant of the dyadic-sum versus potential estimate.

    Each dyadic term r_i^(2s-1) is an exact multiple of the potential's
    integral over (r_i, r_(i-1)); bounding the cylinder normalization on the
    annulus gives the two bracketed coefficients below.
    """
    p = 2.0 * s - 1.0
    first = p * 2.0 ** ((n + 2) / 2.0) / (2.0 ** p - 1.0)
    second = p * sigma ** (p - (n + 2) / 2.0) / (1.0 - sigma ** p)
    return first + second


@dataclass
class Estimate1Report:
    lhs: float
    rhs: float
    constant_used: float
    holds: bool
    radii_used: int


def estimate1_check(thin_grid, f_values: np.ndarray, center, r: float,
                    sigma: float, s: float) -> Estimate1Report:
    """Dyadic sum sum_i r_i^(2s-1) (mean_{Q_(r_i)} f^2)^(1/2), r_i = sigma^i r/2,
    against the constant times the Riesz-type potential at radius r.  The sum
    truncates once r_i falls below the grid resolution, and after 201
    terms; the terms are added in order.  sigma lies in (0, 1), r and s
    as for riesz_potential_I2."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    potential = riesz_potential_I2(thin_grid, f_values, center, r, s)
    f_sq = np.asarray(f_values, dtype=float) ** 2
    radii = np.cumprod(np.concatenate([[r / 2.0], np.full(200, sigma)]))
    radii = radii[radii >= thin_grid.min_radius()]
    terms = _pow(radii, 2.0 * s - 1.0) * np.sqrt(np.maximum(
        thin_grid.cylinder_mean(f_sq, center, radii), 0.0))
    lhs = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    c = estimate1_constant(s, sigma, thin_grid.n)
    rhs = c * potential
    return Estimate1Report(lhs, rhs, c, lhs <= rhs * (1.0 + 1e-9), radii.size)


def _plateau_integrals(profile: RearrangedProfile, alpha: float,
                       k: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_(rho_k)^hi u^(alpha-1) (g**(u))^(1/2) du for each plateau index
    k >= 1 (an integer array) and upper limit hi in (rho_k, rho_(k+1)], on
    max(1, ceil(2 log10(hi / rho_k)) + 1) equal panels of 24 Gauss nodes.

    Rows with the same panel count are evaluated together, and each row is
    summed on its own, so its value does not depend on the other rows.
    """
    lo = profile.breakpoints[k]
    # math.log10 rounds apart from np.log10 next to powers of ten, where a
    # different rounding would change the panel count
    n_panels = np.array([max(1, math.ceil(math.log10(q) * 2) + 1)
                         for q in hi / lo], dtype=int)
    out = np.empty(lo.size)
    for n in np.unique(n_panels):
        def sums(rows, n=int(n)):
            u, wu = _gauss_panels(lo[rows], hi[rows], n, 24)
            gss = profile.double_star(u)
            return np.sum(wu * u ** (alpha - 1.0) * np.sqrt(np.maximum(gss, 0.0)),
                          axis=-1)
        sel = np.nonzero(n_panels == n)[0]
        out[sel] = _chunked(sums, sel, int(n) * 24)
    return out


def _power_integral_table(profile: RearrangedProfile, alpha: float):
    """The map upper -> int_0^upper u^(alpha-1) (g**(u))^(1/2) du for an
    array of upper limits: exact on the first plateau and beyond the
    support, Gauss panels on the interior segments.

    The per-plateau table is built once: the closed form on the first
    plateau, the cumulated integrals of the complete plateaus (24-node
    Gauss panels, see _plateau_integrals) and the closed form beyond the
    support, where g**(u) = mass / u.  Each upper limit then adds only the
    panels of its partial plateau.
    """
    if alpha <= 0.0 or alpha >= 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    bps = profile.breakpoints
    root0 = math.sqrt(max(profile.plateaus[0], 0.0))
    k = np.arange(1, len(profile.plateaus))
    cum = np.cumsum(np.concatenate([
        [root0 * bps[1] ** alpha / alpha],
        _plateau_integrals(profile, alpha, k, bps[k + 1])]))
    end = profile.total_measure
    root_mass = math.sqrt(profile.integral_g_star(end))
    e = alpha - 0.5

    def integral(upper):
        upper = np.asarray(upper, dtype=float)
        out = np.zeros(upper.shape)
        first = (upper > 0.0) & (upper <= bps[1])
        out[first] = root0 * upper[first] ** alpha / alpha
        inner = (upper > bps[1]) & (upper <= end)
        k = np.searchsorted(bps, upper[inner]) - 1
        out[inner] = cum[k - 1] + _plateau_integrals(profile, alpha, k,
                                                     upper[inner])
        beyond = upper > end
        out[beyond] = cum[-1] + root_mass * (upper[beyond] ** e - end ** e) / e
        return out
    return integral


def estimate2_check(thin_grid, f_values: np.ndarray, center, r: float,
                    s: float):
    """Riesz-type potential against the rearrangement bound

        I2 <= (1 / ((n+2) C^((2s-1)/(n+2)))) *
              int_0^(C r^(n+2)) rho^((2s-1)/(n+2)) (g**(rho))^(1/2) drho/rho

    with g = f^2 rearranged over the whole sampled domain and C the measure
    of the unit thin cylinder.  Returns (lhs, rhs, holds), holds to a
    relative 1e-8."""
    n = thin_grid.n
    lhs = riesz_potential_I2(thin_grid, f_values, center, r, s)
    g = decreasing_rearrangement(gridded_to_sampled(thin_grid,
                                                    np.asarray(f_values) ** 2))
    C = cylinder_measure_constant(n)
    alpha = (2.0 * s - 1.0) / (n + 2.0)
    integral = float(_power_integral_table(g, alpha)(C * r ** (n + 2.0)))
    rhs = integral / ((n + 2.0) * C ** alpha)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-8)


def hardy_littlewood_check(thin_grid, f_values: np.ndarray, center,
                           rho: float) -> bool:
    """Cylinder average of g = f^2 against g**(C rho^(n+2)), to a relative
    1e-9."""
    g_vals = np.asarray(f_values, dtype=float) ** 2
    avg = thin_grid.cylinder_mean(g_vals, center, rho)
    g = decreasing_rearrangement(gridded_to_sampled(thin_grid, g_vals))
    C = cylinder_measure_constant(thin_grid.n)
    bound = g.double_star(C * rho ** (thin_grid.n + 2.0))
    return avg <= bound * (1.0 + 1e-9) + 1e-300
