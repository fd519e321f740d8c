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

__all__ = [
    "SampledFunction",
    "RearrangedProfile",
    "PotentialSpec",
    "cylinder_measure_constant",
    "decreasing_rearrangement",
    "double_star",
    "lorentz_norm",
    "lorentz_norm_forms",
    "critical_lorentz_exponent",
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


def critical_lorentz_exponent(s: float, n: int) -> float:
    """The scaling-critical first Lorentz index (n+2)/(2s-1)."""
    return (n + 2.0) / (2.0 * s - 1.0)


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

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.measures))

    def scaled(self, alpha: float) -> "SampledFunction":
        return SampledFunction(self.measures.copy(), alpha * self.values)

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.measures, self.values]),
                   delimiter=",", header="measure,value", comments="")

    @classmethod
    def from_csv(cls, path) -> "SampledFunction":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1])


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

    def g_star(self, rho) -> np.ndarray:
        """Right-continuous step evaluation of g*."""
        rho = np.asarray(rho, dtype=float)
        idx = np.searchsorted(self.breakpoints, rho, side="right") - 1
        out = np.where((idx >= 0) & (idx < len(self.plateaus)),
                       self.plateaus[np.clip(idx, 0, len(self.plateaus) - 1)], 0.0)
        return float(out) if np.ndim(out) == 0 else out

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

    def measure_above(self, level: float) -> float:
        """mu({g* > level}), exact from the step structure."""
        mask = self.plateaus > level
        if not np.any(mask):
            return 0.0
        k = int(np.max(np.nonzero(mask)))
        return float(self.breakpoints[k + 1])


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
    breakpoints = np.concatenate([[0.0], np.cumsum(merged_m)])
    return RearrangedProfile(breakpoints, merged_v)


def double_star(g: RearrangedProfile, rho: float) -> float:
    """(1/rho) int_0^rho g*(tau) dtau, exact on the step structure."""
    return g.double_star(rho)


def lorentz_norm_forms(f: SampledFunction, p: float):
    """Both exact forms of the L(p,1) quasi-norm of f:

    distribution form   int_0^inf mu({|f| > t})^(1/p) dt
    rearrangement form  int_0^inf rho^(1/p) f*(rho) drho / rho  (= p * first)
    """
    if p <= 1.0:
        raise ValueError("lorentz_norm requires p > 1")
    g = decreasing_rearrangement(f)
    v = np.concatenate([g.plateaus, [0.0]])
    m = g.breakpoints[1:]
    dist = float(np.sum(m ** (1.0 / p) * (v[:-1] - v[1:])))
    rearr = float(np.sum(g.plateaus * p
                         * (g.breakpoints[1:] ** (1.0 / p)
                            - g.breakpoints[:-1] ** (1.0 / p))))
    return dist, rearr


def lorentz_norm(f: SampledFunction, p: float) -> float:
    """L(p,1) quasi-norm in the canonical distribution-function form."""
    return lorentz_norm_forms(f, p)[0]


@dataclass(frozen=True)
class PotentialSpec:
    """Center, outer radius, dyadic ratio and order data for the parabolic
    Riesz-type potential and the dyadic-sum estimate."""

    center: tuple
    r: float
    sigma: float
    s: float
    n: int = 1

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("r must lie in (0, 1)")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.5 < self.s < 1.0:
            raise ValueError("s must lie in (1/2, 1)")


def gridded_to_sampled(thin_grid, values: np.ndarray) -> SampledFunction:
    """View a gridded function as (cell measure, value) pairs."""
    return SampledFunction(thin_grid.cell_measures().ravel(),
                           np.asarray(values, dtype=float).ravel())


def _sqrt_mean_sq(thin_grid, f_values, center, radius) -> float:
    return math.sqrt(max(thin_grid.cylinder_mean(f_values ** 2, center, radius), 0.0))


def riesz_potential_I2(thin_grid, f_values: np.ndarray, spec: PotentialSpec,
                       nodes_per_decade: int = 64) -> float:
    """int_0^r rho^(2s-2) (mean of f^2 over Q_rho(center))^(1/2) drho.

    Log-spaced Gauss panels down to a fraction of the cell scale; below that
    the cylinder average is constant in rho and the remaining piece is the
    closed-form power integral.
    """
    if not thin_grid.contains_cylinder(spec.center, spec.r):
        raise ValueError("potential cylinder exits the sampled domain")
    s = spec.s
    f_values = np.asarray(f_values, dtype=float)
    rho_min = thin_grid.min_radius() / 8.0
    total = 0.0
    if spec.r <= rho_min:
        rho_min = spec.r
    else:
        decades = math.log10(spec.r / rho_min)
        order = 8
        n_panels = max(1, int(math.ceil(decades * nodes_per_decade / order)))
        from .kernels import _gauss_panels
        u, wu = _gauss_panels(math.log(rho_min), math.log(spec.r), n_panels, order)
        rhos = np.exp(u)
        vals = np.array([_sqrt_mean_sq(thin_grid, f_values, spec.center, r)
                         for r in rhos])
        total += float(np.sum(wu * rhos * rhos ** (2.0 * s - 2.0) * vals))
    # below rho_min the average is frozen at its small-cylinder limit
    tail_amp = _sqrt_mean_sq(thin_grid, f_values, spec.center, rho_min)
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


def estimate1_check(thin_grid, f_values: np.ndarray,
                    spec: PotentialSpec) -> Estimate1Report:
    """Dyadic sum sum_i r_i^(2s-1) (mean_{Q_(r_i)} f^2)^(1/2), r_i = sigma^i r/2,
    against the constant times the Riesz-type potential at radius r.  The sum
    truncates once r_i falls below the grid resolution."""
    s = spec.s
    f_values = np.asarray(f_values, dtype=float)
    lhs = 0.0
    count = 0
    r_i = spec.r / 2.0
    floor = thin_grid.min_radius()
    while r_i >= floor:
        lhs += r_i ** (2.0 * s - 1.0) * _sqrt_mean_sq(thin_grid, f_values,
                                                      spec.center, r_i)
        r_i *= spec.sigma
        count += 1
        if count > 200:
            break
    c = estimate1_constant(s, spec.sigma, thin_grid.n)
    rhs = c * riesz_potential_I2(thin_grid, f_values, spec)
    return Estimate1Report(lhs, rhs, c, lhs <= rhs * (1.0 + 1e-9), count)


def profile_power_integral(profile: RearrangedProfile, alpha: float,
                           upper: float) -> float:
    """int_0^upper u^(alpha-1) (g**(u))^(1/2) du, exact on the first plateau
    and beyond the support, Gauss panels on the interior segments."""
    if upper <= 0.0:
        return 0.0
    if alpha <= 0.0 or alpha >= 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    bps = profile.breakpoints
    total = 0.0
    # first plateau: g** is constant there
    first_hi = min(upper, bps[1])
    total += math.sqrt(max(profile.plateaus[0], 0.0)) * first_hi ** alpha / alpha
    if upper <= bps[1]:
        return total
    from .kernels import _gauss_panels
    for k in range(1, len(profile.plateaus)):
        lo = bps[k]
        hi = min(upper, bps[k + 1])
        if hi <= lo:
            break
        n_panels = max(1, int(math.ceil(math.log10(hi / lo) * 2)) + 1)
        u, wu = _gauss_panels(lo, hi, n_panels, 24)
        gss = profile.double_star(u)
        total += float(np.sum(wu * u ** (alpha - 1.0) * np.sqrt(np.maximum(gss, 0.0))))
    if upper > profile.total_measure:
        # beyond the support g**(u) = mass / u
        mass = profile.integral_g_star(profile.total_measure)
        lo = profile.total_measure
        e = alpha - 0.5
        total += math.sqrt(mass) * (upper ** e - lo ** e) / e
    return total


def estimate2_check(thin_grid, f_values: np.ndarray, center, r: float,
                    s: float, tol: float = 1e-8):
    """Riesz-type potential against the rearrangement bound

        I2 <= (1 / ((n+2) C^((2s-1)/(n+2)))) *
              int_0^(C r^(n+2)) rho^((2s-1)/(n+2)) (g**(rho))^(1/2) drho/rho

    with g = f^2 rearranged over the whole sampled domain and C the measure
    of the unit thin cylinder.  Returns (lhs, rhs, holds)."""
    n = thin_grid.n
    spec = PotentialSpec(tuple(center), r, 0.5, s, n)
    lhs = riesz_potential_I2(thin_grid, f_values, spec)
    g = decreasing_rearrangement(gridded_to_sampled(thin_grid,
                                                    np.asarray(f_values) ** 2))
    C = cylinder_measure_constant(n)
    alpha = (2.0 * s - 1.0) / (n + 2.0)
    integral = profile_power_integral(g, alpha, C * r ** (n + 2.0))
    rhs = integral / ((n + 2.0) * C ** alpha)
    return lhs, rhs, lhs <= rhs * (1.0 + tol)


def hardy_littlewood_check(thin_grid, f_values: np.ndarray, center,
                           rho: float, tol: float = 1e-9) -> bool:
    """Cylinder average of g = f^2 against g**(C rho^(n+2))."""
    g_vals = np.asarray(f_values, dtype=float) ** 2
    avg = thin_grid.cylinder_mean(g_vals, center, rho)
    g = decreasing_rearrangement(gridded_to_sampled(thin_grid, g_vals))
    C = cylinder_measure_constant(thin_grid.n)
    bound = g.double_star(C * rho ** (thin_grid.n + 2.0))
    return avg <= bound * (1.0 + tol) + 1e-300
