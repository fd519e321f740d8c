"""Heat kernel, subordination quadrature for the fractional heat operator,
and the kernel-bound checker for the beta = 2 master-equation case.

The fractional operator of order s in (0, 1) acts on a space-time function
u(t, x) through the subordination integral

    c_s * int_0^inf int_{R^n} tau^(-s-1) G(tau, z) [u(t,x) - u(t-tau, x-z)] dz dtau

with G the Gaussian heat kernel and c_s = s / Gamma(1-s).  All quadrature
here is deterministic: fixed Gauss-Legendre panels per decade in tau and a
fixed Gauss-Legendre grid in the self-similar variable zeta = z / sqrt(tau).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gamma

import numpy as np

__all__ = [
    "FracParams",
    "QuadratureSpec",
    "MasterBoundReport",
    "FracHeatDiagnostics",
    "heat_kernel",
    "subordination_constant",
    "dtn_constant",
    "frac_heat_apply",
    "marchaud_normalization",
    "check_master_bounds",
]


@dataclass(frozen=True)
class FracParams:
    """Fractional order s in (1/2, 1) with the extension weight exponent
    a = 1 - 2s and the thin spatial dimension n (desk scale: 1 or 2)."""

    s: float
    n: int = 1

    def __post_init__(self):
        if not 0.5 < self.s < 1.0:
            raise ValueError(f"s must lie in (1/2, 1), got {self.s}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    @property
    def a(self) -> float:
        return 1.0 - 2.0 * self.s


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the subordination integral.

    tau panels are Gauss-Legendre per decade on [tau_cutoff_low,
    tau_cutoff_high]; the z integral is truncated at |z| <= z_radius *
    sqrt(tau) (Gaussian tail below 1e-14 for the default radius 8).
    """

    tau_cutoff_low: float = 1e-6
    tau_cutoff_high: float = 1e10
    nodes_per_decade: int = 12
    z_radius: float = 8.0

    def __post_init__(self):
        if self.tau_cutoff_low <= 0:
            raise ValueError("tau_cutoff_low must be positive")
        if self.tau_cutoff_low >= self.tau_cutoff_high:
            raise ValueError("tau_cutoff_low must be below tau_cutoff_high")
        if self.nodes_per_decade < 4:
            raise ValueError("nodes_per_decade must be at least 4")
        if self.z_radius <= 0:
            raise ValueError("z_radius must be positive")

    def refined(self, factor: int = 2) -> "QuadratureSpec":
        """Same cutoffs, `factor` times as many nodes per decade."""
        return replace(self, nodes_per_decade=self.nodes_per_decade * factor)

    def coarsened(self) -> "QuadratureSpec":
        return replace(self, nodes_per_decade=max(4, self.nodes_per_decade // 2))


@dataclass
class FracHeatDiagnostics:
    """Convergence report for one frac_heat_apply call: the values at the
    working spec, at a coarsened spec, and their maximum discrepancy."""

    values: np.ndarray
    coarse_values: np.ndarray
    max_difference: float
    tolerance: float
    converged: bool


@dataclass
class MasterBoundReport:
    """Empirical two-sided kernel bounds in the heat case beta = 2."""

    beta: float
    c1: float
    c2: float
    lambda_lower: float
    Lambda_upper: float
    holds: bool


def heat_kernel(tau, z, n: int = 1):
    """Gaussian heat kernel G(tau, z) = (4 pi tau)^(-n/2) exp(-|z|^2 / (4 tau)).

    `z` may be a scalar (n = 1) or an array whose last axis has length n.
    Vectorizes over tau and z together under numpy broadcasting.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("heat_kernel requires tau > 0")
    z = np.asarray(z, dtype=float)
    if n == 1 and (z.ndim == 0 or z.shape[-1] != 1):
        zsq = z * z
    else:
        if z.shape[-1] != n:
            raise ValueError(f"z must have trailing dimension {n}")
        zsq = np.sum(z * z, axis=-1)
    out = (4.0 * math.pi * tau) ** (-0.5 * n) * np.exp(-zsq / (4.0 * tau))
    return float(out) if np.ndim(out) == 0 else out


def subordination_constant(s: float) -> float:
    """Prefactor s / Gamma(1 - s) of the subordination integral."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s / gamma(1.0 - s)


def dtn_constant(s: float) -> float:
    """Constant 2^(2s-1) Gamma(s) / Gamma(1-s) linking the weighted normal
    derivative of the extension to the fractional operator."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return 2.0 ** (2.0 * s - 1.0) * gamma(s) / gamma(1.0 - s)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per order and
    shared read-only by every caller."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def _gauss_panels(lo: float, hi: float, n_panels: int, order: int):
    """Gauss-Legendre nodes/weights on n_panels equal panels of [lo, hi]."""
    xg, wg = _leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wts = (half[:, None] * wg[None, :]).ravel()
    return nodes, wts


def tau_nodes(spec: QuadratureSpec):
    """Log-spaced Gauss-Legendre nodes and weights for the tau integral.

    One Gauss panel of order `nodes_per_decade` per decade, mapped through
    tau = 10^u so the integrable endpoint behavior is resolved in log space.
    """
    lo = math.log10(spec.tau_cutoff_low)
    hi = math.log10(spec.tau_cutoff_high)
    n_panels = max(1, int(math.ceil(hi - lo)))
    u, wu = _gauss_panels(lo, hi, n_panels, spec.nodes_per_decade)
    taus = 10.0 ** u
    wts = wu * taus * math.log(10.0)  # d tau = tau ln(10) du
    return taus, wts


def zeta_nodes(spec: QuadratureSpec, n: int, order_factor: int = 1):
    """Nodes/weights for int G(tau, z) h(z) dz written in the self-similar
    variable z = sqrt(tau) * zeta:

        int G(tau, z) h(z) dz = sum_i w_i h(sqrt(tau) * zeta_i)

    Weights absorb the Gaussian factor; the rule is a tensor Gauss grid on
    [-z_radius, z_radius]^n.  `order_factor` multiplies the base order; the
    subordination loop raises it with tau because a fixed rule in the
    self-similar variable under-resolves fixed physical frequencies of u
    once sqrt(tau) is large.
    """
    order = max(24, 4 * spec.nodes_per_decade) * order_factor
    panels = max(1, order // 48)
    x1, w1 = _gauss_panels(-spec.z_radius, spec.z_radius, panels,
                           int(math.ceil(order / panels)))
    g1 = (4.0 * math.pi) ** (-0.5) * np.exp(-x1 * x1 / 4.0)
    if n == 1:
        return x1[:, None], w1 * g1
    grids = np.meshgrid(*([x1] * n), indexing="ij")
    zeta = np.stack([g.ravel() for g in grids], axis=-1)
    wprod = w1 * g1
    w = wprod
    for _ in range(n - 1):
        w = np.multiply.outer(w, wprod)
    return zeta, w.ravel()


def _eval_u(u, t: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Evaluate a user function on flat (t, x) arrays; x has shape (m, n)."""
    if n == 1:
        return np.asarray(u(t, x[:, 0]), dtype=float)
    return np.asarray(u(t, x), dtype=float)


def frac_heat_apply(u, p: FracParams, q: QuadratureSpec, eval_points,
                    check_convergence: bool = False, tolerance: float = 1e-4):
    """Apply the order-s fractional heat operator to u at the given points.

    Parameters
    ----------
    u : callable
        u(t, x) accepting 1-d arrays t (shape (m,)) and x (shape (m,) for
        n = 1, else (m, n)), vectorized, evaluable for arbitrarily negative
        times within the truncated integral's reach.
    eval_points : array-like, shape (m, 1 + n)
        Rows (t, x_1, ..., x_n).

    Returns the array of operator values, or (values, FracHeatDiagnostics)
    when check_convergence is set.  Non-convergence (working vs coarsened
    quadrature differing beyond `tolerance`) is reported via the diagnostics
    and a warning, never silently.
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != 1 + p.n:
        raise ValueError(f"eval_points rows must be (t, x1..x{p.n})")
    values = _frac_heat_core(u, p, q, pts)
    if not check_convergence:
        return values
    coarse = _frac_heat_core(u, p, q.coarsened(), pts)
    diff = float(np.max(np.abs(values - coarse)))
    scale = max(1.0, float(np.max(np.abs(values))))
    converged = diff <= tolerance * scale
    if not converged:
        warnings.warn(
            f"subordination quadrature not converged: refinement delta "
            f"{diff:.3e} exceeds {tolerance:.1e} * scale", RuntimeWarning)
    return values, FracHeatDiagnostics(values, coarse, diff, tolerance, converged)


def _heat_residual_fd(u, pts, n, h=1e-4):
    """(u_t - Lap u) at the eval points by finite differences; time uses a
    second-order backward stencil (u need not be evaluable forward in time)."""
    t0 = pts[:, 0]
    x0 = pts[:, 1:]
    u0 = _eval_u(u, t0, x0, n)
    ut = (3.0 * u0 - 4.0 * _eval_u(u, t0 - h, x0, n)
          + _eval_u(u, t0 - 2.0 * h, x0, n)) / (2.0 * h)
    lap = np.zeros_like(u0)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        lap += (_eval_u(u, t0, x0 + e, n) - 2.0 * u0
                + _eval_u(u, t0, x0 - e, n)) / (h * h)
    return ut - lap


def _order_bucket(tau: float) -> int:
    if tau <= 16.0:
        return 1
    if tau <= 64.0:
        return 2
    if tau <= 256.0:
        return 4
    return 8


def _frac_heat_core(u, p, q, pts):
    taus, tw = tau_nodes(q)
    t0 = pts[:, 0]
    x0 = pts[:, 1:]
    m = pts.shape[0]
    u_here = _eval_u(u, t0, x0, p.n)

    # Below tau_cutoff_low the inner integral is the heat semigroup, so
    # u - H(tau) = tau (u_t - Lap u) + O(tau^2); integrate that analytically.
    # This avoids the tau^(-s) amplification of float cancellation noise.
    eps = q.tau_cutoff_low
    acc = _heat_residual_fd(u, pts, p.n) * eps ** (1.0 - p.s) / (1.0 - p.s)

    zgrids = {}
    for tau, wt in zip(taus, tw):
        fac = _order_bucket(tau)
        if fac not in zgrids:
            zgrids[fac] = zeta_nodes(q, p.n, fac)
        zeta, zw = zgrids[fac]
        srt = math.sqrt(tau)
        xs = x0[:, None, :] - srt * zeta[None, :, :]   # (m, k, n)
        ts = np.broadcast_to(t0[:, None] - tau, xs.shape[:2])
        flat_u = _eval_u(u, ts.ravel(), xs.reshape(-1, p.n), p.n)
        shifted = flat_u.reshape(m, -1)
        inner = np.sum(zw[None, :] * (u_here[:, None] - shifted), axis=1)
        acc += wt * tau ** (-p.s - 1.0) * inner
    return subordination_constant(p.s) * acc


def marchaud_normalization(s: float, spec: QuadratureSpec | None = None) -> float:
    """Numeric value of (s / Gamma(1-s)) * int_0^inf tau^(-s-1)(1 - e^-tau) dtau.

    Equals 1 exactly (integrate by parts); the small-tau part is summed as a
    series so the identity is reproducible to ~1e-12 for s up to 0.95, where
    a bare quadrature cutoff would converge hopelessly slowly.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    spec = spec or QuadratureSpec()
    eps = 0.25
    # int_0^eps tau^(-s-1)(1-e^-tau) dtau = sum_{k>=1} (-1)^(k+1) eps^(k-s)/(k! (k-s))
    series = 0.0
    term_fac = 1.0
    for k in range(1, 60):
        term_fac *= eps / k
        series += (-1.0) ** (k + 1) * term_fac * eps ** (-s) / (k - s)
    lo, hi = eps, max(spec.tau_cutoff_high, 1e12)
    u, wu = _gauss_panels(math.log10(lo), math.log10(hi),
                          int(math.ceil(math.log10(hi / lo))),
                          max(spec.nodes_per_decade, 12))
    taus = 10.0 ** u
    body = float(np.sum(wu * taus * math.log(10.0)
                        * taus ** (-s - 1.0) * (1.0 - np.exp(-taus))))
    tail = hi ** (-s) / s   # e^-tau negligible beyond hi
    return subordination_constant(s) * (series + body + tail)


def check_master_bounds(p: FracParams, c1: float, c2: float,
                        z_range=(0.1, 10.0), samples_per_decade: int = 24,
                        tau_pad: float = 100.0) -> MasterBoundReport:
    """Empirical constants for the two-sided bounds on the subordination
    kernel K(tau, z) = c_s tau^(-s-1) G(tau, z) in the heat case beta = 2:

        K >= lambda / |z|^(n+2s+2)   on  c1 |z|^2 <= tau <= c2 |z|^2,
        K <= Lambda / (|z|^(n+2s+2) + tau^(n/2+1+s))   everywhere sampled.

    lambda_lower is the largest lower constant valid on the sampled diagonal
    region, Lambda_upper the smallest upper constant valid on the sampled
    (tau, z) box (the diagonal range padded by `tau_pad` both ways).
    """
    if not 0.0 < c1 < c2:
        raise ValueError("need 0 < c1 < c2")
    zlo, zhi = z_range
    if not 0.0 < zlo < zhi:
        raise ValueError("z_range must be an increasing positive pair")
    beta = 2.0
    cs = subordination_constant(p.s)
    ndec_z = math.log10(zhi / zlo)
    zs = np.geomspace(zlo, zhi, max(2, int(ndec_z * samples_per_decade) + 1))

    expo = p.n + 2.0 * p.s + beta
    lam = math.inf
    for z in zs:
        taus = np.geomspace(c1 * z * z, c2 * z * z, samples_per_decade)
        K = cs * taus ** (-p.s - 1.0) * heat_kernel(taus, z, p.n)
        lam = min(lam, float(np.min(K * z ** expo)))

    Lam = 0.0
    tlo, thi = c1 * zlo * zlo / tau_pad, c2 * zhi * zhi * tau_pad
    taus_all = np.geomspace(tlo, thi, max(2, int(math.log10(thi / tlo) * samples_per_decade) + 1))
    for z in zs:
        K = cs * taus_all ** (-p.s - 1.0) * heat_kernel(taus_all, z, p.n)
        bound = z ** expo + taus_all ** (p.n / beta + 1.0 + 2.0 * p.s / beta)
        Lam = max(Lam, float(np.max(K * bound)))

    holds = lam > 0.0 and math.isfinite(Lam)
    return MasterBoundReport(beta, c1, c2, lam, Lam, holds)
