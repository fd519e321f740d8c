"""Heat kernel, subordination quadrature for the fractional heat operator,
and the kernel-bound checker for the beta = 2 master-equation case.

The fractional operator of order s in (0, 1) acts on a space-time function
u(t, x) through the subordination integral

    c_s * int_0^inf int_{R^n} tau^(-s-1) G(tau, z) [u(t,x) - u(t-tau, x-z)] dz dtau

with G the Gaussian heat kernel and c_s = s / Gamma(1-s).  All quadrature
here is deterministic: one Gauss-Legendre panel per decade in tau up to the
first node where the inner integral has held still for a decade (at most to
_TAU_HIGH), past which it is held, and in the self-similar zeta = z / sqrt(tau)
one rank-1 lattice rule on the periodic box [-8, 8]^n per band of tau: the
trapezoid rule at n = 1 and a Fibonacci lattice at n = 2.
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


# The tau quadrature runs over [_TAU_LOW, _TAU_HIGH] up to the first node
# where the nonzero inner integral has stayed within _SETTLE_TOL of its size
# for a decade of nodes, past which it is held (`_frac_heat_core`); below
# _TAU_LOW the integral is taken analytically.  Node values carry the zeta
# rules' ~1e-9 aliasing at large tau, and _SETTLE_TOL sits 3-10x above it:
# at 1e-9 no n = 1 cosine settles (`dtn_dual_route` samples u at 10.1M
# points a pass, against 1.44M), at 3e-9 `dtn_dual_route_2d` at 2.52M
# (1.47M).  The z integral is truncated at
# |z| <= _Z_RADIUS sqrt(tau).  A zeta rule's weights sum to 1 less the
# weight of its lattice's points outside that box: 1.2e-8 to 1.54e-8 at
# n = 1 and 3.0e-8 to 3.08e-8 at n = 2, against the Gaussian mass past the
# box, erfc(_Z_RADIUS / 2) = erfc(4) = 1.54e-8 per axis.
_TAU_LOW = 1e-6
_TAU_HIGH = 1e10
_SETTLE_TOL = 1e-8
_Z_RADIUS = 8.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the subordination integral: Gauss-Legendre panels
    of order nodes_per_decade per decade in tau on [_TAU_LOW, _TAU_HIGH],
    and lattice zeta rules whose order grows with it (`_zeta_nodes`).
    `coarsened()` halves both, so every zeta rule shrinks: by half at
    n = 1 and to about a quarter at n = 2."""

    nodes_per_decade: int = 12

    def __post_init__(self):
        if self.nodes_per_decade < 4:
            raise ValueError("nodes_per_decade must be at least 4")

    def coarsened(self) -> "QuadratureSpec":
        return replace(self, nodes_per_decade=max(4, self.nodes_per_decade // 2))


@dataclass
class FracHeatDiagnostics:
    """Convergence report for one frac_heat_apply call: the values at the
    working spec, at a coarsened spec, their maximum discrepancy, and the
    tau of the node where each rule stopped (its last node, just below
    _TAU_HIGH, if the inner integral never settled)."""

    values: np.ndarray
    coarse_values: np.ndarray
    max_difference: float
    converged: bool
    tau_reached: float
    coarse_tau_reached: float


@dataclass
class MasterBoundReport:
    """Empirical two-sided kernel bounds in the heat case beta = 2."""

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


def _gauss_panels(lo, hi, n_panels: int, order: int):
    """Gauss-Legendre nodes/weights on n_panels equal panels of [lo, hi].

    lo and hi may be arrays of one shape; the nodes and weights then get
    that shape plus one last axis, the nodes of each [lo, hi] in turn."""
    xg, wg = _leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1, axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = np.shape(lo) + (-1,)
    nodes = (mid[..., None] + half[..., None] * xg).reshape(shape)
    wts = (half[..., None] * wg).reshape(shape)
    return nodes, wts


def _tau_nodes(spec: QuadratureSpec):
    """Log-spaced Gauss-Legendre nodes and weights for the tau integral.

    One Gauss panel of order `nodes_per_decade` per decade, mapped through
    tau = 10^u so the integrable endpoint behavior is resolved in log space.
    """
    lo = math.log10(_TAU_LOW)
    hi = math.log10(_TAU_HIGH)
    n_panels = max(1, int(math.ceil(hi - lo)))
    u, wu = _gauss_panels(lo, hi, n_panels, spec.nodes_per_decade)
    taus = 10.0 ** u
    wts = wu * taus * math.log(10.0)  # d tau = tau ln(10) du
    return taus, wts


@lru_cache(maxsize=None)
def _zeta_nodes(spec: QuadratureSpec, n: int, factor: float = 1):
    """Nodes/weights for int G(tau, z) h(z) dz written in the self-similar
    variable z = sqrt(tau) * zeta:

        int G(tau, z) h(z) dz = sum_i w_i h(sqrt(tau) * zeta_i)

    The rule is a rank-1 lattice on the periodic box [-_Z_RADIUS,
    _Z_RADIUS]^n of order max(24, 4 nodes_per_decade) times `factor`: at
    n = 1 the trapezoid rule on order + 1 points, at n = 2 the Fibonacci
    lattice whose size N is the largest odd Fibonacci number <= 2 order^2,
    with the Fibonacci number before it as generator.  Point i is
    i (1, gen) / N mod 1, each coordinate wrapped to [-1/2, 1/2) and scaled
    by 2 _Z_RADIUS, with the weight (2 _Z_RADIUS)^n / N times G(zeta).  An
    odd N puts no point on the box edge, so the set is exactly symmetric
    under zeta -> -zeta and linear data stay annihilated.

    G(zeta) is within 1e-8 of periodic on the box, and on a periodic
    integrand a lattice rule converges exponentially (the trapezoid rule at
    n = 1, Trefethen and Weideman, SIAM Rev. 56, 2014; Sloan and Joe,
    Lattice Methods for Multiple Integration, 1994): `_ZETA_ORDER`'s
    comment gives the radii up to which each rule integrates
    G(zeta) cos(omega . zeta) = exp(-|omega|^2) to 1e-7.  zeta, of shape
    (N, n), is the transposed view of an (n, N) C array: each row of zeta.T
    is one coordinate, contiguous.  Each rule is built once per (spec, n,
    factor) and shared read-only: the eight rules of n = 2 at the default
    spec and its coarsening hold about 0.9 MB.
    """
    order = max(24, 4 * spec.nodes_per_decade) * factor
    if n == 1:
        size, gen = 2 * int(order / 2) + 1, [1]
    else:
        fib = [1, 2]
        while fib[-1] + fib[-2] <= 2 * order * order:
            fib.append(fib[-1] + fib[-2])
        if fib[-1] % 2 == 0:
            fib.pop()
        size, gen = fib[-1], [1, fib[-2]]
    k = np.multiply.outer(gen, np.arange(size)) % size
    k[k > size // 2] -= size
    zeta = (2.0 * _Z_RADIUS / size) * k
    w = ((2.0 * _Z_RADIUS) ** n / size * (4.0 * math.pi) ** (-0.5 * n)
         * np.exp(-np.sum(zeta * zeta, axis=0) / 4.0))
    zeta.setflags(write=False)
    w.setflags(write=False)
    return zeta.T, w


def _eval_u(u, t: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Evaluate a user function on flat (t, x) arrays; x has shape (m, n)."""
    if n == 1:
        return np.asarray(u(t, x[:, 0]), dtype=float)
    return np.asarray(u(t, x), dtype=float)


# frac_heat_apply's refinement tolerance, relative to max(1, max |value|)
_REFINE_TOL = 1e-4


def frac_heat_apply(u, p: FracParams, q: QuadratureSpec, eval_points,
                    check_convergence: bool = False):
    """Apply the order-s fractional heat operator to u at the given points.

    Parameters
    ----------
    u : callable
        u(t, x) accepting 1-d arrays t (shape (m,)) and x (shape (m,) for
        n = 1, else (m, n), in any memory order: the quadrature passes it
        column-major), vectorized, evaluable for arbitrarily negative
        times within the truncated integral's reach.
    eval_points : array-like, shape (m, 1 + n)
        Rows (t, x_1, ..., x_n).

    u is sampled back node by node in tau up to the first node where the
    inner integral is nonzero and has stayed within _SETTLE_TOL = 1e-8 of
    its size over the last decade of nodes, and at most to t - _TAU_HIGH.
    The rest of the tau integral holds it at that node's value with the
    rule's own weight past it (its later nodes, and past _TAU_HIGH
    (10^s - 1)^(-1) of its last decade's), zero for constant and linear
    data.  This assumes u has no structure further back in time than the
    stop: cos(x) + H(-t - 1e6) stops at tau = 274 and loses its step's
    share, about 1e6^(-s).  Cosines of xi in [0.25, 4] stop by tau = 4.8e3
    at both n; the coarsened spec's smaller zeta rules alias within the
    march, and n = 1 xi = 3 and 4 stop at 9.3e3 and 2.4e4 there.

    A u that is not finite on a tau node (one that overflows as it grows
    backward in time, say) raises ValueError naming that node's tau.

    Returns the array of operator values, or (values, FracHeatDiagnostics)
    when check_convergence is set.  Non-convergence (working vs coarsened
    quadrature differing beyond 1e-4 max(1, max |value|)) is reported via
    the diagnostics and a warning, never silently.  A spec that does not
    coarsen (nodes_per_decade = 4) cannot be checked and raises ValueError.
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != 1 + p.n:
        raise ValueError(f"eval_points rows must be (t, x1..x{p.n})")
    if p.n > 2:
        raise ValueError(f"the zeta rules cover n = 1 and 2, got n = {p.n}")
    if check_convergence and q.coarsened() == q:
        raise ValueError(f"{q} has no coarser spec to check convergence "
                         "against")
    values, reached = _frac_heat_core(u, p, q, pts)
    if not check_convergence:
        return values
    coarse, coarse_reached = _frac_heat_core(u, p, q.coarsened(), pts)
    diff = float(np.max(np.abs(values - coarse)))
    scale = max(1.0, float(np.max(np.abs(values))))
    converged = diff <= _REFINE_TOL * scale
    if not converged:
        warnings.warn(
            f"subordination quadrature not converged: refinement delta "
            f"{diff:.3e} exceeds {_REFINE_TOL:.1e} * scale", RuntimeWarning)
    return values, FracHeatDiagnostics(values, coarse, diff, converged,
                                       reached, coarse_reached)


def _heat_residual_fd(u, pts, n):
    """(u_t - Lap u) at the eval points by finite differences of step 1e-4;
    time uses a second-order backward stencil (u need not be evaluable
    forward in time)."""
    h = 1e-4
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


# (largest tau, zeta order factor at n = 1, at n = 2).  A frequency xi of u
# is the frequency omega = xi sqrt(tau) of the zeta rule, where its exact
# value is exp(-omega^2), below e^-300 past omega = 17.4.  The rules of
# `_zeta_nodes` integrate G(zeta) cos(omega . zeta) to 1e-7 up to these
# |omega|, at the default spec (at its coarsened spec):
#   n = 1, factor 1, 2, 3, 4, 6, 8 (49 to 385 points): 15.2, 34.0, 52.9,
#     71.7, 109.4, 147.1 (5.7, 15.2, 24.6, 34.0, 52.9, 71.7);
#   n = 2, factor 0.6, 1, 1.5, 2 (1,597, 4,181, 6,765, 17,711 points): 11.6,
#     21.3, 26.5, 45.4 in every direction (3.1, 7.6, 11.6, 21.3), and 32,
#     88, 145, 190 along the axes.
# Up to tau = 35 every working rule keeps 3 sqrt(tau) below its limit (at
# n = 1 up to tau = 314), so every |xi| <= 3 is resolved until
# exp(-xi^2 tau) has damped it.  Past its limit a periodic rule returns
# exp(-|omega - nu|^2) for the nearest point nu of its dual lattice: zero
# but near such points, whose tau weight falls like tau^(-s).  Past
# tau = 314 each n keeps one rule, so where the rule sees the inner
# integral settle the held mean is what the march would add (n = 1
# factors 4 past 1e6 and 2 past 1e7 moved a kink by 6e-7 between the two).
# n = 2 keeps 17,711 points from tau = 35 on: products of two low modes
# meet the dual lattice of a smaller one within the march (6,765 points
# past 314 put 8.8e-6 on `TestErrorTable.test_low_frequency_product`).
_ZETA_ORDER = ((0.5, 1, 0.6), (5.6, 1, 1), (35.0, 2, 1.5), (74.0, 3, 2),
               (137.0, 4, 2), (314.0, 6, 2), (math.inf, 8, 2))


def _order_bucket(tau: float, n: int) -> float:
    """The zeta order factor of `_ZETA_ORDER` for tau at dimension n."""
    return next(row[n] for row in _ZETA_ORDER if tau <= row[0])


# u is evaluated in batches of about this many points, which keeps the
# temporaries in cache.  An n = 2 call on four points with the refinement
# check took a median 0.25-0.39 s CPU at 32768, 0.26-0.40 s at 65536 and at
# 16384, and 0.29-0.41 s unbatched (one thread; 12 calls per size,
# interleaved, in each of two processes on a shared 2-vCPU host, whose load
# moved every size by up to a third between runs).
# Each batch is reduced with np.sum, not a BLAS product: a threaded gemv
# of this size ran several times slower on a shared CPU.
_BATCH = 32768


def _chunked(fn, rows: np.ndarray, width: int) -> np.ndarray:
    """fn applied to consecutive chunks of the 1-d array `rows` and the
    results concatenated; fn maps a chunk to one value per row and makes
    temporaries of `width` floats per row.  A chunk holds at most
    _BATCH // width rows, so each temporary stays within _BATCH floats
    (256 KB) however many rows a call brings."""
    step = max(1, _BATCH // width)
    parts = [fn(rows[i:i + step]) for i in range(0, rows.size, step)]
    return np.concatenate(parts) if parts else np.empty(0)


def _pow(x, p: float) -> np.ndarray:
    """x ** p element by element through the C library's pow, as a Python
    float gets it.  numpy's array power rounds differently for about 5% of
    x at a fractional p, and its x ** 2 is x * x, which differs from pow for
    about 0.1%; this keeps an array of radii on the values that each radius
    gets alone."""
    x = np.asarray(x, dtype=float)
    return np.array([v ** p for v in x.ravel().tolist()]).reshape(x.shape)


def _inner_sum(u, t, x0, u_here, srt, zeta, zw):
    """sum_k zw_k (u_here - u(t, x0 - srt zeta_k)) at each row of x0, (m, n):
    the inner integral at the tau node with t = t0 - tau, srt = sqrt(tau)."""
    m, n = x0.shape
    inner = np.zeros(m)
    step = max(1, _BATCH // m)
    for lo in range(0, zw.size, step):
        z, w = zeta.T[:, lo:lo + step], zw[lo:lo + step]
        if lo == 0 or w.size < step:
            ts = np.repeat(t, w.size)
        # by coordinate: a pass over a last axis of length n is ~8x slower
        xs = np.empty((n, m, w.size))
        for d in range(n):
            np.subtract.outer(x0[:, d], srt * z[d], out=xs[d])
        shifted = _eval_u(u, ts, xs.reshape(n, -1).T, n).reshape(m, -1)
        inner += np.sum(w * (u_here[:, None] - shifted), axis=1)
    return inner


def _frac_heat_core(u, p, q, pts):
    taus, tw = _tau_nodes(q)
    t0, x0 = pts[:, 0], pts[:, 1:]
    u_here = _eval_u(u, t0, x0, p.n)

    # Below _TAU_LOW the inner integral is the heat semigroup, so
    # u - H(tau) = tau (u_t - Lap u) + O(tau^2); integrate that analytically.
    # This avoids the tau^(-s) amplification of float cancellation noise.
    acc = (_heat_residual_fd(u, pts, p.n) * _TAU_LOW ** (1.0 - p.s)
           / (1.0 - p.s))

    # Stop at the first node where the nonzero inner integral has stayed
    # within _SETTLE_TOL of its size for a decade (npd + 1 nodes); hold it
    # over the rule's later nodes and past _TAU_HIGH, where tau^(-s-1)
    # integrates to the last decade's weight over 10^s - 1.
    kern = np.array([wt * tau ** (-p.s - 1.0) for tau, wt in zip(taus, tw)])
    npd = q.nodes_per_decade
    window = []
    for i, tau in enumerate(taus):
        zeta, zw = _zeta_nodes(q, p.n, _order_bucket(tau, p.n))
        inner = _inner_sum(u, t0 - tau, x0, u_here, math.sqrt(tau), zeta, zw)
        if not np.isfinite(inner).all():
            raise ValueError(
                f"u gives a non-finite inner integral at tau = {tau:.6g}")
        acc += kern[i] * inner
        window = window[-npd:] + [inner]
        drift = np.max(np.abs(np.array(window) - inner))
        if i >= npd and drift < _SETTLE_TOL * np.max(np.abs(inner)):
            break
    held = kern[i + 1:].sum() + kern[-npd:].sum() / (10.0 ** p.s - 1.0)
    return subordination_constant(p.s) * (acc + held * inner), float(tau)


def marchaud_normalization(s: float) -> float:
    """Numeric value of (s / Gamma(1-s)) * int_0^inf tau^(-s-1)(1 - e^-tau) dtau.

    Equals 1 exactly (integrate by parts); the small-tau part is summed as a
    series so the identity is reproducible to ~1e-12 for s up to 0.95, where
    a bare quadrature cutoff would converge hopelessly slowly.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    eps = 0.25
    # int_0^eps tau^(-s-1)(1-e^-tau) dtau = sum_{k>=1} (-1)^(k+1) eps^(k-s)/(k! (k-s))
    series = 0.0
    term_fac = 1.0
    for k in range(1, 60):
        term_fac *= eps / k
        series += (-1.0) ** (k + 1) * term_fac * eps ** (-s) / (k - s)
    lo, hi = eps, 1e12
    u, wu = _gauss_panels(math.log10(lo), math.log10(hi),
                          int(math.ceil(math.log10(hi / lo))), 12)
    taus = 10.0 ** u
    body = float(np.sum(wu * taus * math.log(10.0)
                        * taus ** (-s - 1.0) * (1.0 - np.exp(-taus))))
    tail = hi ** (-s) / s   # e^-tau negligible beyond hi
    return subordination_constant(s) * (series + body + tail)


def check_master_bounds(p: FracParams, c1: float, c2: float,
                        z_range=(0.1, 10.0)) -> MasterBoundReport:
    """Empirical constants for the two-sided bounds on the subordination
    kernel K(tau, z) = c_s tau^(-s-1) G(tau, z) in the heat case beta = 2:

        K >= lambda / |z|^(n+2s+2)   on  c1 |z|^2 <= tau <= c2 |z|^2,
        K <= Lambda / (|z|^(n+2s+2) + tau^(n/2+1+s))   everywhere sampled.

    lambda_lower is the largest lower constant valid on the sampled diagonal
    region, Lambda_upper the smallest upper constant valid on the sampled
    (tau, z) box (the diagonal range padded by a factor 100 both ways),
    both sampled at 24 points per decade.
    """
    if not 0.0 < c1 < c2:
        raise ValueError("need 0 < c1 < c2")
    zlo, zhi = z_range
    if not 0.0 < zlo < zhi:
        raise ValueError("z_range must be an increasing positive pair")
    beta = 2.0
    cs = subordination_constant(p.s)
    ndec_z = math.log10(zhi / zlo)
    zs = np.geomspace(zlo, zhi, max(2, int(ndec_z * 24) + 1))

    expo = p.n + 2.0 * p.s + beta
    # heat_kernel reads a scalar distance only at n = 1: sample along x_1
    points = np.append(zs[:, None], np.zeros((zs.size, p.n - 1)), axis=1)
    lam = math.inf
    for z, pt in zip(zs, points):
        taus = np.geomspace(c1 * z * z, c2 * z * z, 24)
        K = cs * taus ** (-p.s - 1.0) * heat_kernel(taus, pt, p.n)
        lam = min(lam, float(np.min(K * z ** expo)))

    Lam = 0.0
    tlo, thi = c1 * zlo * zlo / 100.0, c2 * zhi * zhi * 100.0
    taus_all = np.geomspace(tlo, thi, max(2, int(math.log10(thi / tlo) * 24) + 1))
    for z, pt in zip(zs, points):
        K = cs * taus_all ** (-p.s - 1.0) * heat_kernel(taus_all, pt, p.n)
        bound = z ** expo + taus_all ** (p.n / beta + 1.0 + 2.0 * p.s / beta)
        Lam = max(Lam, float(np.max(K * bound)))

    holds = lam > 0.0 and math.isfinite(Lam)
    return MasterBoundReport(lam, Lam, holds)
