"""Heat kernel, subordination quadrature for the fractional heat operator,
and the kernel-bound checker for the beta = 2 master-equation case.

The fractional operator of order s in (0, 1) acts on a space-time function
u(t, x) through the subordination integral

    c_s * int_0^inf int_{R^n} tau^(-s-1) G(tau, z) [u(t,x) - u(t-tau, x-z)] dz dtau

with G the Gaussian heat kernel and c_s = s / Gamma(1-s).  All quadrature
here is deterministic: one Gauss-Legendre panel per decade in tau until two
nonzero decade means of the inner integral agree (at most to _TAU_HIGH),
past which that mean is held, and in the self-similar zeta = z / sqrt(tau)
a fixed Gauss-Legendre grid, or at n = 2 past tau = 314 one Fibonacci lattice.
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


# The tau quadrature runs over [_TAU_LOW, _TAU_HIGH] until two nonzero
# decade means of the inner integral agree to _SETTLE_TOL relative, past
# which that mean is held (`_frac_heat_core`); below _TAU_LOW the integral
# is taken analytically.  The z integral is truncated at
# |z| <= _Z_RADIUS sqrt(tau), which drops Gaussian mass
# erfc(_Z_RADIUS / 2) = erfc(4) = 1.54e-8 per axis, so the zeta weights sum
# to 1 - 1.54e-8 at n = 1 and 1 - 3.08e-8 at n = 2, at every order.
_TAU_LOW = 1e-6
_TAU_HIGH = 1e10
_SETTLE_TOL = 1e-8
_Z_RADIUS = 8.0
# the tails |zeta| in [_Z_TAIL, _Z_RADIUS] hold erfc(2) = 4.7e-3 of the mass
_Z_TAIL = 4.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the subordination integral: Gauss-Legendre panels
    of order nodes_per_decade per decade in tau on [_TAU_LOW, _TAU_HIGH],
    and a zeta rule whose order grows with it (`_zeta_nodes`)."""

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
    upper tau edge each rule reached (_TAU_HIGH if it never settled)."""

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


def _zeta_nodes(spec: QuadratureSpec, n: int, order_factor: int = 1):
    """Nodes/weights for int G(tau, z) h(z) dz written in the self-similar
    variable z = sqrt(tau) * zeta:

        int G(tau, z) h(z) dz = sum_i w_i h(sqrt(tau) * zeta_i)

    Weights absorb the Gaussian factor; the rule is a tensor grid of a 1-d
    Gauss rule on [-_Z_RADIUS, _Z_RADIUS]^n.  `order_factor` multiplies the
    base order, the 1-d rule's node count, which sits on equal panels of
    about 48 nodes.  A physical frequency xi of u is the frequency
    xi sqrt(tau) in zeta, so the subordination loop picks the factor per
    tau from `_ZETA_ORDER`: low while the rule still resolves every
    frequency the heat kernel has not damped, highest where the damped
    frequencies start to alias, and lower again in the far field, where
    the tau weight falls like tau^(-s).  At n = 2 the far field past
    _LATTICE_TAU takes `_lattice_nodes` in place of these grids, so there
    the factors past 314 serve n = 1 only.  The highest factor, _SPLIT_FACTOR,
    keeps the uniform rule's panel density on [-_Z_TAIL, _Z_TAIL] only and
    covers each tail past _Z_TAIL with one Gauss panel of order / 16
    nodes: 240 nodes in place of 384 at the default spec, 120 in place of
    192 at its coarsened spec.  zeta, of shape (k, n), is the transposed
    view of an (n, k) C array, so each row of zeta.T is one coordinate,
    contiguous.
    """
    order = max(24, 4 * spec.nodes_per_decade) * order_factor
    panels = max(1, order // 48)
    per_panel = int(math.ceil(order / panels))
    if order_factor == _SPLIT_FACTOR:
        # half the uniform panels, rounded up, keep its density on the center
        pieces = [(-_Z_RADIUS, -_Z_TAIL, 1, order // 16),
                  (-_Z_TAIL, _Z_TAIL, (panels + 1) // 2, per_panel),
                  (_Z_TAIL, _Z_RADIUS, 1, order // 16)]
    else:
        pieces = [(-_Z_RADIUS, _Z_RADIUS, panels, per_panel)]
    parts = [_gauss_panels(*piece) for piece in pieces]
    x1 = np.concatenate([x for x, _ in parts])
    w1 = np.concatenate([w for _, w in parts])
    g1 = (4.0 * math.pi) ** (-0.5) * np.exp(-x1 * x1 / 4.0)
    if n == 1:
        return x1[:, None], w1 * g1
    # stacked from broadcast views: no full-size copy of each coordinate
    grids = np.meshgrid(*([x1] * n), indexing="ij", copy=False)
    zeta = np.stack(grids).reshape(n, -1).T
    wprod = w1 * g1
    w = wprod
    for _ in range(n - 1):
        w = np.multiply.outer(w, wprod)
    return zeta, w.ravel()


def _lattice_nodes(spec: QuadratureSpec):
    """The n = 2 counterpart of `_zeta_nodes` for the far field: a
    Fibonacci lattice rule on the periodic box [-_Z_RADIUS, _Z_RADIUS]^2.

    N is the largest odd Fibonacci number <= 8 order^2 (order the base
    order of `_zeta_nodes`) and the generator the Fibonacci number before
    it: 17,711 points at the default spec, 4,181 at its coarsened spec.
    Point i is (i / N, i gen / N mod 1), each coordinate wrapped to
    [-1/2, 1/2) and scaled by 2 _Z_RADIUS, with the weight (2 _Z_RADIUS)^2
    / N times G(zeta).  An odd N puts no point on the box edge, so the set
    is exactly symmetric under zeta -> -zeta and linear data stay
    annihilated.  The layout is `_zeta_nodes`'s.

    A rank-1 lattice is the 2-d analogue of the trapezoidal rule for a
    periodic integrand (Sloan and Joe, Lattice Methods for Multiple
    Integration, 1994), and G(zeta) is within 1e-8 of periodic on the box.
    At the default spec the rule integrates G(zeta) cos(omega . zeta) =
    exp(-|omega|^2) to 1e-7 for |omega| <= 45 in every direction and
    further along the axes, where the split tensor rule reaches 17.4 per
    axis and returns aliasing noise past it.  Past its limit a mode is
    integrated to zero unless its spectrum meets the dual lattice.
    """
    order = max(24, 4 * spec.nodes_per_decade)
    fib = [1, 2]
    while fib[-1] + fib[-2] <= 8 * order * order:
        fib.append(fib[-1] + fib[-2])
    if fib[-1] % 2 == 0:
        fib.pop()
    size, gen = fib[-1], fib[-2]
    idx = np.arange(size)
    k = np.stack([idx, idx * gen % size])
    k[k > size // 2] -= size
    zeta = (2.0 * _Z_RADIUS / size) * k
    w = ((2.0 * _Z_RADIUS) ** 2 / size / (4.0 * math.pi)
         * np.exp(-(zeta[0] * zeta[0] + zeta[1] * zeta[1]) / 4.0))
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

    u is sampled back decade by decade in tau until the nonzero means of
    the inner integral over two decades agree to _SETTLE_TOL = 1e-8 of
    their size, and at most to t - _TAU_HIGH = t - 1e10.  The rest of the
    tau integral holds the inner integral at its mean over the last
    sampled decade: a share (10^s - 1)^(-1) of that decade's sum, zero for
    constant and linear data.  This assumes u has no structure further
    back in time than that decade: cos(x) + H(-t - 1e6) settles near
    tau = 1e3 and loses its step's share, about 1e6^(-s).  n = 2 cosines
    of xi in [0.25, 4] settle by tau = 1e5; n = 1 cosines, under the
    aliasing noise of the far-field tensor rules, march to _TAU_HIGH.

    Returns the array of operator values, or (values, FracHeatDiagnostics)
    when check_convergence is set.  Non-convergence (working vs coarsened
    quadrature differing beyond 1e-4 max(1, max |value|)) is reported via
    the diagnostics and a warning, never silently.  A spec that does not
    coarsen (nodes_per_decade = 4) cannot be checked and raises ValueError.
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != 1 + p.n:
        raise ValueError(f"eval_points rows must be (t, x1..x{p.n})")
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


# (largest tau, zeta order factor).  A frequency xi of u is the frequency
# omega = xi sqrt(tau) of the zeta rule, where its exact value is
# exp(-omega^2), below e^-300 past omega = 17.4.  At the default spec the
# order-f rule integrates G(zeta) cos(omega zeta) to 1e-7 up to omega = 7.1,
# 17.8, 25.9, 35.2 and 53.2 (f = 1, 2, 3, 4, 6).  Up to tau = 314 each
# factor keeps 3 sqrt(tau) below its limit, so every |xi| <= 3 is resolved
# until exp(-xi^2 tau) has damped it.  Past its limit a rule returns
# aliasing noise of rms ~sqrt(sum w^2) (0.10 at f = 8, 0.13 at 4, 0.17 at
# 2) weighted by tau^(-s), and that noise is the error floor for |xi| < 2.
# Factor 8 up to tau = 1e6 holds the floor off until tau = (71 / xi)^2 (or
# (71 / 0.7 xi)^2 for a product of two modes) for every 0.25 <= |xi| <= 3;
# a lower factor anywhere before 1e6 raises it.  Its rule is split
# (`_zeta_nodes`): the center |zeta| <= 4 keeps the density of the uniform
# 384-node rule, and one coarse panel per tail resolves omega up to 17.4
# only.  So the rule is within 1e-7 of exp(-omega^2) up to omega = 17.4
# (71.2 uniform), and between 17.4 and 71.2, where the exact value is below
# e^-300, it returns the tails' noise, rms 1.0e-3 (at most 2.3e-3): the
# tails hold 4.7e-3 of the mass, so that noise is 1% of the full floor,
# which the center still holds off until omega = 71.2.  The entries past
# tau = 314 serve n = 1 only: at n = 2 the lattice below replaces them.
_ZETA_ORDER = ((5.6, 1), (35.0, 2), (74.0, 3), (137.0, 4), (314.0, 6),
               (1e6, 8), (1e7, 4), (math.inf, 2))
_SPLIT_FACTOR = 8
# Past this tau an n = 2 call uses the lattice of `_lattice_nodes` for
# every tau node in place of the factor 8, 4 and 2 tensor grids: 17,711
# points in place of 57,600, 36,864 and 9,216 at the default spec.  It
# resolves omega = 45 in every direction and 190 along the axes, where the
# split rule resolves 17.4 per axis; products of two modes can still meet
# its dual lattice at single points.
_LATTICE_TAU = 314.0
_LATTICE = "lattice"


def _order_bucket(tau: float, n: int):
    """The zeta rule for tau: a factor of `_ZETA_ORDER`, or _LATTICE."""
    if n == 2 and tau > _LATTICE_TAU:
        return _LATTICE
    for limit, factor in _ZETA_ORDER:
        if tau <= limit:
            return factor


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


def _frac_heat_core(u, p, q, pts):
    taus, tw = _tau_nodes(q)
    t0 = pts[:, 0]
    x0 = pts[:, 1:]
    m = pts.shape[0]
    u_here = _eval_u(u, t0, x0, p.n)

    # Below _TAU_LOW the inner integral is the heat semigroup, so
    # u - H(tau) = tau (u_t - Lap u) + O(tau^2); integrate that analytically.
    # This avoids the tau^(-s) amplification of float cancellation noise.
    eps = _TAU_LOW
    acc = _heat_residual_fd(u, pts, p.n) * eps ** (1.0 - p.s) / (1.0 - p.s)

    # hold only the current rule's grid: keeping every rule's n = 2 grid
    # adds to the peak memory of a call
    fac = None
    decade = weight = 0.0   # this decade's sum and tau weight so far
    last = mean = None
    for i, (tau, wt) in enumerate(zip(taus, tw)):
        f = _order_bucket(tau, p.n)
        if f != fac:
            fac = f
            # release the previous grid and the last batch (z, w are views
            # of the grid) before the next grid is built
            zeta = zw = z = w = xs = ts = shifted = None
            zeta, zw = (_lattice_nodes(q) if fac == _LATTICE
                        else _zeta_nodes(q, p.n, fac))
        srt = math.sqrt(tau)
        inner = np.zeros(m)
        step = max(1, _BATCH // m)
        for lo in range(0, zw.size, step):
            z, w = zeta.T[:, lo:lo + step], zw[lo:lo + step]
            if lo == 0 or w.size < step:
                ts = np.repeat(t0 - tau, w.size)
            # by coordinate: a pass over a last axis of length n is ~8x slower
            xs = np.empty((p.n, m, w.size))
            for d in range(p.n):
                np.subtract.outer(x0[:, d], srt * z[d], out=xs[d])
            shifted = _eval_u(u, ts, xs.reshape(p.n, -1).T, p.n).reshape(m, -1)
            inner += np.sum(w * (u_here[:, None] - shifted), axis=1)
        kern = wt * tau ** (-p.s - 1.0)
        term = kern * inner
        acc += term
        decade, weight = decade + term, weight + kern
        if (i + 1) % q.nodes_per_decade == 0:
            # one Gauss panel per decade: stop once its mean of the inner
            # integral agrees with the last one's (two zero means do not)
            prev, mean, last = mean, decade / weight, decade
            decade = weight = 0.0
            tol = _SETTLE_TOL * np.max(np.abs(mean))
            if prev is not None and np.max(np.abs(mean - prev)) < tol:
                break
    # Past the last sampled decade hold the inner integral at its mean
    # there: the weight tau^(-s-1) integrates to (10^s - 1) times less
    # beyond a decade than over it.
    acc += last / (10.0 ** p.s - 1.0)
    reached = 10.0 ** (math.log10(_TAU_LOW) + (i + 1) // q.nodes_per_decade)
    return subordination_constant(p.s) * acc, reached


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
    lam = math.inf
    for z in zs:
        taus = np.geomspace(c1 * z * z, c2 * z * z, 24)
        K = cs * taus ** (-p.s - 1.0) * heat_kernel(taus, z, p.n)
        lam = min(lam, float(np.min(K * z ** expo)))

    Lam = 0.0
    tlo, thi = c1 * zlo * zlo / 100.0, c2 * zhi * zhi * 100.0
    taus_all = np.geomspace(tlo, thi, max(2, int(math.log10(thi / tlo) * 24) + 1))
    for z in zs:
        K = cs * taus_all ** (-p.s - 1.0) * heat_kernel(taus_all, z, p.n)
        bound = z ** expo + taus_all ** (p.n / beta + 1.0 + 2.0 * p.s / beta)
        Lam = max(Lam, float(np.max(K * bound)))

    holds = lam > 0.0 and math.isfinite(Lam)
    return MasterBoundReport(lam, Lam, holds)
