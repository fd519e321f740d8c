"""The modulus-of-continuity pipeline: Dini integrals, least concave
majorants, the two building moduli (coefficient- and data-driven), their
dyadic convolution, the summability check, and the final gradient modulus.

Everything is built over the dyadic radii lam^k.  Off-grid evaluation of a
dyadic modulus uses the minimal envelope that is simultaneously
nondecreasing and 1/2-decreasing and matches the grid values:

    omega(r) = max(omega(lam^(k+1)), omega(lam^k) sqrt(r / lam^k))

for r in (lam^(k+1), lam^k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import FracParams, _leggauss, _pow
from .lorentz import (
    _power_integral_table,
    RearrangedProfile,
    cylinder_measure_constant,
    estimate1_constant,
    riesz_potential_I2,
)

__all__ = [
    "ModulusOfContinuity",
    "ModulusPipelineConfig",
    "SummabilityReport",
    "DiniDivergenceError",
    "dini_integral",
    "least_concave_majorant",
    "build_omega1",
    "build_omega2",
    "build_omega3_and_omega",
    "summability_check",
    "build_K",
]


class DiniDivergenceError(ArithmeticError):
    """Raised when the singular integral of omega(t)/t fails the Cauchy test
    under dyadic refinement towards 0; carries the partial sums."""

    def __init__(self, message, partial_sums):
        super().__init__(message)
        self.partial_sums = np.asarray(partial_sums)


@dataclass(slots=True)
class ModulusOfContinuity:
    """Nondecreasing r -> omega(r) on (0, 1], evaluated by fn on arrays.

    scale_factor records any normalization applied during construction;
    samples_r / samples_w, ascending in r, are the values a modulus is
    built from (interpolated by a concave majorant, enveloped by omega);
    components names the parts of a sum (K1, K2, K3 of K).  The fields are
    slots, so no other attribute can be set.
    """

    fn: object
    name: str = ""
    scale_factor: float = 1.0
    samples_r: np.ndarray | None = None
    samples_w: np.ndarray | None = None
    components: dict | None = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.fn(r), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModulusPipelineConfig:
    """Constants of the modulus pipeline: gate ratio gamma, smallness level
    delta_tilde, dyadic ratio lam (< 1/4), truncation depth kmax."""

    gamma: float = 0.05
    delta_tilde: float = 0.5
    lam: float = 1.0 / 16.0
    kmax: int = 24

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0 or not 0.0 < self.delta_tilde < 1.0:
            raise ValueError("gamma and delta_tilde must lie in (0, 1)")
        if self.gamma >= self.delta_tilde:
            raise ValueError("need gamma < delta_tilde")
        if not 0.0 < self.lam < 0.25:
            raise ValueError("lam must lie in (0, 1/4)")
        if self.kmax < 1:
            raise ValueError("kmax must be positive")


# The stop tolerance of dini_integral, relative to max(1, the whole sum),
# and its number of dyadic segments before the tail fit
_DINI_TOL = 1e-10
_DINI_SEGMENTS = 900
# The segments stop at 1e-280, well above the subnormal range, so underflow
# cannot fake decay.  Fewer segments than this cannot carry even omega(t) =
# t's tail below _DINI_TOL: b 2^-k < _DINI_TOL b needs k >= 34.
_DINI_MIN_SEGMENTS = 34


def dini_integral(omega, b: float) -> float:
    """int_0^b omega(t)/t dt honoring the integrable singularity at 0.

    The interval (0, b], b in (0, 1], is split dyadically towards 0 into
    segments [b 2^-(k+1), b 2^-k], all evaluated in one call of omega.  The
    sum stops at the first segment below _DINI_TOL * max(1, sum of all
    segments), with a geometric tail.  If no segment gets that small, the
    tail past the last of the _DINI_SEGMENTS segments is extrapolated from
    the observed decay of the segment sums; if they do not decay summably
    the integral is declared divergent (refuting the Dini property) and a
    DiniDivergenceError carrying the partial sums is raised.

    The stop rule bounds the tail, not the error of the 16-point panels:
    on a kinked omega such as the hull interpolant of build_omega1, panels
    straddle the kinks, and the result is off by up to 7.5e-7 relative
    (median 1.3e-7; b in [1e-6, 1], gamma = 0.05, 0.025, 0.0125), about
    1e-6 against the 1e-10 tolerance.  build_K integrates such an omega1
    exactly instead.
    """
    b = float(b)
    if not 0.0 < b <= 1.0 + 1e-12:
        raise ValueError("dini integral needs b in (0, 1]")
    xg, wg = _leggauss(16)
    n_seg = min(_DINI_SEGMENTS, int(math.log2(b / 1e-280)))
    if n_seg < _DINI_MIN_SEGMENTS:
        raise ValueError(
            f"dini integral at b = {b:.3g}: the 1e-280 underflow guard leaves "
            f"{max(n_seg, 0)} dyadic segments, fewer than {_DINI_MIN_SEGMENTS}")
    his = b * 0.5 ** np.arange(n_seg)
    los = his * 0.5
    mids, halfs = 0.5 * (his + los), 0.5 * (his - los)
    t = (mids[:, None] + halfs[:, None] * xg).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.nan_to_num(np.asarray(omega(t), dtype=float) / t,
                             nan=0.0, posinf=0.0)
        segs = halfs * (vals.reshape(n_seg, xg.size) @ wg)
        partial = np.cumsum(segs)
    if not np.isfinite(partial).all():
        raise DiniDivergenceError(
            "omega(t)/t integral overflows under dyadic refinement", partial)
    small = np.nonzero(segs < _DINI_TOL * max(partial[-1], 1.0))[0]
    if small.size and small[0] >= 2:
        k = small[0]
        ratio = segs[k] / max(segs[k - 1], 1e-300)
        tail = segs[k] * ratio / (1.0 - ratio) if ratio < 0.9 else 0.0
        return float(partial[k] + tail)
    if small.size:                        # a small segment among the first two
        return float(partial[-1])
    # extrapolate: fit s_k ~ c j^-p on the last stretch, j counted from t = 1
    k1, k2 = n_seg // 2, n_seg - 1
    j1, j2 = (k + math.log2(1.0 / b) + 1.0 for k in (k1, k2))
    p_exp = (math.log(max(segs[k1], 1e-300) / max(segs[k2], 1e-300))
             / math.log(j2 / j1))
    if p_exp <= 1.05:
        raise DiniDivergenceError(
            f"omega(t)/t integral not Cauchy: segment decay exponent "
            f"{p_exp:.3f} <= 1 after {n_seg} dyadic refinements", partial)
    return float(partial[-1] + segs[k2] * j2 / (p_exp - 1.0))


def least_concave_majorant(r, w) -> ModulusOfContinuity:
    """Least concave nondecreasing majorant of nondecreasing samples on
    [0, 1]: the upper hull of the sample graph (anchored at (0, 0) when the
    samples do not include r = 0)."""
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(r)
    r, w = r[order], w[order]
    if r[0] > 0.0:
        r = np.concatenate([[0.0], r])
        w = np.concatenate([[0.0], w])
    # dedupe equal radii keeping the larger value
    r, first = np.unique(r, return_index=True)
    w = np.maximum.reduceat(w, first)
    hull = []
    for pt in zip(r.tolist(), w.tolist()):     # Python floats: same IEEE sums
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)
    hr = np.array([h[0] for h in hull])
    hw = np.array([h[1] for h in hull])
    return ModulusOfContinuity(lambda x: np.interp(x, hr, hw),
                               name="concave_majorant", samples_r=hr,
                               samples_w=hw)


def build_omega1(omega_coeff: ModulusOfContinuity,
                 cfg: ModulusPipelineConfig) -> ModulusOfContinuity:
    """First pipeline modulus: concave-majorized max(omega_coeff(gamma r) /
    delta_tilde, r), normalized to 1 at r = 1, then composed with sqrt.

    The sqrt substitution makes the result 1/2-decreasing; the recorded
    scale_factor is the normalization divisor, and samples_r / samples_w
    are the hull vertices (sigma^2, w): the result is the interpolant of
    w in sigma = sqrt r.
    """
    rs = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-14, 1.0, 600), np.linspace(0.0, 1.0, 257)]))
    raw = np.maximum(np.asarray(omega_coeff(cfg.gamma * rs)) / cfg.delta_tilde, rs)
    hull = least_concave_majorant(rs, raw)
    scale = float(hull(1.0))
    hr, hw = hull.samples_r, hull.samples_w / scale

    def fn(r):
        return np.interp(np.sqrt(r), hr, hw)

    return ModulusOfContinuity(fn, name="omega1", scale_factor=scale,
                               samples_r=hr ** 2, samples_w=hw)


def build_omega2(thin_grid, f_values: np.ndarray, cfg: ModulusPipelineConfig,
                 p: FracParams) -> ModulusOfContinuity:
    """Second pipeline modulus from the forcing data:
    max(gamma * I(gamma r) / delta_tilde, r) with
    I(r) = r^(2s-1) (mean over Q_r of f^2)^(1/2).

    Cylinder averages below the grid resolution, gamma r <
    thin_grid.min_radius(), are clamped to that finest resolvable radius.
    One call takes all its radii in one array-native cylinder_mean.
    """
    f_sq = np.asarray(f_values, dtype=float) ** 2
    floor = thin_grid.min_radius()

    def fn(r):
        gr = cfg.gamma * r
        avg = thin_grid.cylinder_mean(f_sq, thin_grid.center,
                                      np.maximum(gr, floor))
        intensity = _pow(gr, 2.0 * p.s - 1.0) * np.sqrt(np.maximum(avg, 0.0))
        return np.maximum(cfg.gamma * intensity / cfg.delta_tilde, r)

    return ModulusOfContinuity(fn, name="omega2")


def build_omega3_and_omega(omega1: ModulusOfContinuity,
                           omega2: ModulusOfContinuity,
                           cfg: ModulusPipelineConfig) -> ModulusOfContinuity:
    """Dyadic convolution omega3(lam^k) = sum_i omega1(lam^(k-i)) omega2(lam^i)
    and the final omega(lam^k) = max(omega3(lam^k), lam^(k/2)), with the
    1/2-decreasing monotone envelope for off-grid radii.

    The returned modulus's samples_r / samples_w are the radii lam^k and
    the values max(omega3(lam^k), lam^(k/2)), ascending in r.
    """
    kmax = cfg.kmax
    R = cfg.lam ** np.arange(kmax + 1)
    w1 = np.asarray(omega1(R), dtype=float)
    w2 = np.asarray(omega2(R), dtype=float)
    w3 = np.array([np.dot(w1[k::-1], w2[:k + 1]) for k in range(kmax + 1)])
    wg = np.maximum(w3, np.sqrt(R))

    def fn(r):
        r = np.asarray(r, dtype=float)
        pos = np.maximum(r, 0.0)
        # k with R[k+1] < r <= R[k], by bisection on the ascending radii
        k = np.clip(kmax - np.searchsorted(R[::-1], r), 0, kmax - 1)
        return np.where(
            r >= R[0], wg[0] * np.sqrt(pos / R[0]),
            np.where(r <= R[kmax], wg[kmax] * np.sqrt(pos / R[kmax]),
                     np.maximum(wg[k + 1], wg[k] * np.sqrt(pos / R[k]))))

    return ModulusOfContinuity(fn, name="omega", samples_r=R[::-1],
                               samples_w=wg[::-1])


@dataclass
class SummabilityReport:
    """Truncated pipeline sums against the explicit bound chain."""

    tuned_gamma: float
    partial_sums_omega1: np.ndarray
    partial_sums_omega2: np.ndarray
    partial_sums_omega: np.ndarray
    sum_omega1_data_part: float
    bound_omega1_data_part: float
    bound_omega1: float
    bound_omega2: float
    c_sum_claimed: float
    cauchy_tail: float
    holds: bool

    @property
    def sum_omega(self) -> float:
        return float(self.partial_sums_omega[-1])


def summability_check(omega_coeff: ModulusOfContinuity, thin_grid,
                      f_values: np.ndarray, p: FracParams,
                      cfg: ModulusPipelineConfig) -> SummabilityReport:
    """Verify the pipeline sums against their explicit bounds.

    gamma is tuned downward (halving) until the coefficient part of the
    omega1 sum is <= 1 via its bound
        omega_coeff(gamma)/delta_tilde
        + (1/((-log sqrt(lam)) delta_tilde)) int_0^gamma omega_coeff(t)/t dt.
    A non-Dini coefficient modulus surfaces as DiniDivergenceError here.

    The constructed omega1 is the normalized concave majorant, so its sum
    carries the majorant's factor-2 slack relative to the raw chain; the
    reported bound_omega1 includes that factor.
    """
    lam, dt = cfg.lam, cfg.delta_tilde
    gamma = cfg.gamma

    def data_part_bound(g):
        return (float(omega_coeff(g)) / dt
                + dini_integral(omega_coeff, g) / ((-math.log(math.sqrt(lam))) * dt))

    for _ in range(60):
        b1_data = data_part_bound(gamma)
        if b1_data <= 1.0:
            break
        gamma *= 0.5
    else:
        raise DiniDivergenceError(
            "could not tune gamma: coefficient sum bound stays above 1",
            np.array([]))
    cfg = replace(cfg, gamma=gamma)

    omega1 = build_omega1(omega_coeff, cfg)
    omega2 = build_omega2(thin_grid, f_values, cfg, p)
    omega = build_omega3_and_omega(omega1, omega2, cfg)

    ks = np.arange(cfg.kmax + 1)
    R = lam ** ks
    terms1 = np.asarray(omega1(R))
    terms2 = np.asarray(omega2(R))
    terms = omega.samples_w[::-1]
    geo_half = 1.0 / (1.0 - math.sqrt(lam))

    s1_data = float(np.sum(np.asarray(omega_coeff(gamma * lam ** (ks / 2.0))) / dt))
    b1 = 2.0 * b1_data + geo_half
    r_est = 2.0 * gamma
    c1 = estimate1_constant(p.s, lam, p.n)
    b2 = (c1 * gamma / dt) * riesz_potential_I2(
        thin_grid, f_values, thin_grid.center, min(r_est, 0.45), p.s) \
        + 1.0 / (1.0 - lam)
    c_sum = b1 * b2 + geo_half

    ps1 = np.cumsum(terms1)
    ps2 = np.cumsum(terms2)
    ps = np.cumsum(terms)
    tail = float(terms[-1])
    tol = 1e-9
    holds = (s1_data <= 1.0 + tol
             and ps1[-1] <= b1 * (1.0 + tol)
             and ps2[-1] <= b2 * (1.0 + tol)
             and ps[-1] <= c_sum * (1.0 + tol))
    return SummabilityReport(gamma, ps1, ps2, ps, s1_data, b1_data, b1, b2,
                             c_sum, tail, holds)


def _sqrt_interp_dini(omega):
    """The exact int_0^b omega(t)/t dt, as a function of an array b in
    (0, 1], when omega is the interpolant in sigma = sqrt t of its samples
    (sigma_i^2, w_i) anchored at (0, 0); None for any other omega.

    omega is checked at the vertices and at the sigma-midpoints of the
    pieces, in one call.  On the piece with slope m_i the integral is
    2 int w(sigma)/sigma dsigma
        = 2 [(w_i - m_i sigma_i) ln(sigma / sigma_i) + m_i (sigma - sigma_i)],
    2 m_0 sigma on the first piece; a per-vertex table sums the pieces
    below.
    """
    r, w = getattr(omega, "samples_r", None), getattr(omega, "samples_w", None)
    if w is None or w.size < 2 or r[0] != 0.0 or w[0] != 0.0:
        return None
    sig = np.sqrt(r)
    mid = 0.5 * (sig[1:] + sig[:-1])
    got = np.asarray(omega(np.concatenate([r, mid ** 2])), dtype=float)
    want = np.concatenate([w, 0.5 * (w[1:] + w[:-1])])
    if np.any(np.diff(sig) <= 0.0) or np.any(np.abs(got - want)
                                             > 1e-12 * np.max(np.abs(w))):
        return None
    m = np.diff(w) / np.diff(sig)
    c = w[:-1] - m * sig[:-1]
    logs = np.concatenate([[0.0], np.log(sig[2:] / sig[1:-1])])
    table = np.concatenate([[0.0], np.cumsum(2.0 * (c * logs + m * np.diff(sig)))])

    def dini(b):
        x = np.sqrt(b)
        i = np.clip(np.searchsorted(sig, x, side="right") - 1, 0, sig.size - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.where(i > 0, np.log(x / sig[i]), 0.0)
        return table[i] + 2.0 * (c[i] * log + m[i] * (x - sig[i]))
    return dini


def build_K(omega1: ModulusOfContinuity, g_profile: RearrangedProfile,
            p: FracParams, cfg: ModulusPipelineConfig) -> ModulusOfContinuity:
    """Gradient modulus K = K1 + K2 + K3:

       K1(r) = sup_a int_a^(a+sqrt r) omega1(t)/t dt
       K2(r) = sqrt(r)
       K3(r) = sup_a int_a^(a+C r) u^((2s-1)/(n+2)) (g**(u))^(1/2) du/u

    Both integrands are nonincreasing, so each sup sits at a = 0:
      - omega1 is a concave hull through (0, 0) read in sqrt t, so
        omega1(t)/sqrt t is nonincreasing, and so is omega1(t)/t;
      - g** is the running mean of the nonincreasing g*, and
        (2s-1)/(n+2) < 1/2 (lorentz._power_integral_table enforces it).

    omega1 must be made by build_omega1; K1 then reads a per-vertex table
    of it (see _sqrt_interp_dini), with omega1 extended past t = 1 by its
    constant value omega1(1).  K3 reads a per-plateau table of g (see
    lorentz._power_integral_table): each radius adds only the Gauss panels
    of its partial plateau.  K and its components (.components["K1"],
    ["K2"], ["K3"]) take an array of radii of any shape.

    cfg is unused: K depends on the pipeline constants only through omega1.
    It stays in the signature because perfbench/workloads.py passes it.
    """
    dini = _sqrt_interp_dini(omega1)
    if dini is None:
        raise ValueError("build_K needs omega1 from build_omega1: an "
                         "interpolant in sqrt r of its samples from (0, 0)")
    C = cylinder_measure_constant(p.n)
    omega1_at_1 = float(omega1(1.0))
    power_integral = _power_integral_table(g_profile,
                                           (2.0 * p.s - 1.0) / (p.n + 2.0))

    def K1(r):
        h = np.sqrt(r)
        return dini(np.minimum(h, 1.0)) + np.log(np.maximum(h, 1.0)) * omega1_at_1

    def K3(r):
        return power_integral(C * r)

    return ModulusOfContinuity(lambda r: K1(r) + np.sqrt(r) + K3(r), name="K",
                               components={"K1": K1, "K2": np.sqrt, "K3": K3})
