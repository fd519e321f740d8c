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
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import FracParams, _leggauss
from .lorentz import (
    PotentialSpec,
    RearrangedProfile,
    cylinder_measure_constant,
    estimate1_constant,
    profile_power_integral,
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


@dataclass
class ModulusOfContinuity:
    """Nondecreasing r -> omega(r) on (0, 1] with queryable regularity flags.

    Flags are tri-state: True (verified), False (refuted), None (unchecked).
    scale_factor records any normalization applied during construction.
    """

    fn: object
    name: str = ""
    is_dini: bool | None = None
    is_concave: bool | None = None
    is_half_decreasing: bool | None = None
    scale_factor: float = 1.0
    samples_r: np.ndarray | None = None
    samples_w: np.ndarray | None = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.fn(r), dtype=float)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_callable(cls, fn, name="", **flags):
        return cls(fn=fn, name=name, **flags)

    @classmethod
    def from_samples(cls, r, w, name="", **flags):
        r = np.asarray(r, dtype=float)
        w = np.asarray(w, dtype=float)
        order = np.argsort(r)
        r, w = r[order], w[order]
        if r[0] > 0.0:
            r = np.concatenate([[0.0], r])
            w = np.concatenate([[0.0], w])

        def fn(x):
            return np.interp(np.asarray(x, dtype=float), r, w)

        return cls(fn=fn, name=name, samples_r=r, samples_w=w, **flags)

    def check_monotone(self, rs) -> bool:
        vals = self(np.asarray(rs))
        return bool(np.all(np.diff(vals) >= -1e-12 * np.maximum(vals[:-1], 1e-300)))

    def check_half_decreasing(self, rs) -> bool:
        rs = np.sort(np.asarray(rs, dtype=float))
        h = self(rs) / np.sqrt(rs)
        ok = np.all(np.diff(h) <= 1e-10 * np.maximum(h[:-1], 1e-300))
        self.is_half_decreasing = bool(ok) if ok else False
        return bool(ok)


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

    def to_json_dict(self) -> dict:
        return {"gamma": self.gamma, "delta_tilde": self.delta_tilde,
                "lambda": self.lam, "kmax": self.kmax}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModulusPipelineConfig":
        return cls(gamma=d["gamma"], delta_tilde=d["delta_tilde"],
                   lam=d["lambda"], kmax=int(d["kmax"]))


def dini_integral(omega, a: float, b: float, tol: float = 1e-10,
                  max_segments: int = 900) -> float:
    """int_a^b omega(t)/t dt honoring the integrable singularity at 0.

    For a = 0 the interval is split dyadically towards 0; the tail beyond
    the deepest segment is extrapolated from the observed decay of the
    segment sums.  If the segment sums do not decay summably the integral
    is declared divergent (refuting the Dini property) and a
    DiniDivergenceError carrying the partial sums is raised.
    """
    if a < 0.0 or b <= a:
        raise ValueError("need 0 <= a < b")
    if b > 1.0 + 1e-12:
        raise ValueError("dini integral is restricted to (0, 1]")
    xg, wg = _leggauss(16)

    def segment(lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        t = mid + half * xg
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(omega(t), dtype=float) / t
        return half * np.dot(wg, np.nan_to_num(vals, nan=0.0, posinf=0.0))

    if a > 0.0:
        n_panels = max(1, int(math.ceil(math.log(b / a) / math.log(2.0))))
        edges = np.geomspace(a, b, n_panels + 1)
        return float(sum(segment(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])))

    # a = 0: dyadic segments [b 2^-(k+1), b 2^-k], all nodes in one batch;
    # stop well above the subnormal range so underflow cannot fake decay
    K = min(max_segments, int(math.floor(math.log2(b / 1e-280))))
    ks = np.arange(K)
    his = b * 0.5 ** ks
    los = his * 0.5
    mids = 0.5 * (his + los)
    halfs = 0.5 * (his - los)
    t = (mids[:, None] + halfs[:, None] * xg[None, :]).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(omega(t), dtype=float) / t
    vals = np.nan_to_num(vals.reshape(K, -1), nan=0.0, posinf=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        segs = halfs * (vals @ wg)
        partial = np.cumsum(segs)
    if not np.all(np.isfinite(partial)):
        raise DiniDivergenceError(
            "omega(t)/t integral overflows under dyadic refinement", partial)

    small = np.nonzero(segs < tol * max(partial[-1], 1.0))[0]
    if small.size and small[0] >= 2:
        K_eff = int(small[0])
        ratio = segs[K_eff] / max(segs[K_eff - 1], 1e-300)
        tail = segs[K_eff] * ratio / (1.0 - ratio) if ratio < 0.9 else 0.0
        return float(partial[K_eff] + tail)
    if small.size:
        return float(partial[-1])
    # extrapolate: fit segment decay s_k ~ c k^-p on the last stretch
    k1, k2 = K // 2, K - 1
    with np.errstate(divide="ignore"):
        p_exp = math.log(max(segs[k1], 1e-300) / max(segs[k2], 1e-300)) \
            / math.log(k2 / k1)
    if p_exp <= 1.05:
        raise DiniDivergenceError(
            f"omega(t)/t integral not Cauchy: segment decay exponent "
            f"{p_exp:.3f} <= 1 after {K} dyadic refinements", partial)
    tail = segs[k2] * k2 / (p_exp - 1.0)
    return float(partial[-1] + tail)


def verify_dini(omega: ModulusOfContinuity, b: float = 1.0) -> bool:
    """Set (and return) the is_dini flag by attempting the singular integral."""
    try:
        dini_integral(omega, 0.0, b)
    except DiniDivergenceError:
        omega.is_dini = False
        return False
    omega.is_dini = True
    return True


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
    keep_r, keep_w = [r[0]], [w[0]]
    for ri, wi in zip(r[1:], w[1:]):
        if ri == keep_r[-1]:
            keep_w[-1] = max(keep_w[-1], wi)
        else:
            keep_r.append(ri)
            keep_w.append(wi)
    pts = list(zip(keep_r, keep_w))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)
    hr = np.array([h[0] for h in hull])
    hw = np.array([h[1] for h in hull])
    return ModulusOfContinuity.from_samples(hr, hw, name="concave_majorant",
                                            is_concave=True)


def build_omega1(omega_coeff: ModulusOfContinuity,
                 cfg: ModulusPipelineConfig,
                 n_samples: int = 600) -> ModulusOfContinuity:
    """First pipeline modulus: concave-majorized max(omega_coeff(gamma r) /
    delta_tilde, r), normalized to 1 at r = 1, then composed with sqrt.

    The sqrt substitution makes the result 1/2-decreasing; the recorded
    scale_factor is the normalization divisor.
    """
    if cfg.gamma >= cfg.delta_tilde:
        raise ValueError("need gamma < delta_tilde")
    rs = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-14, 1.0, n_samples), np.linspace(0.0, 1.0, 257)]))
    raw = np.maximum(np.asarray(omega_coeff(cfg.gamma * rs)) / cfg.delta_tilde, rs)
    hull = least_concave_majorant(rs, raw)
    scale = float(hull(1.0))
    tilde = ModulusOfContinuity.from_samples(
        hull.samples_r, hull.samples_w / scale, name="omega1_tilde",
        is_concave=True)

    def fn(r):
        return tilde(np.sqrt(np.asarray(r, dtype=float)))

    out = ModulusOfContinuity.from_callable(
        fn, name="omega1", is_concave=True, is_half_decreasing=True)
    out.scale_factor = scale
    out.tilde = tilde
    return out


def build_omega2(thin_grid, f_values: np.ndarray, cfg: ModulusPipelineConfig,
                 p: FracParams) -> ModulusOfContinuity:
    """Second pipeline modulus from the forcing data:
    max(gamma * I(gamma r) / delta_tilde, r) with
    I(r) = r^(2s-1) (mean over Q_r of f^2)^(1/2).

    Cylinder averages below the grid resolution clamp to the finest
    resolvable radius; the clamp count is recorded on the result.
    """
    f_values = np.asarray(f_values, dtype=float)
    f_sq = f_values ** 2
    floor = thin_grid.min_radius()
    diagnostics = {"clamped_evaluations": 0}
    s = p.s

    def intensity(r):
        r_eff = max(float(r), floor)
        if r_eff > float(r):
            diagnostics["clamped_evaluations"] += 1
        avg = thin_grid.cylinder_mean(f_sq, thin_grid.center, r_eff)
        return float(r) ** (2.0 * s - 1.0) * math.sqrt(max(avg, 0.0))

    def fn(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.array([max(cfg.gamma * intensity(cfg.gamma * ri)
                            / cfg.delta_tilde, ri) for ri in r])
        return out if out.size > 1 else out.reshape(())

    out = ModulusOfContinuity.from_callable(fn, name="omega2")
    out.diagnostics = diagnostics
    return out


def build_omega3_and_omega(omega1: ModulusOfContinuity,
                           omega2: ModulusOfContinuity,
                           cfg: ModulusPipelineConfig) -> ModulusOfContinuity:
    """Dyadic convolution omega3(lam^k) = sum_i omega1(lam^(k-i)) omega2(lam^i)
    and the final omega(lam^k) = max(omega3(lam^k), lam^(k/2)), with the
    1/2-decreasing monotone envelope for off-grid radii.

    The returned modulus carries dyadic_radii / dyadic_values / omega3_values.
    """
    kmax = cfg.kmax
    R = cfg.lam ** np.arange(kmax + 1)
    w1 = np.asarray(omega1(R), dtype=float)
    w2 = np.asarray(omega2(R), dtype=float)
    w3 = np.array([np.dot(w1[k::-1], w2[:k + 1]) for k in range(kmax + 1)])
    wg = np.maximum(w3, np.sqrt(R))

    lam = cfg.lam

    def fn(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        for idx, ri in enumerate(r):
            if ri >= R[0]:
                out[idx] = wg[0] * math.sqrt(ri / R[0]) if ri > R[0] else wg[0]
            elif ri <= R[kmax]:
                out[idx] = wg[kmax] * math.sqrt(max(ri, 0.0) / R[kmax])
            else:
                k = int(math.floor(math.log(ri) / math.log(lam)))
                k = min(max(k, 0), kmax - 1)
                while k > 0 and ri > R[k]:          # guard log rounding
                    k -= 1
                while k < kmax - 1 and ri <= R[k + 1]:
                    k += 1
                out[idx] = max(wg[k + 1], wg[k] * math.sqrt(ri / R[k]))
        return out if out.size > 1 else out.reshape(())

    out = ModulusOfContinuity.from_callable(fn, name="omega",
                                            is_half_decreasing=True)
    out.dyadic_radii = R
    out.dyadic_values = wg
    out.omega3_values = w3
    return out


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
    def sum_omega1(self) -> float:
        return float(self.partial_sums_omega1[-1])

    @property
    def sum_omega2(self) -> float:
        return float(self.partial_sums_omega2[-1])

    @property
    def sum_omega(self) -> float:
        return float(self.partial_sums_omega[-1])


def summability_check(omega_coeff: ModulusOfContinuity, thin_grid,
                      f_values: np.ndarray, p: FracParams,
                      cfg: ModulusPipelineConfig,
                      tune_gamma: bool = True) -> SummabilityReport:
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
                + dini_integral(omega_coeff, 0.0, g) / ((-math.log(math.sqrt(lam))) * dt))

    if tune_gamma:
        for _ in range(60):
            if data_part_bound(gamma) <= 1.0:
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
    terms = omega.dyadic_values
    geo_half = 1.0 / (1.0 - math.sqrt(lam))

    s1_data = float(np.sum(np.asarray(omega_coeff(gamma * lam ** (ks / 2.0))) / dt))
    b1_data = data_part_bound(gamma)
    b1 = 2.0 * b1_data + geo_half
    r_est = 2.0 * gamma
    spec1 = PotentialSpec(thin_grid.center, min(r_est, 0.45), lam, p.s, p.n)
    c1 = estimate1_constant(p.s, lam, p.n)
    b2 = (c1 * gamma / dt) * riesz_potential_I2(thin_grid, f_values, spec1) \
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


def build_K(omega1: ModulusOfContinuity, g_profile: RearrangedProfile,
            p: FracParams, cfg: ModulusPipelineConfig,
            scan_points: int = 21) -> ModulusOfContinuity:
    """Gradient modulus K = K1 + K2 + K3:

       K1(r) = sup_a int_a^(a+sqrt r) omega1(t)/t dt
       K2(r) = sqrt(r)
       K3(r) = sup_a int_a^(a+C r) u^((2s-1)/(n+2)) (g**(u))^(1/2) du/u

    For the nonincreasing integrands at hand the sup sits at a = 0; the
    log-spaced a-scan certifies this numerically rather than assuming it.
    Each scan is one Gauss contraction over all shifts a > 0 at once.
    """
    C = cylinder_measure_constant(p.n)
    alpha = (2.0 * p.s - 1.0) / (p.n + 2.0)
    a_scan = np.geomspace(1e-6, 2.0, scan_points)
    xg, wg = _leggauss(32)

    def scan_max(fn_over_t, h):
        """max over a in a_scan of int_a^(a+h) fn_over_t(t) dt."""
        lo, hi = a_scan, a_scan + h
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * xg
        vals = np.asarray(fn_over_t(t.ravel()), dtype=float).reshape(t.shape)
        return float(np.max(half * (vals @ wg)))

    def K1(r):
        h = math.sqrt(r)
        best = dini_integral(omega1, 0.0, min(h, 1.0))
        if h > 1.0:
            best += math.log(h) * float(omega1(1.0))  # constant extension
        return max(best, scan_max(lambda t: omega1(np.minimum(t, 1.0)) / t, h))

    def K3(r):
        h = C * r
        best = profile_power_integral(g_profile, alpha, h)
        return max(best, scan_max(
            lambda u: u ** (alpha - 1.0)
            * np.sqrt(np.maximum(g_profile.double_star(u), 0.0)), h))

    def fn(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.array([K1(ri) + math.sqrt(ri) + K3(ri) for ri in r])
        return out if out.size > 1 else out.reshape(())

    out = ModulusOfContinuity.from_callable(fn, name="K",
                                            is_half_decreasing=None)
    out.components = {"K1": K1, "K2": math.sqrt, "K3": K3}
    return out


def export_modulus_csv(omega: ModulusOfContinuity, path, rs=None):
    """Write an (r, omega(r)) table."""
    if rs is None:
        rs = np.geomspace(1e-6, 1.0, 121)
    rs = np.asarray(rs, dtype=float)
    np.savetxt(path, np.column_stack([rs, omega(rs)]), delimiter=",",
               header="r,omega", comments="")
