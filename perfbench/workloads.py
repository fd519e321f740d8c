"""The four benchmark workloads, each a closed loop over cases built from a
seeded generator.

A workload has three parts:
  make(rng)        builds the inputs of one pass (the library sees only these);
  run(case, tr)    calls fracheat's public functions on them and returns the
                   raw numeric outputs of the case;
  check(outputs)   names every invariant the outputs break.

Tolerances are fixed here, from the worst case measured over each
workload's whole parameter box with a margin of about 3x, so a change that
alters answers shows up as a failed case rather than as a speed-up.
"""

from __future__ import annotations

import math
import traceback
import warnings
from dataclasses import dataclass, replace

import numpy as np

from fracheat.dtn import cosine_extension_data, extract_dtn
from fracheat.extension import CoefficientField, solve_extension
from fracheat.generators import (
    coefficient_generator,
    modulus_generator,
    thin_data_generator,
)
from fracheat.grids import ParabolicGrid, ThinGrid
from fracheat.kernels import FracParams, QuadratureSpec, frac_heat_apply
from fracheat.lorentz import (
    decreasing_rearrangement,
    estimate2_check,
    gridded_to_sampled,
)
from fracheat.moduli import (
    ModulusPipelineConfig,
    build_K,
    build_omega1,
    build_omega2,
    build_omega3_and_omega,
    summability_check,
)
from fracheat.probe import excess_sequence, gradient_modulus_probe

# Sup relative errors against the closed form |xi|^(2s) cos(xi x), by n.
# Worst measured over s in [0.6, 0.9], xi in [1, 3]: extension 1.5e-2 at
# n = 1 on 128^3 and 9.4e-2 at n = 2 on 24^3 (both s = 0.9, xi = 3); direct
# quadrature 6.5e-4 (n = 1, s = 0.6, xi = 3).
DTN_TOL = {1: 0.05, 2: 0.3}
QUAD_TOL = 2e-3
# solve_extension's own budget at its default rtol: max(100 rtol, 1e-9)
BACKWARD_BUDGET = 1e-9
S_RANGE = (0.6, 0.9)
XI_RANGE = (1.0, 3.0)
# compared cells: |x - center| <= INTERIOR * rho, as in dtn_vs_direct
INTERIOR = 0.5


def _draw_s_xi(rng):
    return float(rng.uniform(*S_RANGE)), float(rng.uniform(*XI_RANGE))


def _points(t, x):
    return len(t)


def _k_shape_ok(radii, values):
    """K nondecreasing and r -> K(r)/sqrt(r) nonincreasing on ascending
    radii, to the tolerances of ModulusOfContinuity's own checks."""
    mono = np.all(np.diff(values) >= -1e-12 * np.maximum(values[:-1], 1e-300))
    h = values / np.sqrt(radii)
    half = np.all(np.diff(h) <= 1e-10 * np.maximum(h[:-1], 1e-300))
    return bool(mono), bool(half)


# -- dual route: extension + DtN against direct subordination -------------

def _extend(p, xi, grid, tr):
    with tr.span("dtn.cosine_data"):
        data = cosine_extension_data(p, xi)
    with tr.span("extension.solve"):
        U = solve_extension(grid, CoefficientField.identity(grid.n),
                            f=tr.wrap(data["f"], "extension.data"),
                            lateral_dirichlet=tr.wrap(data["lateral"],
                                                      "extension.data"),
                            initial=tr.wrap(data["initial"], "extension.data"))
    with tr.span("dtn.extract"):
        ext = extract_dtn(U, p)
    return data, U, ext


def _apply_direct(data, p, pts, tr):
    u = tr.wrap(data["u"], "kernels.u", points=_points)
    with tr.span("kernels.apply"), warnings.catch_warnings():
        # non-convergence is recorded from the diagnostics instead
        warnings.simplefilter("ignore", RuntimeWarning)
        return frac_heat_apply(u, p, QuadratureSpec(), pts,
                               check_convergence=True)


def dual_route(p, xi, grid, tr) -> dict:
    """dtn_vs_direct composed call by call at n = 1 (default quadrature,
    interior half of the x-range), with the refinement diagnostics of the
    direct quadrature and the solve's health added."""
    data, U, ext = _extend(p, xi, grid, tr)

    X = grid.x_centers[0]
    keep_x = np.abs(X - grid.center[1]) <= INTERIOR * grid.rho
    keep_t = (grid.t_nodes >= grid.center[0]) & (grid.t_nodes <= grid.t_range[1])

    pts = np.column_stack([np.zeros(keep_x.sum()), X[keep_x]])
    direct_line, diag = _apply_direct(data, p, pts, tr)
    closed_line = data["exact"](0.0, X[keep_x])

    ext_block = ext.values[np.ix_(keep_t, keep_x)]
    flag_block = ext.flagged[np.ix_(keep_t, keep_x)]
    direct_block = np.broadcast_to(direct_line, ext_block.shape)
    closed_block = np.broadcast_to(closed_line, ext_block.shape)

    ok = ~flag_block
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
        **_dual_health(U, grid, diag),
    }


def dual_route_2d(p, xi, grid, tr) -> dict:
    """The same identity at n = 2: the extracted DtN against the closed form
    on unflagged interior cells, and the direct quadrature (with its
    refinement check) at the four cells nearest (+-rho/4, +-rho/4)."""
    data, U, ext = _extend(p, xi, grid, tr)

    X1, X2 = grid.x_centers
    keep_t = (grid.t_nodes >= grid.center[0]) & (grid.t_nodes <= grid.t_range[1])
    keep_x = np.multiply.outer(
        np.abs(X1 - grid.center[1]) <= INTERIOR * grid.rho,
        np.abs(X2 - grid.center[2]) <= INTERIOR * grid.rho)
    closed = data["exact"](0.0, X1[:, None], X2[None, :]) * np.ones(keep_x.shape)
    ext_block = ext.values[keep_t][:, keep_x]
    flag_block = ext.flagged[keep_t][:, keep_x]
    closed_block = np.broadcast_to(closed[keep_x], ext_block.shape)
    ok = ~flag_block
    scale = float(np.max(np.abs(closed_block)))
    sup_ec = float(np.max(np.abs(ext_block - closed_block)[ok]) / scale)

    quarter = [int(np.argmin(np.abs(X1 - grid.center[1] - sgn * grid.rho / 4)))
               for sgn in (-1.0, 1.0)]
    cells = [(i, j) for i in quarter for j in quarter]
    pts = np.array([[0.0, X1[i], X2[j]] for i, j in cells])
    direct, diag = _apply_direct(data, p, pts, tr)
    closed_pts = np.array([closed[i, j] for i, j in cells])
    ext_pts = np.stack([ext.values[keep_t][:, i, j] for i, j in cells], axis=1)
    return {
        "xi": xi, "s": p.s,
        "sup_extension_vs_closed": sup_ec,
        "sup_direct_vs_closed": float(np.max(np.abs(direct - closed_pts)) / scale),
        "sup_extension_vs_direct": float(np.max(np.abs(ext_pts - direct)) / scale),
        "cells_compared": int(ok.sum()), "cells_flagged": int(flag_block.sum()),
        "grid": {"nt": grid.nt, "nx": grid.nx, "ny": grid.ny},
        **_dual_health(U, grid, diag),
    }


def _dual_health(U, grid, diag) -> dict:
    return {"n": grid.n, "backward_error": float(U.meta["residual"]),
            "unknowns": int(np.prod(grid.spatial_shape)), "steps": grid.nt,
            "converged": bool(diag.converged),
            "refine_delta": float(diag.max_difference),
            "direct_values": np.asarray(diag.values).tolist()}


def check_dual(out: dict) -> list[str]:
    bad = []
    if not out["backward_error"] <= BACKWARD_BUDGET:
        bad.append("backward_error")
    if not out["sup_extension_vs_closed"] <= DTN_TOL[out["n"]]:
        bad.append("dtn_err")
    if not out["sup_direct_vs_closed"] <= QUAD_TOL:
        bad.append("quad_err")
    if not np.all(np.isfinite(out["direct_values"])):
        bad.append("direct_values")
    return bad


def make_dtn_dual_route(rng):
    cases = []
    for _ in range(3):
        s, xi = _draw_s_xi(rng)
        p = FracParams(s)
        cases.append({"p": p, "xi": xi,
                      "grid": ParabolicGrid(p, nt=128, nx=128, ny=128)})
    return cases


def run_dtn_dual_route(case, tr):
    return dual_route(case["p"], case["xi"], case["grid"], tr)


def make_dtn_dual_route_2d(rng):
    s, xi = _draw_s_xi(rng)
    p = FracParams(s, n=2)
    return [{"p": p, "xi": xi, "grid": ParabolicGrid(p, nt=24, nx=24, ny=24)}]


def run_dtn_dual_route_2d(case, tr):
    return dual_route_2d(case["p"], case["xi"], case["grid"], tr)


# -- modulus pipeline: Dini coefficient modulus, rough critical data ------

def make_modulus_pipeline(rng):
    s = float(rng.uniform(*S_RANGE))
    p = FracParams(s)
    tg = ThinGrid(1, 1.0, 32, 64)
    T, X = tg.meshgrid()
    rough = thin_data_generator("random_fourier", p,
                                seed=int(rng.integers(0, 2 ** 31)))
    critical = thin_data_generator("truncated_power", p)
    return [{"p": p, "tg": tg, "f": rough(T, X) + critical(T, X),
             "omega_coeff": modulus_generator("inv_log_sq"),
             "cfg": ModulusPipelineConfig()}]


def run_modulus_pipeline(case, tr):
    p, tg, f, cfg = case["p"], case["tg"], case["f"], case["cfg"]
    omega_coeff = case["omega_coeff"]
    with tr.span("moduli.summability"):
        rep = summability_check(omega_coeff, tg, f, p, cfg)
    tuned = replace(cfg, gamma=rep.tuned_gamma)
    with tr.span("moduli.build_omega1"):
        omega1 = build_omega1(omega_coeff, tuned)
    with tr.span("lorentz.rearrange"):
        profile = decreasing_rearrangement(gridded_to_sampled(tg, f ** 2))
    with tr.span("moduli.build_K"):
        K = build_K(omega1, profile, p, tuned)
    K = tr.wrap(K, "moduli.K")
    radii = tuned.lam ** np.arange(4, -1, -1.0)
    k_values = np.array([K(r) for r in radii])
    with tr.span("lorentz.estimate2"):
        lhs, rhs, holds2 = estimate2_check(tg, f, tg.center, 0.5, p.s)
    return {"s": p.s, **_pipeline_outputs(cfg, rep, lhs, rhs, holds2),
            "plateaus": int(profile.plateaus.size),
            "K_radii": radii.tolist(), "K_values": k_values.tolist()}


def _pipeline_outputs(cfg, rep, lhs, rhs, holds2) -> dict:
    return {"summability_holds": bool(rep.holds),
            "tuned_gamma": rep.tuned_gamma,
            "gamma_halvings": int(round(math.log2(cfg.gamma / rep.tuned_gamma))),
            "sum_omega": rep.sum_omega, "c_sum_claimed": rep.c_sum_claimed,
            "estimate2_lhs": lhs, "estimate2_rhs": rhs,
            "estimate2_holds": bool(holds2)}


def _check_K(out: dict) -> list[str]:
    radii, values = np.asarray(out["K_radii"]), np.asarray(out["K_values"])
    if not np.all(np.isfinite(values)):
        return ["K_values"]
    mono, half = _k_shape_ok(radii, values)
    return ([] if mono else ["K_nondecreasing"]) \
        + ([] if half else ["K_half_decreasing"])


def _check_pipeline(out: dict) -> list[str]:
    return [k for k in ("summability_holds", "estimate2_holds")
            if not out[k]] + _check_K(out)


# -- regularity probe: varying-coefficient solve, excess decay, pairs -----

PROBE_LAM = 0.25
PROBE_KMAX = 6
PROBE_PAIRS = 200


def make_regularity_probe(rng):
    s, xi = _draw_s_xi(rng)
    p = FracParams(s)
    forcing = thin_data_generator("cosine", p, xi=xi)
    # a coarse thin lattice keeps the forcing's rearrangement to a few
    # plateaus, so each K evaluation is cheap and the probe makes many
    thin = ThinGrid(1, 1.0, 16, 16)
    f_thin = forcing(*thin.meshgrid()) * np.ones(thin.shape)
    return [{"p": p, "xi": xi,
             "grid": ParabolicGrid(p, nt=48, nx=48, ny=48),
             "coeff": coefficient_generator("dini_bump", n=1, eps=0.2,
                                            modulus="inv_log_sq"),
             "forcing": forcing, "thin": thin, "f_thin": f_thin,
             "cfg": ModulusPipelineConfig(),
             "probe_seed": int(rng.integers(0, 2 ** 31))}]


def run_regularity_probe(case, tr):
    p, grid, cfg = case["p"], case["grid"], case["cfg"]
    thin, f_thin = case["thin"], case["f_thin"]
    osc = case["coeff"].modulus
    with tr.span("extension.solve"):
        U = solve_extension(grid, case["coeff"],
                            f=tr.wrap(case["forcing"], "extension.data"))
    with tr.span("moduli.summability"):
        summ = summability_check(osc, thin, f_thin, p, cfg)
    tuned = replace(cfg, gamma=summ.tuned_gamma)
    with tr.span("moduli.build_omega"):
        omega1 = build_omega1(osc, tuned)
        omega = build_omega3_and_omega(
            omega1, build_omega2(thin, f_thin, tuned, p), tuned)
    with tr.span("lorentz.rearrange"):
        profile = decreasing_rearrangement(gridded_to_sampled(thin, f_thin ** 2))
    with tr.span("moduli.build_K"):
        K = build_K(omega1, profile, p, tuned)
    K = tr.wrap(K, "moduli.K")
    with tr.span("probe.excess"):
        seq = excess_sequence(U, PROBE_LAM, PROBE_KMAX, omega)
    with tr.span("probe.gradient"):
        rep = gradient_modulus_probe(U, K, n_pairs=PROBE_PAIRS,
                                     seed=case["probe_seed"])
    radii = PROBE_LAM ** np.arange(3, -1, -1.0)
    k_values = np.array([K(r) for r in radii])
    with tr.span("lorentz.estimate2"):
        lhs, rhs, holds2 = estimate2_check(thin, f_thin, thin.center, 0.5, p.s)
    constants = [rep.C_emp_interior, rep.C_emp_boundary, rep.C_emp_time]
    return {"s": p.s, "xi": case["xi"],
            **_pipeline_outputs(cfg, summ, lhs, rhs, holds2),
            "backward_error": float(U.meta["residual"]),
            "unknowns": int(np.prod(grid.spatial_shape)), "steps": grid.nt,
            "plateaus": int(profile.plateaus.size),
            "radii": int(seq.radii.size), "radii_requested": PROBE_KMAX + 1,
            "excess": seq.excess.tolist(), "excess_ratios": seq.ratios.tolist(),
            "pairs": int(rep.pair_distances.size), "pairs_requested": PROBE_PAIRS,
            "time_pairs": rep.n_time,
            "C_emp": constants, "geometry_ok": bool(rep.geometry_ok),
            "K_radii": radii.tolist(), "K_values": k_values.tolist()}


def check_regularity_probe(out: dict) -> list[str]:
    bad = ([] if out["geometry_ok"] else ["geometry_ok"]) + _check_pipeline(out)
    if not out["backward_error"] <= BACKWARD_BUDGET:
        bad.append("backward_error")
    if not np.all(np.isfinite(out["C_emp"])):
        bad.append("C_emp")
    return bad


# -- registry --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    run: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("dtn_dual_route", make_dtn_dual_route, run_dtn_dual_route,
             check_dual),
    Workload("dtn_dual_route_2d", make_dtn_dual_route_2d,
             run_dtn_dual_route_2d, check_dual),
    Workload("modulus_pipeline", make_modulus_pipeline, run_modulus_pipeline,
             _check_pipeline),
    Workload("regularity_probe", make_regularity_probe, run_regularity_probe,
             check_regularity_probe),
)}


def run_case(workload: Workload, case, tr) -> dict:
    """One case with its verdict.  An exception is the case's failure, not
    the run's: it is recorded and the loop goes on."""
    try:
        out = workload.run(case, tr)
    except Exception:  # noqa: BLE001 - the case boundary records any failure
        return {"outputs": None, "failed": ["raised"],
                "error": traceback.format_exc(limit=4)}
    return {"outputs": out, "failed": workload.check(out), "error": None}
