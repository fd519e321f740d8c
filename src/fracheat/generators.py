"""Named generators for experiment inputs: modulus families, coefficient
fields and thin forcing data f.

Each generator is fixed by its (name, params), so an input is reproducible
from them alone; anything random is a fixed finite Fourier sum drawn from a
seeded generator, which keeps the data a closed-form function (stable under
grid refinement).
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import FracParams
from .moduli import ModulusOfContinuity
from .extension import CoefficientField

__all__ = [
    "modulus_generator",
    "coefficient_generator",
    "thin_data_generator",
    "critical_power_exponent",
]

_EPS_FLOOR = 1e-300


def critical_power_exponent(s: float, n: int) -> float:
    """theta = n (2s-1)/(n+2): the time-independent |x|^-theta then lies in
    L((n+2)/(2s-1), infinity) over a space-time cylinder, not in the
    L((n+2)/(2s-1), 1) of the theorem's hypothesis.  Its gradient is
    Hoelder with exponent 2s-1-theta (1/3 at s = 3/4, n = 1), so these
    data do not sit at the threshold of gradient continuity."""
    return n * (2.0 * s - 1.0) / (n + 2.0)


def modulus_generator(name: str, **params) -> ModulusOfContinuity:
    """Modulus families:

    zero          0
    lipschitz     L r
    log_dini      L r log(e/r)        (Dini, not Lipschitz)
    inv_log_sq    c / log(e/r)^2      (Dini, not Hoelder)
    power         c r^alpha
    """
    L = params.get("L", 1.0)
    c = params.get("c", 1.0)
    alpha = params.get("alpha", 0.5)
    if name == "zero":
        fn = lambda r: 0.0 * np.asarray(r, dtype=float)
    elif name == "lipschitz":
        fn = lambda r: L * np.asarray(r, dtype=float)
    elif name == "log_dini":
        fn = lambda r: np.where(
            np.asarray(r) > 0,
            L * np.asarray(r, dtype=float)
            * np.log(np.e / np.maximum(r, _EPS_FLOOR)), 0.0)
    elif name == "inv_log_sq":
        fn = lambda r: np.where(
            np.asarray(r) > 0,
            c * np.log(np.e / np.maximum(r, _EPS_FLOOR)) ** -2.0, 0.0)
    elif name == "power":
        fn = lambda r: c * np.asarray(r, dtype=float) ** alpha
    else:
        raise KeyError(f"unknown modulus generator '{name}'")
    return ModulusOfContinuity(fn, name=name)


def _bump_profile(modulus, eps):
    def eta(r):
        return eps * np.asarray(modulus(np.minimum(np.abs(r), 1.0)),
                                dtype=float)
    return eta


def coefficient_generator(name: str, n: int = 1, **params) -> CoefficientField:
    """Coefficient families, diagonal (see CoefficientField):

    identity       A = I
    dini_bump      A = I + eps eta(|x|) I, eta = modulus_generator(modulus)
                   (default "log_dini") at min(|x|, 1)
    checkerboard   A = I + eps prod_d sin(3 pi x_d) I
    """
    eps = params.get("eps", 0.1)
    if name == "identity":
        return CoefficientField.identity(n)

    if name == "dini_bump":
        mod = modulus_generator(params.get("modulus", "log_dini"))
        eta = _bump_profile(mod, eps)

        def fn(x):
            r = np.linalg.norm(x, axis=1)
            return np.repeat(1.0 + eta(r)[:, None], n, axis=1)

        osc = ModulusOfContinuity(
            lambda r: 2.0 * eps * np.asarray(mod(np.minimum(r, 1.0)), dtype=float),
            name=f"osc_{name}")
        amp = eps * float(mod(1.0))
        return CoefficientField(fn=fn, n=n, lam_ell=1.0 - amp,
                                Lam_ell=1.0 + amp, modulus=osc,
                                name=name)

    if name == "checkerboard":
        k = 3.0

        def fn(x):
            pattern = np.prod(np.sin(math.pi * k * x), axis=1)
            return np.repeat(1.0 + eps * pattern[:, None], n, axis=1)

        osc = ModulusOfContinuity(
            lambda r: 2.0 * eps
            * np.minimum(math.pi * k * np.asarray(r, dtype=float), 1.0),
            name=f"osc_{name}")
        return CoefficientField(fn=fn, n=n, lam_ell=1.0 - eps,
                                Lam_ell=1.0 + eps, modulus=osc, name=name)

    raise KeyError(f"unknown coefficient generator '{name}'")


def thin_data_generator(name: str, p: FracParams | None = None, **params):
    """Forcing families on the thin space, as callables f(t, x...):

    cosine(amp, xi)                    amp cos(xi x_1)
    truncated_power(amp, trunc, theta) amp max(|x|, trunc)^-theta, theta by
                                       default critical_power_exponent of p
                                       (in L(q, infinity), q = (n+2)/(2s-1),
                                       not in L(q, 1))
    random_fourier(seed, modes, amp)   a seeded sum of cos(pi w x_1 + phase)
                                       cos(nu t + phase) modes
    """
    n = p.n if p is not None else params.get("n", 1)
    amp = params.get("amp", 1.0)
    if name == "cosine":
        xi = params.get("xi", 1.0)
        return lambda t, *x: amp * np.cos(xi * x[0]) + 0.0 * np.asarray(t)
    if name == "truncated_power":
        theta = params.get("theta")
        if theta is None:
            if p is None:
                raise ValueError("truncated_power needs theta or FracParams")
            theta = critical_power_exponent(p.s, n)
        trunc = params.get("trunc", 0.02)

        def f(t, *x):
            r = np.sqrt(sum(np.asarray(xd, dtype=float) ** 2 for xd in x))
            return amp * np.maximum(r, trunc) ** -theta \
                + 0.0 * np.asarray(t, dtype=float)
        return f
    if name == "random_fourier":
        seed = params.get("seed", 0)
        modes = params.get("modes", 4)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(scale=amp, size=modes)
        oms = rng.integers(1, 5, size=modes)
        nus = rng.integers(0, 4, size=modes)
        phs = rng.uniform(0, 2 * math.pi, size=(2, modes))

        def f(t, *x):
            t = np.asarray(t, dtype=float)
            out = 0.0
            for k in range(modes):
                sp = np.cos(oms[k] * math.pi * x[0] + phs[0, k])
                out = out + coefs[k] * sp * np.cos(nus[k] * t + phs[1, k])
            return out
        return f
    raise KeyError(f"unknown thin data generator '{name}'")
