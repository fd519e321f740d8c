"""Every public function of fracheat is either reached by a benchmark
workload or checks a named step of the paper's proof.

One first pass of each workload in perfbench/workloads.py (imported
read-only) runs under sys.setprofile, which records the code object of
every Python frame entered.  The public names are each module's __all__
plus the public members and __call__ of each exported class.  The names
never entered must be exactly the keys of PROOF_STEPS: a name missing
from it is dead API, to be deleted, and a key that a workload reaches
belongs in no map.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np

import fracheat

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 101

# Each value names the step of the proof the function checks; a helper's
# value names the kept check that calls it.
HELPER = "helper of "
PROOF_STEPS = {
    # the extension identity: the DtN map of the weighted extension is the
    # fractional heat operator
    "dtn_vs_direct": "extension identity: DtN against subordination",
    # the hypotheses on A
    "CoefficientField.verify_ellipticity": "hypothesis: ellipticity of A",
    "CoefficientField.oscillation_check": "hypothesis: Dini oscillation of A",
    # energy and compactness (after Caffarelli)
    "steklov_average": "energy: Steklov time averaging",
    "energy_report": "energy: Caccioppoli inequality",
    "trace_poincare_check": "energy: trace and weighted Poincare",
    "solve_constant_coeff_dirichlet": "compactness: comparison solve",
    "closeness_experiment": "compactness: closeness to the comparison",
    "regularity_estimates_check": "compactness: estimates of the comparison",
    # the subordination kernel
    "marchaud_normalization": "kernel: Marchaud normalization",
    "check_master_bounds": "kernel: two-sided master-equation bounds",
    # potential estimates in L(p,1)
    "lorentz_norm_forms": "potentials: the two forms of the L(p,1) norm",
    "estimate1_check": "potentials: dyadic sum against the potential",
    "hardy_littlewood_check": "potentials: Hardy-Littlewood bound",
    # excess decay
    "interior_probe": "excess: decay away from the boundary",
    # helpers
    "ParabolicGrid.meshgrid": HELPER + "energy_report",
    "ParabolicGrid.weighted_norm_sq": HELPER + "closeness_experiment",
    "ParabolicGrid.interp": HELPER + "solve_constant_coeff_dirichlet",
    "ParabolicGrid.gradient": HELPER + "energy_report",
    "ParabolicGrid.time_derivative": HELPER + "energy_report",
    "heat_kernel": HELPER + "check_master_bounds",
}


def _code(obj):
    """The code object a call of obj enters, or None for data."""
    if isinstance(obj, property):
        obj = obj.fget
    obj = getattr(obj, "__func__", obj)           # classmethod, staticmethod
    return getattr(obj, "__code__", None)


def public_surface() -> dict:
    """qualname -> code object of every public function and method."""
    modules = [fracheat] + [importlib.import_module(f"fracheat.{m.name}")
                            for m in pkgutil.iter_modules(fracheat.__path__)]
    surface = {}
    for mod in modules:
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if not inspect.isclass(obj):
                if _code(obj) is not None:
                    surface[obj.__qualname__] = _code(obj)
                continue
            for member, value in vars(obj).items():
                if member.startswith("_") and member != "__call__":
                    continue
                if _code(value) is not None:
                    surface[f"{obj.__qualname__}.{member}"] = _code(value)
    return surface


def test_every_public_top_level_name_is_exported():
    # a public function or class outside __all__ would escape the surface
    hidden = []
    for info in pkgutil.iter_modules(fracheat.__path__):
        mod = importlib.import_module(f"fracheat.{info.name}")
        hidden += [f"{mod.__name__}.{name}" for name, obj in vars(mod).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == mod.__name__
                   and name not in mod.__all__]
    assert hidden == []


def entered_code() -> set:
    """Code objects entered by one first pass of every workload."""
    seen = set()

    def profile(frame, event, arg):
        seen.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        for wl in workloads.WORKLOADS.values():
            for case in wl.make(np.random.default_rng(SEED)):
                result = workloads.run_case(wl, case, Tracer(False))
                assert result["failed"] == [], result["error"]
    finally:
        sys.setprofile(before)
    return seen


def test_helpers_name_a_kept_check():
    for name, step in PROOF_STEPS.items():
        if step.startswith(HELPER):
            target = step[len(HELPER):]
            assert target in PROOF_STEPS, name
            assert not PROOF_STEPS[target].startswith(HELPER), name


def test_unreached_public_names_are_proof_steps():
    surface = public_surface()
    seen = entered_code()
    unreached = {name for name, code in surface.items() if code not in seen}
    # unreached and unmapped: delete it, or map the proof step it checks
    assert sorted(unreached - set(PROOF_STEPS)) == []
    # mapped, but not public or reached by a workload
    assert sorted(set(PROOF_STEPS) - unreached) == []
