"""pyproject.toml declares only what the source tree has, and every
module exports only names it defines; importing every module leaves
scipy.sparse, scipy.interpolate, scipy.linalg and scipy._lib._array_api
unloaded, and the LAPACK wrappers it loads in their place are
scipy.linalg.lapack's."""

import importlib
import importlib.machinery
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracheat

ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_console_scripts_resolve_to_callables():
    for name, target in _pyproject()["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"script {name!r} -> {target!r} is not callable"


def test_package_data_globs_match_files():
    tool = _pyproject().get("tool", {}).get("setuptools", {})
    where = tool.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in tool.get("package-data", {}).items():
        dirs = [ROOT / w / package.replace(".", "/") for w in where]
        for pattern in globs:
            assert any(any(d.glob(pattern)) for d in dirs), \
                f"package-data {package!r}: {pattern!r} matches no file"


@pytest.mark.parametrize("module", ["fracheat"] + [
    f"fracheat.{m.name}" for m in pkgutil.iter_modules(fracheat.__path__)])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", [])
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def _run(code):
    env = dict(os.environ,
               PYTHONPATH=str(Path(fracheat.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_scipy_sparse_out():
    # the extension solver applies its step operator as a stencil, so no
    # module needs scipy.sparse, about 0.016 s of import CPU; only
    # ParabolicGrid.interp uses scipy.interpolate, about 0.107 s, and it
    # imports it when called.  The LAPACK wrappers are loaded without
    # scipy.linalg's package init, whose array-API support
    # (scipy._lib._array_api) was about 0.12 s and 17 MB of every run
    code = ("import importlib, pkgutil, sys, fracheat\n"
            "for m in pkgutil.iter_modules(fracheat.__path__):\n"
            "    importlib.import_module('fracheat.' + m.name)\n"
            "print(sorted(k for k in sys.modules if k.startswith(\n"
            "    ('scipy.sparse', 'scipy.interpolate', 'scipy.linalg',\n"
            "     'scipy._lib._array_api'))))")
    assert _run(code).strip() == "[]"


def test_missing_lapack_module_is_named(monkeypatch):
    from fracheat import extension
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing"])
    with pytest.raises(ImportError, match=r"linalg.+_flapack.+\.missing"):
        extension._load_flapack()


def test_lapack_wrappers_match_scipy_linalg_lapack():
    # fracheat first, then scipy.linalg: the routines loaded by file path
    # give bit for bit what scipy.linalg.lapack's give on the same data
    code = """
import numpy as np
from fracheat.extension import _flapack
import scipy.linalg.lapack as lapack

rng = np.random.default_rng(5)
d, e = 4.0 + rng.random(40), -rng.random(39)
b = rng.normal(size=(40, 3))
ours = [_flapack.dpttrf(d, e)]
ours.append(_flapack.dpttrs(*ours[0][:2], b))
ours.append(_flapack.dgtsv(e, d, e, b))
ref = [lapack.dpttrf(d, e)]
ref.append(lapack.dpttrs(*ref[0][:2], b))
ref.append(lapack.dgtsv(e, d, e, b))
assert _flapack is not lapack._flapack
for got, want in zip(ours, ref):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert np.array_equal(x, y), (x, y)
print("ok")
"""
    assert _run(code).strip() == "ok"
