"""pyproject.toml declares only what the source tree has, and every
module exports only names it defines; importing every module leaves
scipy.sparse and scipy.interpolate unloaded."""

import importlib
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


def test_import_leaves_scipy_sparse_out():
    # the extension solver applies its step operator as a stencil, so no
    # module needs scipy.sparse, about 0.016 s of import CPU; only
    # ParabolicGrid.interp uses scipy.interpolate, about 0.107 s, and it
    # imports it when called
    code = ("import importlib, pkgutil, sys, fracheat\n"
            "for m in pkgutil.iter_modules(fracheat.__path__):\n"
            "    importlib.import_module('fracheat.' + m.name)\n"
            "print(sorted(k for k in sys.modules if k.startswith(\n"
            "    ('scipy.sparse', 'scipy.interpolate'))))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(fracheat.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
