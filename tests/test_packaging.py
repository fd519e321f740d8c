"""pyproject.toml declares only what the source tree has."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
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
