"""Tests of the benchmark itself: it times the library's own dual route, and
its checks count a tampered result as a failed case.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracheat.dtn import dtn_vs_direct

import workloads
from tracer import Tracer

SEED = 7


@pytest.fixture(scope="module")
def case():
    return workloads.make_dtn_dual_route(np.random.default_rng(SEED))[0]


@pytest.fixture(scope="module")
def reference(case):
    return dtn_vs_direct(case["p"], case["xi"], case["grid"])


@pytest.fixture(scope="module")
def genuine(case):
    return workloads.dual_route(case["p"], case["xi"], case["grid"], Tracer(False))


def test_untraced_dual_route_is_dtn_vs_direct_bit_for_bit(reference, genuine):
    for key, value in reference.items():
        assert genuine[key] == value, key


def test_traced_dual_route_is_dtn_vs_direct_bit_for_bit(case, reference):
    tr = Tracer(True)
    got = workloads.dual_route(case["p"], case["xi"], case["grid"], tr)
    for key, value in reference.items():
        assert got[key] == value, key
    names = {sp[2] for sp in tr.spans}
    assert {"extension.solve", "extension.data", "dtn.extract",
            "kernels.apply", "kernels.u"} <= names
    assert tr.counts["kernels.u.points"] > 0


def test_traced_pass_yields_every_declared_layer_metric():
    import run

    names = set(run.layer_metrics(Tracer(True), [], 1.0))
    names |= {"trace.wall_s", "wall_s", "trace.overhead_s"}
    assert names == set(run.declared_units("per_layer"))


def _verdict(name, outputs):
    fake = replace(workloads.WORKLOADS[name], run=lambda case, tr: outputs)
    return workloads.run_case(fake, None, Tracer(False))


MODULUS_OK = {"summability_holds": True, "estimate2_holds": True,
              "K_radii": [1 / 16 ** 2, 1 / 16, 1.0],
              "K_values": [10.0, 20.0, 30.0]}
PROBE_OK = {**MODULUS_OK, "geometry_ok": True, "backward_error": 1e-15,
            "C_emp": [0.1, 0.2, 0.05],
            "K_radii": [1 / 16, 1 / 4, 1.0], "K_values": [1.0, 1.5, 2.0]}


def test_untampered_results_pass(genuine):
    assert _verdict("dtn_dual_route", genuine)["failed"] == []
    assert _verdict("modulus_pipeline", MODULUS_OK)["failed"] == []
    assert _verdict("regularity_probe", PROBE_OK)["failed"] == []


@pytest.mark.parametrize("key,value,reason", [
    ("sup_extension_vs_closed", 2 * workloads.DTN_TOL[1], "dtn_err"),
    ("sup_direct_vs_closed", 2 * workloads.QUAD_TOL, "quad_err"),
    ("sup_direct_vs_closed", math.nan, "quad_err"),
    ("backward_error", 1e-6, "backward_error"),
    ("direct_values", [1.0, math.inf], "direct_values"),
])
def test_tampered_dual_route_fails(genuine, key, value, reason):
    assert reason in _verdict("dtn_dual_route", {**genuine, key: value})["failed"]


@pytest.mark.parametrize("name,base,key,value,reason", [
    ("modulus_pipeline", MODULUS_OK, "summability_holds", False,
     "summability_holds"),
    ("modulus_pipeline", MODULUS_OK, "estimate2_holds", False,
     "estimate2_holds"),
    ("modulus_pipeline", MODULUS_OK, "K_values", [10.0, 9.0, 30.0],
     "K_nondecreasing"),
    ("modulus_pipeline", MODULUS_OK, "K_values", [1.0, 20.0, 30.0],
     "K_half_decreasing"),
    ("regularity_probe", PROBE_OK, "summability_holds", False,
     "summability_holds"),
    ("regularity_probe", PROBE_OK, "estimate2_holds", False,
     "estimate2_holds"),
    ("regularity_probe", PROBE_OK, "geometry_ok", False, "geometry_ok"),
    ("regularity_probe", PROBE_OK, "C_emp", [0.1, math.inf, 0.05], "C_emp"),
    ("regularity_probe", PROBE_OK, "K_values", [1.0, math.nan, 2.0],
     "K_values"),
])
def test_tampered_pipeline_and_probe_fail(name, base, key, value, reason):
    assert reason in _verdict(name, {**base, key: value})["failed"]


def test_raising_case_is_failed_not_fatal():
    def boom(case, tr):
        raise RuntimeError("linear solve residual exceeds budget")

    fake = replace(workloads.WORKLOADS["regularity_probe"], run=boom)
    verdict = workloads.run_case(fake, None, Tracer(False))
    assert verdict["failed"] == ["raised"]
    assert "exceeds budget" in verdict["error"]
