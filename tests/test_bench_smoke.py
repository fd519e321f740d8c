"""One genuine pass of each benchmark workload through the benchmark's own
checks (perfbench/workloads.py, imported read-only): a change that breaks
an invariant the benchmark asserts fails here, not only in a benchmark run.
The n = 2 dual route runs on every seed the benchmark is judged on, since
its extension solve is the one most exposed to solver changes.  The
modulus pipeline is the only end-to-end run of summability_check, build_K
and estimate2_check on rough critical data.

The first pass of `perfbench/run.py --seed <n>` builds its cases from
np.random.default_rng(n); so do these tests.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_first_pass(name, seed):
    wl = workloads.WORKLOADS[name]
    cases = wl.make(np.random.default_rng(seed))
    return [workloads.run_case(wl, case, Tracer(False)) for case in cases]


@pytest.mark.parametrize("name, seed", [
    ("dtn_dual_route", 101),
    ("dtn_dual_route_2d", 101),
    ("dtn_dual_route_2d", 102),
    ("dtn_dual_route_2d", 103),
    ("dtn_dual_route_2d", 4049),
    ("modulus_pipeline", 101),
    ("modulus_pipeline", 4049),
    ("regularity_probe", 101),
    ("regularity_probe", 102),
    ("regularity_probe", 103),
    ("regularity_probe", 4049),
])
def test_first_pass_passes_every_check(name, seed):
    for result in run_first_pass(name, seed):
        assert result["failed"] == [], result["error"]
