"""One genuine pass of each benchmark workload through the benchmark's own
checks (perfbench/workloads.py, imported read-only): a change that breaks
an invariant the benchmark asserts fails here, not only in a benchmark run.
The n = 2 dual route runs on every seed the benchmark is judged on, since
its extension solve is the one most exposed to solver changes.  The
modulus pipeline is the only end-to-end run of summability_check, build_K
and estimate2_check on rough critical data.

The first pass of `perfbench/run.py --seed <n>` builds its cases from
np.random.default_rng(n); so do these tests.

The same runs must reproduce the outputs pinned in first_pass_outputs.json.
Counts and verdicts match exactly.  The DtN outputs move with rounding in
the solve or the data, so they match at the tolerances ROADMAP declares:
1e-7 relative at n = 2 and 1e-5 absolute on the n = 1 extension route.
Every other float matches to 1e-12 relative; on the 2-core x86 host the
file was recorded on, none of them moved between one and two OpenBLAS
threads.  A change that moves an output on purpose declares the move and
records the file again:

    PYTHONPATH=src python tests/test_bench_smoke.py --record

reruns every case of CASES and rewrites first_pass_outputs.json, and
refuses to write while any case fails a check.  The same command is the
byte-for-byte check of a refactor that means to move no output: record,
then `git diff --exit-code tests/first_pass_outputs.json` must pass.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


PINNED_PATH = Path(__file__).with_name("first_pass_outputs.json")
PINNED = json.loads(PINNED_PATH.read_text())

# (absolute, relative) tolerance by workload and output key
EXT_KEYS = ("sup_extension_vs_direct", "l2_extension_vs_direct",
            "sup_extension_vs_closed", "l2_extension_vs_closed")
TOLERANCE = {"dtn_dual_route": dict.fromkeys(EXT_KEYS, (1e-5, 0.0)),
             "dtn_dual_route_2d": dict.fromkeys(EXT_KEYS, (0.0, 1e-7))}


def assert_matches(got, want, tol, where):
    """Exact for counts, verdicts and strings; floats within tol."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, float):
        atol, rtol = tol.get(where.rsplit(".", 1)[-1].split("[")[0],
                             (0.0, 1e-12))
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=atol), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def run_first_pass(name, seed):
    wl = workloads.WORKLOADS[name]
    cases = wl.make(np.random.default_rng(seed))
    return [workloads.run_case(wl, case, Tracer(False)) for case in cases]


CASES = [
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
]


@pytest.mark.parametrize("name, seed", CASES)
def test_first_pass_passes_every_check(name, seed):
    results = run_first_pass(name, seed)
    for result in results:
        assert result["failed"] == [], result["error"]
    assert_matches([r["outputs"] for r in results], PINNED[f"{name}-{seed}"],
                   TOLERANCE.get(name, {}), f"{name}-{seed}")


def record():
    """Rerun every case and rewrite the pinned outputs, unless one fails."""
    pinned, failed = {}, []
    for name, seed in CASES:
        results = run_first_pass(name, seed)
        failed += [(name, seed, r["failed"], r["error"]) for r in results
                   if r["failed"]]
        pinned[f"{name}-{seed}"] = [r["outputs"] for r in results]
    if failed:
        sys.exit(f"not recorded, failed checks: {failed}")
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python {sys.argv[0]} --record")
    record()
