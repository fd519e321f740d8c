"""Benchmark of the fracheat chain: one workload, one seed, one process.

    python3 perfbench/run.py --workload dtn_dual_route --seed 1 --seconds 35 --trace 0

Run from the repository root.  The library is imported from ./src.  Passes
of the workload run back to back (a closed loop in one single-threaded
process, BLAS and OpenMP included) until the next pass would end after
--seconds.  Each pass builds fresh cases from the seeded generator, then
runs and checks them.

With --trace 0 the result holds the end-to-end metrics: the median pass's
CPU time, set-up time (median over this process and four fresh
ones of the CPU time of import plus the first pass's input construction),
peak memory, and the fraction of cases that passed every check.  With --trace 1 passes alternate
untraced and traced; the traced ones give the per-layer metrics, the
untraced ones the median pass wall time, and the difference of the two
medians is the tracing overhead.

The last line of standard output is the JSON result.  The full record
(environment, every case's raw outputs, the spans of traced passes) goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
HELD_OUT_SEED = 4049
SETUP_SAMPLES = 5
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")



def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_threaded():
    """One BLAS/OpenMP thread, so the run is one single-threaded process;
    must run before numpy is imported.  Extra BLAS threads only spin in
    these workloads, and their spinning inflates CPU time whenever the host
    withholds a CPU."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import plus input construction, print it, exit")
    return ap.parse_args(argv)


def load_library():
    """Import the workloads from ./src, or None when the library is absent
    there (an installed copy elsewhere does not count)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import fracheat
        import workloads
    except ImportError as exc:
        print(f"cannot import fracheat from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(fracheat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fracheat imported from {fracheat.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return workloads


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": _cpus(), "cpu_model": cpu,
            "held_out_seed": HELD_OUT_SEED}


def setup_samples(args, first: float) -> list[float]:
    """The set-up time of this process plus that of fresh processes, each
    importing the library and building the first pass's inputs."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def declared_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as declared in
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(tr, cases, wall) -> dict:
    """Per-layer metrics of one traced pass; the trace.* ones are added
    from the pass times of the whole run."""
    summ = tr.summary()
    tot, calls = summ["total"], summ["calls"]
    layer_self, within = summ["layer_self"], summ["within"]
    outs = [c["outputs"] for c in cases if c["outputs"] is not None]

    def total(key):
        return float(sum(o.get(key, 0) for o in outs))

    def worst(key):
        return float(max((o[key] for o in outs if key in o), default=0.0))

    applies = [o for o in outs if "converged" in o]
    compared = total("cells_compared")
    flagged = total("cells_flagged")
    top_level = sum(sp[4] - sp[3] for sp in tr.spans if sp[1] < 0)
    return {
        "extension.solve_s": tot.get("extension.solve", 0.0),
        "extension.self_s": layer_self.get("extension", 0.0),
        "extension.unknowns": total("unknowns"),
        "extension.steps": total("steps"),
        "extension.data_s": tot.get("extension.data", 0.0),
        "extension.data_calls": float(calls.get("extension.data", 0)),
        "extension.backward_error": worst("backward_error"),
        "kernels.apply_s": tot.get("kernels.apply", 0.0),
        "kernels.self_s": layer_self.get("kernels", 0.0),
        "kernels.u_points": tr.counts.get("kernels.u.points", 0.0),
        "kernels.u_s": tot.get("kernels.u", 0.0),
        "kernels.refine_delta": worst("refine_delta"),
        "kernels.unconverged_frac": (sum(not o["converged"] for o in applies)
                                     / len(applies)) if applies else 0.0,
        "quad_err": worst("sup_direct_vs_closed"),
        "dtn.extract_s": tot.get("dtn.extract", 0.0),
        "dtn.self_s": layer_self.get("dtn", 0.0),
        "dtn.flagged_frac": flagged / (compared + flagged) if compared + flagged else 0.0,
        "dtn.cells_compared": compared,
        "dtn_err": worst("sup_extension_vs_closed"),
        "lorentz.rearrange_s": tot.get("lorentz.rearrange", 0.0),
        "lorentz.self_s": layer_self.get("lorentz", 0.0),
        "lorentz.plateaus": total("plateaus"),
        "lorentz.estimate2_s": tot.get("lorentz.estimate2", 0.0),
        "moduli.summability_s": tot.get("moduli.summability", 0.0),
        "moduli.self_s": layer_self.get("moduli", 0.0),
        "moduli.gamma_halvings": total("gamma_halvings"),
        "moduli.K_s": tot.get("moduli.K", 0.0),
        "moduli.K_calls": float(calls.get("moduli.K", 0)),
        "probe.excess_s": tot.get("probe.excess", 0.0),
        "probe.self_s": layer_self.get("probe", 0.0),
        "probe.radii": total("radii"),
        "probe.radii_requested": total("radii_requested"),
        "probe.gradient_s": tot.get("probe.gradient", 0.0),
        "probe.K_calls": float(within.get(("probe.gradient", "moduli.K"), (0, 0))[1]),
        "probe.K_s": float(within.get(("probe.gradient", "moduli.K"), (0.0, 0))[0]),
        "probe.pairs": total("pairs"),
        "probe.accept_frac": (total("pairs") / total("pairs_requested")
                              if total("pairs_requested") else 0.0),
        "bench.self_s": wall - top_level,
    }


def main(argv=None) -> int:
    started = time.process_time()
    args = parse_args(argv)
    single_threaded()
    workloads = load_library()
    if workloads is None:
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import numpy as np
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    cases = wl.make(rng)
    setup_first = time.process_time() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    env = environment()
    print("env " + json.dumps(env), flush=True)
    passes, traces = [], []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = Tracer(traced)
        w0, c0 = time.perf_counter(), time.process_time()
        results = [workloads.run_case(wl, case, tr) for case in cases]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
                  "cases": results}
        if traced:
            record["layers"] = layer_metrics(tr, results, wall)
            traces.append(tr.to_json())
        passes.append(record)
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES + args.trace and elapsed + typical > args.seconds:
            break
        cases = wl.make(rng)

    untraced = [p for p in passes if not p["traced"]]
    all_cases = [c for p in passes for c in p["cases"]]
    attempted = len(all_cases)
    failed = sum(1 for c in all_cases if c["failed"])
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = {k: statistics.median(p["layers"][k] for p in traced_passes)
                  for k in traced_passes[0]["layers"]}
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced_passes)
        values["wall_s"] = statistics.median(p["wall_s"] for p in untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        units = declared_units("per_layer")
        setup = None
    else:
        setup = setup_samples(args, setup_first)
        values = {
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        units = declared_units("end_to_end")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "env": env, "args": vars(args), "passes": passes,
        "setup_samples_s": setup, "metrics": metrics, "traces": traces,
    }, default=float))
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    for c in all_cases:
        if c["failed"]:
            print(f"failed case: {c['failed']} {c['error'] or ''}".rstrip())
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
