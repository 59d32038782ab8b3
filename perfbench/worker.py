"""One fresh process of the benchmark: either set-up or one workload pass.

    python3 perfbench/worker.py setup --root R --workload W --seed S --configs DIR
    python3 perfbench/worker.py pass --root R --workload W --configs DIR --out DIR \
        --trace 0|1 --result FILE

``setup`` imports spinpulse and writes the workload's config files; run.py
times the whole process.  ``pass`` runs the workload once, timed from the
first call into spinpulse to the last artifact written, then checks the
outputs and writes its measurements to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads


def import_spinpulse(root: Path) -> None:
    """Import spinpulse from the checkout's own ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import spinpulse

    if Path(spinpulse.__file__).resolve().parent.parent != src:
        raise ImportError(f"spinpulse imported from {spinpulse.__file__}, not {src}")


def blas_info() -> dict:
    """numpy, OpenBLAS version and the BLAS thread count actually in use."""
    import ctypes
    import glob
    import os

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["blas_threads"] = func()
                return info
    return info


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def run_pass(workload: str, config_dir: Path, out_dir: Path, traced: bool) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    points = tr.LAYER_POINTS if traced else tr.ENGINE_POINTS
    step_s: list[float] = []
    with tr.Tracer(points) as tracer:
        start = perf_counter()
        results = workloads.run(workload, config_dir, out_dir, step_s)
        wall = perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = workloads.check(workload, out_dir, results)
    engine_s = tracer.total(*tr.ENGINE_SPANS)
    pulses = tracer.counts["engine.pulses"]

    def worst(*names):
        return max((c.value for c in checks if c.name in names), default=0.0)

    record = {
        "traced": traced,
        "wall_s": wall,
        "step_s": step_s,
        "engine_s": engine_s,
        "pulses": pulses,
        "pulses_per_s": pulses / engine_s if engine_s > 0 else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "output_bytes": output_bytes(out_dir),
        "attempted": len(checks),
        "failed": [c.name for c in checks if not c.ok],
        "check.norm_closure": worst("norm_closure"),
        "check.ref_error": worst("2pik", "classical_vs_exact"),
        "engine_call_s": [d for n in tr.ENGINE_SPANS if n in tracer.spans
                          for d in tracer.spans[n].durations],
    }
    if traced:
        record["layers"] = tr.layer_metrics(tracer, wall)
        record["spans"] = {
            name: {"calls": s.calls, "total": s.total, "self": s.self_time}
            for name, s in tracer.spans.items()
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--configs", required=True, type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    import_spinpulse(args.root)
    if args.mode == "setup":
        workloads.write_configs(args.workload, args.seed, args.configs)
        return 0
    record = run_pass(args.workload, args.configs, args.out, bool(args.trace))
    record.update(blas_info())
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
