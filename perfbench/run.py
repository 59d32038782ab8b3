"""spinpulse benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload cn200_fig2 --seed 20240809 --seconds 60 --trace 0

Run from the root of a checkout; spinpulse is imported from its ``src``.
Set-up is timed over several fresh interpreters that import spinpulse and
write the workload's configs.  Then workload passes run one after another,
each in a fresh process, until ``--seconds`` have passed (at least one pass).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; the
times among them add up each step's shortest duration over the passes (see
``best_total``).  With ``--trace 1`` untraced and traced passes alternate and
it carries the per-layer metrics.  Everything the runs write goes under
``.perfbench/``, including a result file with provenance and every pass's
raw numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUPS_PER_PASS = 2
RUN_LIMIT_S = 170.0  # the whole invocation must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env(nproc: int) -> dict:
    """Environment of every child: BLAS pools capped at nproc, fixed hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance(root: Path, seed: int, nproc: int) -> dict:
    load = os.getloadavg()
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "loadavg_start": list(load),
        "seed": seed,
    }


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            tail = {"percentile": pct, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env(self.nproc)
        self.work = root / ".perfbench" / workload
        self.configs = self.work / "configs"
        self.configs_written: dict | None = None
        self.setup_s: list[float] = []

    def _child(self, *args: str) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        cmd = [sys.executable, str(HERE / "worker.py"), *args,
               "--root", str(self.root), "--workload", self.workload,
               "--configs", str(self.configs)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} exceeded the time limit")
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} failed:\n{proc.stderr[-4000:]}")

    def setup_once(self) -> float:
        """Time one fresh set-up process; every one must write identical configs."""
        shutil.rmtree(self.configs, ignore_errors=True)
        start = time.perf_counter()
        self._child("setup", "--seed", str(self.seed))
        elapsed = time.perf_counter() - start
        files = {p.name: p.read_bytes() for p in sorted(self.configs.iterdir())}
        if self.configs_written is not None and files != self.configs_written:
            raise BenchError("set-up wrote different configs for the same seed")
        self.configs_written = files
        return elapsed

    def setup(self) -> None:
        """Set up once untimed, then time SETUP_REPEATS more set-ups.

        The first process also compiles bytecode, which users pay once.
        ``passes`` adds SETUPS_PER_PASS more timed set-ups before each pass,
        so that the samples spread over the whole run.
        """
        self.setup_once()
        self.setup_s = [self.setup_once() for _ in range(SETUP_REPEATS)]

    def one_pass(self, index: int, traced: bool) -> dict:
        result = self.work / f"pass-{index}.json"
        self._child("pass", "--out", str(self.work / "out"), "--trace", str(int(traced)),
                    "--result", str(result))
        return json.loads(result.read_text())

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        """Passes while another one fits in ``seconds``; with trace, untraced and traced alternate.

        The first pass (one of each kind with trace) always runs, even when it
        alone takes longer than ``seconds``.
        """
        records = []
        start = time.monotonic()
        modes = [False, True] if trace else [False]
        while True:
            elapsed = time.monotonic() - start
            if len(records) >= len(modes) and elapsed * (len(records) + 1) / len(records) > seconds:
                return records
            self.setup_s.extend(self.setup_once() for _ in range(SETUPS_PER_PASS))
            records.append(self.one_pass(len(records), modes[len(records) % len(modes)]))


def best_total(plain: list[dict], key: str) -> float:
    """Sum over a pass's steps of each step's shortest duration across the passes.

    Every pass runs the same steps in the same order.  The host's slow
    stretches only ever lengthen a step, and they last longer than a step, so
    the shortest time of each step is the steady estimate of its cost.
    """
    lengths = {len(r[key]) for r in plain}
    if len(lengths) != 1:
        raise BenchError(f"passes differ in their number of {key} entries: {sorted(lengths)}")
    return math.fsum(min(r[key][i] for r in plain) for i in range(lengths.pop()))


def end_to_end(setup_s: list[float], plain: list[dict]) -> dict:
    metrics = {k: statistics.median(r[k] for r in plain) for k in ("peak_rss_mb", "output_bytes")}
    metrics["wall_s"] = best_total(plain, "step_s")
    engine_s = best_total(plain, "engine_call_s")
    metrics["pulses_per_s"] = plain[0]["pulses"] / engine_s if engine_s > 0 else 0.0
    metrics["setup_s"] = statistics.median(setup_s)
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    rows = [{**r["layers"], "check.norm_closure": r["check.norm_closure"],
             "check.ref_error": r["check.ref_error"]} for r in traced]
    metrics = {n: statistics.median(row[n] for row in rows) for n in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def with_units(metrics: dict, kind: str) -> dict:
    """Attach to each value its unit as BENCHMARK.json declares it."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd().resolve()
    if not (root / "src" / "spinpulse" / "__init__.py").is_file():
        print(f"no spinpulse sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, deadline)
    prov = provenance(root, args.seed, bench.nproc)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        bench.setup()
        records = bench.passes(args.seconds, bool(args.trace))
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        if args.trace:
            metrics = with_units(per_layer(plain, traced), "per_layer")
        else:
            metrics = with_units(end_to_end(bench.setup_s, plain), "end_to_end")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed"]) for r in records)

    prov.update({k: records[0][k] for k in ("numpy", "blas", "blas_threads")})
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov,
        "failed_share": failed / attempted,
        "failed_checks": sorted({c for r in records for c in r["failed"]}),
        "timings": {
            "wall_s": summarize([r["wall_s"] for r in plain]),
            "setup_s": summarize(bench.setup_s),
            "engine_call_s": summarize([d for r in plain for d in r["engine_call_s"]]),
        },
        "metrics": metrics,
        "passes": records,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")

    for name, t in summary["timings"].items():
        tail = f", p{t['tail']['percentile']:g} {t['tail']['value']:.6g}" if t["tail"] else ""
        print(f"{name}: median {t['median']:.6g} s{tail} (n={t['n']})")
    print(f"failed_share: {summary['failed_share']:g} ({failed}/{attempted}); "
          f"src {prov['src_lines']} lines; result file {out.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
