"""Print the SHA-256 of every artifact one benchmark workload writes.

    python3 tools/artifact_digests.py WORKLOAD [--seed S]

Runs the workload once through ``perfbench/workloads.py`` (``write_configs``,
``run`` and ``check``) in a temporary directory, with ``spinpulse`` imported
from this checkout's ``src/``, and prints ``sha256  path`` for each file under
the output directory, paths relative to it, sorted; the commands' own
output goes to stderr.  Comparing the output of
two checkouts (copy this file into the other one) shows whether a change left
every artifact byte-identical.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def digests(workload: str, seed: int) -> tuple[list[tuple[str, str]], list[str]]:
    """(sha256, path) of each artifact of one run, and the names of failed checks."""
    with tempfile.TemporaryDirectory() as tmp:
        config_dir, out_dir = Path(tmp) / "config", Path(tmp) / "out"
        workloads.write_configs(workload, seed, config_dir)
        with contextlib.redirect_stdout(sys.stderr):  # the commands' summary lines
            results = workloads.run(workload, config_dir, out_dir, [])
        failed = [c.name for c in workloads.check(workload, out_dir, results) if not c.ok]
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        return [(hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(out_dir).as_posix())
                for p in files], failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    rows, failed = digests(args.workload, args.seed)
    for digest, path in rows:
        print(f"{digest}  {path}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
