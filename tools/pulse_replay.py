"""Record every ``apply_pulse`` call of a benchmark workload; replay the calls
against one or two checkouts, checking each output and timing each call.

    python3 tools/pulse_replay.py record WORKLOAD FILE [--seed S]
    python3 tools/pulse_replay.py replay FILE CHECKOUT [CHECKOUT] [--rounds R] [--bin B]

``record`` runs the workload once through ``perfbench/workloads.py`` with
``spinpulse`` imported from this checkout's ``src/`` and pickles, for every
``sparse_engine.apply_pulse`` call: the input state (a dict's items, or a
``PackedAmps``'s rows, amplitudes and lineage), the pulse, the chain and
the cutoff, plus a digest of the output: its amplitudes' ``repr`` in
insertion order, ``leaked``, the time, and the lineage's spin, code dtype
and bytes.  ``run_protocol`` calls split the calls into runs.

``replay`` starts one worker process per checkout, each importing
``spinpulse`` from that checkout's ``src/``.  A checkout written
``PATH:packed`` or ``PATH:loop`` runs every call on that path
(``PACKED_MIN_STATES`` set to 1 or to infinity), so ``. .:loop`` compares
the two paths on the same inputs.  Each round replays the calls in order,
each call once in each worker, the worker that goes first alternating from
call to call.  It prints, per
checkout, the calls whose output differs from the recording and the sum of
each call's shortest time, by the path the call took, and with ``--bin`` by
input state count too.  Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def digest(state) -> str:
    """SHA-256 of an ``apply_pulse`` output: amplitudes in order, leaked,
    time, and the lineage's spin, code dtype and bytes (input rows too)."""
    h = hashlib.sha256(repr((list(state.amps.items()), state.leaked, state.time)).encode())
    lineage = getattr(state.amps, "lineage", None)
    if lineage is not None:
        k, codes, source = lineage
        h.update(f"{k} {codes.dtype.str}".encode() + codes.tobytes())
        h.update(b"-" if source is None else source.tobytes())
    return h.hexdigest()


def rows_of(data: bytes, width: int) -> np.ndarray:
    """Packed rows from their bytes: ``chain.pack_states``'s big-endian words."""
    return np.frombuffer(data, ">u8").reshape(-1, width)


def record(workload: str, seed: int | None, path: Path) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from spinpulse import sparse_engine

    seed = workloads.DEFAULT_SEED if seed is None else seed

    calls, runs = [], [0]
    apply, run_protocol = sparse_engine.apply_pulse, sparse_engine.run_protocol

    def recorded_apply(state, pulse, cfg, cutoff=0.0):
        amps = state.amps
        if type(amps) is sparse_engine.PackedAmps:  # rows as bytes: pickle drops ">u8"
            lineage = amps.lineage and amps.lineage[:2] + (
                None if amps.lineage[2] is None else amps.lineage[2].tobytes(),)
            held = ("packed", amps.rows.tobytes(), amps.rows.shape[1], amps.c, lineage)
        else:
            held = ("dict", list(amps.items()))
        out = apply(state, pulse, cfg, cutoff)
        calls.append({
            "run": runs[0], "amps": held, "leaked": state.leaked, "time": state.time,
            "pulse": (pulse.frequency, pulse.rabi, pulse.duration),
            "cfg": dataclasses.asdict(cfg), "cutoff": cutoff, "digest": digest(out),
        })
        return out

    def counted_run(*args, **kwargs):
        runs[0] += 1
        return run_protocol(*args, **kwargs)

    sparse_engine.apply_pulse, sparse_engine.run_protocol = recorded_apply, counted_run
    import spinpulse.cli
    spinpulse.cli.run_protocol = counted_run
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_configs(workload, seed, Path(tmp) / "config")
        workloads.run(workload, Path(tmp) / "config", Path(tmp) / "out", [])
    with open(path, "wb") as f:
        pickle.dump({"workload": workload, "seed": seed, "calls": calls}, f)
    print(f"{len(calls)} calls in {runs[0]} runs written to {path}")
    return 0


def worker(checkout: str, path: str) -> None:
    """Replay calls named on stdin, one per line; answer one JSON line each."""
    checkout, _, forced = checkout.partition(":")
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from spinpulse import sparse_engine
    from spinpulse.chain import ChainConfig
    from spinpulse.pulses import Pulse

    if forced:
        sparse_engine.PACKED_MIN_STATES = {"packed": 1, "loop": math.inf}[forced]
    with open(path, "rb") as f:
        calls = pickle.load(f)["calls"]
    for line in sys.stdin:
        call = calls[int(line)]
        if call["amps"][0] == "dict":
            amps = dict(call["amps"][1])
        else:
            _, data, width, c, lineage = call["amps"]
            if lineage is not None and lineage[2] is not None:
                lineage = lineage[:2] + (rows_of(lineage[2], width),)
            amps = sparse_engine.PackedAmps(rows_of(data, width), c, lineage)
        state = sparse_engine.SparseState(amps, call["leaked"], call["time"])
        args = (Pulse(*call["pulse"]), ChainConfig(**call["cfg"]), call["cutoff"])
        start = time.perf_counter()
        out = sparse_engine.apply_pulse(state, *args)
        elapsed = time.perf_counter() - start
        packed = type(out.amps) is sparse_engine.PackedAmps
        print(json.dumps({"s": elapsed, "ok": digest(out) == call["digest"],
                          "path": "packed" if packed else "loop"}), flush=True)


def replay(path: Path, checkouts: list[str], rounds: int, width: int | None) -> int:
    with open(path, "rb") as f:
        calls = pickle.load(f)["calls"]
    workers = [subprocess.Popen([sys.executable, __file__, "_worker", c, str(path)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for c in checkouts]
    best = [[math.inf] * len(calls) for _ in workers]
    paths = [[""] * len(calls) for _ in workers]
    bad = [set() for _ in workers]
    for r in range(rounds):
        for i in range(len(calls)):
            for w in sorted(range(len(workers)), key=lambda w: (w + i + r) % 2):
                workers[w].stdin.write(f"{i}\n")
                workers[w].stdin.flush()
                answer = json.loads(workers[w].stdout.readline())
                best[w][i] = min(best[w][i], answer["s"])
                paths[w][i] = answer["path"]
                if not answer["ok"]:
                    bad[w].add(i)
    for proc in workers:
        proc.stdin.close()
        proc.wait()

    print(f"{len(calls)} calls, {rounds} rounds; times are sums of each call's shortest, ms")
    for w, c in enumerate(checkouts):
        verdict = "all equal to the recording" if not bad[w] else \
            f"{len(bad[w])} differ, first at call {min(bad[w])}"
        print(f"[{w}] {c}: {verdict}")
    groups = {}
    for i, call in enumerate(calls):
        size = len(call["amps"][1]) if call["amps"][0] == "dict" else len(call["amps"][3])
        keys = [("path", "/".join(p[i] for p in paths))]
        if width:
            keys.append(("states", f"{size // width * width}-{size // width * width + width - 1}"))
        for key in keys + [("all", "")]:
            groups.setdefault(key, []).append(i)
    print("group".ljust(24) + "calls".rjust(7) + "".join(f"[{w}] ms".rjust(11) for w in range(len(workers))))
    for (kind, name), members in sorted(groups.items(), key=lambda g: (g[0][0] != "path", g[0])):
        sums = [sum(best[w][i] for i in members) * 1e3 for w in range(len(workers))]
        print(f"{kind} {name}".ljust(24) + f"{len(members):7d}" + "".join(f"{s:11.3f}" for s in sums))
    return 1 if any(bad) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_worker"]:
        worker(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record a workload's apply_pulse calls")
    rec.add_argument("workload")
    rec.add_argument("file", type=Path)
    rec.add_argument("--seed", type=int, default=None, help="default: the benchmark's")
    rep = sub.add_parser("replay", help="replay recorded calls against checkouts")
    rep.add_argument("file", type=Path)
    rep.add_argument("checkouts", nargs="+", metavar="CHECKOUT[:packed|:loop]")
    rep.add_argument("--rounds", type=int, default=5)
    rep.add_argument("--bin", type=int, default=None, help="state-count bin width")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.workload, args.seed, args.file)
    if not 1 <= len(args.checkouts) <= 2:
        parser.error("replay takes one or two checkouts")
    return replay(args.file, args.checkouts, args.rounds, args.bin)


if __name__ == "__main__":
    sys.exit(main())
