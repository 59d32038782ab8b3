"""Record every ``apply_pulse`` call of a benchmark workload; replay the calls
against one or two checkouts, checking each output and timing each call.

    python3 tools/pulse_replay.py record WORKLOAD FILE [--seed S]
    python3 tools/pulse_replay.py replay FILE CHECKOUT [CHECKOUT] [--rounds R] [--bin B]

``record`` runs the workload once through ``perfbench/workloads.py`` with
``spinpulse`` imported from this checkout's ``src/`` and pickles, for every
``sparse_engine.apply_pulse`` call: the input state (a dict's items, or a
``PackedAmps``'s rows, amplitudes and lineage), the pulse, the chain and
the cutoff, plus two digests of the output: of its amplitudes' ``repr`` in
insertion order, ``leaked`` and the time; and of the lineage's spin, code
dtype and bytes, which only the packed kernel's output has.
``run_protocol`` calls split the calls into runs.  The file holds a header
(the workload, the seed and each call's input state count), then one pickle
per call, so that no process holds more than one call at a time.

``replay`` reads the header and starts one worker process per checkout,
each importing ``spinpulse`` from that checkout's ``src/`` and reading the
calls from the file as it is asked for them.  A checkout written
``PATH:packed`` or ``PATH:loop`` runs every call on that path
(``PACKED_MIN_STATES`` set to 1 or to infinity), so ``. .:loop`` compares
the two paths on the same inputs.  Each round replays the calls in order,
each call once in each worker, the worker that goes first alternating from
call to call.  A call's output differs from the recording when its
amplitudes, their order, ``leaked`` or the time do, or when it took the
path it took when recorded and its lineage differs: a forced path gives
no lineage, or one the recording lacks.  It prints, per checkout, the
calls whose output differs and the sum of each call's shortest time, by
the path the call took, and with ``--bin`` by input state count too.
Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def digest(state) -> tuple[str, str | None]:
    """SHA-256s of an ``apply_pulse`` output: of its amplitudes in order,
    leaked and time; and of its lineage's spin, code dtype and bytes (input
    rows too), None for a dict."""
    amps = repr((list(state.amps.items()), state.leaked, state.time)).encode()
    lineage = getattr(state.amps, "lineage", None)
    if lineage is None:
        return hashlib.sha256(amps).hexdigest(), None
    k, codes, source = lineage
    h = hashlib.sha256(f"{k} {codes.dtype.str}".encode() + codes.tobytes())
    h.update(b"-" if source is None else source.tobytes())
    return hashlib.sha256(amps).hexdigest(), h.hexdigest()


def rows_of(data: bytes, width: int) -> np.ndarray:
    """Packed rows from their bytes: ``chain.pack_states``'s big-endian words."""
    return np.frombuffer(data, ">u8").reshape(-1, width)


def record(workload: str, seed: int | None, path: Path) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from spinpulse import sparse_engine

    seed = workloads.DEFAULT_SEED if seed is None else seed

    sizes, runs = [], [0]
    apply, run_protocol = sparse_engine.apply_pulse, sparse_engine.run_protocol
    calls = tempfile.TemporaryFile(dir=path.parent)

    def recorded_apply(state, pulse, cfg, cutoff=0.0):
        amps = state.amps
        if type(amps) is sparse_engine.PackedAmps:  # rows as bytes, which any checkout reads
            lineage = amps.lineage and amps.lineage[:2] + (
                None if amps.lineage[2] is None else amps.lineage[2].tobytes(),)
            held = ("packed", amps.rows.tobytes(), amps.rows.shape[1], amps.c, lineage)
        else:
            held = ("dict", list(amps.items()))
        out = apply(state, pulse, cfg, cutoff)
        pickle.dump({
            "run": runs[0], "amps": held, "leaked": state.leaked, "time": state.time,
            "pulse": (pulse.frequency, pulse.rabi, pulse.duration),
            "cfg": dataclasses.asdict(cfg), "cutoff": cutoff, "digest": digest(out),
        }, calls)
        sizes.append(len(amps))
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
    with open(path, "wb") as f, calls:
        pickle.dump({"workload": workload, "seed": seed, "sizes": sizes}, f)
        calls.seek(0)
        shutil.copyfileobj(calls, f)
    print(f"{len(sizes)} calls in {runs[0]} runs written to {path}")
    return 0


class Calls:
    """The calls of a recording open as ``file``, each read when it is asked
    for, so that one call is held at a time; asking for an earlier call than
    the last reads on from the first call again."""

    def __init__(self, file):
        self.file = file
        pickle.load(file)  # the header
        self.start, self.next = file.tell(), 0

    def __getitem__(self, i: int) -> dict:
        if i < self.next:
            self.file.seek(self.start)
            self.next = 0
        while self.next <= i:
            call, self.next = pickle.load(self.file), self.next + 1
        return call


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
        calls = Calls(f)
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
            amps_digest, lineage_digest = digest(out)
            recorded, recorded_lineage = call["digest"]
            same_path = (lineage_digest is None) == (recorded_lineage is None)
            ok = amps_digest == recorded and (lineage_digest == recorded_lineage or not same_path)
            print(json.dumps({"s": elapsed, "ok": ok, "path": "loop" if lineage_digest is None
                              else "packed"}), flush=True)


def replay(path: Path, checkouts: list[str], rounds: int, width: int | None) -> int:
    with open(path, "rb") as f:
        sizes = pickle.load(f)["sizes"]
    workers = [subprocess.Popen([sys.executable, __file__, "_worker", c, str(path)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for c in checkouts]
    best = [[math.inf] * len(sizes) for _ in workers]
    paths = [[""] * len(sizes) for _ in workers]
    bad = [set() for _ in workers]
    for r in range(rounds):
        for i in range(len(sizes)):
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

    print(f"{len(sizes)} calls, {rounds} rounds; times are sums of each call's shortest, ms")
    for w, c in enumerate(checkouts):
        verdict = "all equal to the recording" if not bad[w] else \
            f"{len(bad[w])} differ, first at call {min(bad[w])}"
        print(f"[{w}] {c}: {verdict}")
    groups = {}
    for i, size in enumerate(sizes):
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
