"""Timed process: runs whole rounds of one workload on pre-generated inputs.

Started by run.py in a fresh interpreter, with a fixed PYTHONHASHSEED and
dynheights on PYTHONPATH.  It sees only the wire-format inputs of each round
(``ops.json`` and the map files), never the generator.  Each round's inputs
are parsed before its timer starts; each result is consumed inside the timed
region and written out after it stops.

    python3 worker.py --workload W --inputs DIR --out FILE
                      (--seconds S | --rounds N) [--trace] [--spans FILE]
    python3 worker.py --workload W --inputs DIR --setup-only

With --seconds, rounds run until S seconds have passed or the inputs run
out; with --rounds, exactly N rounds run.  --setup-only imports the package
and parses round 0, the work every CLI call pays before it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

# called through their modules, so that the tracer's rebinding is seen
from dynheights import canonical, cli, reduction
from dynheights.formats import load_map, parse_point


def _round_dirs(inputs: str) -> list:
    return sorted(os.path.join(inputs, n) for n in os.listdir(inputs) if n.startswith("r"))


def load_round(workload: str, rdir: str) -> list:
    with open(os.path.join(rdir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    if workload == "census":
        return [
            ["census", "--map", os.path.join(rdir, op["map"]), "--bound", str(op["bound"]),
             "--t-fraction", str(op["t_fraction"])]
            for op in ops
        ]
    maps = {}
    out = []
    for op in ops:
        name = op["map"]
        if name not in maps:
            maps[name] = load_map(os.path.join(rdir, name))
        out.append((maps[name], parse_point(op["point"])) if "point" in op else maps[name])
    return out


def run_round(workload: str, ops: list) -> list:
    """The timed work: one program call per operation, every result consumed."""
    if workload == "badplaces":
        return [reduction.bad_places(F).to_json_dict() for F in ops]
    if workload == "heights":
        out = []
        for F, x in ops:
            total = canonical.canonical_height(F, x).total
            out.append([total.value, total.err])
        return out
    out = []
    for argv in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append([code, json.loads(buf.getvalue()) if code == 0 else None])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    rdirs = _round_dirs(args.inputs)
    if args.setup_only:
        load_round(args.workload, rdirs[0])
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    limit = len(rdirs) if args.rounds is None else min(args.rounds, len(rdirs))
    round_s = []
    start = time.perf_counter()
    with open(args.out, "w", encoding="utf-8") as fh:
        for rdir in rdirs[:limit]:
            if args.rounds is None and round_s and time.perf_counter() - start >= args.seconds:
                break
            ops = load_round(args.workload, rdir)
            t0 = time.perf_counter()
            results = run_round(args.workload, ops)
            round_s.append(time.perf_counter() - t0)
            fh.write(json.dumps({"round": os.path.basename(rdir), "results": results}) + "\n")
    # ru_maxrss is in KiB on Linux; read before anything else allocates
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {"round_s": round_s, "peak_rss_mb": peak_mb}
    if tracer is not None:
        summary["trace"] = tracer.report()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out + ".summary", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
