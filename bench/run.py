"""Whole-run benchmark for dynheights.

    python3 bench/run.py --workload {badplaces,heights,census} --seed N \\
                         --seconds S --trace {0,1}

Run from the root of a source checkout.  The run compiles the package to
bytecode, generates the seed's inputs as wire-format files, and times the
package in fresh interpreters (PYTHONHASHSEED fixed) that see only those
files.  Every operation's output is then checked against the benchmark's
own reference code (checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of the time to
               import dynheights and parse round 0 of the inputs
  wall_s       median wall time of one round (the workload's fixed work)
               over the rounds that fit in --seconds
  peak_rss_mb  peak resident memory of the timed process
--trace 1 runs TRACE_ROUNDS rounds untraced and the same rounds traced, and
reports the per-layer totals of the traced run plus trace.overhead_s, the
traced minus the untraced wall time of those rounds.

The exit status is 0 when every check passed, apart from the operations
marked as known faults of the package (counted in "failed" all the same),
and 1 otherwise; 2 when the checkout has no dynheights sources to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, generate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: rounds of inputs generated per run; a faster package runs out of them
#: before --seconds rather than repeating inputs it has already seen
MAX_ROUNDS = 32
TRACE_ROUNDS = 2
SETUP_REPEATS = 5
#: the traced run's spans are kept here, one file per workload and seed
SPANS_DIR = os.path.join(BENCH, ".out")
#: no single child may take longer than this (the whole run must end in 180 s)
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # bytecode is compiled up front, in the checkout
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list) -> float:
    """Run the worker with these arguments; return its wall time in seconds."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}: {' '.join(args)}")
    return elapsed


def _timed(workload, inputs, out, extra) -> dict:
    _run_child(["--workload", workload, "--inputs", inputs, "--out", out] + extra)
    with open(out + ".summary", encoding="utf-8") as fh:
        return json.load(fh)


def _check(workload: str, inputs: str, out: str) -> tuple:
    """(attempted, failed, unexpected) over every round the worker wrote to ``out``.

    ``unexpected`` leaves out the failures of operations the generator marks
    as known faults of the package; those fail on every run alike.
    """
    from checks import CHECKS  # imports dynheights, so only once SRC is on sys.path

    attempted = failed = unexpected = 0
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rdir = os.path.join(inputs, rec["round"])
            with open(os.path.join(rdir, "ops.json"), encoding="utf-8") as f:
                ops = json.load(f)
            with open(os.path.join(rdir, "meta.json"), encoding="utf-8") as f:
                meta = json.load(f)
            if len(rec["results"]) != len(ops):
                raise RuntimeError(f"{rec['round']}: {len(rec['results'])} results for {len(ops)} ops")
            bad = CHECKS[workload](rdir, ops, meta, rec["results"])
            known = set(meta.get("known_fault", ()))
            for i, msg in sorted(bad.items()):
                kind = "known fault" if i in known else "check failed"
                print(f"{kind}: {workload} {rec['round']} op {i}: {msg}", file=sys.stderr)
            attempted += len(ops)
            failed += len(bad)
            unexpected += len(set(bad) - known)
    return attempted, failed, unexpected


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dynheights", "__init__.py")):
        print(f"error: no dynheights sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    compileall.compile_dir(os.path.join(SRC, "dynheights"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    sys.dont_write_bytecode = True
    work = os.path.join(BENCH, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    try:
        generate(args.workload, args.seed, MAX_ROUNDS, inputs)
        if args.trace:
            plain = os.path.join(work, "plain.jsonl")
            traced = os.path.join(work, "traced.jsonl")
            rounds = ["--rounds", str(TRACE_ROUNDS)]
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"{args.workload}-{args.seed}.txt")
            base = _timed(args.workload, inputs, plain, rounds)
            tr = _timed(args.workload, inputs, traced,
                        rounds + ["--trace", "--spans", spans])
            outs = [plain, traced]
            print(f"spans: {spans}", file=sys.stderr)
            for name in tr["trace"]["absent"]:
                print(f"note: {name} is absent; its metrics read 0", file=sys.stderr)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in tr["trace"]["metrics"].items()}
            metrics["trace.overhead_s"] = {
                "value": sum(tr["round_s"]) - sum(base["round_s"]), "unit": "s"}
        else:
            setup = [
                _run_child(["--workload", args.workload, "--inputs", inputs, "--setup-only"])
                for _ in range(SETUP_REPEATS)
            ]
            out = os.path.join(work, "timed.jsonl")
            summary = _timed(args.workload, inputs, out, ["--seconds", str(args.seconds)])
            outs = [out]
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": statistics.median(summary["round_s"]), "unit": "s"},
                "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
            }
            print(f"rounds: {len(summary['round_s'])} "
                  f"round_s: {[round(t, 3) for t in summary['round_s']]}", file=sys.stderr)
        attempted = failed = unexpected = 0
        for out in outs:
            a, f, u = _check(args.workload, inputs, out)
            attempted += a
            failed += f
            unexpected += u
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = unexpected == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
