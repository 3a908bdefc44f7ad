"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload race --seed 1 --seconds 12 --trace 0

Run from the root of a taulab checkout; the package is imported from its
``src`` directory.  Each run is one single-threaded process.

With ``--trace 0`` the run sets up (imports, base constructions and one
untimed warm-up operation), then times whole rounds of operations until
``--seconds`` of operation time have been measured, checking every result
untimed.  Set-up is then repeated in fresh child processes, one after the
other, and ``setup_s`` is the median of all set-up times.

With ``--trace 1`` the run sets up once, times one round untraced, then
runs the same round again with the public functions named in
``tracing.py`` wrapped, and prints the per-layer metrics.

Every run writes its record to ``perfbench/out/`` (a traced run its spans
too); the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# The work the traced run counts, to compare with the untraced work counts.
TRACED_WORK = {
    "race": lambda t: t.counts["tpl.steps.top"],
    "search": lambda t: t.calls["proofs.code_to_proof"],
    "stream": lambda t: t.calls["theories.enumerate_axioms"],
    # henkin_complete asks order_truth once whether the base derives the
    # contradiction, then once per sentence it commits
    "decide": lambda t: (t.calls["theories.order_truth"]
                         - t.calls["constructions.henkin_complete"]),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACED_WORK))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time in seconds and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int):
    """Import taulab, build the workload and run one untimed warm-up
    operation; return the workload and the seconds all of it took."""
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "taulab" / "__init__.py").is_file():
        raise SystemExit(f"no taulab sources under {src}: run from a taulab checkout")
    sys.path.insert(0, str(src))
    import workloads  # imports taulab

    workload = workloads.WORKLOADS[name](seed)
    try:
        workload.run(workload.round(0)[0])
    except Exception:  # the timed operations count the failure
        traceback.print_exc(file=sys.stderr)
    return workload, time.perf_counter() - started


class Tally:
    """Times, work and failures of the operations of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.work = 0
        self.failed = 0
        self.wrong = 0  # failed operations that returned a wrong result

    def op(self, workload, arg, tracer=None) -> None:
        """Run one operation, timed, then check its result untimed."""
        gc.collect()
        error = result = None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = workload.run(arg)
            except Exception:
                error = traceback.format_exc()
            self.times.append(time.perf_counter() - t0)
        if error is None:
            try:
                problem = workload.check(arg, result)
            except Exception:
                error = traceback.format_exc()
            else:
                if problem is None:
                    self.work += workload.work(result)
                    return
                self.wrong += 1
                error = f"wrong result: {problem}"
        self.failed += 1
        print(f"{workload.name}: operation failed: {error}", file=sys.stderr)

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.times) * 1000.0


def setup_sample(args) -> float:
    """One set-up time, measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return float(done.stdout.split()[-1])


def timed_run(args):
    workload, setup_s = set_up(args.workload, args.seed)
    tally = Tally()
    rounds = 0
    while rounds == 0 or sum(tally.times) < args.seconds:
        for arg in workload.round(rounds):
            tally.op(workload, arg)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (tally.p50_ms, "ms"),
        "work_per_s": (tally.work / sum(tally.times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"rounds": rounds, "setup_samples_s": setups, "op_times_s": tally.times}
    return [tally], metrics, True, extra


def traced_run(args):
    workload, _ = set_up(args.workload, args.seed)
    from taulab import tpl
    from tracing import Tracer

    ops = workload.round(0)
    plain = Tally()
    for arg in ops:
        plain.op(workload, arg)
    tracer = Tracer()
    traced = Tally()
    before = tpl.program_from_code.cache_info()
    for arg in ops:
        traced.op(workload, arg, tracer)
    after = tpl.program_from_code.cache_info()
    counted = TRACED_WORK[args.workload](tracer)
    consistent = counted == traced.work == plain.work
    if not consistent:
        print(f"the trace counted {counted} units of work, the operations "
              f"{traced.work} traced and {plain.work} untraced", file=sys.stderr)
    metrics = tracer.metrics(after.hits - before.hits, after.misses - before.misses,
                             traced.p50_ms / plain.p50_ms)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans_{args.workload}_{args.seed}.tsv.gz")
    extra = {"traced_work": counted, "spans": len(tracer.span_start),
             "plain_times_s": plain.times, "traced_times_s": traced.times}
    return [plain, traced], metrics, consistent, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, setup_s = set_up(args.workload, args.seed)
        print(repr(setup_s))
        return 0
    tallies, metrics, consistent, extra = (traced_run if args.trace else timed_run)(args)
    out = {
        "correct": consistent and not any(t.wrong for t in tallies),
        "attempted": sum(len(t.times) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, **extra)
    kind = "trace" if args.trace else "run"
    (OUT / f"BENCH_{args.workload}_{args.seed}_{kind}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
