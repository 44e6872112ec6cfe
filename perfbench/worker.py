"""One benchmark worker: a fresh process that runs passes of one workload.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        [--seconds S] [--trace [--spans-out FILE]] [--setup-only]

`run.py` starts it with PYTHONPATH set to the checkout's `src` and reads
one JSON object from its standard output.  The worker refuses to run when
`mreg` imports from anywhere else.  It stamps `ready` (time.monotonic,
which every process on the machine shares) just before its first timed
operation, then runs whole passes in a closed loop, one operation at a
time, until the next pass would end after S seconds; it always runs at
least MIN_PASSES passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2


def pinned_mreg():
    root = Path(__file__).resolve().parent.parent
    import mreg

    expected = (root / "src" / "mreg").resolve()
    if Path(mreg.__file__).resolve().parent != expected:
        sys.exit(f"mreg imported from {mreg.__file__}, not from {expected}")
    return mreg


def run_passes(corpus, seconds: float, tracer=None, on_ready=None):
    """Run whole passes until the next one would overrun `seconds`.

    Every operation is timed between two runs of the speed reference (see
    speed.apply for the scaled times "t", "call" and "wall"); "t_raw" and
    "call_raw" (the operation with its checks) are as measured.
    """
    import speed
    import tracing
    import workloads

    passes = []
    rss_kb = None
    items = corpus.items(0)
    if on_ready:
        on_ready()
    t_start = time.perf_counter()
    ref_before = speed.reference_seconds()
    k = 0
    while True:
        ops = []
        for j, (name, fn) in enumerate(corpus.ops(items)):
            if tracer is not None:
                tracer.op = (k, j)
                first_span = len(tracer.spans)
            t0 = time.perf_counter()
            err, work = None, {}
            try:
                work = fn()
            except workloads.CheckFailed as e:
                err = f"check: {e}"
            except Exception:  # a crash of the engine is a failed operation
                err = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
                work["buchberger_sizes"] = [
                    rec[tracing.SIZE] for rec in tracer.spans[first_span:]
                    if rec[tracing.NAME] == "groebner.buchberger"]
            ref_after = speed.reference_seconds()
            ops.append({"name": name, "t_raw": work.pop("elapsed", elapsed), "call_raw": elapsed,
                        "speed": speed.scale(ref_before, ref_after),
                        "ok": err is None, "err": err, "work": work})
            ref_before = ref_after
        passes.append({"digest": workloads.digest(items), "ops": ops})
        if len(passes) == MIN_PASSES:
            # high-water mark after a fixed amount of work, not after however
            # many passes the time allowed; cli-examples measures its children
            who = resource.RUSAGE_CHILDREN if corpus.workload == "cli-examples" else resource.RUSAGE_SELF
            rss_kb = resource.getrusage(who).ru_maxrss
        k += 1
        elapsed = time.perf_counter() - t_start
        if k >= MIN_PASSES and elapsed * (k + 1) / k > seconds:
            break
        items = corpus.items(k)
    speed.apply(passes)
    return passes, rss_kb


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    mreg = pinned_mreg()
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cli = None
    if args.workload == "cli-examples":
        cli = workloads.CliRunner(tracer=tracer, workdir=workdir)
    corpus = workloads.Corpus(args.workload, args.seed, workdir, cli)
    result = {"mreg_file": mreg.__file__}

    def ready():
        result["ready"] = time.monotonic()

    if args.setup_only:
        corpus.items(0)
        ready()
    else:
        passes, rss_kb = run_passes(corpus, args.seconds, tracer, ready)
        result.update(passes=passes, peak_rss_kb=rss_kb)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, range(len(passes)))
            result["layers"].update(tracing.microbenchmarks())
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
