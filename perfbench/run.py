"""The mreg benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures the
end-to-end metrics of workload W (see perfbench/README.md); with --trace 1
it runs an untraced and a traced worker for S/2 seconds each and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it gives details (sample counts, the tail percentile, failures,
corpus digests and the environment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("points-gf", "points-qq", "coarsening-sweep", "cli-examples")
SETUP_SAMPLES = 8  # workers that only set up
PROCESS_SAMPLES = 7
# op_tail_s is this percentile of the operation times, fixed per workload so
# that parent and change report the same statistic however many passes fit
# in a run.  Each lies in the middle of a plateau of one operation kind (see
# workloads.PASS_PATTERNS) and has at least ten samples above it in a run of
# BENCHMARK.json's run_seconds; the details give the count.
TAIL_PERCENTILE = {"points-gf": 70.8, "points-qq": 75.0, "coarsening-sweep": 90.0,
                   "cli-examples": 88.5}
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
RUN_METRICS = {"cli.interp_s": "s", "cli.import_s": "s", "trace.overhead_s": "s", "src.lines": "lines"}


class WorkerError(RuntimeError):
    pass


def spawn(args, env, timeout):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def setup_seconds(worker, env):
    """Set-up time of one worker, as measured and scaled to nominal speed."""
    before = speed.reference_seconds()
    raw = spawn(worker + ["--setup-only"], env, 60)["setup_s"]
    return raw * speed.scale(before, speed.reference_seconds()), raw


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    xs = sorted(values)
    rank = max(math.ceil(pct / 100 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def process_seconds(code, env):
    times = []
    for _ in range(PROCESS_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "mreg").glob("*.py"))
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit,
            "src_lines": lines}


def summarize(passes):
    ops = [op for p in passes for op in p["ops"]]
    return ops, [op for op in ops if not op["ok"]]


def end_to_end(workload, seed, seconds, env, work):
    worker = ["--workload", workload, "--seed", str(seed), "--workdir", str(work)]
    setups = [setup_seconds(worker, env) for _ in range(SETUP_SAMPLES)]
    res = spawn(worker + ["--seconds", str(seconds)], env, 170)
    ops, failed = summarize(res["passes"])
    pct = TAIL_PERCENTILE[workload]

    def timings(suffix):
        times = [op["t" + suffix] for op in ops]
        return {
            "setup_s": statistics.median(s[suffix == "_raw"] for s in setups),
            "wall_s": statistics.median(p["wall" + suffix] for p in res["passes"]),
            "op_p50_s": statistics.median(times),
            "op_tail_s": percentile(times, pct)[0],
        }

    values = timings("")
    values["peak_rss_mb"] = res["peak_rss_kb"] / 1024
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    detail = {
        "op_samples": len(ops),
        "op_tail_percentile": pct,
        "op_tail_samples_above": percentile([op["t"] for op in ops], pct)[1],
        "passes": len(res["passes"]),
        "failed_frac": len(failed) / len(ops),
        "measured_seconds": timings("_raw"),
    }
    return res, ops, failed, metrics, detail


def per_layer(workload, seed, seconds, env, work):
    worker = ["--workload", workload, "--seed", str(seed), "--workdir", str(work),
              "--seconds", str(seconds / 2)]
    base = spawn(worker, env, 170)
    spans_out = HERE / "out" / f"spans-{workload}-seed{seed}.json"
    spans_out.parent.mkdir(exist_ok=True)
    traced = spawn(worker + ["--trace", "--spans-out", str(spans_out)], env, 170)
    interp = process_seconds("pass", env)
    values = {
        "cli.interp_s": interp,
        "cli.import_s": process_seconds("import mreg", env) - interp,
        "trace.overhead_s": statistics.median(p["wall"] for p in traced["passes"])
        - statistics.median(p["wall"] for p in base["passes"]),
        "src.lines": environment()["src_lines"],
    }
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics.update((name, (values[name], unit)) for name, unit in RUN_METRICS.items())
    ops, failed = summarize(base["passes"] + traced["passes"])
    detail = {"passes": [len(base["passes"]), len(traced["passes"])], "spans_file":
              str(spans_out.relative_to(ROOT))}
    return traced, ops, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mreg" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT} has no src/mreg; run the benchmark from a checkout of the repository")
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        res, ops, failed, metrics, detail = measure(args.workload, args.seed, args.seconds, env, work)
    except (WorkerError, subprocess.TimeoutExpired) as e:
        sys.exit(f"error: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        workload=args.workload, seed=args.seed, mreg_file=res["mreg_file"],
        digests=[p["digest"] for p in res["passes"]],
        failures=[f"{op['name']}: {op['err']}" for op in failed[:5]],
        **environment(),
    )
    record = HERE / "out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"detail": detail, "passes": res["passes"]}))
    detail["record_file"] = str(record.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
