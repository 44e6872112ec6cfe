#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload points-gf \
        --seeds 601-610 --seconds 26 --out BENCH_9.json

Each checkout runs its own, unchanged `perfbench/run.py --trace 0`, one
process at a time, with PYTHONDONTWRITEBYTECODE=1, so every process of
both sides compiles its sources; the script refuses to start while either
checkout holds a `__pycache__` under `src/`, which would spare one side
that work.  Pair k runs the parent first when k is even and the
change first when k is odd.  Per workload, the file records, for every
end-to-end metric, the per-pair values of both sides, each side's median
and quartiles, the `ratio` of the change's median to the parent's (None
when the parent's median is 0), and the number of pairs the change won
(ties count for neither side); one stderr line per workload gives every
metric's ratio and pairs won.  Per side it records `failed`/`attempted` of every run, the
`commit` and `src_lines` read from perfbench's details line, and
`op_medians`: per operation name, the median scaled time of that
operation over all of the side's runs, read from the record file each
details line names (`record_file`).  A metric
is `resolved` when the parent's quartiles span at most the metric's
`bound` in BENCHMARK.json, as a share of the parent's median; the
unresolved ones are also printed to stderr, since one run of pairs cannot
tell a change of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_run(stdout: str):
    """(details, result) from the last two lines of a perfbench run."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def op_times(checkout, details) -> dict:
    """{operation name: [scaled time, ...]} from the run's record file."""
    record = json.loads((pathlib.Path(checkout) / details["record_file"]).read_text())
    times = {}
    for p in record["passes"]:
        for op in p["ops"]:
            times.setdefault(op["name"], []).append(op["t"])
    return times


def run_side(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    details, result = parse_run(proc.stdout)
    details["op_times"] = op_times(checkout, details)
    return details, result


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better: dict, bounds: dict) -> dict:
    """Aggregate one workload's pairs: [{"parent": (details, result), "change": ...}, ...].

    Each pair's keys are in the order the sides ran.  `better` maps each
    end-to-end metric to "lower" or "higher", `bounds` to its relative
    bound.  Quartiles are those of statistics.quantiles (exclusive method).
    """
    out = {"pairs": len(pairs), "first": [next(iter(p)) for p in pairs], "metrics": {}}
    for side in SIDES:
        details = [p[side][0] for p in pairs]
        results = [p[side][1] for p in pairs]
        times = {}
        for d in details:
            for name, ts in d.get("op_times", {}).items():
                times.setdefault(name, []).extend(ts)
        out[side] = {
            "seeds": [d["seed"] for d in details],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "commit": sorted({d["commit"] for d in details}),
            "src_lines": sorted({d["src_lines"] for d in details}),
            "op_medians": {name: statistics.median(ts) for name, ts in sorted(times.items())},
        }
    for name, direction in better.items():
        values = {side: [p[side][1]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        sides = {side: {"values": values[side], **spread(values[side])} for side in SIDES}
        parent = sides["parent"]
        width = parent["q3"] - parent["q1"]
        rel = width / parent["median"] if width else 0.0
        out["metrics"][name] = {
            "unit": pairs[0]["parent"][1]["metrics"][name]["unit"],
            "better": direction,
            **sides,
            "ratio": sides["change"]["median"] / parent["median"] if parent["median"] else None,
            "change_won": won,
            "parent_spread": rel,
            "resolved": rel <= bounds[name],
        }
    return out


def ratio_line(workload: str, summary: dict) -> str:
    """One line: every metric's change/parent median ratio and the pairs the change won."""
    parts = []
    for name, m in summary["metrics"].items():
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        parts.append(f"{name} x{ratio} won {m['change_won']}/{summary['pairs']}")
    return f"{workload}: " + ", ".join(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 601-610")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True, help="BENCH_<n>.json")
    args = ap.parse_args(argv)

    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = [str(d) for c in checkouts.values() for d in sorted((c / "src").rglob("__pycache__"))]
    if cached:
        ap.error("remove the bytecode caches first: " + " ".join(cached))
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(range(first, last + 1)):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(checkouts[side], workload, seed, args.seconds) for side in order}
            pairs.append(pair)
            wall = {side: pair[side][1]["metrics"]["wall_s"]["value"] for side in SIDES}
            print(f"{workload} seed {seed}: wall_s parent {wall['parent']:.4f} "
                  f"change {wall['change']:.4f}", file=sys.stderr)
        report["workloads"][workload] = summary = summarize(pairs, better, bounds)
        print(ratio_line(workload, summary), file=sys.stderr)
        for name, metric in summary["metrics"].items():
            if not metric["resolved"]:
                print(f"{workload} {name}: unresolved, the parent's quartiles span "
                      f"{metric['parent_spread']:.1%} of its median, over the bound "
                      f"{bounds[name]:.0%}", file=sys.stderr)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
