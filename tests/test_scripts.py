"""Smoke runs of the scripts in scripts/, as a user would start them, and the
names the benchmark's traced mode looks up in the package."""

import ast
import importlib
import json
import runpy
import subprocess
import sys

import pytest

from tests.test_cli import ROOT, run_process


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, capture_output=True, text=True,
    )


def test_run_worked_examples():
    proc = run_script("run_worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "=== four-cycle" in proc.stdout


def test_coarsening_sweep_family_matches_minvectors():
    argv = ["problems/four-cycle.json", "--box", "4", "--imax", "2"]
    proc = run_script("coarsening_sweep.py", *argv)
    assert proc.returncode == 0, proc.stderr
    line = next(x for x in proc.stdout.splitlines() if x.startswith("minimal family"))
    family = ast.literal_eval(line.split(":", 1)[1].strip())
    cli = run_process("mreg", ["minvectors", *argv[1:], argv[0]])
    assert cli.returncode == 0, cli.stderr
    assert [list(v) for v in family] == json.loads(cli.stdout)["minimal"]


@pytest.mark.parametrize("argv,message", [
    (["problems/four-cycle.json", "--imax", "-1"], "error: no homological indices to compare"),
    (["problems/four-cycle.json", "--box", "-1"], "error: no candidate coarsening vectors"),
    (["problems/no-such-file.json"], "error: cannot read problem file: [Errno 2] "
                                     "No such file or directory: 'problems/no-such-file.json'"),
], ids=["imax", "box", "missing"])
def test_coarsening_sweep_reports_errors_as_the_cli_does(argv, message):
    proc = run_script("coarsening_sweep.py", *argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]
    # a flag the sweep cannot use is rejected before any row is printed
    assert proc.stdout == ""


def test_every_traced_name_resolves():
    # `perfbench/run.py --trace 1` wraps these by name; a renamed or removed
    # function breaks the traced benchmark, so a src change must keep them.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for table in (tracing["TRACED"], tracing["COUNTED"]):
        for modname, names in table.items():
            module = importlib.import_module(f"mreg.{modname}")
            for name in names:
                assert callable(getattr(module, name, None)), f"mreg.{modname}.{name}"


def _resolve(dotted: str):
    """The object a dotted `mreg...` path names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:k]))
        obj = getattr(obj, part)
    return obj


def _dotted(node):
    return _dotted(node.value) + "." + node.attr if isinstance(node, ast.Attribute) else node.id


def test_every_package_name_the_benchmark_reads_resolves():
    # the workloads, the worker and the micro-benchmarks read the package by
    # attribute and by `from mreg... import`; each of those names must exist
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mreg":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "mreg":
                    names.add(_dotted(node))
    assert "mreg.poly.TermOrder" in names and "mreg.point_ideal" in names
    for name in sorted(names):
        _resolve(name)
    # `poly.order_key_ns` times TermOrder.key
    assert callable(_resolve("mreg.poly.TermOrder.key"))


def test_bench_pairs_refuses_checkouts_with_bytecode_caches(tmp_path, capsys):
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "mreg").mkdir(parents=True)
    (change / "src" / "mreg" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "points-gf", "--seeds", "1-2",
            "--seconds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        bench["main"](argv)
    assert info.value.code == 2 and not out.exists()
    # only the change's cache is named; no run was started
    err = capsys.readouterr().err
    assert err.endswith("error: remove the bytecode caches first: "
                        f"{change / 'src' / 'mreg' / '__pycache__'}\n")


def test_bench_pairs_aggregates_canned_runs():
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))

    def run_output(seed, commit, wall, failed=0):
        details = {"seed": seed, "commit": commit, "src_lines": 100 if commit == "a1" else 90}
        result = {"correct": not failed, "attempted": 12, "failed": failed, "metrics": {
            "wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
        return f"progress\n{json.dumps(details)}\n{json.dumps(result)}\n"

    walls = [(0.45, 0.33), (0.46, 0.34), (0.44, 0.45), (0.47, 0.32)]
    pairs = []
    for seed, (p, c) in enumerate(walls):
        sides = [("parent", "a1", p, 0), ("change", "b2", c, int(seed == 2))]
        pairs.append({side: bench["parse_run"](run_output(seed, commit, wall, failed))
                      for side, commit, wall, failed in (sides if seed % 2 == 0 else sides[::-1])})
    better = {"wall_s": "lower", "peak_rss_mb": "lower"}
    out = bench["summarize"](pairs, better, {"wall_s": 0.25, "peak_rss_mb": 0.1})
    assert out["pairs"] == 4 and out["first"] == ["parent", "change"] * 2
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [0.45, 0.46, 0.44, 0.47]
    assert wall["change"]["values"] == [0.33, 0.34, 0.45, 0.32]
    assert wall["parent"]["median"] == pytest.approx(0.455)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (pytest.approx(0.4425), pytest.approx(0.4675))
    assert wall["change_won"] == 3 and wall["unit"] == "s" and wall["better"] == "lower"
    assert out["metrics"]["peak_rss_mb"]["change_won"] == 0  # ties count for neither side
    assert out["change"]["failed"] == [0, 0, 1, 0] and out["change"]["attempted"] == [12] * 4
    assert out["parent"]["seeds"] == [0, 1, 2, 3]
    assert (out["parent"]["commit"], out["parent"]["src_lines"]) == (["a1"], [100])
    assert (out["change"]["commit"], out["change"]["src_lines"]) == (["b2"], [90])
    # the parent's quartiles span 0.025 / 0.455 = 5.5 % of its median
    assert wall["parent_spread"] == pytest.approx(0.025 / 0.455)
    assert wall["resolved"] and out["metrics"]["peak_rss_mb"]["resolved"]
    tight = bench["summarize"](pairs, better, {"wall_s": 0.05, "peak_rss_mb": 0.0})
    assert not tight["metrics"]["wall_s"]["resolved"]
    assert tight["metrics"]["peak_rss_mb"]["resolved"]  # no spread at all
    # the change's median over the parent's: 0.335 / 0.455
    assert wall["ratio"] == pytest.approx(0.335 / 0.455)
    assert out["metrics"]["peak_rss_mb"]["ratio"] == 1.0
    assert bench["ratio_line"]("points-gf", out) == \
        "points-gf: wall_s x0.736 won 3/4, peak_rss_mb x1.000 won 0/4"
    # a parent median of 0 has no ratio
    zero = [{side: (d, {**r, "metrics": {"wall_s": {"value": 0.0, "unit": "s"}}})
             for side, (d, r) in p.items()} for p in pairs]
    none = bench["summarize"](zero, {"wall_s": "lower"}, {"wall_s": 0.25})
    assert none["metrics"]["wall_s"]["ratio"] is None
    assert bench["ratio_line"]("points-gf", none) == "points-gf: wall_s x- won 0/4"


def test_bench_pairs_records_per_operation_medians(tmp_path):
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))

    def canned_run(side, seed, times):
        # a record file as perfbench/run.py writes it: passes of named, scaled ops
        record = tmp_path / side / "perfbench" / "out" / f"run-points-qq-seed{seed}-trace0.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        passes = [{"ops": [{"name": name, "t": t, "t_raw": 2 * t} for name, t in p]} for p in times]
        record.write_text(json.dumps({"detail": {}, "passes": passes}))
        details = {"seed": seed, "commit": side, "src_lines": 90,
                   "record_file": str(record.relative_to(tmp_path / side))}
        result = {"attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}
        details["op_times"] = bench["op_times"](tmp_path / side, details)
        return details, result

    runs = {"parent": [[[("gen4", 0.02), ("L4", 0.05)], [("gen4", 0.04), ("L4", 0.07)]],
                       [[("gen4", 0.03), ("L4", 0.06)]]],
            "change": [[[("gen4", 0.01), ("L4", 0.05)]], [[("gen4", 0.03), ("L4", 0.04)]]]}
    pairs = [{side: canned_run(side, seed, runs[side][seed]) for side in ("parent", "change")}
             for seed in range(2)]
    assert pairs[0]["parent"][0]["op_times"] == {"gen4": [0.02, 0.04], "L4": [0.05, 0.07]}
    out = bench["summarize"](pairs, {"wall_s": "lower"}, {"wall_s": 0.25})
    # pooled over both runs of a side: the median of 0.02, 0.04, 0.03 and so on
    assert out["parent"]["op_medians"] == {"L4": pytest.approx(0.06), "gen4": pytest.approx(0.03)}
    assert out["change"]["op_medians"] == {"L4": pytest.approx(0.045), "gen4": pytest.approx(0.02)}
