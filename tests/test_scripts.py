"""Smoke runs of the scripts in scripts/, as a user would start them, and the
names the benchmark's traced mode looks up in the package."""

import ast
import importlib
import json
import runpy
import subprocess
import sys

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


def test_every_traced_name_resolves():
    # `perfbench/run.py --trace 1` wraps these by name; a renamed or removed
    # function breaks the traced benchmark, so a src change must keep them.
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for table in (tracing["TRACED"], tracing["COUNTED"]):
        for modname, names in table.items():
            module = importlib.import_module(f"mreg.{modname}")
            for name in names:
                assert callable(getattr(module, name, None)), f"mreg.{modname}.{name}"
