"""Tests of the benchmark itself (not part of the repository's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check that BENCHMARK.json names what run.py prints, that the corpora
are deterministic and never repeat a module, that work counts repeat
exactly between two runs of one seed, that an injected wrong result is
counted as a failed operation, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import mreg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (unit, _, _) in tracing.SPAN_METRICS.items()}
    layers.update((name, "ns") for name in tracing.MICRO_METRICS)
    layers.update(run.RUN_METRICS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers


def test_percentile_is_nearest_rank():
    assert run.percentile(list(range(1, 41)), 72.2) == (29, 11)
    assert run.percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_depends_on_the_seed_alone(workload, tmp_path):
    def digests(seed, sub):
        corpus = workloads.Corpus(workload, seed, tmp_path / sub)
        return [workloads.digest(corpus.items(k)) for k in range(3)]

    first = digests(11, "a")
    assert first == digests(11, "b")
    assert first != digests(12, "c")
    assert len(set(first)) == 3


def _module_keys(workload, passes):
    corpus = workloads.Corpus(workload, 5)
    keys = []
    for k in range(passes):
        for item in corpus.items(k):
            if workload == "coarsening-sweep":
                P = workloads.build_module(item)
            else:
                field = mreg.problems.parse_field(item["field"])
                ring = mreg.multiproj_ring((1, 1), field)
                X = mreg.PointSet((1, 1), item["points"])
                P = mreg.ModulePresentation.quotient_by_ideal(ring, mreg.point_ideal(X, ring))
            keys.append(P.cache_key())
    return keys


@pytest.mark.parametrize("workload", ["points-gf", "points-qq", "coarsening-sweep"])
def test_no_two_modules_share_a_cache_key(workload):
    # the operations of one coarsening-sweep module share it on purpose;
    # no module is ever seen again, in this pass or a later one
    passes = 2 if workload == "points-qq" else 3
    keys = _module_keys(workload, passes)
    assert len(set(keys)) == len(keys)


def _traced_worker(workload, seed, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "--workdir", str(tmp_path)],
        env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["points-gf", "coarsening-sweep"])
def test_work_counts_repeat_exactly(workload, tmp_path):
    a = _traced_worker(workload, 3, tmp_path / "a")
    b = _traced_worker(workload, 3, tmp_path / "b")
    assert [p["digest"] for p in a["passes"]] == [p["digest"] for p in b["passes"]]
    work_a = [[op["work"] for op in p["ops"]] for p in a["passes"]]
    assert work_a == [[op["work"] for op in p["ops"]] for p in b["passes"]]
    assert all(op["ok"] for p in a["passes"] for op in p["ops"])
    assert any(op["work"]["buchberger_sizes"] for p in a["passes"] for op in p["ops"])
    exact = [m for m, (_, stat, _) in tracing.SPAN_METRICS.items() if stat in tracing.EXACT_STATS]
    assert {m: a["layers"][m] for m in exact} == {m: b["layers"][m] for m in exact}
    assert a["layers"]["regularity.regnum_module.calls"][0] > 0


class OneItemCorpus(workloads.Corpus):
    """A corpus cut down to the items whose name starts with `prefix`."""

    def __init__(self, workload, prefix, tmp_path, cli=None):
        super().__init__(workload, 1, tmp_path, cli)
        self.prefix = prefix

    def items(self, k):
        return [i for i in super().items(k) if i["name"].startswith(self.prefix)]


def _failed_ops(corpus):
    passes, _ = worker.run_passes(corpus, 0.0)
    ops = [op for p in passes for op in p["ops"]]
    assert ops
    return [op for op in ops if not op["ok"]], ops


def test_wrong_regnum_is_counted_as_failed(monkeypatch, tmp_path):
    honest = mreg.regnum_module

    def off_by_one(P, v, route="ext"):
        return honest(P, v, route) + (route == "ext")

    monkeypatch.setattr(mreg, "regnum_module", off_by_one)
    for corpus in (OneItemCorpus("points-gf", "L4", tmp_path),
                   OneItemCorpus("coarsening-sweep", "hirzebruch-s4", tmp_path)):
        failed, ops = _failed_ops(corpus)
        vector_ops = [op for op in ops if not op["name"].endswith("@family")]
        assert failed == vector_ops
        assert all(op["err"].startswith("check:") for op in failed)


def test_wrong_cli_output_is_counted_as_failed(tmp_path):
    wrong = json.dumps({"positive": True, "suggested_v": [1, 4]})
    cli = workloads.CliRunner(command=[sys.executable, "-c", f"print({wrong!r})"])
    failed, ops = _failed_ops(OneItemCorpus("cli-examples", "check", tmp_path, cli))
    # [1, 4] is right only for a generated Hirzebruch ring of type 3
    assert len(failed) >= len(ops) / 2 and all(op["err"].startswith("check:") for op in failed)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points-gf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
