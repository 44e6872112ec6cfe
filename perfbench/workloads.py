"""Seeded corpora, operations and cross-checks of the four benchmark workloads.

A workload is an endless sequence of passes.  Pass k is generated from the
workload seed and k alone, so a seed fixes every input.  Each pass has the
same shape (the same point patterns, module shapes or CLI invocations) and
fresh coordinates, relabellings or variable names, so the amount of work is
nearly the same from seed to seed while no module repeats within a run:
the in-process caches of `mreg` never serve a later pass.

Every operation re-runs an independent cross-check and raises `CheckFailed`
on a mismatch, so a faster but wrong engine shows up as failed operations.
The checks never compare against stored outputs of the code under test,
except that a shipped CLI invocation must print the same bytes on every pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from math import comb, gcd
from pathlib import Path

import mreg

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("points-gf", "points-qq", "coarsening-sweep", "cli-examples")


class CheckFailed(Exception):
    """An independent cross-check disagreed with the engine's result."""


def check(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def digest(items) -> str:
    """Digest of a pass's inputs; the location of generated files is left out."""
    canon = [{k: v for k, v in item.items() if k != "file"} for item in items]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16]


# -- point sets in P^1 x P^1 ----------------------------------------------------

# Occupied cells of a grid: a point (r, c) gets the r-th x-value and the
# c-th y-value of the pass.  Fixing the incidence pattern and seeding the
# values keeps the Groebner work per pattern steady across seeds.  All
# patterns except the two Cohen-Macaulay ones (L4, T5) have projective
# dimension 3; "gen4" is four points in generic position.
POINT_PATTERNS = {
    "gen4": ((0, 0), (1, 1), (2, 2), (3, 3)),
    "L4": ((0, 0), (0, 1), (0, 2), (1, 0)),
    "T5": ((0, 0), (0, 1), (0, 2), (1, 1), (2, 1)),
    "Z5": ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)),
    "D5": ((0, 0), (1, 0), (1, 1), (2, 2), (3, 1)),
    "S6": ((0, 1), (0, 3), (1, 2), (2, 0), (2, 3), (3, 2)),
}
# Repeated patterns make plateaus in the sorted operation times, so the
# median and the tail percentile of run.TAIL_PERCENTILE fall inside one
# pattern's times instead of on the edge between two.
PASS_PATTERNS = {
    "points-gf": ("gen4", "gen4", "S6", "S6", "S6", "D5", "D5", "Z5", "Z5", "Z5", "T5", "L4"),
    "points-qq": ("gen4", "D5", "D5", "Z5", "Z5", "T5", "T5", "L4"),
}
FIELD_SPEC = {"points-gf": "p:32003", "points-qq": "q"}
SECOND_VECTOR = (1, 2)
PIECE_DEGREES = (1, 2, 3)


def _pattern_points(rng: random.Random, name: str, workload: str):
    cells = POINT_PATTERNS[name]
    rows = 1 + max(r for r, _ in cells)
    cols = 1 + max(c for _, c in cells)
    if name == "gen4" or workload == "points-gf":
        # coordinates drawn like test_random_generic_points_match_formula;
        # over GF(p) no accidental relation among them changes the work
        pool = range(1, 31001)
    else:
        # small values, drawn like the Random(99) test, keep rationals small
        pool = range(1, 14)
    xs, ys = rng.sample(pool, rows), rng.sample(pool, cols)
    return [[[1, xs[r]], [1, ys[c]]] for r, c in cells]


def point_pass(workload: str, seed: int, k: int, seen: set):
    rng = random.Random(f"{workload}:{seed}:{k}")
    items = []
    for name in PASS_PATTERNS[workload]:
        while True:
            pts = _pattern_points(rng, name, workload)
            key = json.dumps(sorted(pts))
            if key not in seen:
                seen.add(key)
                break
        items.append({"name": name, "field": FIELD_SPEC[workload], "points": pts})
    return items


def generic_formula(dims, count: int) -> int:
    """max over factors of the least d with C(d + n, d) >= count."""
    return max(next(d for d in itertools.count() if comb(d + n, d) >= count) for n in dims)


def points_report(item) -> dict:
    """The whole report for one point set, with the paper's cross-checks."""
    field = mreg.problems.parse_field(item["field"])
    ring = mreg.multiproj_ring((1, 1), field)
    X = mreg.PointSet((1, 1), item["points"])
    P = mreg.ModulePresentation.quotient_by_ideal(ring, mreg.point_ideal(X, ring))
    F = mreg.cached_minimal_resolution(P)
    mreg.ext_modules(P)
    regnums = {v: mreg.regnum_module(P, v) for v in ((1, 1), SECOND_VECTOR)}

    Bz = mreg.betti_table(mreg.coarsen_resolution(F, (1, 1)))
    check(regnums[(1, 1)] == mreg.regnum_lower_bound(Bz, 1, 1),
          "regnum under (1,1) differs from the Betti-table regularity")
    n = len(X)
    generic = mreg.generic_position_check(X, (n + 1, n + 1), ring)
    if generic:
        check(regnums[(1, 1)] == generic_formula((1, 1), n),
              "generic point set misses the generic regularity formula")
    bound_points = []
    for v in regnums:
        for i, shifts in enumerate(F.shifts):
            allowed = mreg.degree_bound_set(P, v, i).as_set()
            check(set(shifts) <= allowed, f"Betti degree outside the bound set, v={v} i={i}")
            bound_points.append(len(allowed))
    for m in PIECE_DEGREES:
        hilb = sum(mreg.hilbert_function_points(X, (i, m - i), ring) for i in range(m + 1))
        check(mreg.graded_piece_dimension(P, (1, 1), m) == hilb,
              f"graded piece {m} disagrees with the evaluation ranks")
    return {
        "ranks": [len(s) for s in F.shifts],
        "regnums": list(regnums.values()),
        "generic": generic,
        "bound_points": bound_points,
    }


# -- coarsening sweep -------------------------------------------------------------

TRIGRADED = (("x0", "x1"), ("y0", "y1"), ("z0", "z1"))
SIX_CYCLE = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))  # (factor, index) in cycle order
SWEEP_IMAX = 3


def box_candidates(degrees, box: int):
    """Primitive vectors with coordinates in [-box, box], positive on every degree."""
    r = len(degrees[0])
    out = []
    for v in itertools.product(range(-box, box + 1), repeat=r):
        if any(v) and gcd(*v) == 1 and all(
            sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees
        ):
            out.append(list(v))
    return sorted(out)


def _module_item(name, variables, degrees, edges, box, tag):
    # A pass-specific suffix on every variable gives each pass a module the
    # caches have never seen; names do not enter the arithmetic.
    ren = {x: f"{x}_{tag}" for x in variables}
    return {
        "name": name,
        "variables": [ren[x] for x in variables],
        "degrees": [list(d) for d in degrees],
        "ideal": [f"{ren[a]}*{ren[b]}" for a, b in edges],
        "box": box,
        "candidates": box_candidates(degrees, box),
    }


def sweep_pass(seed: int, k: int):
    rng = random.Random(f"coarsening-sweep:{seed}:{k}")
    tag = f"p{k}"
    # trigraded six-cycle, relabelled by a seeded permutation of the three
    # factors and of the two variables within each factor
    factor_perm = rng.sample(range(3), 3)
    flips = [rng.randrange(2) for _ in range(3)]
    label = [TRIGRADED[factor_perm[f]][i ^ flips[f]] for f, i in SIX_CYCLE]
    variables = [x for pair in TRIGRADED for x in pair]
    degrees = [[int(j == f) for j in range(3)] for f in range(3) for _ in range(2)]
    edges = [(label[j], label[(j + 1) % 6]) for j in range(6)]
    items = [_module_item("six-cycle", variables, degrees, edges, 3, tag)]
    # the shipped four-cycle face ring: Stanley-Reisner ideal (x0 x1, y0 y1)
    items.append(_module_item(
        "four-cycle", ["x0", "x1", "y0", "y1"], [[1, 0], [1, 0], [0, 1], [0, 1]],
        [("x0", "x1"), ("y0", "y1")], 5, tag,
    ))
    for s in (2, 3, 4):
        items.append(_module_item(
            f"hirzebruch-s{s}", ["x1", "x2", "x3", "x4"],
            [[1, 0], [-s, 1], [1, 0], [0, 1]], [("x1", "x2"), ("x3", "x4")], s + 3, tag,
        ))
    return items


def build_module(item):
    R = mreg.MultigradedRing(tuple(item["variables"]), tuple(map(tuple, item["degrees"])))
    return mreg.ModulePresentation.quotient_by_ideal(R, [R.parse(g) for g in item["ideal"]])


def sweep_ops(item):
    """One operation per candidate vector, then the minimal coarsening family.

    All operations of one module share it, so its resolution and Ext
    modules are computed once and served from the cache afterwards.
    """
    state = {}

    def module():
        if "P" not in state:
            state["P"] = build_module(item)
        return state["P"]

    def vector_op(v):
        P = module()
        ext = mreg.regnum_module(P, v)
        hoch = mreg.regnum_module(P, v, route="hochster")
        check(ext == hoch, f"Ext route {ext} != Hochster route {hoch} at v={v}")
        F = mreg.cached_minimal_resolution(P)
        sizes = []
        for i in range(SWEEP_IMAX + 1):
            allowed = mreg.degree_bound_set(P, v, i).as_set()
            if i < len(F.shifts):
                check(set(F.shifts[i]) <= allowed, f"Betti degree outside the bound set, v={v} i={i}")
            sizes.append(len(allowed))
        return {"regnum": ext, "bound_points": sizes}

    def family_op():
        P = module()
        cands = [list(v) for v in mreg.positive_coarsening_candidates(P.ring.degrees, item["box"])]
        check(cands == item["candidates"], "candidate vectors differ from the box enumeration")
        kept = mreg.minimal_coarsening_set(P, box=item["box"])
        check(kept and all(list(v) in cands for v in kept), "minimal family is not a candidate subset")
        return {"candidates": len(cands), "kept": [list(v) for v in kept]}

    for v in item["candidates"]:
        yield f"{item['name']}@{','.join(map(str, v))}", lambda v=tuple(v): vector_op(v)
    yield f"{item['name']}@family", family_op


# -- the mreg command ---------------------------------------------------------------

# The README's invocations: (subcommand words, flags, shipped problem).
README_INVOCATIONS = (
    (["check"], [], "hirzebruch-s2"),
    (["regnum"], ["--v", "1,1"], "ex1-four-points"),
    (["betti"], ["--v", "1,1"], "eight-points"),
    (["resolve"], ["--v", "1,3"], "hirzebruch-s2"),
    (["bounds"], ["--v", "1,1", "--imax", "2"], "four-cycle"),
    (["minvectors"], ["--box", "4", "--imax", "2"], "four-cycle"),
    (["scalar-check"], ["--v", "1,1", "--d", "2"], "ex1-four-points"),
    (["hochster"], ["--v", "2,3"], "four-cycle"),
    (["points", "hilbert"], ["--box", "5"], "eight-points"),
    (["points", "bregularity"], [], "eight-points"),
    (["points", "resvector"], [], "eight-points"),
    (["points", "generic"], ["--box", "6"], "ex1-four-points"),
    (["points", "connections"], [], "eight-points"),
)
CLI_BOOT = "import sys; from mreg.cli import main; sys.argv[0] = 'mreg'; main()"


def _generated_problems(rng: random.Random):
    """Seeded problem files of the shipped kinds, with what is known of each."""
    s = rng.choice((2, 3, 4))
    xs, ys = rng.sample(range(0, 13), 2), rng.sample(range(0, 13), 2)
    lx, ly = rng.sample(range(1, 13), 5), rng.sample(range(1, 13), 4)
    edges = [["x0", "y0"], ["x0", "y1"], ["x1", "y0"], ["x1", "y1"]]
    facets = rng.sample(edges, rng.choice((3, 4)))
    return {
        # Hirzebruch ring of type s; its smallest coarsening vector is (1, s+1)
        "hirzebruch-s2": ({
            "field": "p:32003",
            "ring": {"variables": ["x1", "x2", "x3", "x4"],
                     "degrees": [[1, 0], [-s, 1], [1, 0], [0, 1]]},
            "ideal": ["x1*x2", "x3*x4"],
        }, {"s": s}),
        # a 2x2 grid: complete intersection of bidegrees (2,0), (0,2), regnum 2
        "ex1-four-points": ({
            "field": "p:32003",
            "points": {"dims": [1, 1], "points": [[[1, a], [1, b]] for a in xs for b in ys]},
        }, {}),
        # five points on one ruling line and four on another, as eight-points
        "eight-points": ({
            "field": "p:32003",
            "points": {"dims": [1, 1], "points": [[[1, lx[0]], [1, b]] for b in ly]
                       + [[[1, a], [1, ly[0]]] for a in lx[1:]]},
        }, {}),
        "four-cycle": ({
            "field": "p:32003",
            "ring": {"variables": ["x0", "x1", "y0", "y1"],
                     "degrees": [[1, 0], [1, 0], [0, 1], [0, 1]]},
            "complex": {"vertices": ["x0", "x1", "y0", "y1"], "facets": sorted(facets)},
        }, {}),
    }


def cli_pass(seed: int, k: int, workdir: Path):
    rng = random.Random(f"cli-examples:{seed}:{k}")
    gen = _generated_problems(rng)
    pass_dir = workdir / f"pass{k}"
    pass_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for words, flags, stem in README_INVOCATIONS:
        obj, facts = gen[stem]
        path = pass_dir / f"{stem}.json"
        path.write_text(json.dumps(obj, indent=1))
        # the shipped (1,3) is not positive on the Hirzebruch ring of type s > 2
        gen_flags = ["--v", f"1,{facts['s'] + 1}"] if words == ["resolve"] else flags
        for shipped in (True, False):
            items.append({
                "name": " ".join(words) + ("@shipped" if shipped else "@generated"),
                "words": words,
                "flags": flags if shipped else gen_flags,
                "file": f"problems/{stem}.json" if shipped else str(path),
                "shipped": shipped,
                "problem": None if shipped else obj,
                "facts": {} if shipped else facts,
            })
    return items


def _expect(item, out):
    """Values known without the code under test."""
    cmd = " ".join(item["words"])
    problem = item["problem"] or {}
    npts = len(problem["points"]["points"]) if "points" in problem else None
    if cmd == "check":
        s = item["facts"].get("s", 2)
        check(out == {"positive": True, "suggested_v": [1, s + 1]}, "wrong suggested vector")
    elif cmd == "regnum":
        check(out["regnum"] == 2, "four grid points must have regnum 2 under (1,1)")
    elif cmd == "points generic":
        count = npts or 4
        check(out["generic_formula"] == generic_formula((1, 1), count), "wrong generic formula")
    elif cmd == "points connections":
        check(out["holds"] is True, "connections theorem reported as failing")
        if item["shipped"]:
            check(out["regnum"] == 4 and out["m"] == 2, "eight-points connections values changed")
    elif cmd == "betti":
        fine = out["fine"]
        check([r for r in fine if r["i"] == 0] == [{"i": 0, "degree": [0, 0], "beta": 1}],
              "a cyclic module has one generator in degree 0")
        check(sum((-1) ** r["i"] * r["beta"] for r in fine) == 0,
              "Betti numbers of a torsion module must have alternating sum 0")
    elif cmd == "points hilbert":
        matrix = out["matrix"]
        check(matrix[0][0] == 1 and matrix[-1][-1] == (npts or 8),
              "Hilbert function must start at 1 and reach the point count")


class CliRunner:
    """Runs `mreg` invocations as processes and checks what they print.

    With a tracer, each process runs under `mreg_traced.py` and its spans
    are absorbed under the current operation.
    """

    def __init__(self, command=None, tracer=None, workdir: Path | None = None):
        import jsonschema

        schema = json.loads((ROOT / "docs" / "report-schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.tracer = tracer
        self.spans_file = workdir / "cli-spans.json" if workdir else None
        if command is None:
            probe = subprocess.run([sys.executable, "-c", "import mreg; print(mreg.__file__)"],
                                   capture_output=True, text=True, cwd=ROOT, timeout=60)
            expected = (ROOT / "src" / "mreg" / "__init__.py").resolve()
            if Path(probe.stdout.strip()).resolve() != expected:
                raise RuntimeError(f"mreg processes import {probe.stdout.strip()!r}, not {expected}")
            if tracer is None:
                command = [sys.executable, "-c", CLI_BOOT]
            else:
                command = [sys.executable, str(Path(__file__).with_name("mreg_traced.py")),
                           str(self.spans_file)]
        self.command = command
        self.first_bytes: dict[str, bytes] = {}

    def op(self, item) -> dict:
        argv = item["words"] + item["flags"] + [item["file"]]
        t0 = time.perf_counter()
        proc = subprocess.run(self.command + argv, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.absorb(json.loads(self.spans_file.read_text()))
            self.spans_file.unlink()
        check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-300:]!r}")
        check(proc.stdout.strip(), "empty output")
        out = json.loads(proc.stdout)
        errors = list(self.validator.iter_errors(out))
        check(not errors, f"report does not validate: {errors[:1]}")
        _expect(item, out)
        if item["shipped"]:
            first = self.first_bytes.setdefault(item["name"], proc.stdout)
            check(first == proc.stdout, "stdout bytes differ between repeats")
        return {"elapsed": elapsed, "bytes": len(proc.stdout)}


# -- pass generation ------------------------------------------------------------------

class Corpus:
    """The pass sequence of one workload: pass(k) -> (items, ops)."""

    def __init__(self, workload: str, seed: int, workdir: Path | None = None, cli=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.seen: set = set()
        self.cli = cli
        self.generated = 0

    def items(self, k: int):
        """Inputs of pass k; passes must be generated in order."""
        if k != self.generated:
            raise ValueError("passes are generated in order")
        self.generated += 1
        if self.workload in PASS_PATTERNS:
            return point_pass(self.workload, self.seed, k, self.seen)
        if self.workload == "coarsening-sweep":
            return sweep_pass(self.seed, k)
        return cli_pass(self.seed, k, self.workdir)

    def ops(self, items):
        """(name, callable) pairs of one pass, in execution order."""
        for item in items:
            if self.workload in PASS_PATTERNS:
                yield item["name"], lambda item=item: points_report(item)
            elif self.workload == "coarsening-sweep":
                yield from sweep_ops(item)
            else:
                yield item["name"], lambda item=item: self.cli.op(item)
