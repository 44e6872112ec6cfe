"""Command-line front end: parse problem files, dispatch, emit JSON or tables.

`COMMANDS` lists each subcommand once: `_build_parser` and `run` read it, and
its handlers return their reports and call the library through module globals.

Exit codes: 0 success, 2 a malformed command line, otherwise the `exit_code`
of the package error raised (see `errors`).  Identical invocations produce
byte-identical output; integers beyond 2^53 - 1 are serialized as strings so
no consumer silently rounds, in full at any length (through Decimal, since
str(int) stops at the interpreter's digit limit).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, Limits, MregError, show
from .grading import (
    check_positive_grading, find_positive_coarsening_vector, positive_coarsening_candidates,
)
from .groebner import vec_component
from .localcoh import a_invariants_hochster, hochster_supports
from .points import (
    b_regularity_region,
    connections_check,
    generic_position_check,
    generic_regularity_formula,
    hilbert_function_points,
    res_reg_vector_points,
)
from .problems import load_problem, parse_field
from .regularity import (
    coarsening_constants,
    degree_bound_sets,
    minimal_coarsening_set,
    regnum_ring,
    regularity_report,
    scalar_coarsening_report,
)
from .resolution import betti_table, coarsen_resolution, minimal_free_resolution

_MAX_SAFE_INT = 2**53 - 1


def _jsonable(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x if abs(x) <= _MAX_SAFE_INT else show(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(e) for e in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _emit(obj, fmt: str):
    obj = _jsonable(obj)
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        for line in _table_lines(obj, ""):
            sys.stdout.write(line + "\n")


def _table_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}{k}"
            if isinstance(v, dict) or _is_record_list(v):
                yield key + ":"
                yield from _table_lines(v, prefix + "  ")
            else:
                yield f"{key:<24} {_scalar_str(v)}"
    elif _is_record_list(obj):
        rows = [{str(k): _scalar_str(v) for k, v in rec.items()} for rec in obj]
        headers = list(rows[0].keys()) if rows else []
        widths = {h: max(len(h), *(len(r.get(h, "")) for r in rows)) for h in headers}
        yield prefix + "  ".join(h.ljust(widths[h]) for h in headers)
        for r in rows:
            yield prefix + "  ".join(r.get(h, "").ljust(widths[h]) for h in headers)
    else:
        yield prefix + _scalar_str(obj)


def _is_record_list(v) -> bool:
    return isinstance(v, list) and v and all(isinstance(e, dict) for e in v)


def _scalar_str(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_scalar_str(e) for e in v) + "]"
    return json.dumps(v) if isinstance(v, str) else str(v)


def _parse_vector(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad vector {text!r}; expected comma-separated integers") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--v", help="coarsening vector, e.g. 1,3")
    common.add_argument("--i", type=int, help="homological index")
    common.add_argument("--imax", type=int, help="largest homological index")
    common.add_argument(
        "--box", type=int, default=None,
        help="truncation box size (default 10; candidate box for minvectors, default 5)",
    )
    common.add_argument("--field", help="coefficient field: q or p:<prime>")
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--max-length", type=int, help="cap on resolution length")
    common.add_argument("--max-degree", type=int, help="cap on coarse S-pair degrees")

    p = argparse.ArgumentParser(prog="mreg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (helptext, _, handler, options) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=helptext)
        if isinstance(handler, dict):
            sp.add_argument("action", choices=tuple(handler))
        sp.add_argument("file")
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
    return p


def run(argv) -> int:
    """Run one CLI invocation; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("imax", "box"):
            if _or(getattr(args, flag), 0) < 0:
                raise InputError(f"--{flag} must be nonnegative")
        limits = Limits(args.max_degree, args.max_length)
        _, kind, handler, _ = COMMANDS[args.command]
        if "action" in args:
            handler = handler[args.action]
        problem = load_problem(args.file, parse_field(args.field) if args.field else None)
        if kind is not None and problem.kind != kind:
            raise InputError(_WRONG_PAYLOAD[kind])
        _emit(handler(problem, args, limits), args.format)
        return 0
    except MregError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _require_v(args, ring):
    if args.v:
        v = _parse_vector(args.v)
        ring.order(v)  # validates positivity
        return v
    return find_positive_coarsening_vector(ring.degrees)


def _or(value, default):
    return value if value is not None else default


def _check(problem, args, limits):
    degrees = problem.ring.degrees
    positive = check_positive_grading(degrees)
    suggested = find_positive_coarsening_vector(degrees) if positive else None
    return {"positive": positive, "suggested_v": suggested}


def _coarsen(problem, args, limits):
    ring = problem.ring
    v = _require_v(args, ring)
    return {**coarsening_constants(ring, v).to_json(), "vdegs": ring.vdegs(v),
            "regnum_ring": regnum_ring(ring, v)}


def _resolution(problem, args, limits):
    v = _parse_vector(args.v) if args.v else None
    return v, minimal_free_resolution(problem.presentation(limits), v=v, limits=limits)


def _resolve(problem, args, limits):
    v, F = _resolution(problem, args, limits)
    out = {"length": F.length, "shifts": F.shifts}
    if v is not None:
        out["coarse_shifts"] = coarsen_resolution(F, v).shifts
    out["differentials"] = [
        [[problem.ring.poly_str(vec_component(col, r)) for r in range(len(F.shifts[k]))]
         for col in diff]
        for k, diff in enumerate(F.differentials)
    ]
    return out


def _betti(problem, args, limits):
    v, F = _resolution(problem, args, limits)
    out = {"fine": betti_table(F).to_json()}
    if v is not None:
        out["coarse"] = betti_table(coarsen_resolution(F, v)).to_json()
    return out


def _regnum(problem, args, limits):
    v = _require_v(args, problem.ring)
    P = problem.presentation(limits)
    return regularity_report(P, v, i_max=args.imax, route=args.route, limits=limits).to_json()


def _bounds(problem, args, limits):
    v = _require_v(args, problem.ring)
    P = problem.presentation(limits)
    indices = [args.i] if args.i is not None else list(range(_or(args.imax, 0) + 1))
    return {"sets": [s.to_json() for s in degree_bound_sets(P, v, indices, limits=limits)]}


def _minvectors(problem, args, limits):
    P = problem.presentation(limits)
    i_range = list(range(_or(args.imax, 2) + 1))
    box = _or(args.box, 5)
    kept = minimal_coarsening_set(P, i_range=i_range, box=box, limits=limits)
    return {"box": box, "i_range": i_range,
            "candidates": positive_coarsening_candidates(problem.ring.degrees, box),
            "minimal": kept, "note": "minimal relative to the candidate family"}


def _scalar_check(problem, args, limits):
    v = _require_v(args, problem.ring)
    P = problem.presentation(limits)
    i_range = range(_or(args.imax, 2) + 1)
    return scalar_coarsening_report(P, v, args.d, i_range, limits=limits).to_json()


def _hochster(problem, args, limits):
    K, ring = problem.payload, problem.ring
    v = _require_v(args, ring)
    ai = a_invariants_hochster(K, ring, v)
    supports = {str(i): [{"face": f, "rank": rk} for f, rk in faces]
                for i, faces in enumerate(hochster_supports(K, ring)) if faces}
    return {"v": v, "a_invariants": ai.to_json(), "supports": supports}


def _points_hilbert(problem, args, limits):
    X, ring = problem.payload, problem.ring
    if args.degree:
        deg = _parse_vector(args.degree)
        return {"degree": deg, "value": hilbert_function_points(X, deg, ring)}
    if len(X.dims) != 2:
        raise InputError("matrix output implemented for two factors; use --degree")
    window = min(_or(args.box, 10), len(X) + 2)
    w = range(window + 1)
    matrix = [[hilbert_function_points(X, (i, j), ring) for i in w] for j in w]
    return {"window": window, "matrix": matrix}


def _point_box(problem, args):
    return (_or(args.box, 10),) * len(problem.payload.dims)


def _points_bregularity(problem, args, limits):
    box = _point_box(problem, args)
    region = b_regularity_region(problem.payload, box, problem.ring)
    return {"box": box, "minimal_elements": region.bases}


def _points_resvector(problem, args, limits):
    return {"r_vector": res_reg_vector_points(problem.payload, problem.ring)}


def _points_generic(problem, args, limits):
    X = problem.payload
    generic = generic_position_check(X, _point_box(problem, args), problem.ring)
    return {"generic_position": generic,
            "generic_formula": generic_regularity_formula(X.dims, len(X))}


def _points_connections(problem, args, limits):
    box = _point_box(problem, args)
    return connections_check(problem.payload, box, problem.ring, limits=limits).to_json()


# subcommand -> (help text, payload kind it needs or None, handler, or for
# `points` its actions' handlers, and the options only it takes)
COMMANDS = {
    "check": ("positivity of the grading and a suggested coarsening vector", None, _check, {}),
    "coarsen": ("coarsening constants c_v, s_v, sigma", None, _coarsen, {}),
    "resolve": ("minimal free resolution shifts (and matrices)", None, _resolve, {}),
    "betti": ("Betti table, optionally coarsened", None, _betti, {}),
    "regnum": ("regularity report under a coarsening vector", None, _regnum,
               {"--route": {"choices": ("ext", "hochster"), "default": "ext"}}),
    "bounds": ("finite degree-bound sets for syzygies", None, _bounds, {}),
    "minvectors": ("a minimal family of coarsening vectors", None, _minvectors, {}),
    "scalar-check": ("scalar-multiple laws for d*v against v", None, _scalar_check,
                     {"--d": {"type": int, "default": 2, "help": "scalar multiplier"}}),
    "hochster": ("face supports and a-invariants of a face ring", "complex", _hochster, {}),
    "points": ("point-set computations", "points", {
        "hilbert": _points_hilbert,
        "bregularity": _points_bregularity,
        "resvector": _points_resvector,
        "generic": _points_generic,
        "connections": _points_connections,
    }, {"--degree": {"help": "single multidegree for `points hilbert`, e.g. 2,1"}}),
}
_WRONG_PAYLOAD = {
    "complex": "hochster needs a simplicial-complex payload",
    "points": "points subcommands need a point-set payload",
}


if __name__ == "__main__":
    main()
