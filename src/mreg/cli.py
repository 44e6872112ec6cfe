"""Command-line front end: parse problem files, dispatch, emit JSON or tables.

Exit codes: 0 success, 2 a malformed command line, otherwise the `exit_code`
of the package error raised (see `errors`).  Identical invocations produce
byte-identical output; integers beyond 2^53 - 1 are serialized as strings so
no consumer silently rounds.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, Limits, MregError
from .grading import check_positive_grading, find_positive_coarsening_vector
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
from .resolution import (
    betti_table,
    coarsen_resolution,
    minimal_free_resolution,
)

_MAX_SAFE_INT = 2**53 - 1


def _jsonable(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x if abs(x) <= _MAX_SAFE_INT else str(x)
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

    for name, helptext in (
        ("check", "positivity of the grading and a suggested coarsening vector"),
        ("coarsen", "coarsening constants c_v, s_v, sigma"),
        ("resolve", "minimal free resolution shifts (and matrices)"),
        ("betti", "Betti table, optionally coarsened"),
        ("regnum", "regularity report under a coarsening vector"),
        ("bounds", "finite degree-bound sets for syzygies"),
        ("minvectors", "a minimal family of coarsening vectors"),
        ("scalar-check", "scalar-multiple laws for d*v against v"),
        ("hochster", "face supports and a-invariants of a face ring"),
    ):
        sp = sub.add_parser(name, parents=[common], help=helptext)
        sp.add_argument("file")
        if name == "scalar-check":
            sp.add_argument("--d", type=int, default=2, help="scalar multiplier")
        if name == "regnum":
            sp.add_argument("--route", choices=("ext", "hochster"), default="ext")

    pp = sub.add_parser("points", parents=[common], help="point-set computations")
    pp.add_argument("action", choices=("hilbert", "bregularity", "resvector", "generic", "connections"))
    pp.add_argument("file")
    pp.add_argument("--degree", help="single multidegree for `points hilbert`, e.g. 2,1")
    return p


def run(argv) -> int:
    """Dispatch a CLI invocation; returns the exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        _dispatch(args)
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


def _dispatch(args):
    field = parse_field(args.field) if args.field else None
    problem = load_problem(args.file, field)
    ring = problem.ring
    fmt = args.format
    limits = Limits(args.max_degree, args.max_length)

    if args.command == "check":
        positive = check_positive_grading(ring.degrees)
        suggested = list(find_positive_coarsening_vector(ring.degrees)) if positive else None
        _emit({"positive": positive, "suggested_v": suggested}, fmt)
        return

    if args.command == "coarsen":
        v = _require_v(args, ring)
        cst = coarsening_constants(ring, v)
        out = cst.to_json()
        out["vdegs"] = list(ring.vdegs(v))
        out["regnum_ring"] = regnum_ring(ring, v)
        _emit(out, fmt)
        return

    if args.command in ("resolve", "betti"):
        v = _parse_vector(args.v) if args.v else None
        P = problem.presentation(limits)
        F = minimal_free_resolution(P, v=v, limits=limits)
        if args.command == "resolve":
            out = {
                "length": F.length,
                "shifts": [[list(s) for s in level] for level in F.shifts],
            }
            if v is not None:
                out["coarse_shifts"] = [list(level) for level in coarsen_resolution(F, v).shifts]
            out["differentials"] = [
                [[ring.poly_str(vec_component(col, r)) for r in range(len(F.shifts[k]))]
                 for col in diff]
                for k, diff in enumerate(F.differentials)
            ]
            _emit(out, fmt)
        else:
            out = {"fine": betti_table(F).to_json()}
            if v is not None:
                out["coarse"] = betti_table(coarsen_resolution(F, v)).to_json()
            _emit(out, fmt)
        return

    if args.command == "regnum":
        v = _require_v(args, ring)
        P = problem.presentation(limits)
        report = regularity_report(P, v, i_max=args.imax, route=args.route, limits=limits)
        _emit(report.to_json(), fmt)
        return

    if args.command == "bounds":
        v = _require_v(args, ring)
        P = problem.presentation(limits)
        indices = [args.i] if args.i is not None else list(range((args.imax or 0) + 1))
        sets = degree_bound_sets(P, v, indices, limits=limits)
        _emit({"sets": [s.to_json() for s in sets]}, fmt)
        return

    if args.command == "minvectors":
        P = problem.presentation(limits)
        i_range = list(range((args.imax if args.imax is not None else 2) + 1))
        box = args.box if args.box is not None else 5
        kept = minimal_coarsening_set(P, i_range=i_range, box=box, limits=limits)
        from .grading import positive_coarsening_candidates

        _emit(
            {
                "box": box,
                "i_range": i_range,
                "candidates": [list(u) for u in positive_coarsening_candidates(ring.degrees, box)],
                "minimal": [list(u) for u in kept],
                "note": "minimal relative to the candidate family",
            },
            fmt,
        )
        return

    if args.command == "scalar-check":
        v = _require_v(args, ring)
        P = problem.presentation(limits)
        i_range = range((args.imax if args.imax is not None else 2) + 1)
        report = scalar_coarsening_report(P, v, args.d, i_range, limits=limits)
        _emit(report.to_json(), fmt)
        return

    if args.command == "hochster":
        if problem.kind != "complex":
            raise InputError("hochster needs a simplicial-complex payload")
        K = problem.payload
        v = _require_v(args, ring)
        ai = a_invariants_hochster(K, ring, v)
        supports = {
            str(i): [{"face": list(f), "rank": rk} for f, rk in faces]
            for i, faces in enumerate(hochster_supports(K, ring))
            if faces
        }
        _emit({"v": list(v), "a_invariants": ai.to_json(), "supports": supports}, fmt)
        return

    if args.command == "points":
        if problem.kind != "points":
            raise InputError("points subcommands need a point-set payload")
        X = problem.payload
        r = len(X.dims)
        box_size = args.box if args.box is not None else 10
        box = (box_size,) * r
        if args.action == "hilbert":
            if args.degree:
                deg = _parse_vector(args.degree)
                _emit(
                    {"degree": list(deg), "value": hilbert_function_points(X, deg, ring)},
                    fmt,
                )
                return
            if r != 2:
                raise InputError("matrix output implemented for two factors; use --degree")
            window = min(box_size, len(X) + 2)
            matrix = [
                [hilbert_function_points(X, (i, j), ring) for i in range(window + 1)]
                for j in range(window + 1)
            ]
            _emit({"window": window, "matrix": matrix}, fmt)
            return
        if args.action == "bregularity":
            region = b_regularity_region(X, box, ring)
            _emit(
                {"box": list(box), "minimal_elements": [list(b) for b in region.bases]},
                fmt,
            )
            return
        if args.action == "resvector":
            _emit({"r_vector": list(res_reg_vector_points(X, ring))}, fmt)
            return
        if args.action == "generic":
            generic = generic_position_check(X, box, ring)
            _emit(
                {
                    "generic_position": generic,
                    "generic_formula": generic_regularity_formula(X.dims, len(X)),
                },
                fmt,
            )
            return
        if args.action == "connections":
            report = connections_check(X, box, ring, limits=limits)
            _emit(report.to_json(), fmt)
            return
    raise InputError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    main()
