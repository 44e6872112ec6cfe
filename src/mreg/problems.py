"""Problem-file schema: JSON in, validated objects out.

A problem file carries an optional field descriptor, a ring (variables plus
one multidegree per variable), and exactly one payload: ideal generators,
a module presentation, free-module shifts, a simplicial complex, or a point
set.  Point-set files may omit the ring; the standard multigraded ring of
the ambient product of projective spaces is derived from the dims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import NO_LIMITS, InputError, Limits
from .groebner import element_degree, poly_to_vec
from .localcoh import SimplicialComplex, stanley_reisner_ideal
from .points import PointSet, _integers, multiproj_ring, quotient_presentation
from .poly import DEFAULT_FIELD, FieldDescriptor, MultigradedRing, QQ
from .resolution import ModulePresentation

PAYLOAD_KEYS = ("ideal", "module", "free", "complex", "points")


def parse_field(spec) -> FieldDescriptor:
    if spec is None:
        return DEFAULT_FIELD
    if spec == "q":
        return QQ
    if isinstance(spec, str) and spec.startswith("p:"):
        try:
            return FieldDescriptor("prime", int(spec[2:]))
        except ValueError:
            raise InputError(f"bad field descriptor {spec!r}") from None
    raise InputError(f"bad field descriptor {spec!r} (expected 'q' or 'p:<prime>')")


@dataclass(frozen=True)
class Problem:
    ring: MultigradedRing
    kind: str
    payload: object

    def presentation(self, limits: Limits = NO_LIMITS) -> ModulePresentation:
        """The module the payload denotes, as a cokernel presentation."""
        if self.kind == "ideal":
            return ModulePresentation.quotient_by_ideal(self.ring, self.payload)
        if self.kind in ("module", "free"):
            return self.payload
        if self.kind == "complex":
            gens = stanley_reisner_ideal(self.payload, self.ring)
            return ModulePresentation.quotient_by_ideal(self.ring, gens)
        if self.kind == "points":
            return quotient_presentation(self.payload, self.ring, limits)
        raise InputError(f"payload {self.kind!r} does not define a module")


def load_problem(path: str, field_override: FieldDescriptor | None = None) -> Problem:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read problem file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"problem file is not valid JSON: {e}") from None
    except ValueError as e:  # undecodable text, or an integer past the int-conversion digit limit
        raise InputError(f"cannot read problem file: {e}") from None
    return problem_from_obj(obj, field_override)


def problem_from_obj(obj, field_override: FieldDescriptor | None = None) -> Problem:
    if not isinstance(obj, dict):
        raise InputError("problem file must be a JSON object")
    unknown = set(obj) - {"field", "ring", *PAYLOAD_KEYS}
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")
    present = [k for k in PAYLOAD_KEYS if k in obj]
    if len(present) != 1:
        raise InputError(f"exactly one payload required, found {present or 'none'}")
    kind = present[0]
    field = field_override or parse_field(obj.get("field"))

    if kind == "points":
        X = PointSet.from_json(obj["points"])
        ring = multiproj_ring(X.dims, field)
        if "ring" in obj:
            declared = _parse_ring(obj["ring"], field)
            if declared.degrees != ring.degrees:
                raise InputError("declared ring does not match the point set dims")
            ring = declared
        return Problem(ring, "points", X)

    if "ring" not in obj:
        raise InputError("problem file needs a ring")
    ring = _parse_ring(obj["ring"], field)

    if kind == "ideal":
        gens = _parse_poly_list(ring, obj["ideal"], "ideal")
        for g in gens:
            element_degree(ring, ((0,) * ring.r,), poly_to_vec(g))
        return Problem(ring, "ideal", gens)
    if kind == "module":
        spec = obj["module"]
        if not isinstance(spec, dict) or "shifts" not in spec:
            raise InputError("module payload needs shifts")
        shifts = _parse_shift_list(ring, spec["shifts"])
        rel_spec = spec.get("relations", [])
        if not isinstance(rel_spec, list):
            raise InputError("module relations must be a list of columns")
        rels = []
        for col in rel_spec:
            if not isinstance(col, list) or len(col) != len(shifts):
                raise InputError("each relation column needs one entry per shift")
            rels.append({(i, m): c for i, e in enumerate(col)
                         for m, c in ring.parse(_expect_str(e, "relation entry")).items()})
        return Problem(ring, "module", ModulePresentation(ring, shifts, tuple(rels)))
    if kind == "free":
        spec = obj["free"]
        if not isinstance(spec, dict) or "shifts" not in spec:
            raise InputError("free payload needs shifts")
        shifts = _parse_shift_list(ring, spec["shifts"])
        return Problem(ring, "free", ModulePresentation.free_module(ring, shifts))
    # simplicial complex
    K = SimplicialComplex.from_json(obj["complex"])
    for vtx in K.vertices:
        ring.var_index(vtx)
    return Problem(ring, "complex", K)


def _parse_ring(spec, field: FieldDescriptor) -> MultigradedRing:
    if not isinstance(spec, dict):
        raise InputError("ring must be an object")
    try:
        variables = tuple(_expect_str(v, "variable name") for v in spec["variables"])
        degrees = tuple(_integers(row, "ring degrees") for row in spec["degrees"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad ring spec: {e}") from None
    return MultigradedRing(variables, degrees, field)


def _parse_shift_list(ring: MultigradedRing, spec):
    try:
        shifts = tuple(_integers(row, "shifts") for row in spec)
    except (TypeError, ValueError) as e:
        raise InputError(f"bad shift list: {e}") from None
    for s in shifts:
        if len(s) != ring.r:
            raise InputError("shift length does not match the grading rank")
    return shifts


def _parse_poly_list(ring: MultigradedRing, spec, what: str):
    if not isinstance(spec, list):
        raise InputError(f"{what} must be a list of polynomial strings")
    return [ring.parse(_expect_str(s, f"{what} generator")) for s in spec]


def _expect_str(x, what: str) -> str:
    if not isinstance(x, str):
        raise InputError(f"{what} must be a string, got {type(x).__name__}")
    return x
