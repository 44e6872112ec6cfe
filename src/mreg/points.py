"""Finite reduced point sets in products of projective spaces.

Hilbert function values are ranks of evaluation matrices: monomials of the
requested multidegree evaluated at fixed affine representatives (first
nonzero coordinate scaled to one).  Vanishing ideals come from intersecting
the per-point linear ideals with the Groebner elimination routine, folded in
input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod

from .errors import NO_LIMITS, InputError, InsufficientBoxError, Limits, MregError
from .grading import DegreeRegion, _compositions
from .groebner import ideal_intersection
from .linalg import matrix_rank
from .poly import (
    DEFAULT_FIELD,
    FieldDescriptor,
    Multidegree,
    MultigradedRing,
    PolyDict,
    mono_divides,
)
from .regularity import regnum_module
from .resolution import ModulePresentation, cached_minimal_resolution

_FACTOR_LETTERS = "xyzw"


def multiproj_ring(dims, field: FieldDescriptor = DEFAULT_FIELD) -> MultigradedRing:
    """Standard multigraded coordinate ring of P^{n_1} x ... x P^{n_r}."""
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise InputError("factor dimensions must be positive")
    r = len(dims)
    names, degrees = [], []
    for f, n in enumerate(dims):
        prefix = _FACTOR_LETTERS[f] if r <= len(_FACTOR_LETTERS) else f"x{f}_"
        for j in range(n + 1):
            names.append(f"{prefix}{j}")
            degrees.append(tuple(1 if k == f else 0 for k in range(r)))
    return MultigradedRing(tuple(names), tuple(degrees), field)


def _integers(values, what: str) -> tuple[int, ...]:
    """Integers from parsed JSON; a float must be integral, never truncated."""
    values = list(values)
    try:
        if any(isinstance(x, float) and not x.is_integer() for x in values):
            raise ValueError
        return tuple(int(x) for x in values)
    except ValueError:
        raise InputError(f"{what} must be integers, got {values!r}") from None


@dataclass(frozen=True)
class PointSet:
    """Reduced points, each an r-tuple of projective coordinate tuples."""

    dims: tuple[int, ...]
    points: tuple  # tuple of r-tuples of coordinate tuples (ints)

    def __post_init__(self):
        dims = _integers(self.dims, "point-set dims")
        object.__setattr__(self, "dims", dims)
        pts = []
        for pt in self.points:
            if len(pt) != len(dims):
                raise InputError("point has the wrong number of factors")
            factors = []
            for f, coords in enumerate(pt):
                coords = _integers(coords, "point coordinates")
                if len(coords) != dims[f] + 1:
                    raise InputError(f"factor {f} needs {dims[f] + 1} coordinates")
                factors.append(coords)
            pts.append(tuple(factors))
        object.__setattr__(self, "points", tuple(pts))
        if not self.points:
            raise InputError("point set is empty")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, obj) -> "PointSet":
        try:
            return cls(tuple(obj["dims"]), tuple(tuple(tuple(c) for c in p) for p in obj["points"]))
        except (KeyError, TypeError) as e:
            raise InputError(f"bad point set payload: {e}") from None

    def ring(self, field: FieldDescriptor = DEFAULT_FIELD) -> MultigradedRing:
        return multiproj_ring(self.dims, field)

    def normalized(self, K: FieldDescriptor):
        """Affine representatives over K; validates nondegeneracy/distinctness."""
        reps = []
        for pt in self.points:
            factors = []
            for coords in pt:
                vals = [K.of(c) for c in coords]
                pivot = next((i for i, c in enumerate(vals) if c), None)
                if pivot is None:
                    raise InputError("projective point has an all-zero factor")
                inv = K.inv(vals[pivot])
                factors.append(tuple(K.mul(c, inv) for c in vals))
            reps.append(tuple(factors))
        if len(set(reps)) != len(reps):
            raise InputError("points are not pairwise distinct over the field")
        return reps


def _monomials_of_multidegree(dims, deg):
    """Exponent tuples of multidegree deg, factor blocks concatenated."""
    blocks = [tuple(_compositions(d, n + 1)) for d, n in zip(deg, dims)]
    out = [()]
    for block in blocks:
        out = [e + b for e in out for b in block]
    return out


def hilbert_function_points(X: PointSet, deg, ring: MultigradedRing | None = None) -> int:
    """H_X(deg) as the rank of the evaluation map on degree-deg monomials."""
    deg = tuple(int(d) for d in deg)
    if any(d < 0 for d in deg):
        raise InputError("Hilbert function arguments must be componentwise nonnegative")
    K = (ring.field if ring is not None else DEFAULT_FIELD)
    reps = X.normalized(K)
    monos = _monomials_of_multidegree(X.dims, deg)
    rows = []
    for pt in reps:
        flat = [c for factor in pt for c in factor]
        row = []
        for e in monos:
            val = K.one
            for c, k in zip(flat, e):
                for _ in range(k):
                    val = K.mul(val, c)
            row.append(val)
        rows.append(row)
    return matrix_rank(rows, K)


def point_ideal(X: PointSet, ring: MultigradedRing | None = None,
                limits: Limits = NO_LIMITS) -> list[PolyDict]:
    """Generators of the vanishing ideal: one intersection of the point ideals."""
    if ring is None:
        ring = X.ring()
    K = ring.field
    reps = X.normalized(K)
    per_point = []
    offset_of_factor = []
    off = 0
    for n in X.dims:
        offset_of_factor.append(off)
        off += n + 1
    for pt in reps:
        gens = []
        for f, coords in enumerate(pt):
            pivot = next(i for i, c in enumerate(coords) if c)
            for j in range(len(coords)):
                if j == pivot:
                    continue
                # coords[pivot] == 1 after normalization: x_j - coords[j] x_pivot
                e_j = [0] * ring.n
                e_j[offset_of_factor[f] + j] = 1
                e_p = [0] * ring.n
                e_p[offset_of_factor[f] + pivot] = 1
                g = {tuple(e_j): K.one}
                if coords[j]:
                    g[tuple(e_p)] = K.neg(coords[j])
                gens.append(g)
        per_point.append(gens)
    if len(per_point) == 1:
        return per_point[0]
    return ideal_intersection(per_point, ring, limits=limits)


def quotient_presentation(X: PointSet, ring: MultigradedRing | None = None,
                          limits: Limits = NO_LIMITS) -> ModulePresentation:
    if ring is None:
        ring = X.ring()
    return ModulePresentation.quotient_by_ideal(ring, point_ideal(X, ring, limits))


def _default_box(X: PointSet):
    """Componentwise |X|: point Hilbert functions stabilize well inside."""
    return (len(X),) * len(X.dims)


def b_regularity_region(X: PointSet, box=None, ring: MultigradedRing | None = None) -> DegreeRegion:
    """Degrees where the Hilbert function reaches |X|, truncated to the box.

    The infinite region is upward closed; the truncation is certified by
    requiring the box corner to lie inside and every minimal element to stay
    strictly inside the box.
    """
    box = _default_box(X) if box is None else tuple(int(b) for b in box)
    r = len(X.dims)
    if len(box) != r or any(b < 0 for b in box):
        raise InputError("box must be a componentwise nonnegative multidegree")
    values = {}
    for deg in product(*(range(b + 1) for b in box)):
        values[deg] = hilbert_function_points(X, deg, ring)
    target = len(X)
    inside = {deg for deg, h in values.items() if h == target}
    if tuple(box) not in inside:
        raise InsufficientBoxError(
            f"insufficient box {box}: the Hilbert function has not stabilized; use a larger box"
        )
    for deg in inside:
        for k in range(r):
            up = list(deg)
            up[k] += 1
            up = tuple(up)
            if up in values and up not in inside:
                raise InsufficientBoxError("region is not upward closed inside the box; enlarge the box")
    minimal = sorted(
        deg for deg in inside
        if not any(mono_divides(other, deg) for other in inside if other != deg)
    )
    for m in minimal:
        if any(m[k] == box[k] and box[k] > 0 for k in range(r)):
            raise InsufficientBoxError(
                f"minimal element {m} touches the box boundary; enlarge the box to certify it"
            )
    return DegreeRegion(kind="orthant", bases=tuple(minimal))


def res_reg_vector_points(X: PointSet, ring: MultigradedRing | None = None) -> Multidegree:
    """t_i = least t with H_X(t e_i) equal to the distinct i-th projections."""
    K = (ring.field if ring is not None else DEFAULT_FIELD)
    reps = X.normalized(K)
    out = []
    for f in range(len(X.dims)):
        proj = {pt[f] for pt in reps}
        t = 0
        while True:
            deg = tuple(t if k == f else 0 for k in range(len(X.dims)))
            if hilbert_function_points(X, deg, ring) == len(proj):
                out.append(t)
                break
            t += 1
            if t > len(X) + 1:
                raise MregError("projection Hilbert function failed to stabilize")
    return tuple(out)


def dim_of_graded_piece(dims, deg) -> int:
    """dim_k S_deg for the standard multigraded ring of the given factors."""
    return prod(comb(n + d, d) for n, d in zip(dims, deg))


def generic_position_check(X: PointSet, box=None, ring: MultigradedRing | None = None) -> bool:
    """Does H_X agree with min(dim S_deg, |X|) everywhere in the box?"""
    box = _default_box(X) if box is None else tuple(int(b) for b in box)
    corner = hilbert_function_points(X, box, ring)
    if corner != len(X):
        raise InsufficientBoxError(
            f"insufficient box {box}: Hilbert function is {corner} < {len(X)} at the corner"
        )
    for deg in product(*(range(b + 1) for b in box)):
        expect = min(dim_of_graded_piece(X.dims, deg), len(X))
        if hilbert_function_points(X, deg, ring) != expect:
            return False
    return True


def generic_regularity_formula(dims, count: int) -> int:
    """max over factors of the least d with C(d + n_i, d) >= count."""
    if count < 1:
        raise InputError("point count must be positive")
    out = 0
    for n in dims:
        d = 0
        while comb(d + n, d) < count:
            d += 1
        out = max(out, d)
    return out


@dataclass(frozen=True)
class ConnectionsReport:
    """Both conclusions of the standard-multigraded comparison theorem."""

    regnum: int
    m: int
    r_vector: Multidegree
    r_vector_bounded: bool
    region_minimal_elements: tuple[Multidegree, ...]
    shifted_region_contained: bool

    @property
    def holds(self) -> bool:
        return self.r_vector_bounded and self.shifted_region_contained

    def to_json(self) -> dict:
        return {
            "regnum": self.regnum,
            "m": self.m,
            "r_vector": list(self.r_vector),
            "r_vector_bounded": self.r_vector_bounded,
            "region_minimal_elements": [list(b) for b in self.region_minimal_elements],
            "shifted_region_contained": self.shifted_region_contained,
            "holds": self.holds,
        }


def connections_check(X: PointSet, box=None, ring: MultigradedRing | None = None,
                      limits: Limits = NO_LIMITS) -> ConnectionsReport:
    """Check r(M) <= (d,...,d) and the shifted-orthant containment on the box.

    d is the regularity number of S/I_X under the all-ones coarsening, and
    m = min(projective dimension, sum n_i + 1).  The second containment asks
    that every grid point of (d+m,...,d+m) + N^r[-(m-1)] has Hilbert value
    |X| inside the validation box.
    """
    from .grading import shifted_orthant_region

    if ring is None:
        ring = X.ring()
    box = _default_box(X) if box is None else tuple(int(b) for b in box)
    r = len(X.dims)
    P = quotient_presentation(X, ring, limits)
    d = regnum_module(P, (1,) * r, limits=limits)
    pdim = cached_minimal_resolution(P, limits).length
    m = min(pdim, sum(X.dims) + 1)
    rvec = res_reg_vector_points(X, ring)
    rv_ok = all(x <= d for x in rvec)
    region = b_regularity_region(X, box, ring)
    orth = shifted_orthant_region(r, -(m - 1)) if m >= 1 else None
    contained = True
    if m >= 1:
        for deg in product(*(range(b + 1) for b in box)):
            shifted = tuple(x - (d + m) for x in deg)
            if shifted in orth and deg not in region:
                contained = False
                break
    return ConnectionsReport(d, m, rvec, rv_ok, region.bases, contained)
