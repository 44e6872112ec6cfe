"""Finite reduced point sets in products of projective spaces.

H_X(d) is the dimension of V_d, the space of degree-d forms evaluated at
fixed affine representatives (first nonzero coordinate scaled to one) as
vectors in k^X.  V_0 is spanned by the constants, and V_d is the span of the
coordinatewise products of V_{d-e_f} with the coordinates of factor f, the
first factor where d_f > 0.  Every H_X value is read from one table per
point set and field (`_memo_spaces`), which keeps the V_d grown so far, so
the generic check, the region, the projections and single values share them.

Each degree is clamped to |X| - 1 in every factor before the lookup.  Some
linear form of factor f vanishes at no point (over the algebraic closure,
where the ranks are the same), so it is a nonzerodivisor on S/I_X: H_X does
not decrease along f, and once it fails to rise it stays constant.  Rising
from at least 1 to at most |X|, it stops by d_f = |X| - 1.  So the table
holds at most |X|^r spaces, and a huge degree costs no more than that.  The
vanishing ideal is one intersection of the per-point linear ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import comb, prod

from .errors import NO_LIMITS, InputError, InsufficientBoxError, Limits, MregError
from .grading import DegreeRegion, shifted_orthant_region
from .groebner import ideal_intersection
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


def _checked_degree(X: PointSet, deg) -> Multidegree:
    """deg as a tuple, one nonnegative entry per factor of X."""
    deg = tuple(int(d) for d in deg)
    if len(deg) != len(X.dims):
        raise InputError(f"degree {list(deg)} needs one entry per factor ({len(X.dims)})")
    if any(d < 0 for d in deg):
        raise InputError("Hilbert function arguments must be componentwise nonnegative")
    return deg


def _checked_box(X: PointSet, box) -> Multidegree:
    """box as a tuple, one nonnegative entry per factor of X."""
    box = tuple(int(b) for b in box)
    if len(box) != len(X.dims) or any(b < 0 for b in box):
        raise InputError("box must be a componentwise nonnegative multidegree")
    return box


def _coordinate_values(X: PointSet, K: FieldDescriptor):
    """Per factor, the vectors x_{f,j}(X) in k^X at the normalized points."""
    reps = X.normalized(K)
    return [list(zip(*(pt[f] for pt in reps))) for f in range(len(X.dims))]


# One entry: every caller asks one point set several times in a row.
@lru_cache(maxsize=1)
def _memo_spaces(X: PointSet, K: FieldDescriptor):
    """The evaluation table of X over K: the coordinate vectors of each factor,
    and the echelon bases {degree: V_d} grown so far, from V_0 on."""
    return _coordinate_values(X, K), {(0,) * len(X.dims): {0: [K.one] * len(X)}}


def _times_linear_forms(space: dict, columns, K: FieldDescriptor) -> dict:
    """Echelon basis {pivot: row} of the span of c * v over the columns c and
    the rows v of space, products taken coordinatewise.  A full space maps to
    itself: every normalized point has a coordinate 1 in each factor."""
    n = len(columns[0])
    if len(space) == n:
        return space
    out = {}
    for v in space.values():
        for c in columns:
            w = [K.mul(a, b) if a else a for a, b in zip(c, v)]
            for i in range(n):
                if w[i]:
                    if i not in out:
                        inv = K.inv(w[i])
                        out[i] = [K.mul(x, inv) if x else x for x in w]
                        break
                    wi = w[i]
                    w = [K.submul(x, y, wi) if y else x for x, y in zip(w, out[i])]
            if len(out) == n:
                return out
    return out


def _hilbert_values(X: PointSet, degrees, K: FieldDescriptor) -> list[int]:
    """H_X over K at each of the degrees, read from X's table.  A degree is
    clamped to |X| - 1 in each factor first (module docstring); a missing
    V_d is V_{d-e_f} times the linear forms of the first factor f where
    d_f > 0, so its chain back to a known degree is grown and stored."""
    values_of, spaces = _memo_spaces(X, K)
    top = len(X) - 1
    out = []
    for deg in degrees:
        deg = tuple(min(d, top) for d in deg)
        chain = []
        while deg not in spaces:
            f = next(k for k, d in enumerate(deg) if d)
            chain.append((deg, f))
            deg = deg[:f] + (deg[f] - 1,) + deg[f + 1:]
        space = spaces[deg]
        for deg, f in reversed(chain):
            space = spaces[deg] = _times_linear_forms(space, values_of[f], K)
        out.append(len(space))
    return out


def _hilbert_sweep(X: PointSet, box, ring: MultigradedRing) -> dict:
    """H_X over ring.field at every degree of the box, in product order."""
    degrees = list(product(*(range(b + 1) for b in box)))
    return dict(zip(degrees, _hilbert_values(X, degrees, ring.field)))


def hilbert_function_points(X: PointSet, deg, ring: MultigradedRing) -> int:
    """H_X(deg) over ring.field: the dimension of the degree-deg evaluations
    in k^X."""
    deg = _checked_degree(X, deg)
    return _hilbert_values(X, (deg,), ring.field)[0]


def point_ideal(X: PointSet, ring: MultigradedRing,
                limits: Limits = NO_LIMITS) -> list[PolyDict]:
    """Generators of I_X in ring: one intersection of the point ideals."""
    K = ring.field
    var = [tuple(int(k == i) for k in range(ring.n)) for i in range(ring.n)]
    offset_of_factor = list(accumulate((n + 1 for n in X.dims), initial=0))
    per_point = []
    for pt in X.normalized(K):
        gens = []
        for off, coords in zip(offset_of_factor, pt):
            pivot = next(i for i, c in enumerate(coords) if c)
            for j, c in enumerate(coords):
                if j != pivot:
                    # coords[pivot] == 1 after normalization: x_j - c x_pivot
                    g = {var[off + j]: K.one}
                    if c:
                        g[var[off + pivot]] = K.neg(c)
                    gens.append(g)
        per_point.append(gens)
    if len(per_point) == 1:
        return per_point[0]
    return ideal_intersection(per_point, ring, limits=limits)


def quotient_presentation(X: PointSet, ring: MultigradedRing,
                          limits: Limits = NO_LIMITS) -> ModulePresentation:
    """S/I_X as a cokernel presentation over ring."""
    return ModulePresentation.quotient_by_ideal(ring, point_ideal(X, ring, limits))


def b_regularity_region(X: PointSet, box, ring: MultigradedRing) -> DegreeRegion:
    """Degrees where the Hilbert function reaches |X|, truncated to the box.

    The infinite region is upward closed; the truncation is certified by
    requiring the box corner to lie inside and every minimal element to stay
    strictly inside the box.
    """
    box = _checked_box(X, box)
    r = len(X.dims)
    values = _hilbert_sweep(X, box, ring)
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


def res_reg_vector_points(X: PointSet, ring: MultigradedRing) -> Multidegree:
    """t_i = least t with H_X(t e_i) equal to the distinct i-th projections."""
    values_of, _ = _memo_spaces(X, ring.field)
    out = []
    for f in range(len(X.dims)):
        proj = set(zip(*values_of[f]))
        ray = tuple(len(X) + 1 if k == f else 0 for k in range(len(X.dims)))
        values = _hilbert_sweep(X, ray, ring)
        out.append(next((deg[f] for deg, h in values.items() if h == len(proj)), None))
        if out[-1] is None:
            raise MregError("projection Hilbert function failed to stabilize")
    return tuple(out)


def dim_of_graded_piece(dims, deg) -> int:
    """dim_k S_deg for the standard multigraded ring of the given factors."""
    return prod(comb(n + d, d) for n, d in zip(dims, deg))


def generic_position_check(X: PointSet, box, ring: MultigradedRing) -> bool:
    """Does H_X agree with min(dim S_deg, |X|) everywhere in the box?"""
    box = _checked_degree(X, box)
    values = _hilbert_sweep(X, box, ring)
    if values[box] != len(X):
        raise InsufficientBoxError(f"insufficient box {box}: Hilbert function is "
                                   f"{values[box]} < {len(X)} at the corner")
    return all(h == min(dim_of_graded_piece(X.dims, deg), len(X)) for deg, h in values.items())


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


def connections_check(X: PointSet, box, ring: MultigradedRing,
                      limits: Limits = NO_LIMITS) -> ConnectionsReport:
    """Check r(M) <= (d,...,d) and the shifted-orthant containment on the box.

    d is the regularity number of S/I_X under the all-ones coarsening, and
    m = min(projective dimension, sum n_i + 1).  The second containment asks
    that every grid point of (d+m,...,d+m) + N^r[-(m-1)] has Hilbert value
    |X| inside the validation box.
    """
    box = _checked_box(X, box)
    r = len(X.dims)
    P = quotient_presentation(X, ring, limits)
    d = regnum_module(P, (1,) * r, limits=limits)
    pdim = cached_minimal_resolution(P, limits).length
    m = min(pdim, sum(X.dims) + 1)
    rvec = res_reg_vector_points(X, ring)
    rv_ok = all(x <= d for x in rvec)
    region = b_regularity_region(X, box, ring)
    contained = True
    if m >= 1:
        orth = shifted_orthant_region(r, -(m - 1))
        contained = all(tuple(x - (d + m) for x in deg) not in orth or deg in region
                        for deg in product(*(range(b + 1) for b in box)))
    return ConnectionsReport(d, m, rvec, rv_ok, region.bases, contained)
