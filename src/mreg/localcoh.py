"""a-invariants of coarsened modules by two independent routes.

Route one (any module): graded local duality.  Dualize the minimal free
resolution into the canonical module, take cohomology presentations of the
dual complex, and read the top nonvanishing local cohomology degree off the
minimal generators: dim H^i(M)_p = dim E^{n-i}_{-p} with E^j the j-th
cohomology of Hom(F, omega).  E^j = ker d_{j+1}^T / im d_j^T is presented
by one Schreyer level over a Groebner basis of the kernel
(resolution._cohomology_presentation): the basis's Schreyer syzygies, and
the quotients of each image column divided by the basis.  Each dual column
is encoded once; the kernel (groebner._kernel_codes), the presentation and
its minimalization run on codes, and only the minimal E^j is decoded.
E^j vanishes for j < codim M (the grade of M; Bruns-Herzog, 1.2 and 2.1)
and for j past the resolution's length, so only codim M <= j <= length are
built; codim M is read off the Betti table, and E^codim must come out
nonzero, a check that ties the Betti table to this route.

Route two (square-free monomial quotients): Hochster's face-link formula for
the fine Hilbert series of local cohomology.  Each supporting face sigma
contributes degrees -(m_1 deg x_{j1} + ...) with all m >= 1, so the top
coarse degree of a face is minus the sum of its variable weights and the
empty face contributes zero.

The two routes share no code beyond polynomial arithmetic, which is what
makes their agreement a meaningful cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import NO_LIMITS, InputError, Limits, ZeroModuleError
from .grading import find_positive_coarsening_vector
from .groebner import ModuleCtx, _kernel_codes, graded_piece_dimension
from .linalg import matrix_rank
from .poly import FieldDescriptor, MultigradedRing
from .resolution import (
    ModulePresentation,
    _cohomology_presentation,
    betti_table,
    cached_minimal_resolution,
    codimension,
    coarsen_resolution,
)

NEG_INFINITY = None


@dataclass(frozen=True)
class AInvariants:
    """Top nonvanishing degrees of local cohomology, None meaning minus infinity."""

    values: tuple  # index i = 0 .. n

    def get(self, i: int):
        if 0 <= i < len(self.values):
            return self.values[i]
        return NEG_INFINITY

    def finite_items(self) -> list[tuple[int, int]]:
        return [(i, a) for i, a in enumerate(self.values) if a is not None]

    def to_json(self) -> list[dict]:
        return [
            {"i": i, "finite": a is not None, "value": a}
            for i, a in enumerate(self.values)
        ]


# -- Ext route -----------------------------------------------------------------

def ext_modules(P: ModulePresentation,
                limits: Limits = NO_LIMITS) -> list[ModulePresentation | None]:
    """Minimal presentations of E^j = Ext^j(M, omega) for j = 0..n.

    omega is the shifted free module with generator degree the sum of all
    variable degrees.  Entries are None exactly when the Ext module is zero.
    Nothing is built for j < codim M, where Ext vanishes; codim M is the
    order of vanishing at t = 1 of the Betti table's Hilbert numerator (see
    resolution.codimension), and an E^codim that minimalizes to zero raises
    ArithmeticError.  E^j is generated by a Groebner basis of ker d_{j+1}^T,
    one Buchberger run for each codim M <= j < length and none at the
    length, where d_{j+1}^T maps to zero and its kernel is the whole dual
    module; see resolution._cohomology_presentation.  The fine multigraded
    answer does not depend on any coarsening; the internal term order is
    that of the default coarsening vector.  Like cached_minimal_resolution, results are memoized
    per module and limits.
    """
    return _memo_ext_modules(P, limits)


# Called positionally only: lru_cache keys f(P) and f(P, limits=NO_LIMITS) apart.
@lru_cache(maxsize=128)
def _memo_ext_modules(P, limits):
    ring = P.ring
    v0 = find_positive_coarsening_vector(ring.degrees)
    F = cached_minimal_resolution(P, limits)
    w = tuple(sum(col[k] for col in ring.degrees) for k in range(ring.r))
    # G_i = Hom(F_i, omega) for i = 0..length, and G_{length+1} = 0
    dual_shifts = [
        tuple(tuple(wk - ak for wk, ak in zip(w, a)) for a in level)
        for level in F.shifts
    ] + [()]
    # dual[i] holds the columns of d_i^T: G_{i-1} -> G_i, the q-th being row q
    # of d_i; G_{-1} = 0 makes dual[0] empty, G_{length+1} = 0 makes every
    # column of dual[length + 1] zero
    dual = [[]] + [[{} for _ in level] for level in F.shifts]
    for i, diff in enumerate(F.differentials, 1):
        for c, col in enumerate(diff):
            for (q, m), coeff in col.items():
                dual[i][q][(c, m)] = coeff

    out: list[ModulePresentation | None] = [None] * (ring.n + 1)
    codim = codimension(betti_table(coarsen_resolution(F, v0)))
    # the columns of dual[i] as code dicts of G_i's plain context, for i >= codim
    ctxs = {i: ModuleCtx.for_vector(ring, dual_shifts[i], v0) for i in range(codim, F.length + 2)}
    coded = {i: [ctx.encode(col) for col in dual[i]] for i, ctx in ctxs.items()}
    for j in range(codim, F.length + 1):
        kernel = _kernel_codes(ctxs[j + 1], ctxs[j], coded[j + 1], limits)
        if kernel:
            try:
                out[j] = _cohomology_presentation(ring, dual_shifts[j], v0, kernel, coded[j],
                                                  limits)
            except ZeroModuleError:
                pass
    if out[codim] is None:
        raise ArithmeticError("Ext^codim minimalizes to zero")
    return out


def a_invariants_ext(P: ModulePresentation, v, limits: Limits = NO_LIMITS) -> AInvariants:
    """a^i = -(minimal generator degree of E^{n-i}), coarse under v."""
    ring = P.ring
    v = tuple(v)
    ring.order(v)
    ext = ext_modules(P, limits)
    vals = []
    for i in range(ring.n + 1):
        E = ext[ring.n - i]
        if E is None:
            vals.append(NEG_INFINITY)
        else:
            vals.append(-min(sum(a * b for a, b in zip(s, v)) for s in E.shifts))
    return AInvariants(tuple(vals))


def local_cohomology_piece_dimension(P: ModulePresentation, v, i: int, p: int) -> int:
    """dim_k H^i_m(M^[v])_p via the dual module's graded piece at -p."""
    ring = P.ring
    ext = ext_modules(P)
    j = ring.n - i
    if j < 0 or j > ring.n or ext[j] is None:
        return 0
    return graded_piece_dimension(ext[j], tuple(v), -p)


# -- simplicial complexes and Hochster's formula ---------------------------------

@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-encoded simplicial complex with string vertex labels.

    facets [[]] encodes the complex whose only face is the empty set;
    facets [] encodes the void complex with no faces at all.
    """

    vertices: tuple[str, ...]
    facets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise InputError("duplicate vertices")
        canon = []
        for f in self.facets:
            if not set(f) <= vs:
                raise InputError(f"facet {tuple(f)} uses unknown vertices")
            canon.append(tuple(sorted(set(f), key=self.vertices.index)))
        object.__setattr__(self, "facets", tuple(canon))

    @classmethod
    def from_json(cls, obj) -> "SimplicialComplex":
        try:
            return cls(tuple(obj["vertices"]), tuple(tuple(f) for f in obj["facets"]))
        except (KeyError, TypeError) as e:
            raise InputError(f"bad simplicial complex payload: {e}") from None

    def faces(self) -> set[frozenset]:
        out: set[frozenset] = set()
        for f in self.facets:
            fs = frozenset(f)
            for k in range(len(fs) + 1):
                out.update(frozenset(c) for c in itertools.combinations(sorted(fs), k))
        return out

    def sorted_faces(self) -> list[tuple[str, ...]]:
        idx = {v: k for k, v in enumerate(self.vertices)}
        faces = [tuple(sorted(f, key=idx.get)) for f in self.faces()]
        return sorted(faces, key=lambda f: (len(f), tuple(idx[v] for v in f)))

    def link_faces(self, sigma) -> set[frozenset]:
        return _link(self.faces(), sigma)


def _link(faces: set[frozenset], sigma) -> set[frozenset]:
    sig = frozenset(sigma)
    return {f for f in faces if not (f & sig) and (f | sig) in faces}


def reduced_homology_ranks(K: SimplicialComplex, field: FieldDescriptor) -> dict[int, int]:
    """Reduced simplicial homology dimensions over the field, indexed from -1."""
    return _homology_from_faces(K.faces(), tuple(K.vertices), field)


def _homology_from_faces(faces: set[frozenset], vertex_order, field) -> dict[int, int]:
    if not faces:
        return {}
    idx = {v: k for k, v in enumerate(vertex_order)}
    by_dim: dict[int, list[tuple]] = {}
    for f in faces:
        t = tuple(sorted(f, key=idx.get))
        by_dim.setdefault(len(t) - 1, []).append(t)
    for d in by_dim:
        by_dim[d].sort(key=lambda t: tuple(idx[v] for v in t))
    top = max(by_dim)
    ranks_d: dict[int, int] = {}  # rank of boundary C_d -> C_{d-1}
    for d in range(0, top + 1):
        rows_idx = {f: i for i, f in enumerate(by_dim.get(d - 1, []))}
        cols = by_dim.get(d, [])
        if not cols or not rows_idx:
            ranks_d[d] = 0
            continue
        mat = [[field.zero] * len(cols) for _ in rows_idx]
        for jcol, f in enumerate(cols):
            for i, vtx in enumerate(f):
                sub = f[:i] + f[i + 1 :]
                sign = field.one if i % 2 == 0 else field.neg(field.one)
                mat[rows_idx[sub]][jcol] = sign
        ranks_d[d] = matrix_rank(mat, field)
    out: dict[int, int] = {}
    for d in range(-1, top + 1):
        dim_cd = len(by_dim.get(d, []))
        out[d] = dim_cd - ranks_d.get(d, 0) - ranks_d.get(d + 1, 0)
    return out


def hochster_supports(K: SimplicialComplex, R: MultigradedRing) -> list[list]:
    """Per i = 0..n, the (face, rank) pairs of Hochster's formula.

    Entry i lists the faces sigma whose link has nonzero reduced homology
    in degree i - |sigma| - 1, with that rank.  These index the summands
    of the fine Hilbert series of the i-th local cohomology of the face
    ring: sigma contributes the degrees with support exactly sigma and all
    exponents negative, the empty face contributes 0.  One homology of
    each face's link serves every i: a link of sigma has dimension at most
    n - |sigma| - 1, so its homology degree d lands in i = d + |sigma| + 1
    within 0..n.
    """
    for vtx in K.vertices:
        R.var_index(vtx)
    faces = K.faces()
    out: list[list] = [[] for _ in range(R.n + 1)]
    for face in K.sorted_faces():
        ranks = _homology_from_faces(_link(faces, face), K.vertices, R.field)
        for d, rank in ranks.items():
            if rank:
                out[d + len(face) + 1].append((face, rank))
    return out


def a_invariants_hochster(K: SimplicialComplex, R: MultigradedRing, v) -> AInvariants:
    """a^i as the best corner over the supporting faces (all exponents one)."""
    return a_invariants_from_supports(hochster_supports(K, R), R, v)


def a_invariants_from_supports(supports, R: MultigradedRing, v) -> AInvariants:
    """a^i from the face supports of hochster_supports under v: minus the
    least v-weight of a supporting face, minus infinity with no face."""
    weights = dict(zip(R.variables, R.order(tuple(v)).weights))
    return AInvariants(tuple(
        max(-sum(weights[x] for x in face) for face, _ in support) if support else NEG_INFINITY
        for support in supports
    ))


# -- Stanley-Reisner translation --------------------------------------------------

def stanley_reisner_ideal(K: SimplicialComplex, R: MultigradedRing) -> list[dict]:
    """Squarefree monomial generators: one per minimal non-face."""
    faces = K.faces()
    verts = [x for x in R.variables if x in set(K.vertices)]
    if set(K.vertices) - set(R.variables):
        raise InputError("complex vertices must be ring variables")
    gens = []
    # every proper subset of a minimal non-face is a face, so it has at most
    # (largest facet size + 1) vertices
    top = max((len(f) for f in K.facets), default=0) + 1
    for size in range(1, min(top, len(verts)) + 1):
        for sub in itertools.combinations(verts, size):
            fs = frozenset(sub)
            if fs in faces:
                continue
            if all(fs - {x} in faces for x in sub):
                e = [0] * R.n
                for x in sub:
                    e[R.var_index(x)] = 1
                gens.append({tuple(e): R.field.one})
    # variables absent from the complex are non-faces of size one already
    return gens


def complex_from_squarefree_ideal(R: MultigradedRing, gens) -> SimplicialComplex:
    """Inverse translation; requires squarefree monomial generators."""
    supports = []
    for g in gens:
        if len(g) != 1:
            raise InputError("not a monomial ideal")
        (mono, _), = g.items()
        if any(e not in (0, 1) for e in mono):
            raise InputError("monomial generator is not squarefree")
        supports.append(frozenset(i for i, e in enumerate(mono) if e))
        if not supports[-1]:
            raise InputError("unit ideal has no face complex")
    faces = []
    for k in range(R.n + 1):
        for sub in itertools.combinations(range(R.n), k):
            fs = frozenset(sub)
            if not any(s <= fs for s in supports):
                faces.append(fs)
    maximal = [f for f in faces if not any(f < g for g in faces)]
    facets = tuple(
        tuple(R.variables[i] for i in sorted(f)) for f in sorted(maximal, key=sorted)
    )
    return SimplicialComplex(R.variables, facets)
