"""Regularity numbers, syzygy degree bounds, and degree-bound sets.

The regularity number of a module under a positive coarsening vector is the
stable threshold of the coarse vanishing conditions on local cohomology; it
is computed from the a-invariants as max_i (a^i - c_v (1 - i) + 1).  The
closed form for the ring itself and the shift rule for free modules are
implemented directly so they can serve as independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .errors import NO_LIMITS, InputError, Limits, MregError, ZeroModuleError
from .grading import LatticeRegion, positive_coarsening_candidates
from .groebner import vec_component
from .localcoh import (
    AInvariants,
    a_invariants_ext,
    a_invariants_hochster,
    complex_from_squarefree_ideal,
    local_cohomology_piece_dimension,
)
from .poly import Multidegree, MultigradedRing
from .resolution import (
    ModulePresentation,
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    regnum_lower_bound,
)


@dataclass(frozen=True)
class CoarseningConstants:
    """The three integers controlling coarse vanishing and degree growth."""

    v: Multidegree
    c_v: int
    s_v: int
    sigma: int

    def to_json(self) -> dict:
        return {"v": list(self.v), "c": self.c_v, "s": self.s_v, "sigma": self.sigma}


def coarsening_constants(R: MultigradedRing, v) -> CoarseningConstants:
    """c_v = lcm of coarse variable degrees, sigma their sum, s_v the growth step."""
    v = tuple(int(x) for x in v)
    w = R.order(v).weights
    c = lcm(*w)
    sigma = sum(w)
    s = max(R.n * c - sigma, c)
    return CoarseningConstants(v, c, s, sigma)


def regnum_ring(R: MultigradedRing, v) -> int:
    """(n-1) c_v + 1 - sigma, the closed-form regularity number of the ring."""
    cst = coarsening_constants(R, v)
    return (R.n - 1) * cst.c_v + 1 - cst.sigma


def regnum_free(shifts, R: MultigradedRing, v) -> int:
    """max over the shifts d of regnum_ring + d . v."""
    shifts = [tuple(s) for s in shifts]
    if not shifts:
        raise InputError("free module needs at least one generator")
    base = regnum_ring(R, v)
    v = tuple(v)
    return max(base + sum(a * b for a, b in zip(d, v)) for d in shifts)


def module_a_invariants(P: ModulePresentation, v, route: str = "ext",
                        limits: Limits = NO_LIMITS) -> AInvariants:
    """a-invariants by the requested route ("ext" or "hochster")."""
    if route == "ext":
        return a_invariants_ext(P, v, limits)
    if route == "hochster":
        K = _complex_of_quotient(P)
        return a_invariants_hochster(K, P.ring, v)
    raise InputError(f"unknown a-invariant route {route!r}")


def _complex_of_quotient(P: ModulePresentation):
    if len(P.shifts) != 1 or any(P.shifts[0]):
        raise InputError("Hochster route needs a cyclic quotient S/I")
    gens = [vec_component(rel, 0) for rel in P.relations]
    return complex_from_squarefree_ideal(P.ring, gens)


def regnum_module(P: ModulePresentation, v, route: str = "ext",
                  limits: Limits = NO_LIMITS) -> int:
    """max_i of a^i - c_v (1 - i) + 1 over the finite a-invariants."""
    cst = coarsening_constants(P.ring, v)
    ai = module_a_invariants(P, v, route, limits)
    return _regnum_from_a_invariants(ai, cst)


def _regnum_from_a_invariants(ai: AInvariants, cst: CoarseningConstants) -> int:
    finite = ai.finite_items()
    if not finite:
        raise ZeroModuleError(
            "all local cohomology vanishes; the module is zero or the engine is broken"
        )
    return max(a - cst.c_v * (1 - i) + 1 for i, a in finite)


def vreg_membership(P: ModulePresentation, v, p: int) -> bool:
    """Does p satisfy every coarse vanishing condition?

    For each i the progression p + c_v(1-i) + N c_v is checked against the
    graded pieces of local cohomology, truncated at a^i because everything
    above the a-invariant vanishes by definition.
    """
    cst = coarsening_constants(P.ring, v)
    ai = a_invariants_ext(P, v)
    for i, a in ai.finite_items():
        q = p + cst.c_v * (1 - i)
        while q <= a:
            if local_cohomology_piece_dimension(P, v, i, q) > 0:
                return False
            q += cst.c_v
    return True


def syzygy_degree_bound(regnum: int, constants: CoarseningConstants, i: int) -> int:
    """Upper bound regnum + i s_v + c_v - 1 for coarse i-th syzygy degrees."""
    if i < 0:
        raise InputError("homological index must be nonnegative")
    return regnum + i * constants.s_v + constants.c_v - 1


@dataclass(frozen=True)
class DegreeBoundSet:
    """Finite set of multidegrees allowed for minimal i-th syzygies."""

    i: int
    v: Multidegree
    degrees: tuple[Multidegree, ...]
    bases: tuple[Multidegree, ...]
    bound: int

    def as_set(self) -> frozenset:
        return frozenset(self.degrees)

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "v": list(self.v),
            "bound": self.bound,
            "bases": [list(b) for b in self.bases],
            "degrees": [list(d) for d in self.degrees],
        }


def degree_bound_set(P: ModulePresentation, v, i: int) -> DegreeBoundSet:
    """The points of the bounded region within the degree bound for level i.

    The bases are the minimal generator degrees of the module, which
    support its Hilbert series inside finitely many semigroup translates.
    Asking for i = 0, 1, 2, ... in turn grows one memoized region; see
    degree_bound_sets.
    """
    return degree_bound_sets(P, v, (i,))[0]


def degree_bound_sets(P: ModulePresentation, v, indices,
                      limits: Limits = NO_LIMITS) -> tuple[DegreeBoundSet, ...]:
    """degree_bound_set for every i in indices, from one grown region.

    The region of (P, bases, v) is kept in a one-entry memo and grown layer
    by layer to the largest bound asked so far; level i reads the prefix of
    v-degree at most its bound.  One entry serves the consecutive calls of
    a sweep over i under one vector and keeps a single region alive.  The
    key is the module, not the numbers: equal ideals in renamed variables
    build regions of their own.  The largest bound is checked against the
    limits before any layer is built.  The bases are F_0 of the memoized
    resolution.
    """
    indices = tuple(indices)
    if not indices:
        return ()
    v = tuple(v)
    cst = coarsening_constants(P.ring, v)
    regnum = regnum_module(P, v, limits=limits)
    bounds = [syzygy_degree_bound(regnum, cst, i) for i in indices]
    limits.check_degree("degree bound", max(bounds))
    bases = cached_minimal_resolution(P, limits).shifts[0]
    levels = _memo_region(P, bases, v).levels(bounds)
    return tuple(DegreeBoundSet(i, v, pts, bases, b) for i, pts, b in zip(indices, levels, bounds))


@lru_cache(maxsize=1)
def _memo_region(P, bases, v):
    return LatticeRegion(bases, P.ring.degrees, v)


def intersect_degree_bounds(P: ModulePresentation, vectors, i: int) -> DegreeBoundSet:
    """Set intersection of the per-vector degree-bound sets."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise InputError("need at least one coarsening vector")
    sets = [degree_bound_set(P, v, i) for v in vectors]
    inter = set(sets[0].degrees)
    for s in sets[1:]:
        inter &= set(s.degrees)
    return DegreeBoundSet(
        i,
        vectors[0],
        tuple(sorted(inter)),
        sets[0].bases,
        max(s.bound for s in sets),
    )


def minimal_coarsening_set(P: ModulePresentation, candidates=None,
                           i_range=(0, 1, 2), box: int = 5,
                           limits: Limits = NO_LIMITS) -> list[Multidegree]:
    """An irredundant subfamily realizing the full intersection of bound sets.

    Candidates default to the primitive positive coarsening vectors in the
    coordinate box.  Greedy elimination in decreasing lexicographic order:
    a vector is dropped whenever the remaining family still cuts out the
    same intersection for every homological index in i_range.  The result is
    minimal relative to the candidate family (dropping more vectors only
    enlarges intersections).
    """
    if candidates is None:
        candidates = positive_coarsening_candidates(P.ring.degrees, box)
    candidates = [tuple(v) for v in candidates]
    if not candidates:
        raise InputError("no candidate coarsening vectors")
    i_range = list(i_range)
    if not i_range:
        raise InputError("no homological indices to compare")
    dsets = {
        v: {
            s.i: frozenset(s.degrees)
            for s in degree_bound_sets(P, v, i_range, limits=limits)
        }
        for v in candidates
    }

    def family_intersection(family, i):
        out = None
        for v in family:
            out = dsets[v][i] if out is None else out & dsets[v][i]
        return out

    target = {i: family_intersection(candidates, i) for i in i_range}
    kept = list(candidates)
    for v in sorted(candidates, reverse=True):
        trial = [u for u in kept if u != v]
        if trial and all(family_intersection(trial, i) == target[i] for i in i_range):
            kept = trial
    return sorted(kept)


@dataclass(frozen=True)
class ScalarCheckReport:
    """Both sides of the scalar-multiple laws, computed independently."""

    v: Multidegree
    d: int
    dv: Multidegree
    regnum_v: int
    regnum_dv: int
    regnum_identity_holds: bool
    set_comparisons: tuple  # (i, sets equal?) pairs

    def to_json(self) -> dict:
        return {
            "v": list(self.v),
            "d": self.d,
            "dv": list(self.dv),
            "regnum_v": self.regnum_v,
            "regnum_dv": self.regnum_dv,
            "regnum_identity_holds": self.regnum_identity_holds,
            "set_comparisons": [
                {"i": i, "equal": eq} for i, eq in self.set_comparisons
            ],
        }


def scalar_coarsening_report(P: ModulePresentation, v, d: int,
                             i_range=(0, 1, 2), limits: Limits = NO_LIMITS) -> ScalarCheckReport:
    """Check regnum_{dv} = d regnum_v - d + 1 and the equality of bound sets."""
    if d < 1:
        raise InputError("scalar must be a positive integer")
    v = tuple(v)
    dv = tuple(d * x for x in v)
    i_range = tuple(i_range)
    rv = regnum_module(P, v, limits=limits)
    rdv = regnum_module(P, dv, limits=limits)
    sets_v = degree_bound_sets(P, v, i_range, limits=limits)
    sets_dv = degree_bound_sets(P, dv, i_range, limits=limits)
    comparisons = tuple(
        (s_v.i, s_v.as_set() == s_dv.as_set()) for s_v, s_dv in zip(sets_v, sets_dv)
    )
    return ScalarCheckReport(v, d, dv, rv, rdv, rdv == d * rv - d + 1, comparisons)


@dataclass(frozen=True)
class RegularityReport:
    """Everything the coarsening v says about one module."""

    constants: CoarseningConstants
    a_invariants: AInvariants
    regnum: int
    lower_bound: int
    bounds: tuple  # (i, degree bound) pairs

    def to_json(self) -> dict:
        out = self.constants.to_json()
        out["a_invariants"] = self.a_invariants.to_json()
        out["regnum"] = self.regnum
        out["lower_bound"] = self.lower_bound
        out["bounds"] = {str(i): b for i, b in self.bounds}
        return out


def regularity_report(P: ModulePresentation, v, i_max: int | None = None,
                      route: str = "ext", limits: Limits = NO_LIMITS) -> RegularityReport:
    """The report of `mreg regnum`.  The a-invariants and the lower bound
    share one memoized resolution per module and limits."""
    v = tuple(v)
    cst = coarsening_constants(P.ring, v)
    ai = module_a_invariants(P, v, route, limits)
    regnum = _regnum_from_a_invariants(ai, cst)
    F = cached_minimal_resolution(P, limits)
    lower = regnum_lower_bound(betti_table(coarsen_resolution(F, v)), cst.c_v, cst.s_v)
    if lower > regnum:
        raise MregError("resolution lower bound exceeds the regularity number")
    if i_max is None:
        i_max = F.length
    bounds = tuple((i, syzygy_degree_bound(regnum, cst, i)) for i in range(i_max + 1))
    return RegularityReport(cst, ai, regnum, lower, bounds)
