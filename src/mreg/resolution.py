"""Minimal multigraded free resolutions, Betti tables, and coarsening.

A resolution is built step by step: the presentation is first reduced so
its target generators are minimal (constant entries pivoted away), then each
kernel is computed as the relation module of the current columns and pruned
to a minimal generating set before becoming the next differential.  Every
differential therefore has all entries in the irrelevant ideal, the complex
is minimal by construction, and the length is bounded by the number of
variables; both facts are asserted after the fact rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    NO_LIMITS,
    HomogeneityError,
    InputError,
    Limits,
    MregError,
    ZeroModuleError,
)
from .grading import find_positive_coarsening_vector
from .groebner import (
    ModuleCtx,
    Vec,
    kernel_generators,
    vec_to_columns,
)
from .poly import (
    Multidegree,
    MultigradedRing,
    PolyDict,
    is_constant,
    pmul,
    pneg,
    padd,
    pscale,
)

Column = tuple  # tuple of PolyDict, one entry per target generator


@dataclass(frozen=True)
class ModulePresentation:
    """coker of a homogeneous matrix between shifted free modules.

    `shifts` are the multidegrees of the ambient free generators and each
    relation is a column of homogeneous polynomials (one per generator).
    """

    ring: MultigradedRing
    shifts: tuple[Multidegree, ...]
    relations: tuple[Column, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(tuple(s) for s in self.shifts))
        rels = []
        for col in self.relations:
            col = tuple(dict(entry) for entry in col)
            if len(col) != len(self.shifts):
                raise InputError("relation column length does not match generators")
            rels.append(col)
        object.__setattr__(self, "relations", tuple(rels))
        if not self.shifts:
            raise InputError("presentation needs at least one ambient generator")
        for s in self.shifts:
            if len(s) != self.ring.r:
                raise InputError("shift length does not match the grading rank")
        for col in self.relations:
            self.column_degree(col)

    def column_vec(self, j: int) -> Vec:
        return {
            (i, m): c
            for i, entry in enumerate(self.relations[j])
            for m, c in entry.items()
        }

    def column_degree(self, col: Column) -> Multidegree | None:
        """Common multidegree of a homogeneous column (None when zero)."""
        degs = set()
        for i, entry in enumerate(col):
            if entry:
                d = self.ring.multidegree_of(entry)
                degs.add(tuple(a + b for a, b in zip(d, self.shifts[i])))
        if len(degs) > 1:
            raise HomogeneityError(f"relation column is not homogeneous: {sorted(degs)}")
        return degs.pop() if degs else None

    def cache_key(self):
        rels = tuple(
            tuple(tuple(sorted(entry.items())) for entry in col)
            for col in self.relations
        )
        return (self.ring, self.shifts, rels)

    def __hash__(self):
        return hash(self.cache_key())

    @classmethod
    def quotient_by_ideal(cls, ring: MultigradedRing, gens) -> "ModulePresentation":
        """S/I for a list of homogeneous polynomials."""
        return cls(ring, ((0,) * ring.r,), tuple((dict(g),) for g in gens))

    @classmethod
    def free_module(cls, ring: MultigradedRing, shifts) -> "ModulePresentation":
        return cls(ring, tuple(tuple(s) for s in shifts), ())


@dataclass
class FreeResolution:
    """Chain of shifted free modules; differentials map F_i -> F_{i-1}.

    `shifts[i]` lists the generator degrees of F_i; `differentials[i-1]`
    holds the columns of d_i (each column is a tuple of polynomials indexed
    by the generators of F_{i-1}).  Coarsened resolutions carry integer
    shifts instead of tuples.
    """

    ring: MultigradedRing
    shifts: list[tuple]
    differentials: list[list[Column]]

    @property
    def length(self) -> int:
        return len(self.shifts) - 1

    def rank(self, i: int) -> int:
        return len(self.shifts[i])


@dataclass(frozen=True)
class BettiTable:
    """Multiplicities of shifts per homological degree."""

    entries: tuple  # sorted tuple of ((i, degree), multiplicity)

    @classmethod
    def from_resolution(cls, F: FreeResolution) -> "BettiTable":
        counts: dict = {}
        for i, shifts in enumerate(F.shifts):
            for a in shifts:
                counts[(i, a)] = counts.get((i, a), 0) + 1
        return cls(tuple(sorted(counts.items())))

    def as_dict(self) -> dict:
        return dict(self.entries)

    def beta(self, i: int, a) -> int:
        a = tuple(a) if isinstance(a, (tuple, list)) else a
        return dict(self.entries).get((i, a), 0)

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), b in self.entries:
            out[i] = out.get(i, 0) + b
        return out

    def positions(self):
        return [(i, a, b) for (i, a), b in self.entries]

    def to_json(self) -> list[dict]:
        out = []
        for (i, a), b in self.entries:
            deg = list(a) if isinstance(a, tuple) else a
            out.append({"i": i, "degree": deg, "beta": b})
        return out


def minimalize_presentation(P: ModulePresentation) -> ModulePresentation:
    """Pivot away nonzero-constant entries until the presentation is minimal.

    The length-one case of minimalize_complex: each pivot removes one
    redundant ambient generator and one relation, the cokernel is unchanged,
    and relations that become zero are dropped.
    """
    cols = [col for col in P.relations if any(col)]
    F = FreeResolution(P.ring, [P.shifts, tuple(P.column_degree(c) for c in cols)], [cols])
    M = minimalize_complex(F)
    if not M.shifts[0]:
        raise ZeroModuleError("presentation minimalized to the zero module")
    rels = M.differentials[0] if M.differentials else ()
    return ModulePresentation(P.ring, M.shifts[0], tuple(c for c in rels if any(c)))


def cached_minimal_resolution(P: ModulePresentation,
                              limits: Limits = NO_LIMITS) -> FreeResolution:
    """Minimal resolution computed once per module and limits, under the default order.

    Betti numbers do not depend on the order's coarsening vector, so a single
    resolution serves every coarsening of the same module.  The limits are
    part of the memo key: an entry does not record whether its work stayed
    within other caps, and a call the caps stop raises and stores nothing.
    """
    return _memo_resolution(P, limits)


# Called positionally only: lru_cache keys f(P) and f(P, limits=NO_LIMITS) apart.
@lru_cache(maxsize=128)
def _memo_resolution(P, limits):
    return minimal_free_resolution(P, limits=limits)


def minimal_free_resolution(P: ModulePresentation, v=None,
                            limits: Limits = NO_LIMITS) -> FreeResolution:
    """Minimal Z^r-graded free resolution of coker(P)."""
    ring = P.ring
    if v is None:
        v = find_positive_coarsening_vector(ring.degrees)
    v = tuple(v)
    P0 = minimalize_presentation(P)
    shifts_list: list[tuple] = [P0.shifts]
    diffs: list[list[Column]] = []

    ctx = ModuleCtx.for_vector(ring, P0.shifts, v)
    cols = [P0.column_vec(j) for j in range(len(P0.relations))]
    while cols:
        if len(diffs) >= ring.n:
            raise MregError("resolution exceeds the variable-count length bound")
        limits.check_length(len(diffs) + 1)
        kept_idx, syz = kernel_generators(ctx, cols, limits)
        kept = [cols[i] for i in kept_idx]
        step_shifts = tuple(ctx.vec_degree(c) for c in kept)
        diffs.append([vec_to_columns(c, ctx.rank) for c in kept])
        shifts_list.append(step_shifts)
        ctx = ModuleCtx.for_vector(ring, step_shifts, v)
        cols = syz
    F = FreeResolution(ring, shifts_list, diffs)
    _assert_resolution_sane(F)
    return F


def _assert_resolution_sane(F: FreeResolution):
    ring = F.ring
    K = ring.field
    if F.length > ring.n:
        raise MregError("minimal resolution longer than the number of variables")
    for diff in F.differentials:
        for col in diff:
            for entry in col:
                if is_constant(entry):
                    raise MregError("non-minimal differential: constant entry survived")
    for i in range(1, len(F.differentials)):
        prev, cur = F.differentials[i - 1], F.differentials[i]
        for col in cur:
            # rows of prev are indexed like entries of col
            acc = [dict() for _ in range(len(F.shifts[i - 1]))]
            for k, entry in enumerate(col):
                if not entry:
                    continue
                for rr in range(len(acc)):
                    acc[rr] = padd(acc[rr], pmul(entry, prev[k][rr], K), K)
            if any(acc_entry for acc_entry in acc):
                raise MregError("differentials do not compose to zero")


def betti_table(F: FreeResolution) -> BettiTable:
    return BettiTable.from_resolution(F)


def coarsen_resolution(F: FreeResolution, v) -> FreeResolution:
    """Replace every shift by its dot product with v; differentials unchanged."""
    v = tuple(v)
    coarse = [
        tuple(sum(a * b for a, b in zip(s, v)) for s in level)
        for level in F.shifts
    ]
    return FreeResolution(F.ring, coarse, F.differentials)


def resolution_regularity_vector(B: BettiTable, ring: MultigradedRing) -> Multidegree:
    """Componentwise bounds (max over nonzero Betti positions of a_l - i).

    Only defined over standard multigraded rings (products of projective
    spaces), where every variable degree is a standard basis vector.
    """
    basis = {tuple(1 if k == j else 0 for k in range(ring.r)) for j in range(ring.r)}
    if set(ring.degrees) - basis:
        raise InputError("resolution regularity vector needs a standard multigraded ring")
    out = []
    for ell in range(ring.r):
        out.append(max(a[ell] - i for (i, a), _ in B.entries))
    return tuple(out)


def regnum_lower_bound(Bz: BettiTable, c_v: int, s_v: int) -> int:
    """max of j - i*s_v - c_v + 1 over nonzero coarse Betti numbers."""
    if not Bz.entries:
        raise InputError("empty Betti table")
    vals = []
    for (i, j), _ in Bz.entries:
        if not isinstance(j, int):
            raise InputError("lower bound needs a coarsened Betti table")
        vals.append(j - i * s_v - c_v + 1)
    return max(vals)


def minimalize_complex(F: FreeResolution) -> FreeResolution:
    """Cancel constant entries of a (possibly non-minimal) complex.

    Gaussian elimination on the complex: a constant entry of d_i pairs a
    generator of F_i with one of F_{i-1}; removing both replaces d_i by its
    Schur complement, drops the corresponding row of d_{i+1} and column of
    d_{i-1}, and preserves homology.
    """
    K = F.ring.field
    shifts = [list(level) for level in F.shifts]
    diffs = [[list(col) for col in diff] for diff in F.differentials]

    def find_pivot():
        for i, diff in enumerate(diffs):
            for p, col in enumerate(diff):
                for q, entry in enumerate(col):
                    if is_constant(entry):
                        return i, q, p
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        i, q, p = hit
        diff = diffs[i]
        c = next(iter(diff[p][q].values()))
        inv = K.inv(c)
        pivot_col = diff[p]
        for s, col in enumerate(diff):
            if s == p:
                continue
            factor = pscale(col[q], inv, K)
            if factor:
                for rr in range(len(col)):
                    col[rr] = padd(col[rr], pneg(pmul(factor, pivot_col[rr], K), K), K)
        del diff[p]
        for col in diff:
            del col[q]
        del shifts[i + 1][p]
        del shifts[i][q]
        if i + 1 < len(diffs):
            for col in diffs[i + 1]:
                del col[p]
        if i > 0:
            del diffs[i - 1][q]
    while diffs and not shifts[-1]:
        shifts.pop()
        diffs.pop()
    out = FreeResolution(F.ring, [tuple(s) for s in shifts],
                         [[tuple(col) for col in diff] for diff in diffs])
    _assert_resolution_sane(out)
    return out


def first_syzygy_presentation(P: ModulePresentation, v=None):
    """The free cover sequence 0 -> M1 -> F -> M -> 0 read off the resolution.

    Returns (M1 presentation or None when M is free, shifts of the free
    cover F, the resolution used).
    """
    F = minimal_free_resolution(P, v=v)
    if F.length == 0:
        return None, F.shifts[0], F
    m1 = ModulePresentation(
        P.ring,
        F.shifts[1],
        tuple(F.differentials[1]) if F.length >= 2 else (),
    )
    return m1, F.shifts[0], F
