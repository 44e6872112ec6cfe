"""Minimal multigraded free resolutions, Betti tables, and coarsening.

A resolution is built in two passes.  First a Schreyer frame: one Groebner
basis of the minimalized presentation's columns gives the first level, and
every later level is read off the S-pairs of the one before it.  Each level
is ordered per lead component by descending lex lead exponents (Eisenbud,
Commutative Algebra, Cor. 15.11), and the next module gets the induced
Schreyer order: x^m e_c compares as x^m times the lead term of c, with ties
going to the lower index.  SchreyerCtx packs that order into groebner's
integer term codes: the code of x^m e_c is the code of x^m times the lead
term of c one level down, with c appended in the low bits, so a level's
divisions run on codes like a Buchberger pass.  By Schreyer's theorem one
syzygy per minimal generator of each colon ideal (lt_b : b > a) : lt_a is
then a Groebner basis of the syzygies, so a level needs reductions only, no
Buchberger run; each S-vector must reduce to zero, and the quotients give
its syzygy.  The frame is a free resolution of length at most the number of
variables, but not minimal.  Second, minimalize_complex cancels its constant
entries.  The d o d = 0 and minimality asserts run on the result rather than
being trusted.

The Ext route presents span(kernel) / span(image) by one more such level:
the division that yields the kernel basis's syzygies also divides the image
columns, and their quotients are the other relations.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import (
    NO_LIMITS,
    InputError,
    Limits,
    MregError,
    ZeroModuleError,
)
from .grading import find_positive_coarsening_vector
from .groebner import (
    ModuleCtx,
    SchreyerCtx,
    Vec,
    _isub_term_mul,
    _memo_basis,
    _minimal_colon,
    element_degree,
    leading_term,
    poly_to_vec,
    reduce_vec,
    residual,
    s_vector,
)
from .poly import Multidegree, MultigradedRing, mono_mul


@dataclass(frozen=True)
class ModulePresentation:
    """coker of a homogeneous matrix between shifted free modules.

    `shifts` are the multidegrees of the ambient free generators and each
    relation is a homogeneous module element over them, a dict mapping
    (generator index, exponent tuple) to a coefficient.  Construction checks
    every relation once and keeps its degree in `relation_degrees` (None
    for a zero relation), and hashes the cache key once, for the memos.
    """

    ring: MultigradedRing
    shifts: tuple[Multidegree, ...]
    relations: tuple[Vec, ...] = ()
    relation_degrees: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(tuple(s) for s in self.shifts))
        object.__setattr__(self, "relations", tuple(dict(rel) for rel in self.relations))
        if not self.shifts:
            raise InputError("presentation needs at least one ambient generator")
        for s in self.shifts:
            if len(s) != self.ring.r:
                raise InputError("shift length does not match the grading rank")
        object.__setattr__(self, "relation_degrees", tuple(
            element_degree(self.ring, self.shifts, rel) if rel else None
            for rel in self.relations
        ))
        object.__setattr__(self, "_hash", hash(self.cache_key()))

    def cache_key(self):
        rels = tuple(tuple(sorted(rel.items())) for rel in self.relations)
        return (self.ring, self.shifts, rels)

    def __hash__(self):
        return self._hash

    @classmethod
    def quotient_by_ideal(cls, ring: MultigradedRing, gens) -> "ModulePresentation":
        """S/I for a list of homogeneous polynomials."""
        return cls(ring, ((0,) * ring.r,), tuple(poly_to_vec(g) for g in gens))

    @classmethod
    def free_module(cls, ring: MultigradedRing, shifts) -> "ModulePresentation":
        return cls(ring, tuple(tuple(s) for s in shifts), ())


@dataclass
class FreeResolution:
    """Chain of shifted free modules; differentials map F_i -> F_{i-1}.

    `shifts[i]` lists the generator degrees of F_i; `differentials[i-1]`
    holds the columns of d_i, each a module element over the generators of
    F_{i-1} (a dict mapping (generator index, exponent tuple) to a
    coefficient).  Coarsened resolutions carry integer shifts instead of
    tuples.
    """

    ring: MultigradedRing
    shifts: list[tuple]
    differentials: list[list[Vec]]

    @property
    def length(self) -> int:
        return len(self.shifts) - 1

    def rank(self, i: int) -> int:
        return len(self.shifts[i])


@dataclass(frozen=True)
class BettiTable:
    """Multiplicities of shifts per homological degree."""

    entries: tuple  # sorted tuple of ((i, degree), multiplicity)

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
    nonzero = [j for j, d in enumerate(P.relation_degrees) if d is not None]
    F = FreeResolution(P.ring, [P.shifts, tuple(P.relation_degrees[j] for j in nonzero)],
                       [[P.relations[j] for j in nonzero]])
    M = minimalize_complex(F)
    if not M.shifts[0]:
        raise ZeroModuleError("presentation minimalized to the zero module")
    rels = M.differentials[0] if M.differentials else ()
    return ModulePresentation(P.ring, M.shifts[0], tuple(c for c in rels if c))


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
    """Minimal Z^r-graded free resolution of coker(P).

    The Schreyer frame is minimalized by minimalize_complex; the length cap
    applies to the minimal resolution, not to the frame.
    """
    if v is None:
        v = find_positive_coarsening_vector(P.ring.degrees)
    v = tuple(v)
    F = minimalize_complex(_schreyer_frame(minimalize_presentation(P), v, limits))
    limits.check_length(F.length)
    return _degree_sorted(F, v)


def _degree_sorted(F: FreeResolution, v) -> FreeResolution:
    """The same complex with every level after F_0 sorted by coarse, then fine degree."""
    shifts, diffs = list(F.shifts), [list(d) for d in F.differentials]
    for i in range(1, len(shifts)):
        perm = sorted(range(len(shifts[i])),
                      key=lambda p: (sum(map(mul, shifts[i][p], v)), shifts[i][p]))
        shifts[i] = tuple(shifts[i][p] for p in perm)
        diffs[i - 1] = [diffs[i - 1][p] for p in perm]
        if i < len(diffs):
            row = {p: k for k, p in enumerate(perm)}
            diffs[i] = [{(row[c], m): x for (c, m), x in col.items()} for col in diffs[i]]
    return FreeResolution(F.ring, shifts, diffs)


def _schreyer_frame(P0: ModulePresentation, v, limits: Limits) -> FreeResolution:
    """A free resolution of coker(P0) whose differentials are Schreyer Groebner bases.

    Every element of the frame is monic: buchberger returns a monic basis,
    and so does _frame_syzygies.  The first level is the basis
    graded_piece_dimension memoizes.
    """
    ring = P0.ring
    elems, leads = _memo_basis(P0, v, limits)
    shifts, diffs = [P0.shifts], []
    below, below_leads = None, None
    while elems:
        if len(diffs) == ring.n:
            raise MregError("resolution exceeds the variable-count length bound")
        src = shifts[-1]
        elems, leads, level = _frame_level(ring, src, elems, leads)
        diffs.append(elems)
        shifts.append(level)
        if below is None:
            ctx = ModuleCtx.for_vector(ring, src + level, v)
        else:
            ctx = SchreyerCtx.for_vector(ring, src + level, v, below=below, leads=below_leads)
        below, below_leads = ctx, leads
        elems, leads = _frame_syzygies(ctx, elems, leads, (), limits)
    return FreeResolution(ring, shifts, diffs)


def _frame_level(ring: MultigradedRing, shifts, elems, leads):
    """(elements, lead terms, degrees), per lead component by descending lex lead exponents."""
    order = sorted(range(len(elems)), key=lambda i: (leads[i][0], [-x for x in leads[i][1]]))
    leads = [leads[i] for i in order]
    degrees = tuple(tuple(a + b for a, b in zip(ring.mono_degree(m), shifts[c])) for c, m in leads)
    return [elems[i] for i in order], leads, degrees


def _frame_syzygies(ctx: ModuleCtx, elems, leads, image, limits: Limits):
    """The next frame level: one syzygy per minimal colon generator, by reduction.

    `ctx` is F_{k-1} (+) F_k; the elements are the monic columns of d_k and
    `leads` their lead terms under ctx.  Each element enters the reduction
    with its own F_k generator attached, so reducing an S-vector to zero
    leaves the syzygy in the F_k components.  The syzygies come out with
    lead terms x^q e_a, per a in order and q lexicographically descending,
    and these lead terms are returned too.  Each syzygy is monic: x^q e_a is
    the S-vector's first term, since on the tied lead the lower index wins,
    and every quotient term is smaller.  Each `image` column of F_{k-1} is then
    divided the same way, and the negated F_k part of its remainder, which
    maps to the column, is appended; a remainder in F_{k-1} raises.  The
    Ext route passes a kernel basis in place of d_k, with its image.  The
    elements and image columns are encoded once, here, and each remainder
    is decoded once.
    """
    K = ctx.ring.field
    base = ctx.rank - len(elems)
    zero = (0,) * ctx.ring.n
    aug = [ctx.encode({**g, (base + i, zero): K.one}) for i, g in enumerate(elems)]
    lts = [ctx.code(t) for t in leads]
    out, out_leads = [], []
    for a, (ca, ma) in enumerate(leads):
        for q, b in sorted(_minimal_colon(leads, a, range(a + 1, len(leads))), reverse=True):
            deg = ctx.term_wdeg((ca, mono_mul(q, ma)))
            limits.check_degree("S-pair of coarse degree", deg)
            ctx.check_code_degree(deg)
            rem = ctx.decode(reduce_vec(ctx, s_vector(ctx, aug[a], ma, aug[b], leads[b][1]),
                                        aug, lts))
            if any(comp < base for comp, _ in rem):
                raise ArithmeticError("frame S-vector does not reduce to zero")
            out.append({(comp - base, m): c for (comp, m), c in rem.items()})
            out_leads.append((a, q))
    for col in image:
        rem = ctx.decode(reduce_vec(ctx, ctx.encode(col), aug, lts))
        if any(comp < base for comp, _ in rem):
            raise ArithmeticError("image column does not lie in the kernel")
        out.append({(comp - base, m): K.neg(c) for (comp, m), c in rem.items()})
    return out, out_leads


def _cohomology_presentation(ring, shifts, v, kernel, image, limits: Limits):
    """span(kernel) / span(image) presented by one Schreyer level.

    `kernel` is a monic Groebner basis in the position-over-term order of
    the free module with these shifts under v, and the image columns are
    elements of that module.  The relations are the basis's Schreyer
    syzygies and each nonzero image column's division quotients, both from
    _frame_syzygies; each is checked to map to zero, or to its column.
    """
    ctx = ModuleCtx.for_vector(ring, shifts, v)
    elems, leads, gens = _frame_level(ring, shifts, kernel,
                                      [leading_term(ctx, g) for g in kernel])
    image = [col for col in image if col]
    ctx = ModuleCtx.for_vector(ring, shifts + gens, v)
    rels, _ = _frame_syzygies(ctx, elems, leads, image, limits)
    targets = [{}] * (len(rels) - len(image)) + image
    for rel, target in zip(rels, targets):
        if residual(target, elems, rel, ring.field):
            raise ArithmeticError("Ext relation does not map to its image")
    return ModulePresentation(ring, gens, tuple(rels))


def _assert_resolution_sane(F: FreeResolution):
    ring = F.ring
    if F.length > ring.n:
        raise MregError("minimal resolution longer than the number of variables")
    for diff in F.differentials:
        for col in diff:
            if any(not any(m) for _, m in col):
                raise MregError("non-minimal differential: constant entry survived")
    for prev, cur in zip(F.differentials, F.differentials[1:]):
        for col in cur:
            if residual({}, prev, col, ring.field):
                raise MregError("differentials do not compose to zero")


def betti_table(F: FreeResolution) -> BettiTable:
    counts = Counter((i, a) for i, shifts in enumerate(F.shifts) for a in shifts)
    return BettiTable(tuple(sorted(counts.items())))


def coarsen_resolution(F: FreeResolution, v) -> FreeResolution:
    """Replace every shift by its dot product with v; differentials unchanged."""
    v = tuple(v)
    F.ring.order(v)  # validates length and positivity
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


def codimension(Bz: BettiTable) -> int:
    """codim M from a Betti table coarsened under a vector positive on every variable.

    With K(t) = sum (-1)^i beta_{i,j} t^j, the coarse Hilbert series is
    K(t) / prod (1 - t^{v.a_k}), whose pole at t = 1 has order dim M
    (Bruns-Herzog, Cohen-Macaulay Rings, 4.1).  So codim M = n - dim M is
    the order of vanishing of K at t = 1: divide by (1 - t) while K(1) = 0,
    each quotient's coefficients being the prefix sums of the dividend's.
    """
    degrees = [j for (_, j), _ in Bz.entries] or [0]
    low = min(degrees)
    coeffs = [0] * (max(degrees) - low + 1)
    for (i, j), b in Bz.entries:
        coeffs[j - low] += (-1) ** i * b
    if not any(coeffs):
        raise ZeroModuleError("the Betti table's Hilbert numerator vanishes: the zero module")
    codim = 0
    while sum(coeffs) == 0:
        coeffs = list(itertools.accumulate(coeffs))[:-1]
        codim += 1
    return codim


def minimalize_complex(F: FreeResolution) -> FreeResolution:
    """Cancel constant entries of a (possibly non-minimal) complex.

    Gaussian elimination on the complex: a constant c in row q of column p
    of d_i pairs generator p of F_i with generator q of F_{i-1}; removing
    both replaces d_i by its Schur complement, drops row p of d_{i+1} and
    column q of d_{i-1}, and preserves homology.  One forward sweep finds
    every pivot: levels in order, within a level columns first to last,
    each pivoting on its lowest surviving row with a constant term.  A pivot
    in d_i only deletes entries of d_{i-1} and d_{i+1}, and it subtracts
    (col_s[q] / c) * pivot from a column s of d_i, which has a constant
    term only if col_s[q] is constant; so a column the sweep has passed stays
    free of constants.  A row index per level lets a pivot visit only the
    columns with a term in its row, still in ascending order.  Removed
    generators keep their indices, and their leftover entries stay, until
    one renumbering at the end.
    """
    K = F.ring.field
    zero = (0,) * F.ring.n
    diffs = [[dict(col) for col in diff] for diff in F.differentials]
    dead = [set() for _ in F.shifts]  # the removed generators of each F_i
    for i, diff in enumerate(diffs):
        rows_dead, cols_dead = dead[i], dead[i + 1]
        # row -> the columns with a term in it, or that had one before a cancellation
        rows = defaultdict(set)
        for s, col in enumerate(diff):
            for r, _ in col:
                rows[r].add(s)
        for p, pivot in enumerate(diff):
            q = min((r for r, m in pivot if not any(m) and r not in rows_dead), default=None)
            if q is None:
                continue
            inv = K.inv(pivot[(q, zero)])
            rows_dead.add(q)
            cols_dead.add(p)
            pivot_rows = {r for r, _ in pivot}
            for s in sorted(rows[q] - cols_dead):
                col = diff[s]
                for m, a in [(m, a) for (r, m), a in col.items() if r == q]:
                    _isub_term_mul(col, pivot, m, K.mul(a, inv), K)
                    for r in pivot_rows:
                        rows[r].add(s)
    keep = [[j for j in range(len(level)) if j not in gone] for level, gone in zip(F.shifts, dead)]
    shifts = [tuple(level[j] for j in idx) for level, idx in zip(F.shifts, keep)]
    out_diffs = []
    for i, diff in enumerate(diffs):
        row = {j: k for k, j in enumerate(keep[i])}
        out_diffs.append([{(row[r], m): c for (r, m), c in diff[p].items() if r in row}
                          for p in keep[i + 1]])
    while out_diffs and not shifts[-1]:
        shifts.pop()
        out_diffs.pop()
    out = FreeResolution(F.ring, shifts, out_diffs)
    _assert_resolution_sane(out)
    return out


def first_syzygy_presentation(P: ModulePresentation):
    """The free cover sequence 0 -> M1 -> F -> M -> 0 read off the resolution.

    Returns (M1 presentation or None when M is free, shifts of the free
    cover F, the memoized resolution it was read from).
    """
    F = cached_minimal_resolution(P)
    m1 = None if F.length == 0 else ModulePresentation(
        P.ring, F.shifts[1], tuple(F.differentials[1]) if F.length >= 2 else ())
    return m1, F.shifts[0], F
