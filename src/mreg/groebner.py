"""Buchberger Groebner bases for submodules of free modules, with relations.

Module elements are flat dicts mapping (component, exponent tuple) to a
nonzero field element.  The module order is position-over-term: earlier
declared components dominate, ties are broken by the coarse weight order of
the ambient ring.  Each term's order key is computed once per ModuleCtx and
memoized on it; normal forms pop the pending terms of a heap in descending
order.  All elements must be homogeneous in the fine Z^r-grading: the
exported entry points check each input element once (element_degree), and
everything they call, buchberger included, trusts that check.  Input
generators and S-pairs share one queue ordered by coarse degree: within a
degree the S-pairs (FIFO) come before the generators (in input order), and
a generator enters the basis only if its normal form is nonzero, so the
generators that enter form a minimal generating set.  S-pairs come from
minimal colon generators, the Schreyer frame's rule too; only those the
product criterion keeps are queued, and only queued pairs face the cap.

Every basis reduce_vec divides by is monic, and lead-term lists hold plain
(component, monomial) terms: _degree_ordered_basis scales each element to
lead coefficient one as it enters, the one place a basis is normalized.

These dicts are the package's one module-element type: the relations of a
ModulePresentation and the columns of every FreeResolution differential
are module elements over their target's generators, and the arithmetic
here serves them all.

One primitive, `relations`, serves kernels of maps between free modules
(the Ext route's kernels among them) and ideal intersections: it reads the
relations off one Groebner basis of augmented generators.  One image check,
`residual`, serves relations, resolutions (d o d = 0) and Ext presentations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NO_LIMITS, HomogeneityError, InputError, Limits, show
from .grading import find_positive_coarsening_vector
from .poly import (
    Mono,
    Multidegree,
    MultigradedRing,
    PolyDict,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_weight,
)

Vec = dict  # (component, Mono) -> coefficient


# -- contexts -----------------------------------------------------------------

@dataclass(frozen=True)
class ModuleCtx:
    """A free module over a ring together with the order used for bases.

    `term_keys` memoizes term_key, so a context computes each term's key
    once and the memo lives exactly as long as the context.
    """

    ring: MultigradedRing
    shifts: tuple[Multidegree, ...]
    order: object
    shift_wdegs: tuple[int, ...]
    term_keys: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False, hash=False)

    @classmethod
    def for_vector(cls, ring: MultigradedRing, shifts, v, **fields) -> "ModuleCtx":
        shifts = tuple(tuple(s) for s in shifts)
        order = ring.order(tuple(v))
        wdegs = tuple(sum(a * b for a, b in zip(s, v)) for s in shifts)
        return cls(ring, shifts, order, wdegs, **fields)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def term_key(self, t):
        """Sort key of a term: ascending keys list terms in descending order.

        The component comes first (position-over-term), then the negated
        TermOrder.key of the monomial, flattened into one tuple of ints; its
        revlex part negates the reversed exponents, so here they stand as is.
        """
        key = self.term_keys.get(t)
        if key is None:
            key = self.term_keys[t] = self._build_term_key(t)
        return key

    def _build_term_key(self, t):
        comp, mono = t
        return (comp, -self.order.wdeg(mono), -sum(mono), *reversed(mono))

    def term_wdeg(self, t) -> int:
        """Coarse degree of a term, so of a homogeneous element with that term."""
        comp, mono = t
        return self.order.wdeg(mono) + self.shift_wdegs[comp]

    def vec_degree(self, f: Vec) -> Multidegree:
        """Fine multidegree of a nonzero homogeneous element; see element_degree."""
        return element_degree(self.ring, self.shifts, f)


def element_degree(ring: MultigradedRing, shifts, terms) -> Multidegree:
    """Fine multidegree of a module element, given by its (component, monomial) terms.

    The one check of module elements: the element must be nonzero, every
    component must index one of the shifts, every exponent must be ring.n
    nonnegative integers, and all terms must share one degree.  Raises
    InputError or HomogeneityError otherwise.
    """
    degs = set()
    n = ring.n
    for comp, mono in terms:
        if not 0 <= comp < len(shifts):
            raise InputError(f"element lives outside the ambient module (component {show(comp)})")
        if type(mono) is not tuple or len(mono) != n or not all(
                type(e) is int and e >= 0 for e in mono):
            raise InputError(f"exponent {show(mono)} is not {n} nonnegative integers")
        degs.add(tuple(a + b for a, b in zip(ring.mono_degree(mono), shifts[comp])))
    if len(degs) != 1:
        raise HomogeneityError(f"element is not homogeneous: degrees {show(sorted(degs))}"
                               if degs else "zero element has no degree")
    return degs.pop()


# -- vector arithmetic ---------------------------------------------------------

def s_vector(f: Vec, mf: Mono, g: Vec, mg: Mono, K) -> Vec:
    """x^(l/mf) f - x^(l/mg) g, l = lcm(mf, mg): the S-vector of monic f, g led by mf, mg."""
    lcm = mono_lcm(mf, mg)
    qf = mono_div(lcm, mf)
    out = {(comp, mono_mul(m, qf)): v for (comp, m), v in f.items()}
    return _isub_term_mul(out, g, mono_div(lcm, mg), K.one, K)


def _isub_term_mul(out: Vec, g: Vec, mono: Mono, c, K) -> Vec:
    """out -= c * x^mono * g for a nonzero c, in place; returns out."""
    for (comp, m), v in g.items():
        t = (comp, mono_mul(m, mono))
        old = out.get(t)
        if old is None:
            out[t] = K.negmul(v, c)
        else:
            s = K.submul(old, v, c)
            if s:
                out[t] = s
            else:
                del out[t]
    return out


def poly_to_vec(f: PolyDict, comp: int = 0) -> Vec:
    return {(comp, m): c for m, c in f.items()}


def vec_component(f: Vec, comp: int) -> PolyDict:
    return {m: c for (j, m), c in f.items() if j == comp}


def leading_term(ctx: ModuleCtx, f: Vec):
    return min(f, key=ctx.term_key)


# -- reduction -----------------------------------------------------------------

def reduce_vec(ctx: ModuleCtx, f: Vec, basis: list[Vec], lts) -> Vec:
    """Full normal form of f modulo a monic basis.

    `lts` are the basis elements' leading terms, cached by the caller.  Each
    element must have coefficient one there: a non-monic reducer gives a
    wrong normal form, unchecked.  Reducers are tried in list order, which
    keeps the division deterministic.  The pending terms sit in a heap
    keyed by term_key and pop in descending order.  A subtraction updates
    them in place and pushes only the terms it creates.  A cancelled term
    keeps its entry, which is skipped when it surfaces with the term gone; a
    term cancelled and re-created has two entries, and the second to surface
    is skipped.
    """
    K = ctx.ring.field
    keys, key = ctx.term_keys, ctx.term_key
    reducers: dict[int, list] = {}
    for g, (lcomp, lmono) in zip(basis, lts):
        reducers.setdefault(lcomp, []).append((lmono, g))
    work = dict(f)
    heap = [(keys.get(t) or key(t), t) for t in work]
    heapq.heapify(heap)
    out: Vec = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        comp, mono = t
        for lmono, g in reducers.get(comp, ()):
            if mono_divides(lmono, mono):
                q = mono_div(mono, lmono)
                for (gcomp, gmono), v in g.items():
                    nt = (gcomp, mono_mul(gmono, q))
                    old = work.get(nt)
                    if old is None:
                        work[nt] = K.negmul(v, c)
                        heapq.heappush(heap, (keys.get(nt) or key(nt), nt))
                    else:
                        s = K.submul(old, v, c)
                        if s:
                            work[nt] = s
                        else:
                            del work[nt]
                break
        else:
            out[t] = c
            del work[t]
    return out


# -- Buchberger ----------------------------------------------------------------

def _single_component(f: Vec):
    comps = {c for (c, _) in f}
    return comps.pop() if len(comps) == 1 else None


def buchberger(ctx: ModuleCtx, gens, limits: Limits = NO_LIMITS):
    """Reduced Groebner basis of the given generators, every element monic.

    Returns (basis, leading_terms): each leading term is computed once, when
    its element enters the basis, and is reused by every later reduction.
    The generators are not checked: callers pass homogeneous elements of
    ctx's free module, checked by an entry point or a ModulePresentation.
    """
    basis, lts, _ = _degree_ordered_basis(ctx, gens, limits)
    return _autoreduce(ctx, basis, lts)


def _minimal_colon(lts, a, others):
    """Minimal generators of the colon ideal (lt_b : b in others) : lt_a.

    `lts` are (component, monomial) terms; a b counts only when lt_b shares
    lt_a's component.  Returns (x^q, b) per minimal generator
    x^q = lcm(lt_a, lt_b) / lt_a, in the order of `others`; when several b
    give one generator the first wins.  One S-pair per returned b
    is all Buchberger's new pairs need (Gebauer and Moeller 1988) and all a
    Schreyer frame needs (Eisenbud, Commutative Algebra, Cor. 15.11).
    """
    ca, ma = lts[a]
    colon: list = []
    for b in others:
        cb, mb = lts[b]
        if cb != ca:
            continue
        q = mono_div(mono_lcm(ma, mb), ma)
        if any(mono_divides(p, q) for p, _ in colon):
            continue
        colon = [(p, c) for p, c in colon if not mono_divides(q, p)] + [(q, b)]
    return colon


def _degree_ordered_basis(ctx: ModuleCtx, gens, limits: Limits):
    """Unreduced monic Groebner basis, its lead terms, and which generators entered it.

    Every element is scaled to lead coefficient one as it enters.  Element j
    is paired with the earlier elements _minimal_colon picks for it; a pair
    the product criterion covers still counts in that choice but is never
    queued.  Generators and S-pairs are popped by coarse degree; at equal
    degree the S-pairs come first.  When a degree-d generator is popped,
    every queued pair of degree <= d has been treated, so the basis is
    complete through degree d and the generator's normal form is zero
    exactly when it lies in the submodule generated by the generators that
    entered before it.  Only queued pairs face the degree cap, each just
    before its S-vector is formed.  Like buchberger, it trusts its callers
    to pass homogeneous generators: a generator's coarse degree is read off
    one of its terms.
    """
    K = ctx.ring.field
    basis: list[Vec] = []
    lts: list = []
    single: list = []  # the only component of each element, or None
    entered: list[int] = []
    seq = 0

    gens = list(gens)
    # (coarse degree, 0 for the S-pair (i, j) | 1 for the generator gens[i],
    #  tie-break: pair creation order | generator index, i, j)
    heap = [(ctx.term_wdeg(next(iter(g))), 1, idx, idx, -1) for idx, g in enumerate(gens) if g]
    heapq.heapify(heap)

    def add(g):
        nonlocal seq
        t = leading_term(ctx, g)
        inv = K.inv(g[t])
        basis.append({u: K.mul(c, inv) for u, c in g.items()})
        lts.append(t)
        single.append(_single_component(g))
        j = len(basis) - 1
        for q, i in _minimal_colon(lts, j, range(j)):
            # product criterion, valid when both elements live in one component
            if single[i] is not None and single[i] == single[j] and mono_coprime(lts[i][1], t[1]):
                continue
            heapq.heappush(heap, (ctx.term_wdeg((t[0], mono_mul(q, t[1]))), 0, seq, i, j))
            seq += 1

    while heap:
        deg, is_gen, _, i, j = heapq.heappop(heap)
        if is_gen:
            nf = reduce_vec(ctx, gens[i], basis, lts)
            if nf:
                entered.append(i)
                add(nf)
            continue
        limits.check_degree("S-pair of coarse degree", deg)
        nf = reduce_vec(ctx, s_vector(basis[i], lts[i][1], basis[j], lts[j][1], K), basis, lts)
        if nf:
            add(nf)

    return basis, lts, entered


def _autoreduce(ctx: ModuleCtx, basis: list[Vec], lts):
    """Keep minimal leading terms, tail-reduce, sort canonically.

    Tail reduction never touches a leading term, so the given leading terms
    stay valid and are returned alongside the reduced elements.
    """
    order_idx = sorted(range(len(basis)), key=lambda i: ctx.term_key(lts[i]), reverse=True)
    kept: list[Vec] = []
    kept_lts: list = []
    for i in order_idx:
        comp, mono = lts[i]
        if any(c == comp and mono_divides(m, mono) for c, m in kept_lts):
            continue
        kept.append(basis[i])
        kept_lts.append(lts[i])
    for i in range(len(kept)):
        kept[i] = reduce_vec(ctx, kept[i], kept[:i] + kept[i + 1 :],
                             kept_lts[:i] + kept_lts[i + 1 :])
    return kept, kept_lts


# -- relations -----------------------------------------------------------------

def relations(ctx: ModuleCtx, cols, modulo=(), limits: Limits = NO_LIMITS) -> list[Vec]:
    """Generators of {a : sum_j a_j cols[j] in span(modulo)}.

    One Groebner basis of the augmented generators [cols[j] ; e_j] and
    [g ; 0], in the free module extended by one trailing component per
    column (shifted by that column's degree).  Position-over-term makes the
    original components dominate, so the basis elements whose leading
    component is a trailing one are free of the original components and
    their trailing parts generate the relation module (the elimination
    property of a position-over-term order).  Only these elements can reduce
    one another, so they alone are autoreduced.  The columns must be nonzero;
    the relations live in the free module whose j-th generator maps to
    cols[j], and each is verified to map into span(modulo).  Every column
    and nonzero modulo element is checked once, here.
    """
    cols = list(cols)
    modulo = [g for g in modulo if g]
    for g in modulo:
        ctx.vec_degree(g)
    degrees = tuple(ctx.vec_degree(c) for c in cols)
    K = ctx.ring.field
    rank, zero = ctx.rank, (0,) * ctx.ring.n
    aug = ModuleCtx(
        ctx.ring,
        ctx.shifts + degrees,
        ctx.order,
        ctx.shift_wdegs + tuple(ctx.term_wdeg(next(iter(c))) for c in cols),
    )
    gens = [{**c, (rank + j, zero): K.one} for j, c in enumerate(cols)] + modulo
    basis, lts, _ = _degree_ordered_basis(aug, gens, limits)
    trailing = [i for i, (lcomp, _) in enumerate(lts) if lcomp >= rank]
    basis, _ = _autoreduce(aug, [basis[i] for i in trailing], [lts[i] for i in trailing])
    out = [{(comp - rank, m): c for (comp, m), c in g.items()} for g in basis]

    # exactness check: each relation maps into span(modulo), an empty modulo
    # being its own basis
    mod_basis, mod_lts = buchberger(ctx, modulo, limits) if modulo else ([], [])
    for a in out:
        if reduce_vec(ctx, residual({}, cols, a, K), mod_basis, mod_lts):
            raise ArithmeticError("relation does not map into the span of the modulo elements")
    return out


def residual(target: Vec, cols, a: Vec, K) -> Vec:
    """target - sum of c * x^m * cols[j] over the terms ((j, m), c) of a: {} iff a maps to target."""
    out = dict(target)
    for (j, m), c in a.items():
        _isub_term_mul(out, cols[j], m, c, K)
    return out


def prune_to_minimal_generators(ctx: ModuleCtx, cols, limits: Limits = NO_LIMITS):
    """Greedy minimal generating subset, in weakly increasing coarse degree.

    Processing order (coarse degree, then index) makes the result a
    genuinely minimal generating set: an element is kept only if it is not
    in the submodule generated by the ones kept before it.  One
    degree-ordered Buchberger run decides every column.  Returns the kept
    indices (in processing order).  Like buchberger, it trusts its callers
    to pass homogeneous columns.
    """
    return _degree_ordered_basis(ctx, cols, limits)[2]


def kernel_generators(ctx: ModuleCtx, cols, limits: Limits = NO_LIMITS):
    """Generators of the kernel of the map sending e_i to cols[i].

    The columns are first pruned to a minimal generating subset.  Returns
    (kept_indices, syzygies): syzygies live in the free module whose
    components match kept_indices, with shifts the degrees of those columns.
    """
    cols = list(cols)
    for c in cols:
        if c:
            ctx.vec_degree(c)
    kept_idx = prune_to_minimal_generators(ctx, cols, limits)
    return kept_idx, relations(ctx, [cols[i] for i in kept_idx], limits=limits)


def kernel_of_map(ctx_target: ModuleCtx, cols, limits: Limits = NO_LIMITS) -> list[Vec]:
    """Generators of the kernel of the map e_q -> cols[q], over ALL columns.

    Unlike kernel_generators, the source components are fixed: zero columns
    contribute basis syzygies and no pruning happens, so the result lives in
    the free module whose q-th generator maps to cols[q].  All-zero columns,
    such as those of a map into the zero module, make no Groebner basis.
    """
    K = ctx_target.ring.field
    zero = (0,) * ctx_target.ring.n
    out: list[Vec] = [
        {(q, zero): K.one} for q, c in enumerate(cols) if not c
    ]
    nonzero = [q for q, c in enumerate(cols) if c]
    if nonzero:
        for s in relations(ctx_target, [cols[q] for q in nonzero], limits=limits):
            out.append({(nonzero[j], m): c for (j, m), c in s.items()})
    return out


# -- ideal intersection ---------------------------------------------------------

def ideal_intersection(ideals, ring: MultigradedRing, limits: Limits = NO_LIMITS) -> list[PolyDict]:
    """Reduced Groebner basis of the intersection of the ideals, sorted by leading term.

    The intersection of I_0, ..., I_{k-1} is the relation module of the
    single column (1, ..., 1) of S^k modulo the I_c e_c: a (1, ..., 1) lies
    in the sum of the I_c e_c exactly when a lies in every I_c.
    """
    v = find_positive_coarsening_vector(ring.degrees)
    ideals = [[f for f in I if f] for I in ideals]
    if not ideals:
        raise InputError("no ideals to intersect")
    if not all(ideals):
        return []
    zero, one = (0,) * ring.n, ring.field.one
    ctx = ModuleCtx.for_vector(ring, ((0,) * ring.r,) * len(ideals), v)
    modulo = [poly_to_vec(f, c) for c, I in enumerate(ideals) for f in I]
    column = {(c, zero): one for c in range(len(ideals))}
    rels = relations(ctx, [column], modulo, limits)
    return [vec_component(g, 0) for g in rels]


# -- graded pieces ---------------------------------------------------------------

def graded_piece_dimension(P, v, m: int, limits: Limits = NO_LIMITS) -> int:
    """dim_k of the coarse degree-m piece of coker(P) under the coarsening v.

    Counts standard monomials: per component, monomials of the right coarse
    degree not divisible by a leading term of the relation module's basis.
    The basis is memoized per module, vector and limits, so one Buchberger
    run serves every degree asked, and the Schreyer frame of the same module
    too; a call the caps stop raises and stores nothing.
    """
    _, lts = _memo_basis(P, tuple(v), limits)
    weights = P.ring.vdegs(v)
    count = 0
    for comp, shift in enumerate(P.shifts):
        target = m - sum(a * b for a, b in zip(shift, v))
        if target < 0:
            continue
        leads = [mono for c, mono in lts if c == comp]
        for e in monomials_of_weight(weights, target):
            if not any(mono_divides(l, e) for l in leads):
                count += 1
    return count


# Called positionally only: lru_cache keys f(P, v) and f(P, v, limits=NO_LIMITS) apart.
# One entry: a resolution and the graded pieces after it ask one (P, v) in a row.
@lru_cache(maxsize=1)
def _memo_basis(P, v, limits):
    """The reduced Groebner basis of P's relations under v and its leading
    terms, as tuples; every caller only reads them."""
    basis, lts = buchberger(ModuleCtx.for_vector(P.ring, P.shifts, v), P.relations, limits)
    return tuple(basis), tuple(lts)
