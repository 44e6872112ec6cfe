"""Buchberger Groebner bases for submodules of free modules, with relations.

Module elements are flat dicts mapping (component, exponent tuple) to a
nonzero field element.  The module order is position-over-term: earlier
declared components dominate, ties are broken by the coarse weight order of
the ambient ring.  All elements must be homogeneous in the fine Z^r-grading:
the exported entry points check each input element once (element_degree),
and everything they call, buchberger included, trusts that check.  Input
generators and S-pairs share one queue ordered by coarse degree: within a
degree the S-pairs (FIFO) come before the generators (in input order), and
a generator enters the basis only if its normal form is nonzero, so the
generators that enter form a minimal generating set.  S-pairs come from
minimal colon generators, the Schreyer frame's rule too; only those the
product criterion keeps are queued, and only queued pairs face the cap.

Every product of module elements runs on term codes: a term is one int,
and ascending codes list terms in descending module order (Bachmann and
Schoenemann, ISSAC 1998).  A plain context packs, from high bits to low,
the component, B - wdeg, B - total degree and the exponents e_n, ..., e_1,
in fields of CODE_WIDTH bits with B = 2^(CODE_WIDTH - 1) - 1: the fields
are the order key (comp, -wdeg, -deg, e_n, ..., e_1).  Every field is
linear in the exponents, so multiplying by x^q adds the code step of q, a
reducer led by l that divides t maps its term u to u + (t - l), and l
divides t exactly when subtracting l's exponent fields from t's borrows
from none of the guard bits set above them.  A coarse degree whose terms
the fields cannot hold raises ResourceLimitError.  Inside the engine,
module elements stay code dicts from stage to stage: the basis memo, the
Schreyer frame, the Ext kernels and minimalization hand codes on, and
_rebase is the one place that moves codes between contexts.  Elements are
encoded where a public value enters (buchberger, relations,
kernel_of_map, minimalize_complex, minimalize_presentation) and decoded
where one leaves: their results, the resolutions and Ext presentations
returned to callers, and the point ideal; presentations, complexes and the
CLI hold (component, monomial) dicts.

Every basis reduce_vec divides by is monic: _degree_ordered_basis scales
each element to lead coefficient one as it enters, the one place a basis is
normalized.

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
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mul

from .errors import NO_LIMITS, HomogeneityError, InputError, Limits, ResourceLimitError, show
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
    monomials_of_weight,
)

Vec = dict  # (component, Mono) -> coefficient

CODE_WIDTH = 32  # bits per field of a term code
_FIELD = (1 << CODE_WIDTH) - 1
_GUARD = 1 << (CODE_WIDTH - 1)
_ROOM = _GUARD - 1  # B: the largest degree a field holds


def _plain_origin(n: int, comp: int) -> int:
    """Code of the generator e_comp in a plain context over n variables."""
    return (((comp << CODE_WIDTH | _ROOM) << CODE_WIDTH | _ROOM) << CODE_WIDTH * n)


# -- contexts -----------------------------------------------------------------

def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ModuleCtx:
    """A free module over a ring together with the order used for bases.

    Its term codes (module docstring): x^m e_c codes as origins[c] plus the
    sum of m_i * units[i]; `exponents` masks the exponent fields, `guards`
    holds their top bits, and (code >> key_shift) & key_mask is the key a
    reducer's lead code must share with a term it divides.  A homogeneous
    element fits the codes when its coarse degree is at most degree_limit.
    """

    ring: MultigradedRing
    shifts: tuple[Multidegree, ...]
    order: object
    shift_wdegs: tuple[int, ...]
    origins: tuple = _derived()
    units: tuple = _derived()
    low: int = _derived()  # bits below the exponent fields
    key_shift: int = _derived()
    key_mask: int = _derived()
    exponents: int = _derived()
    guards: int = _derived()
    degree_limit: int = _derived()

    def __post_init__(self):
        n = self.ring.n
        self._lay_out(0, CODE_WIDTH * (n + 2), -1, [_plain_origin(n, c) for c in range(self.rank)])

    def _lay_out(self, low: int, key_shift: int, key_mask: int, origins) -> None:
        n = self.ring.n
        units = tuple(((1 << CODE_WIDTH * i) - (1 << CODE_WIDTH * n)
                       - (w << CODE_WIDTH * (n + 1))) << low
                      for i, w in enumerate(self.order.weights))
        # room left in each origin's weighted-degree field, so the most a
        # term of that component can add to it
        room = ((o >> low + CODE_WIDTH * (n + 1)) & _FIELD for o in origins)
        for name, value in (
            ("origins", tuple(origins)), ("units", units), ("low", low),
            ("key_shift", key_shift), ("key_mask", key_mask),
            ("exponents", sum(_FIELD << CODE_WIDTH * i for i in range(n)) << low),
            ("guards", sum(_GUARD << CODE_WIDTH * i for i in range(n)) << low),
            ("degree_limit", min(map(add, room, self.shift_wdegs), default=_ROOM)),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def for_vector(cls, ring: MultigradedRing, shifts, v, **fields) -> "ModuleCtx":
        """The context of the shifts under v; a plain one is shared (`_memo_plain_ctx`)."""
        shifts, v = tuple(tuple(s) for s in shifts), tuple(v)
        if cls is ModuleCtx and not fields:
            return _memo_plain_ctx(ring, shifts, v)
        return cls._build(ring, shifts, v, **fields)

    @classmethod
    def _build(cls, ring: MultigradedRing, shifts, v, **fields) -> "ModuleCtx":
        wdegs = tuple(sum(a * b for a, b in zip(s, v)) for s in shifts)
        return cls(ring, shifts, ring.order(v), wdegs, **fields)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def term_wdeg(self, t) -> int:
        """Coarse degree of a term, so of a homogeneous element with that term."""
        comp, mono = t
        return self.order.wdeg(mono) + self.shift_wdegs[comp]

    def vec_degree(self, f: Vec) -> Multidegree:
        """Fine multidegree of a nonzero homogeneous element; see element_degree."""
        return element_degree(self.ring, self.shifts, f)

    def code_degree(self, code: int) -> Multidegree:
        """Fine multidegree of the term coded code, so of a homogeneous element with it."""
        comp, mono = self.term(code)
        return tuple(map(add, self.ring.mono_degree(mono), self.shifts[comp]))

    def code_wdeg(self, code: int) -> int:
        """Coarse degree of the term coded code: its weighted-degree field lies below
        its component origin's by the weight of its monomial."""
        comp = self.comp(code)
        return self.shift_wdegs[comp] + ((self.origins[comp] - code)
                                         >> self.low + CODE_WIDTH * (self.ring.n + 1))

    # -- term codes ----------------------------------------------------------
    def check_code_degree(self, degree: int) -> None:
        if degree > self.degree_limit:
            raise ResourceLimitError(f"coarse degree {show(degree)} exceeds the term-code "
                                     f"limit {show(self.degree_limit)}")

    def shift(self, mono: Mono) -> int:
        """What multiplying by x^mono adds to a code."""
        return sum(map(mul, mono, self.units))

    def code(self, t) -> int:
        return self.origins[t[0]] + self.shift(t[1])

    def encode(self, f: Vec) -> dict:
        """The code dict of a homogeneous element; raises if its degree does not fit."""
        if f:
            self.check_code_degree(self.term_wdeg(next(iter(f))))
        origins, units = self.origins, self.units
        return {origins[comp] + sum(map(mul, mono, units)): c for (comp, mono), c in f.items()}

    def comp(self, code: int) -> int:
        return code >> self.key_shift

    def component_codes(self, comp: int) -> range:
        """The codes of component comp's terms, in a plain context."""
        return range(comp << self.key_shift, comp + 1 << self.key_shift)

    def term(self, code: int):
        """The (component, monomial) term of a code."""
        comp = self.comp(code)
        rest = (code - self.origins[comp]) >> self.low
        return comp, tuple([rest >> s & _FIELD
                            for s in range(0, CODE_WIDTH * self.ring.n, CODE_WIDTH)])

    def decode(self, f: dict) -> Vec:
        term = self.term
        return {term(u): c for u, c in f.items()}

    def divides(self, lead: int, t: int) -> bool:
        """Whether the term coded lead divides the term coded t."""
        e, g = self.exponents, self.guards
        return self.comp(lead) == self.comp(t) and ((t & e | g) - (lead & e)) & g == g


# Contexts are frozen, so callers under one (ring, shifts, v) share one; a
# Schreyer context carries its level's leads and is built each time.
@lru_cache(maxsize=256)
def _memo_plain_ctx(ring: MultigradedRing, shifts, v) -> ModuleCtx:
    return ModuleCtx._build(ring, shifts, v)


@dataclass(frozen=True)
class SchreyerCtx(ModuleCtx):
    """F_k (+) F_{k+1}, in which the columns of d_{k+1} are reduced.

    The first len(leads) components are F_k's generators under the Schreyer
    order: x^m e_c codes as below.code(x^m * leads[c]) * 2^b + c, with b
    the bit length of len(leads), so it compares by the below order of
    x^m * leads[c] and on a tie the lower index is larger.  Codes stay
    linear in m, with below's code steps times 2^b.  The remaining
    components, F_{k+1}'s, carry the quotients of a reduction: they code as
    in a plain context whose components come after every component of
    below's codes, times 2^low, plus 2^b - 1 (the key of no reducer).  So
    they come after every term of F_k, by component and then by the
    monomial's own order, and are never divided.
    """

    below: ModuleCtx | None = None
    leads: tuple = ()

    def __post_init__(self):
        below, n, b = self.below, self.ring.n, len(self.leads).bit_length()
        mask, low = (1 << b) - 1, below.low + b
        # one past the plain component field of below's largest code
        top = (below.origins[-1] >> below.low + CODE_WIDTH * (n + 2)) + 1
        origins = [below.code(t) << b | c for c, t in enumerate(self.leads)]
        origins += [_plain_origin(n, top + c) << low | mask
                    for c in range(len(self.leads), self.rank)]
        self._lay_out(low, 0, mask, origins)

    def comp(self, code: int) -> int:
        c = code & self.key_mask
        # a trailing component's codes lie between its origin and the one before
        return c if c != self.key_mask else bisect_left(self.origins, code, len(self.leads))


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

def s_vector(ctx: ModuleCtx, f: dict, mf: Mono, g: dict, mg: Mono) -> dict:
    """x^(l/mf) f - x^(l/mg) g, l = lcm(mf, mg): the S-vector of monic code dicts f, g led by mf, mg."""
    K = ctx.ring.field
    lcm = mono_lcm(mf, mg)
    step = ctx.shift(mono_div(lcm, mf))
    out = {u + step: v for u, v in f.items()}
    return _isub_shifted(out, g, ctx.shift(mono_div(lcm, mg)), K.one, K)


def _isub_shifted(out: dict, g: dict, step: int, c, K) -> dict:
    """out -= c * x^m * g on code dicts, step being the code step of x^m; returns out."""
    for u, v in g.items():
        u += step
        old = out.get(u)
        if old is None:
            out[u] = K.negmul(v, c)
        else:
            s = K.submul(old, v, c)
            if s:
                out[u] = s
            else:
                del out[u]
    return out


def _rebase(src: ModuleCtx, dst: ModuleCtx, comps, fs) -> list[dict]:
    """The code dicts fs of src, each term moved from component c to comps[c] of dst.

    Terms of a component that comps does not map are dropped.  Both contexts
    order monomials under one vector, so a term's offset from its
    component's origin changes only by the factor 2^(dst.low - src.low).
    This is the one move of codes between contexts: a frame level's
    syzygies into the plain context that minimalization uses and into the
    next level's SchreyerCtx, a kernel's relations into its source context,
    and minimalization's renumbering of the generators it keeps.
    """
    comp, src_origins = src.comp, src.origins
    if src.low == dst.low:
        moved = {c: dst.origins[k] - src_origins[c] for c, k in comps.items()}
        return [{u + moved[c]: a for u, a in f.items() if (c := comp(u)) in moved} for f in fs]
    low, dst_low, origins = src.low, dst.low, {c: dst.origins[k] for c, k in comps.items()}
    return [{origins[c] + ((u - src_origins[c]) >> low << dst_low): a
             for u, a in f.items() if (c := comp(u)) in origins} for f in fs]


def poly_to_vec(f: PolyDict, comp: int = 0) -> Vec:
    return {(comp, m): c for m, c in f.items()}


def vec_component(f: Vec, comp: int) -> PolyDict:
    return {m: c for (j, m), c in f.items() if j == comp}


# -- reduction -----------------------------------------------------------------

def reduce_vec(ctx: ModuleCtx, f: dict, basis: list[dict], lts) -> dict:
    """Full normal form of f modulo a monic basis, on code dicts.

    `lts` are the basis elements' lead codes, cached by the caller.  Each
    element must have coefficient one there: a non-monic reducer gives a
    wrong normal form, unchecked.  Reducers are tried in list order, which
    keeps the division deterministic.  The pending codes sit in a heap and
    pop smallest first, so terms come in descending order.  A reducer led
    by l that divides the term t subtracts its terms shifted by t - l,
    updating the pending terms in place and pushing only the codes it
    creates.  A cancelled term keeps its entry, which is skipped when it
    surfaces with the term gone; a term cancelled and re-created has two
    entries, and the second to surface is skipped.
    """
    negmul, submul = ctx.ring.field.negmul, ctx.ring.field.submul
    push, pop = heapq.heappush, heapq.heappop
    e, g, key_shift, key_mask = ctx.exponents, ctx.guards, ctx.key_shift, ctx.key_mask
    reducers: dict[int, list] = {}
    for r, lead in zip(basis, lts):
        reducers.setdefault(lead >> key_shift & key_mask, []).append((lead, lead & e, r))
    work = dict(f)
    heap = list(work)
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        t = pop(heap)
        c = work.get(t)
        if c is None:
            continue
        te = t & e | g
        for lead, le, r in reducers.get(t >> key_shift & key_mask, ()):
            if (te - le) & g == g:
                step = t - lead
                for u, v in r.items():
                    u += step
                    old = work.get(u)
                    if old is None:
                        work[u] = negmul(v, c)
                        push(heap, u)
                    else:
                        s = submul(old, v, c)
                        if s:
                            work[u] = s
                        else:
                            del work[u]
                break
        else:
            out[t] = c
            del work[t]
    return out


# -- Buchberger ----------------------------------------------------------------

def buchberger(ctx: ModuleCtx, gens, limits: Limits = NO_LIMITS):
    """Reduced Groebner basis of the given generators, every element monic.

    Returns (basis, leading_terms): each leading term is computed once, when
    its element enters the basis, and is reused by every later reduction.
    The generators are not checked: callers pass homogeneous elements of
    ctx's free module, checked by an entry point or a ModulePresentation.
    """
    basis, lts = _reduced_basis(ctx, [ctx.encode(g) for g in gens], limits)
    return [ctx.decode(g) for g in basis], [ctx.term(t) for t in lts]


def _reduced_basis(ctx: ModuleCtx, gens, limits: Limits):
    """buchberger's coded core: the basis of the code dicts gens, and its lead codes."""
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
    """Unreduced monic Groebner basis, its lead codes, and which generators entered it.

    The generators and the basis are code dicts.  Every element is scaled
    to lead coefficient one as it enters.
    Element j is paired with the earlier elements _minimal_colon picks for
    it; a pair the product criterion covers still counts in that choice but
    is never queued.  Generators and S-pairs are popped by coarse degree; at
    equal degree the S-pairs come first.  When a degree-d generator is
    popped, every queued pair of degree <= d has been treated, so the basis
    is complete through degree d and the generator's normal form is zero
    exactly when it lies in the submodule generated by the generators that
    entered before it.  Only queued pairs face the degree cap, each just
    before its S-vector is formed.  Like buchberger, it trusts its callers
    to pass homogeneous generators: a generator's coarse degree is read off
    one of its terms.
    """
    K = ctx.ring.field
    basis: list[dict] = []
    lts: list[int] = []
    leads: list = []  # the lead terms as (component, monomial), for the pair rules
    single: list = []  # the only component of each element, or None
    entered: list[int] = []
    seq = 0

    gens = list(gens)
    # (coarse degree, 0 for the S-pair (i, j) | 1 for the generator gens[i],
    #  tie-break: pair creation order | generator index, i, j)
    heap = [(ctx.code_wdeg(next(iter(g))), 1, idx, idx, -1) for idx, g in enumerate(gens) if g]
    heapq.heapify(heap)

    def add(g):
        nonlocal seq
        t = min(g)
        inv = K.inv(g[t])
        basis.append({u: K.mul(c, inv) for u, c in g.items()})
        lts.append(t)
        comp, mono = ctx.term(t)
        leads.append((comp, mono))
        comps = {ctx.comp(u) for u in g}
        single.append(comp if len(comps) == 1 else None)
        j = len(basis) - 1
        for q, i in _minimal_colon(leads, j, range(j)):
            # product criterion, valid when both elements live in one component
            if single[i] is not None and single[i] == single[j] and mono_coprime(leads[i][1], mono):
                continue
            heapq.heappush(heap, (ctx.term_wdeg((comp, mono)) + ctx.order.wdeg(q), 0, seq, i, j))
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
        ctx.check_code_degree(deg)
        nf = reduce_vec(ctx, s_vector(ctx, basis[i], leads[i][1], basis[j], leads[j][1]),
                        basis, lts)
        if nf:
            add(nf)

    return basis, lts, entered


def _autoreduce(ctx: ModuleCtx, basis: list[dict], lts):
    """Keep minimal lead codes, tail-reduce, sort canonically.

    Tail reduction never touches a lead term, so the given lead codes stay
    valid and are returned alongside the reduced elements.
    """
    order_idx = sorted(range(len(basis)), key=lts.__getitem__, reverse=True)
    kept: list[dict] = []
    kept_lts: list[int] = []
    for i in order_idx:
        if any(ctx.divides(lead, lts[i]) for lead in kept_lts):
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
    cols[j], and each is verified to map into span(modulo), on codes.  Every
    column and nonzero modulo element is checked once, here.
    """
    cols = list(cols)
    modulo = [g for g in modulo if g]
    for g in modulo:
        ctx.vec_degree(g)
    degrees = tuple(ctx.vec_degree(c) for c in cols)
    aug, rels = _relation_codes(ctx, [ctx.encode(c) for c in cols], degrees,
                                [ctx.encode(g) for g in modulo], limits)
    rank = ctx.rank
    return [{(comp - rank, m): c for (comp, m), c in aug.decode(g).items()} for g in rels]


def _relation_codes(ctx: ModuleCtx, cols, degrees, modulo, limits: Limits):
    """relations' coded core, on code dicts of the plain context ctx.

    The columns are nonzero and `degrees` are their fine degrees.  Returns
    (aug, rels): aug is ctx's module extended by one trailing component per
    column, and each relation is a code dict of aug in those components,
    checked, on codes, to map into span(modulo).
    """
    rank, one = ctx.rank, ctx.ring.field.one
    aug = ModuleCtx(ctx.ring, ctx.shifts + tuple(degrees), ctx.order,
                    ctx.shift_wdegs + tuple(ctx.code_wdeg(next(iter(c))) for c in cols))
    gens = [{**c, aug.origins[rank + j]: one} for j, c in enumerate(cols)] + modulo
    basis, lts, _ = _degree_ordered_basis(aug, gens, limits)
    trailing = [i for i, t in enumerate(lts) if aug.comp(t) >= rank]
    rels, _ = _autoreduce(aug, [basis[i] for i in trailing], [lts[i] for i in trailing])

    # exactness check: each relation maps into span(modulo), an empty modulo
    # being its own basis
    mod_basis, mod_lts = _reduced_basis(ctx, modulo, limits) if modulo else ([], [])
    images = dict(enumerate(cols, rank))
    if any(reduce_vec(ctx, residual(ctx, {}, images, aug, a), mod_basis, mod_lts) for a in rels):
        raise ArithmeticError("relation does not map into the span of the modulo elements")
    return aug, rels


def residual(ctx: ModuleCtx, target: dict, cols, src: ModuleCtx, a: dict) -> dict:
    """target - sum of c * x^m * cols[j] over the terms c x^m e_j of a: {} iff a maps
    to target.  target and the columns are code dicts of ctx, and a is one of the
    context src, whose component j maps to cols[j]; both order monomials under one
    vector and have their exponent fields lowest (a plain context, say)."""
    out, comp, origins, K = dict(target), src.comp, src.origins, ctx.ring.field
    for u, c in a.items():
        j = comp(u)
        _isub_shifted(out, cols[j], u - origins[j], c, K)
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
    return _degree_ordered_basis(ctx, [ctx.encode(c) for c in cols], limits)[2]


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
    cols = list(cols)
    degrees, wdegs = [(0,) * ctx_target.ring.r] * len(cols), [0] * len(cols)
    for q, c in enumerate(cols):
        if c:
            degrees[q], wdegs[q] = ctx_target.vec_degree(c), ctx_target.term_wdeg(next(iter(c)))
    src = ModuleCtx(ctx_target.ring, tuple(degrees), ctx_target.order, tuple(wdegs))
    kernel = _kernel_codes(ctx_target, src, [ctx_target.encode(c) for c in cols], limits)
    return [src.decode(g) for g in kernel]


def _kernel_codes(target: ModuleCtx, src: ModuleCtx, cols, limits: Limits) -> list[dict]:
    """kernel_of_map's coded core: cols are code dicts of the plain context target,
    and src is the plain context whose q-th generator maps to cols[q], shifted by
    its degree; the kernel comes back as code dicts of src."""
    one = target.ring.field.one
    out = [{src.origins[q]: one} for q, c in enumerate(cols) if not c]
    nonzero = [q for q, c in enumerate(cols) if c]
    if nonzero:
        aug, rels = _relation_codes(target, [cols[q] for q in nonzero],
                                    [src.shifts[q] for q in nonzero], [], limits)
        out += _rebase(aug, src, {target.rank + j: q for j, q in enumerate(nonzero)}, rels)
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
    """The reduced Groebner basis of P's relations under v, as code dicts of
    the plain context over P.shifts, and its lead terms, as tuples.

    The entry is shared: the Schreyer frame copies the elements before it
    hands them to minimalization, which edits columns in place, and every
    other caller only reads them.
    """
    ctx = ModuleCtx.for_vector(P.ring, P.shifts, v)
    basis, lts = buchberger(ctx, P.relations, limits)
    return tuple(ctx.encode(g) for g in basis), tuple(lts)
