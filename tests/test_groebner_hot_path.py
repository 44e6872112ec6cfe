"""The Groebner hot path against the definitions it replaces.

`reduce_vec` pops integer term codes from a heap; the reference below is
the plain division loop that takes `max` over the pending terms at every
step, with the same reducer order.  The codes themselves are checked
against `TermOrder.key` and `mono_divides`, for plain and Schreyer
contexts.
`prune_to_minimal_generators` decides every column in one degree-ordered
Buchberger run; the reference is the greedy definition, which recomputes a
Groebner basis of the kept columns after each one it keeps.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mreg
from mreg import (
    Limits,
    ModuleCtx,
    MregError,
    MultigradedRing,
    PointSet,
    ResourceLimitError,
    TermOrder,
    cached_minimal_resolution,
    ext_modules,
    multiproj_ring,
    quotient_presentation,
)
from mreg.groebner import CODE_WIDTH, SchreyerCtx, buchberger, prune_to_minimal_generators
from mreg.poly import QQ, DEFAULT_FIELD, mono_div, mono_divides, monomials_of_weight
from tests.conftest import clear_memos, leading_term, mono_mul, normal_form


def reference_reduce(ctx, f, basis, lts):
    """Division with `max` over the pending terms; returns (remainder, re-creations).

    A re-creation is a term cancelled by one subtraction (not as the term
    being divided) and brought back by a later one.
    """
    K = ctx.ring.field

    def mkey(t):
        return (-t[0], ctx.order.key(t[1]))

    work, out = dict(f), {}
    cancelled, recreated = set(), 0
    while work:
        t = max(work, key=mkey)
        c = work[t]
        for i, (lcomp, lmono) in enumerate(lts):
            if lcomp == t[0] and mono_divides(lmono, t[1]):
                q, a = mono_div(t[1], lmono), K.div(c, basis[i][(lcomp, lmono)])
                for (gcomp, gmono), v in basis[i].items():
                    nt = (gcomp, mono_mul(gmono, q))
                    s = K.sub(work.get(nt, K.zero), K.mul(v, a))
                    if s:
                        if nt not in work and nt in cancelled:
                            recreated += 1
                        work[nt] = s
                    else:
                        work.pop(nt, None)
                        if nt != t:
                            cancelled.add(nt)
                break
        else:
            out[t] = c
            del work[t]
    return out, recreated


def weighted_ring(K):
    # three variables of degree 1 and one of degree 2: a weight order that
    # is not plain grevlex
    return MultigradedRing(("a", "b", "c", "d"), ((1,), (1,), (1,), (2,)), K)


def random_vec(rng, ring, shifts, deg, coeffs, terms):
    """Homogeneous vector of coarse degree deg over the free module with these shifts."""
    weights = tuple(d[0] for d in ring.degrees)
    pool = [
        (comp, m)
        for comp, (s,) in enumerate(shifts)
        if deg >= s
        for m in monomials_of_weight(weights, deg - s)
    ]
    return {t: ring.field.of(rng.choice(coeffs)) for t in rng.sample(pool, min(terms, len(pool)))}


@pytest.mark.parametrize("K", [DEFAULT_FIELD, QQ], ids=["gf32003", "qq"])
def test_reduce_vec_matches_max_division(K):
    ring = weighted_ring(K)
    ctx = ModuleCtx.for_vector(ring, ((0,), (1,)), (1,))
    rng = random.Random(4242)
    recreations = 0
    for case in range(120):
        # few distinct small coefficients make cancellations common
        coeffs = (1, -1, 2) if case % 2 else (1, -1, 3, 5, -7)
        basis = []
        for _ in range(rng.randint(1, 5)):
            g = random_vec(rng, ring, ctx.shifts, rng.randint(1, 3), coeffs, rng.randint(1, 5))
            if g:
                basis.append(g)
        lts = [leading_term(ctx, g) for g in basis]
        # monic reducers, as buchberger and the Schreyer frame store them
        basis = [{t: K.div(c, g[lt]) for t, c in g.items()} for g, lt in zip(basis, lts)]
        f = random_vec(rng, ring, ctx.shifts, rng.randint(2, 5), coeffs, rng.randint(1, 12))
        expected, recreated = reference_reduce(ctx, f, basis, lts)
        recreations += recreated
        assert normal_form(ctx, f, basis, lts) == expected
    assert recreations > 0  # the corpus exercises the stale heap entries


@pytest.mark.parametrize("K", [DEFAULT_FIELD, QQ], ids=["gf32003", "qq"])
def test_reduce_vec_term_cancelled_then_recreated(K):
    # a^2 + ab - b^2: dividing by a^2 - b^2 cancels b^2, dividing the
    # remaining ab by ab - b^2 brings it back
    ring = MultigradedRing(("a", "b", "c"), ((1,), (1,), (1,)), K)
    ctx = ModuleCtx.for_vector(ring, ((0,),), (1,))
    a2, ab, b2 = (0, (2, 0, 0)), (0, (1, 1, 0)), (0, (0, 2, 0))
    one, minus = K.one, K.of(-1)
    f = {a2: one, ab: one, b2: minus}
    basis = [{a2: one, b2: minus}, {ab: one, b2: minus}]
    lts = [leading_term(ctx, g) for g in basis]
    expected, recreated = reference_reduce(ctx, f, basis, lts)
    assert recreated == 1
    assert normal_form(ctx, f, basis, lts) == expected == {b2: one}


def test_term_key_orders_like_the_module_order():
    ring = weighted_ring(DEFAULT_FIELD)
    ctx = ModuleCtx.for_vector(ring, ((0,), (2,), (1,)), (1,))
    rng = random.Random(7)
    terms = list({(rng.randrange(3), tuple(rng.randrange(4) for _ in range(4))) for _ in range(300)})
    # ascending codes list the terms in descending module order
    by_code = sorted(terms, key=ctx.code)
    by_order = sorted(terms, key=lambda t: (-t[0], ctx.order.key(t[1])), reverse=True)
    assert by_code == by_order
    assert [ctx.term(ctx.code(t)) for t in by_code] == by_code


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_key_is_the_flattened_negated_order_key(data):
    # the fields of a plain context's code, high to low, are the order key
    # (comp, -wdeg, -deg, e_n, ..., e_1) with B added to the degree fields
    n = data.draw(st.integers(1, 6))
    weights = tuple(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    ring = MultigradedRing(tuple(f"x{i}" for i in range(n)), ((1,),) * n, DEFAULT_FIELD)
    ctx = ModuleCtx(ring, ((0,),) * 4, TermOrder(weights), (0,) * 4)
    terms = data.draw(st.lists(st.tuples(
        st.integers(0, 3), st.tuples(*[st.integers(0, 12)] * n)), min_size=1, max_size=20))
    room = (1 << CODE_WIDTH - 1) - 1
    mask = (1 << CODE_WIDTH) - 1
    for comp, mono in terms:
        wdeg, deg, revlex = ctx.order.key(mono)
        code = ctx.code((comp, mono))
        fields = tuple(code >> CODE_WIDTH * i & mask for i in reversed(range(n + 2)))
        assert (code >> CODE_WIDTH * (n + 2), *fields) == (
            comp, room - wdeg, room - deg, *(-x for x in revlex))


def _contexts(data):
    """A plain context, or a Schreyer context one or two levels above one, on drawn weights.

    Returns (ctx, terms, reference): terms of every component, and a key
    that sorts terms ascending in the module order, built from
    TermOrder.key; in a Schreyer context x^m e_c compares as x^m times
    leads[c] in the context below, with ties to the lower index, and the
    trailing components come after (below) every such term.
    """
    n = data.draw(st.integers(1, 5), label="n")
    weights = tuple(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n), label="weights"))
    ring = MultigradedRing(tuple(f"x{i}" for i in range(n)), ((1,),) * n, DEFAULT_FIELD)
    order = TermOrder(weights)
    monos = st.tuples(*[st.integers(0, 12)] * n)

    def key(t):
        return (-t[0], order.key(t[1]))

    rank = data.draw(st.integers(1, 4), label="rank")
    ctx = ModuleCtx(ring, ((0,),) * rank, order, (0,) * rank)
    for _ in range(data.draw(st.integers(0, 2), label="levels")):
        below, below_key = ctx, key
        leads = tuple(data.draw(st.lists(st.tuples(st.integers(0, below.rank - 1), monos),
                                         min_size=1, max_size=6), label="leads"))
        rank = len(leads) + data.draw(st.integers(1, 3), label="trailing")
        ctx = SchreyerCtx(ring, ((0,),) * rank, order, (0,) * rank, below=below, leads=leads)

        def key(t, leads=leads, below_key=below_key):
            comp, mono = t
            if comp < len(leads):
                lcomp, lmono = leads[comp]
                return (1, below_key((lcomp, mono_mul(lmono, mono))), -comp)
            return (0, -comp, order.key(mono), 0)

    terms = data.draw(st.lists(st.tuples(st.integers(0, ctx.rank - 1), monos),
                               min_size=1, max_size=25, unique=True), label="terms")
    return ctx, terms, key


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codes_sort_like_the_module_order(data):
    ctx, terms, key = _contexts(data)
    # ascending codes list the terms in descending order
    assert sorted(terms, key=ctx.code) == sorted(terms, key=key, reverse=True)
    assert [ctx.term(ctx.code(t)) for t in terms] == terms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_code_steps_multiply(data):
    ctx, terms, _ = _contexts(data)
    q = data.draw(st.tuples(*[st.integers(0, 12)] * ctx.ring.n), label="q")
    for comp, mono in terms:
        assert ctx.code((comp, mono)) + ctx.shift(q) == ctx.code((comp, mono_mul(mono, q)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_guard_bits_decide_divisibility(data):
    ctx, terms, _ = _contexts(data)
    # multiples of the drawn terms make divisible pairs common
    q = data.draw(st.tuples(*[st.integers(0, 2)] * ctx.ring.n), label="q")
    terms = terms + [(comp, mono_mul(mono, q)) for comp, mono in terms]
    for lc, lm in terms:
        for tc, tm in terms:
            expected = lc == tc and mono_divides(lm, tm)
            assert ctx.divides(ctx.code((lc, lm)), ctx.code((tc, tm))) == expected


def greedy_minimal_generators(ctx, cols):
    """Sort by (coarse degree, index); keep a column unless the kept ones generate it."""
    order = sorted(
        (ctx.order.wdeg(next(iter(c))[1]) + ctx.shift_wdegs[next(iter(c))[0]], i)
        for i, c in enumerate(cols)
        if c
    )
    kept = []
    for _, i in order:
        if kept and not normal_form(ctx, cols[i], *buchberger(ctx, [cols[j] for j in kept])):
            continue
        kept.append(i)
    return kept


def scaled(v, c, K):
    return {t: K.mul(x, K.of(c)) for t, x in v.items()}


def times_mono(v, mono, K):
    return {(comp, mono_mul(m, mono)): x for (comp, m), x in v.items()}


def vsum(u, v, K):
    out = dict(u)
    for t, x in v.items():
        s = K.add(out.get(t, K.zero), x)
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


@pytest.mark.parametrize("K", [DEFAULT_FIELD, QQ], ids=["gf32003", "qq"])
def test_prune_matches_greedy_definition(K):
    ring = weighted_ring(K)
    rng = random.Random(5151)
    seen_dropped = 0
    for case in range(40):
        shifts = ((0,),) if case % 2 else ((0,), (1,))
        ctx = ModuleCtx.for_vector(ring, shifts, (1,))
        base = [
            random_vec(rng, ring, shifts, rng.randint(1, 3), range(1, 20), rng.randint(1, 4))
            for _ in range(rng.randint(2, 4))
        ]
        cols = [b for b in base if b]
        extra = []
        for _ in range(rng.randint(2, 6)):
            kind = rng.randrange(5)
            u = rng.choice(cols)
            if kind == 0:
                extra.append({})  # zero column
            elif kind == 1:
                extra.append(dict(u))  # duplicate
            elif kind == 2:
                extra.append(scaled(u, rng.choice((2, -1, 7)), K))  # scalar multiple
            elif kind == 3:
                # same degree as u, in the span of u and a multiple of another column
                w = rng.choice(cols)
                du = ctx.order.wdeg(next(iter(u))[1]) + ctx.shift_wdegs[next(iter(u))[0]]
                dw = ctx.order.wdeg(next(iter(w))[1]) + ctx.shift_wdegs[next(iter(w))[0]]
                if dw <= du:
                    ms = list(monomials_of_weight(ctx.order.weights, du - dw))
                    extra.append(vsum(u, times_mono(w, rng.choice(ms), K), K))
            else:
                # an independent column of a degree some column already has (a tie)
                deg = ctx.order.wdeg(next(iter(u))[1]) + ctx.shift_wdegs[next(iter(u))[0]]
                extra.append(random_vec(rng, ring, shifts, deg, range(1, 20), rng.randint(1, 4)))
        cols = cols + extra
        rng.shuffle(cols)
        expected = greedy_minimal_generators(ctx, cols)
        assert prune_to_minimal_generators(ctx, cols) == expected
        seen_dropped += sum(1 for c in cols if c) - len(expected)
    assert seen_dropped > 0


def test_prune_degree_cap_holds_s_pairs_only():
    ring = MultigradedRing(("a", "b", "c"), ((1,), (1,), (1,)))
    ctx = ModuleCtx.for_vector(ring, ((0,),), (1,))
    one = ring.field.one
    # a generator above the cap is decided without raising
    assert prune_to_minimal_generators(ctx, [{(0, (3, 0, 0)): one}], Limits(max_degree=1)) == [0]
    # the S-pair of a^2 and ab has coarse degree 3
    pair = [{(0, (2, 0, 0)): one}, {(0, (1, 1, 0)): one}]
    assert prune_to_minimal_generators(ctx, pair, Limits(max_degree=3)) == [0, 1]
    with pytest.raises(ResourceLimitError):
        prune_to_minimal_generators(ctx, pair, Limits(max_degree=2))


def test_degrees_past_the_code_fields_raise():
    ring = MultigradedRing(("a", "b", "c"), ((1,), (1,), (1,)))
    ctx = ModuleCtx.for_vector(ring, ((0,),), (1,))
    one, top = ring.field.one, 2 ** (CODE_WIDTH - 1) - 1
    # a generator of the largest degree the fields hold fits, one more raises
    assert buchberger(ctx, [{(0, (top, 0, 0)): one}]) == ([{(0, (top, 0, 0)): one}], [(0, (top, 0, 0))])
    with pytest.raises(ResourceLimitError, match=f"^coarse degree {top + 1} exceeds the term-code limit {top}$") as info:
        buchberger(ctx, [{(0, (top + 1, 0, 0)): one}])
    assert isinstance(info.value, MregError) and info.value.exit_code == 5
    # two generators that fit whose S-pair's lcm does not
    half = 2 ** (CODE_WIDTH - 2)
    gens = [{(0, (half, 1, 0)): one}, {(0, (1, half, 0)): one}]
    with pytest.raises(ResourceLimitError, match=f"^coarse degree {2 * half} exceeds"):
        buchberger(ctx, gens)
    # the fields hold monomials, so a component's shift moves the limit with it
    shifted = ModuleCtx.for_vector(ring, ((5,),), (1,))
    assert buchberger(shifted, [{(0, (top, 0, 0)): one}])[1] == [(0, (top, 0, 0))]
    with pytest.raises(ResourceLimitError, match=f"^coarse degree {top + 6} exceeds the term-code limit {top + 5}$"):
        buchberger(shifted, [{(0, (top + 1, 0, 0)): one}])


def test_point_resolution_and_ext_do_the_same_work():
    """Work guard: reductions and S-pairs of one 6-point set, pinned before term codes."""
    rng = random.Random(6)
    pts = tuple(((1, rng.randint(1, 32002)), (1, rng.randint(1, 32002))) for _ in range(6))
    calls = {"reduce_vec": 0, "s_vector": 0}
    patch = pytest.MonkeyPatch()
    for name in calls:
        orig = getattr(mreg.groebner, name)

        def counted(*args, name=name, orig=orig):
            calls[name] += 1
            return orig(*args)

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "mreg"]:
            if getattr(module, name, None) is orig:
                patch.setattr(module, name, counted)
    clear_memos()
    try:
        P = quotient_presentation(PointSet((1, 1), pts), multiproj_ring((1, 1)))
        F = cached_minimal_resolution(P)
        ext_modules(P)
    finally:
        patch.undo()
        clear_memos()
    assert [F.rank(i) for i in range(F.length + 1)] == [1, 9, 12, 4]
    # every S-vector formed is reduced, in Buchberger runs and in the frame
    assert calls == {"reduce_vec": 367, "s_vector": 203}


def test_point_resolution_and_ext_cross_the_code_boundary_once(monkeypatch):
    """Work guard: the engine's stages hand term codes on, so an element is encoded
    where it enters and decoded where it leaves, and one presentation is built per
    nonzero E^j."""
    rng = random.Random(6)
    pts = tuple(((1, rng.randint(1, 32002)), (1, rng.randint(1, 32002))) for _ in range(6))
    P = quotient_presentation(PointSet((1, 1), pts), multiproj_ring((1, 1)))
    calls = {"encode": 0, "decode": 0, "presentations": 0}
    encode, decode = ModuleCtx.encode, ModuleCtx.decode
    post_init = mreg.ModulePresentation.__post_init__

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ModuleCtx, "encode", counted("encode", encode))
    monkeypatch.setattr(ModuleCtx, "decode", counted("decode", decode))
    monkeypatch.setattr(mreg.ModulePresentation, "__post_init__", counted("presentations", post_init))
    clear_memos()
    try:
        F = cached_minimal_resolution(P)
        ext = ext_modules(P)
    finally:
        clear_memos()
    assert [F.rank(i) for i in range(F.length + 1)] == [1, 9, 12, 4]
    assert [(len(E.shifts), len(E.relations)) for E in ext if E is not None] == [(6, 19), (4, 12)]
    # encoded: P's 11 relations entering buchberger, its 11 basis elements
    # entering the basis memo, and the 9 + 12 + 4 columns of d_2^T, d_3^T
    # and d_4^T entering the Ext route; decoded: the 11 basis elements
    # leaving buchberger, the 9 + 12 + 4 columns of the resolution, and the
    # 19 + 12 relations of E^2 and E^3, and one of E^2 that minimalizes to zero
    assert calls == {"encode": 11 + 11 + 25, "decode": 11 + 25 + 32, "presentations": 2}
