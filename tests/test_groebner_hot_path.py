"""The Groebner hot path against the definitions it replaces.

`reduce_vec` pops terms from a heap keyed by memoized term keys; the
reference below is the plain division loop that takes `max` over the
pending terms at every step, with the same reducer order.
`prune_to_minimal_generators` decides every column in one degree-ordered
Buchberger run; the reference is the greedy definition, which recomputes a
Groebner basis of the kept columns after each one it keeps.
"""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mreg import (
    Limits,
    ModuleCtx,
    MultigradedRing,
    PointSet,
    ResourceLimitError,
    TermOrder,
    minimal_free_resolution,
    quotient_presentation,
)
from mreg.groebner import buchberger, leading_term, prune_to_minimal_generators, reduce_vec
from mreg.poly import QQ, DEFAULT_FIELD, mono_div, mono_divides, mono_mul, monomials_of_weight


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
        assert reduce_vec(ctx, f, basis, lts) == expected
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
    assert reduce_vec(ctx, f, basis, lts) == expected == {b2: one}


def test_term_key_orders_like_the_module_order():
    ring = weighted_ring(DEFAULT_FIELD)
    ctx = ModuleCtx.for_vector(ring, ((0,), (2,), (1,)), (1,))
    rng = random.Random(7)
    terms = list({(rng.randrange(3), tuple(rng.randrange(4) for _ in range(4))) for _ in range(300)})
    by_key = sorted(terms, key=ctx.term_key)
    by_order = sorted(terms, key=lambda t: (-t[0], ctx.order.key(t[1])), reverse=True)
    assert by_key == by_order
    assert ctx.term_keys  # memoized on the context


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_key_is_the_flattened_negated_order_key(data):
    n = data.draw(st.integers(1, 6))
    weights = tuple(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    ring = MultigradedRing(tuple(f"x{i}" for i in range(n)), ((1,),) * n, DEFAULT_FIELD)
    ctx = ModuleCtx(ring, ((0,),) * 4, TermOrder(weights), (0,) * 4)
    terms = data.draw(st.lists(st.tuples(
        st.integers(0, 3), st.tuples(*[st.integers(0, 12)] * n)), min_size=1, max_size=20))
    for comp, mono in terms:
        wdeg, deg, revlex = ctx.order.key(mono)
        assert ctx.term_key((comp, mono)) == (comp, -wdeg, -deg, *(-x for x in revlex))


def greedy_minimal_generators(ctx, cols):
    """Sort by (coarse degree, index); keep a column unless the kept ones generate it."""
    order = sorted(
        (ctx.order.wdeg(next(iter(c))[1]) + ctx.shift_wdegs[next(iter(c))[0]], i)
        for i, c in enumerate(cols)
        if c
    )
    kept = []
    for _, i in order:
        if kept and not reduce_vec(ctx, cols[i], *buchberger(ctx, [cols[j] for j in kept])):
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


def test_each_term_key_is_built_once_per_context(monkeypatch, p1p1):
    rng = random.Random(31337)
    points = PointSet(
        (1, 1), tuple(((1, rng.randint(1, 31000)), (1, rng.randint(1, 31000))) for _ in range(5))
    )
    P = quotient_presentation(points, p1p1)
    builds = collections.Counter()
    contexts = {}  # keeps every context alive, so ids are never reused
    original = ModuleCtx._build_term_key

    def counted(self, t):
        contexts[id(self)] = self
        builds[(id(self), t)] += 1
        return original(self, t)

    monkeypatch.setattr(ModuleCtx, "_build_term_key", counted)
    F = minimal_free_resolution(P)
    assert [len(s) for s in F.shifts] == [1, 6, 8, 3]
    assert builds and len(contexts) > 1
    assert max(builds.values()) == 1
