"""Engine tests backed by independent oracles.

The naive fixpoint basis below shares no code with the engine's Buchberger
loop (no criteria, no heap, list-driven reduction), and ideal membership is
double-checked by degree-bounded linear algebra over the coefficient field.
Reduced bases are compared with sympy's (when it is installed), and the
relation modules behind kernels, Ext and intersections are measured degree
by degree against ranks of coefficient matrices.
"""

import itertools
import json
import random

import pytest

from mreg import (
    HomogeneityError,
    InputError,
    ModuleCtx,
    ModulePresentation,
    MultigradedRing,
    PointSet,
    graded_piece_dimension,
    ideal_intersection,
    kernel_generators,
    kernel_of_map,
    point_ideal,
    poly_to_vec,
    relations,
    vec_component,
)
from mreg.cli import run
from mreg.groebner import _minimal_colon, buchberger, element_degree
from mreg.linalg import matrix_rank
from mreg.poly import mono_div, mono_divides, mono_lcm, mono_mul, monomials_of_weight
from tests.conftest import normal_form
from tests.conftest import padd as vadd
from tests.conftest import pmul


def ideal_ctx(ring, v):
    return ModuleCtx.for_vector(ring, ((0,) * ring.r,), v)


def ideal_basis(ctx, polys):
    """buchberger on an ideal's generators: (basis, leading terms)."""
    return buchberger(ctx, [poly_to_vec(f) for f in polys])


def basis_polys(G):
    return [vec_component(e, 0) for e in G[0]]


def reduces_to_zero(ctx, f, G):
    return normal_form(ctx, poly_to_vec(f), *G) == {}


def term_times(f, m, c, K):
    """c * x^m * f, one coefficient at a time."""
    return {(comp, mono_mul(e, m)): K.mul(v, c) for (comp, e), v in f.items()}


# -- independent oracle: naive S-pair fixpoint --------------------------------

def naive_groebner(ring, order, polys):
    """Fixpoint of full S-poly reduction, no criteria, no scheduling."""
    K = ring.field

    def lead(f):
        return max(f, key=order.key)

    def red(f, basis):
        changed = True
        while changed and f:
            changed = False
            for g in basis:
                lg = lead(g)
                target = next((m for m in sorted(f, key=order.key, reverse=True)
                               if mono_divides(lg, m)), None)
                if target is not None:
                    c = K.div(f[target], g[lg])
                    f = _sub_term(f, g, mono_div(target, lg), c, K)
                    changed = True
                    break
        return f

    basis = [dict(f) for f in polys if f]
    grown = True
    while grown:
        grown = False
        for f, g in itertools.combinations(list(basis), 2):
            lf, lg = lead(f), lead(g)
            lcm = mono_lcm(lf, lg)
            s = _sub_term(
                _mul_term(f, mono_div(lcm, lf), K.inv(f[lf]), K),
                g,
                mono_div(lcm, lg),
                K.inv(g[lg]),
                K,
            )
            rem = red(s, basis)
            if rem:
                basis.append(rem)
                grown = True
    # reduce to the canonical form: minimal monic tails
    out = []
    for i, f in enumerate(basis):
        lf = lead(f)
        if any(j != i and mono_divides(lead(g), lf) for j, g in enumerate(basis)
               if not (j < i and lead(basis[j]) == lf)):
            continue
        out.append(f)
    final = []
    for i, f in enumerate(out):
        rem = red_tail(f, out[:i] + out[i + 1 :], order, K)
        lf = lead(rem)
        inv = K.inv(rem[lf])
        final.append({m: K.mul(c, inv) for m, c in rem.items()})
    return final


def red_tail(f, others, order, K):
    def lead(g):
        return max(g, key=order.key)

    changed = True
    while changed:
        changed = False
        for g in others:
            lg = lead(g)
            target = next(
                (m for m in sorted(f, key=order.key, reverse=True) if m != lead(f) and mono_divides(lg, m)),
                None,
            )
            if target is not None:
                f = _sub_term(f, g, mono_div(target, lg), K.div(f[target], g[lg]), K)
                changed = True
                break
    return f


def _mul_term(f, mono, c, K):
    return {tuple(a + b for a, b in zip(m, mono)): K.mul(v, c) for m, v in f.items()}


def _sub_term(f, g, mono, c, K):
    out = dict(f)
    for m, v in g.items():
        mm = tuple(a + b for a, b in zip(m, mono))
        s = K.sub(out.get(mm, K.zero), K.mul(v, c))
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def canonical(polys):
    return sorted(tuple(sorted(f.items())) for f in polys)


# -- Groebner basis ------------------------------------------------------------

def test_gb_examples(p1p1):
    ctx = ideal_ctx(p1p1, (1, 1))
    f, g = p1p1.parse("x0*x1"), p1p1.parse("y0*y1")
    assert canonical(basis_polys(ideal_basis(ctx, [f, g]))) == canonical([f, g])

    single = p1p1.parse("x0*y0 - x1*y1")
    assert len(basis_polys(ideal_basis(ctx, [single]))) == 1

    gens = [p1p1.parse("x0*y0 - x1*y1"), p1p1.parse("x0*y1")]
    oracle = naive_groebner(p1p1, ctx.order, gens)
    assert canonical(basis_polys(ideal_basis(ctx, gens))) == canonical(oracle)


def test_gb_matches_naive_oracle_on_seeded_ideals(p1p1):
    rng = random.Random(11)
    ctx = ideal_ctx(p1p1, (1, 1))
    mono_pool = [m for w in range(1, 4) for m in monomials_of_weight((1, 1, 1, 1), w)]
    for _ in range(6):
        gens = []
        deg = rng.choice([(1, 1), (2, 0), (2, 1), (1, 2)])
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for m in mono_pool:
                if p1p1.mono_degree(m) == deg and rng.random() < 0.5:
                    terms[m] = p1p1.field.of(rng.randint(1, 7))
            if terms:
                gens.append(terms)
        if not gens:
            continue
        oracle = naive_groebner(p1p1, ctx.order, gens)
        assert canonical(basis_polys(ideal_basis(ctx, gens))) == canonical(oracle)


def test_gb_input_order_independence(p1p1):
    ctx = ideal_ctx(p1p1, (1, 1))
    gens = [
        p1p1.parse("x0*y0 - x1*y1"),
        p1p1.parse("x0*y1"),
        p1p1.parse("x1^2*y0"),
    ]
    bases = []
    for perm in itertools.permutations(gens):
        bases.append(canonical(basis_polys(ideal_basis(ctx, perm))))
    assert len(set(map(tuple, bases))) == 1


@pytest.mark.parametrize("seed", range(20))
def test_minimal_colon_matches_its_definition(seed):
    """The S-pair rule of Buchberger and of the Schreyer frame, checked
    against the minimal generators of (lt_b : b in others) : lt_a."""
    rng = random.Random(seed)
    pool = rng.sample(monomials_of_weight((1, 1, 1, 1), 3), 7)
    # two components, lead terms repeated; lt_a's monomial occurs once
    leads = [(rng.randrange(2), rng.choice(pool[1:])) for _ in range(15)]
    a = rng.randrange(len(leads))
    leads[a] = (leads[a][0], pool[0])
    others = rng.sample([b for b in range(len(leads)) if b != a], 12)
    ca, ma = leads[a]
    quotient = {b: mono_div(mono_lcm(ma, leads[b][1]), ma) for b in others if leads[b][0] == ca}
    colon = _minimal_colon(leads, a, others)
    qs = [q for q, _ in colon]
    assert not any(i != j and mono_divides(p, q) for i, p in enumerate(qs) for j, q in enumerate(qs))
    assert all(any(mono_divides(p, q) for p in qs) for q in quotient.values())
    # each generator comes with the first b that gives it, in the order of others
    first = {}
    for b, q in quotient.items():
        first.setdefault(q, b)
    assert [b for _, b in colon] == [b for b in quotient if b == first[quotient[b]] and quotient[b] in qs]
    assert all(quotient[b] == q for q, b in colon)


def test_gb_rejects_non_homogeneous(p1p1):
    # an ideal's generators are checked once, where they enter as a presentation
    with pytest.raises(HomogeneityError):
        ModulePresentation.quotient_by_ideal(p1p1, [p1p1.parse("x0 + y0")])


# -- input checks at the entry points --------------------------------------------

def _vector_entry_points(ring, bad):
    """Each exported vector entry point, called with `bad` among good elements of S."""
    ctx = ideal_ctx(ring, (1, 1))
    good = poly_to_vec(ring.parse("x0"))
    return {
        "kernel_generators": lambda: kernel_generators(ctx, [good, bad]),
        "relations cols": lambda: relations(ctx, [good, bad]),
        "relations modulo": lambda: relations(ctx, [good], [good, bad]),
        "kernel_of_map": lambda: kernel_of_map(ctx, [good, {}, bad]),
        "ModulePresentation": lambda: ModulePresentation(ring, ((0, 0),), (good, bad)),
    }


VECTOR_ENTRY_POINTS = ("kernel_generators", "relations cols", "relations modulo",
                       "kernel_of_map", "ModulePresentation")


@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS)
@pytest.mark.parametrize("comp", [1, -1], ids=["rank", "negative"])
def test_entry_points_reject_components_outside_the_module(p1p1, entry, comp):
    bad = {(comp, (0, 1, 0, 0)): p1p1.field.one}
    with pytest.raises(InputError, match=f"outside the ambient module \\(component {comp}\\)"):
        _vector_entry_points(p1p1, bad)[entry]()


@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS)
@pytest.mark.parametrize("mono", [(1, 0), (1, 0, 0, 0, 7), (1, -1, 0, 0), (1.0, 0, 0, 0), (True, 0, 0, 0)],
                         ids=["short", "long", "negative", "float", "bool"])
def test_entry_points_reject_malformed_exponents(p1p1, entry, mono):
    bad = {(0, mono): p1p1.field.one}
    with pytest.raises(InputError, match="is not 4 nonnegative integers"):
        _vector_entry_points(p1p1, bad)[entry]()


@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS + ("ideal_intersection", "cli module payload"))
def test_entry_points_reject_inhomogeneous_input(p1p1, tmp_path, entry):
    if entry == "ideal_intersection":
        with pytest.raises(HomogeneityError):
            ideal_intersection([[p1p1.parse("x1")], [p1p1.parse("x0 + y0")]], p1p1)
    elif entry == "ModulePresentation":
        # both entries are homogeneous, the relation x0 e_0 + y0 e_1 is not
        rel = {**poly_to_vec(p1p1.parse("x0"), 0), **poly_to_vec(p1p1.parse("y0"), 1)}
        with pytest.raises(HomogeneityError):
            ModulePresentation(p1p1, ((0, 0), (0, 0)), (rel,))
    elif entry == "cli module payload":
        path = tmp_path / "inhomogeneous-column.json"
        path.write_text(json.dumps({
            "ring": {"variables": list(p1p1.variables), "degrees": [list(d) for d in p1p1.degrees]},
            "module": {"shifts": [[0, 0], [0, 0]], "relations": [["x0", "y0"]]},
        }))
        assert run(["betti", str(path)]) == 4
    else:
        with pytest.raises(HomogeneityError):
            _vector_entry_points(p1p1, poly_to_vec(p1p1.parse("x0 + y0")))[entry]()


# -- normal form ----------------------------------------------------------------

def test_normal_form_examples(p1p1):
    ctx = ideal_ctx(p1p1, (1, 1))
    G = ideal_basis(ctx, [p1p1.parse("x0*x1"), p1p1.parse("y0*y1")])
    assert reduces_to_zero(ctx, p1p1.parse("x0*x1*y0"), G)
    nf = normal_form(ctx, poly_to_vec(p1p1.parse("x0*y0")), *G)
    assert vec_component(nf, 0) == p1p1.parse("x0*y0")
    assert reduces_to_zero(ctx, {}, G)


def membership_by_linear_algebra(ring, gens, f):
    """f in <gens>?  Solve sum h_i g_i = f degree by degree, exactly."""
    K = ring.field
    fdeg = element_degree(ring, ((0,) * ring.r,), poly_to_vec(f))
    v = tuple([1] * ring.r)
    weights = ring.vdegs(v)
    columns = []
    for g in gens:
        gdeg = element_degree(ring, ((0,) * ring.r,), poly_to_vec(g))
        diff = tuple(a - b for a, b in zip(fdeg, gdeg))
        if any(d < 0 for d in diff):
            continue
        target = sum(a * b for a, b in zip(diff, v))
        for m in monomials_of_weight(weights, target):
            if ring.mono_degree(m) == diff:
                columns.append(pmul({m: K.one}, g, K))
    monomials = sorted({m for col in columns for m in col} | set(f))
    if not columns:
        return not f
    A = [[col.get(m, K.zero) for col in columns] for m in monomials]
    Ab = [row + [f.get(m, K.zero)] for row, m in zip(A, monomials)]
    return matrix_rank(A, K) == matrix_rank(Ab, K)


def test_membership_matches_linear_algebra():
    R = MultigradedRing(("x", "y", "z"), ((1,), (1,), (1,)))
    ctx = ideal_ctx(R, (1,))
    rng = random.Random(5)
    gens = [R.parse("x*y - z^2"), R.parse("x^2*z")]
    G = ideal_basis(ctx, gens)
    pool = [m for w in range(2, 5) for m in monomials_of_weight((1, 1, 1), w)]
    for _ in range(25):
        w = rng.choice([2, 3, 4])
        f = {}
        for m in pool:
            if sum(m) == w and rng.random() < 0.4:
                f[m] = R.field.of(rng.randint(1, 6))
        if not f:
            continue
        engine = reduces_to_zero(ctx, f, G)
        oracle = membership_by_linear_algebra(R, gens, f)
        assert engine == oracle


# -- syzygies --------------------------------------------------------------------

def kernel_over(ring, gens):
    ctx = ideal_ctx(ring, (1, 1))
    cols = [poly_to_vec(ring.parse(g)) for g in gens]
    syz = kernel_of_map(ctx, cols)
    assert {j for s in syz for (j, _) in s} <= set(range(len(cols)))
    return cols, syz


def assert_annihilates(ring, cols, syz):
    K = ring.field
    for s in syz:
        total = {}
        for (j, m), c in s.items():
            total = vadd(total, term_times(cols[j], m, c, K), K)
        assert total == {}


def test_syzygy_examples(p1p1):
    cols, syz = kernel_over(p1p1, ["x0*x1", "y0*y1"])
    assert len(syz) == 1
    assert {c for (c, _) in syz[0]} == {0, 1}
    assert_annihilates(p1p1, cols, syz)

    _, syz1 = kernel_over(p1p1, ["x0*y0 - x1*y1"])
    assert syz1 == []

    colsk, syzk = kernel_over(p1p1, ["x0", "x1"])
    assert len(syzk) == 1
    assert_annihilates(p1p1, colsk, syzk)


def test_syzygies_annihilate(p1p1, koszul_module):
    cols, syz = kernel_over(p1p1, ["x0*y0 - x1*y1", "x0*y1", "x1*y0"])
    assert syz
    assert_annihilates(p1p1, cols, syz)


def test_kernel_generators_lift(p1p1):
    # kernels come out over the ORIGINAL generators, not a Groebner basis
    cols, syz = kernel_over(p1p1, ["x0*y0", "x0*y1", "x0*y0 + x0*y1"])
    assert syz  # the third column is the sum of the first two
    assert_annihilates(p1p1, cols, syz)


# -- ideal intersection ------------------------------------------------------------

def test_intersection_point_ideals(p1p1):
    quads = [
        [p1p1.parse("x1"), p1p1.parse("y1")],
        [p1p1.parse("x1"), p1p1.parse("y0")],
        [p1p1.parse("x0"), p1p1.parse("y1")],
        [p1p1.parse("x0"), p1p1.parse("y0")],
    ]
    acc = ideal_intersection(quads, p1p1)
    assert canonical(acc) == canonical([p1p1.parse("x0*x1"), p1p1.parse("y0*y1")])


def test_intersection_idempotent_and_principal(p1p1):
    I = [p1p1.parse("x0*x1"), p1p1.parse("y0*y1")]
    again = ideal_intersection([I, I], p1p1)
    ctx = ideal_ctx(p1p1, (1, 1))
    assert canonical(again) == canonical(basis_polys(ideal_basis(ctx, I)))

    prin = ideal_intersection([[p1p1.parse("x0")], [p1p1.parse("y0")]], p1p1)
    assert canonical(prin) == canonical([p1p1.parse("x0*y0")])


def test_intersection_membership_invariants(p1p1):
    I = [p1p1.parse("x0*y0 - x1*y1"), p1p1.parse("x0^2")]
    J = [p1p1.parse("x0"), p1p1.parse("y0*y1")]
    inter = ideal_intersection([I, J], p1p1)
    ctx = ideal_ctx(p1p1, (1, 1))
    GI, GJ, Gx = (ideal_basis(ctx, gens) for gens in (I, J, inter))
    for h in inter:
        assert reduces_to_zero(ctx, h, GI)
        assert reduces_to_zero(ctx, h, GJ)
    # low-degree members of the intersection reduce to zero against the output
    K = p1p1.field
    for f in I:
        for g in J:
            prod = pmul(f, g, K)
            assert reduces_to_zero(ctx, prod, Gx)


# -- graded pieces -------------------------------------------------------------------

def test_graded_piece_examples(koszul_module):
    assert graded_piece_dimension(koszul_module, (1, 1), 1) == 4
    assert graded_piece_dimension(koszul_module, (1, 1), 0) == 1
    assert graded_piece_dimension(koszul_module, (1, 1), 2) == 8


def exhaustive_monomial_count(P, v, m):
    """Monomials of coarse degree m avoiding every generator, raw divisibility."""
    ring = P.ring
    weights = ring.vdegs(v)
    gens = [next(iter(rel))[1] for rel in P.relations]
    count = 0
    for e in monomials_of_weight(weights, m):
        if not any(mono_divides(g, e) for g in gens):
            count += 1
    return count


def test_graded_piece_against_exhaustive(monomial_corpus):
    for P in monomial_corpus:
        from mreg import find_positive_coarsening_vector

        v = find_positive_coarsening_vector(P.ring.degrees)
        for m in range(0, 13):
            assert graded_piece_dimension(P, v, m) == exhaustive_monomial_count(P, v, m)


# -- independent oracle: sympy's reduced grevlex basis ----------------------------

def sympy_reduced_basis(ring, polys):
    sympy = pytest.importorskip("sympy")
    K = ring.field
    syms = sympy.symbols(ring.variables)
    exprs = [
        sum(int(c) * sympy.Mul(*(x**e for x, e in zip(syms, m))) for m, c in f.items())
        for f in polys
    ]
    G = sympy.groebner(exprs, *syms, order="grevlex", modulus=K.p)
    out = []
    for g in G.polys:
        terms = {m: K.of(int(c)) for m, c in g.terms()}
        inv = K.inv(terms[max(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))])
        out.append({m: K.mul(c, inv) for m, c in terms.items() if c})
    return out


def seeded_point_ideals(ring, rng):
    for count in (3, 4, 5):
        pts = set()
        while len(pts) < count:
            pts.add(((1, rng.randint(1, 31000)), (1, rng.randint(1, 31000))))
        yield point_ideal(PointSet((1, 1), tuple(sorted(pts))), ring)


def random_homogeneous_ideals(ring, rng, count):
    K = ring.field
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(2, 3)):
            deg = rng.randint(2, 3)
            f = {m: K.of(rng.randint(1, K.p - 1))
                 for m in monomials_of_weight((1,) * ring.n, deg) if rng.random() < 0.4}
            if f:
                gens.append(f)
        if gens:
            yield gens


def test_gb_matches_sympy_grevlex(p1p1):
    rng = random.Random(32003)
    R3 = MultigradedRing(("x", "y", "z"), ((1,), (1,), (1,)))
    cases = [(p1p1, I) for I in seeded_point_ideals(p1p1, rng)]
    cases += [(R3, I) for I in random_homogeneous_ideals(R3, rng, 6)]
    for ring, gens in cases:
        ctx = ideal_ctx(ring, (1,) * ring.r)
        assert canonical(basis_polys(ideal_basis(ctx, gens))) == canonical(
            sympy_reduced_basis(ring, gens)
        )


# -- independent oracle: relation modules by linear algebra, degree by degree -------

def span_dim(ctx, vecs, d):
    """dim_k of the coarse degree-d piece of the submodule spanned by vecs."""
    K = ctx.ring.field
    weights = ctx.ring.vdegs((1,) * ctx.ring.r)
    rows = []
    for g in vecs:
        (comp, mono) = next(iter(g))
        gdeg = sum(w * e for w, e in zip(weights, mono)) + ctx.shift_wdegs[comp]
        rows += [term_times(g, m, K.one, K) for m in monomials_of_weight(weights, d - gdeg)]
    keys = sorted({t for r in rows for t in r})
    return matrix_rank([[r.get(t, K.zero) for t in keys] for r in rows], K)


def assert_relation_dims(ctx, cols, modulo):
    """dim {a : sum a_j cols_j in span(modulo)}_d = dim F_d - rank[cols|modulo] + rank modulo."""
    K = ctx.ring.field
    zero = (0,) * ctx.ring.n
    src = ModuleCtx.for_vector(ctx.ring, [ctx.vec_degree(c) for c in cols], (1,) * ctx.ring.r)
    units = [{(j, zero): K.one} for j in range(len(cols))]
    rels = relations(ctx, cols, modulo)
    for d in range(5):
        expected = (span_dim(src, units, d) - span_dim(ctx, cols + modulo, d)
                    + span_dim(ctx, modulo, d))
        assert span_dim(src, rels, d) == expected, d


def test_relations_dimension_kernel(p1p1):
    ctx = ideal_ctx(p1p1, (1, 1))
    gens = ["x0*y0 - x1*y1", "x0*y1", "x1*y0", "x0^2*y1 + x1^2*y0"]
    assert_relation_dims(ctx, [poly_to_vec(p1p1.parse(g)) for g in gens], [])


def test_kernel_generators_prunes_then_relates(p1p1):
    ctx = ideal_ctx(p1p1, (1, 1))
    cols = [poly_to_vec(p1p1.parse(g)) for g in ("x0*y0", "x0", "x1")] + [{}]
    kept, syzygies = kernel_generators(ctx, cols)
    assert kept == [1, 2]
    assert syzygies == relations(ctx, [cols[1], cols[2]])
    assert len(syzygies) == 1


def test_relations_are_checked_to_map_into_the_modulo_span(p1p1, monkeypatch):
    """A modulo basis that lost its elements makes the exactness check fire."""
    import mreg.groebner

    real = mreg.groebner.buchberger
    # the relations' basis lives in the augmented module of rank 2, the modulo basis in rank 1
    monkeypatch.setattr(mreg.groebner, "buchberger",
                        lambda ctx, gens, limits: real(ctx, gens, limits) if ctx.rank > 1 else ([], []))
    ctx = ModuleCtx.for_vector(p1p1, ((0, 0),), (1, 1))
    column = {(0, (0, 0, 0, 0)): p1p1.field.one}
    with pytest.raises(ArithmeticError,
                       match="^relation does not map into the span of the modulo elements$"):
        relations(ctx, [column], [poly_to_vec(p1p1.parse("x0"))])


def test_relations_dimension_modulo(p1p1):
    ctx = ModuleCtx.for_vector(p1p1, ((0, 0), (0, 0)), (1, 1))
    P = p1p1.parse

    def vec(a, b):
        return {**poly_to_vec(P(a), 0), **poly_to_vec(P(b), 1)}

    cols = [vec("x0", "x1"), vec("y0", "y1"), vec("x0*y1", "x1*y0")]
    modulo = [vec("x0*y0", "0"), vec("x1", "x0"), vec("0", "y1^2")]
    assert_relation_dims(ctx, cols, modulo)


def test_relations_dimension_intersection(p1p1):
    ctx1 = ideal_ctx(p1p1, (1, 1))
    ctx2 = ModuleCtx.for_vector(p1p1, ((0, 0), (0, 0)), (1, 1))
    zero, one = (0,) * p1p1.n, p1p1.field.one
    for I, J in (
        (["x0*y0 - x1*y1", "x0^2"], ["x0", "y0*y1"]),
        (["x0", "y1"], ["x1", "y0"]),
        (["x0*x1", "y0^2"], ["x0^2*y1", "x1*y0"]),
    ):
        I = [poly_to_vec(p1p1.parse(f)) for f in I]
        J = [poly_to_vec(p1p1.parse(g)) for g in J]
        rels = relations(ctx2, [{(0, zero): one, (1, zero): one}],
                         I + [{(1, m): c for (_, m), c in g.items()} for g in J])
        inter = [poly_to_vec(h) for h in ideal_intersection(
            [[vec_component(f, 0) for f in I], [vec_component(g, 0) for g in J]], p1p1)]
        for d in range(5):
            expected = span_dim(ctx1, I, d) + span_dim(ctx1, J, d) - span_dim(ctx1, I + J, d)
            assert span_dim(ctx1, rels, d) == expected
            assert span_dim(ctx1, inter, d) == expected
