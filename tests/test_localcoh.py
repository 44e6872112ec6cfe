"""Two independent local-cohomology routes and their cross-checks."""

import itertools
import math
import random
import types
from operator import mul

import pytest

import mreg.localcoh
from mreg import (
    BettiTable,
    FieldDescriptor,
    InputError,
    Limits,
    ModuleCtx,
    ModulePresentation,
    MultigradedRing,
    ResourceLimitError,
    SimplicialComplex,
    ZeroModuleError,
    a_invariants_ext,
    a_invariants_hochster,
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    complex_from_squarefree_ideal,
    ext_modules,
    find_positive_coarsening_vector,
    graded_piece_dimension,
    hochster_supports,
    kernel_of_map,
    local_cohomology_piece_dimension,
    minimalize_presentation,
    module_a_invariants,
    reduced_homology_ranks,
    regnum_module,
    relations,
    stanley_reisner_ideal,
)
from mreg.resolution import FreeResolution, codimension
from tests.conftest import clear_memos, hirzebruch_ring
from tests.test_betti_oracle import PROBLEMS, _module
from tests.test_resolution import _count_everywhere, _nine_generic_points


def test_reduced_homology_examples(p1p1, four_cycle):
    K = p1p1.field
    ranks = reduced_homology_ranks(four_cycle, K)
    assert ranks.get(0, 0) == 0 and ranks.get(1, 0) == 1

    two_points = SimplicialComplex(("a", "b"), (("a",), ("b",)))
    assert reduced_homology_ranks(two_points, K).get(0, 0) == 1

    empty_only = SimplicialComplex((), ((),))
    assert reduced_homology_ranks(empty_only, K) == {-1: 1}

    void = SimplicialComplex((), ())
    assert reduced_homology_ranks(void, K) == {}


def test_homology_of_sphere_boundary():
    K = FieldDescriptor("prime", 32003)
    # boundary of the tetrahedron: a 2-sphere
    verts = ("a", "b", "c", "d")
    facets = tuple(tuple(sorted(set(verts) - {v})) for v in verts)
    ranks = reduced_homology_ranks(SimplicialComplex(verts, facets), K)
    assert ranks == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_hochster_support_four_cycle(p1p1, four_cycle):
    supports = hochster_supports(four_cycle, p1p1)
    sizes = sorted(len(f) for f, _ in supports[2])
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert all(rank == 1 for _, rank in supports[2])
    assert supports[0] == []
    assert supports[1] == []


def test_hochster_support_simplex(p1p1):
    simplex = SimplicialComplex(p1p1.variables, (p1p1.variables,))
    supports = hochster_supports(simplex, p1p1)
    assert [(tuple(f), r) for f, r in supports[p1p1.n]] == [(p1p1.variables, 1)]
    for i in range(p1p1.n):
        assert supports[i] == []


def test_a_invariants_hochster_examples(p1p1, four_cycle):
    assert a_invariants_hochster(four_cycle, p1p1, (1, 1)).values == (None, None, 0, None, None)
    # same complex, relabeled into the Hirzebruch ring
    H = hirzebruch_ring(2)
    relabeled = SimplicialComplex(
        H.variables, (("x1", "x3"), ("x1", "x4"), ("x2", "x3"), ("x2", "x4"))
    )
    assert a_invariants_hochster(relabeled, H, (1, 3)).values == (None, None, 0, None, None)
    simplex = SimplicialComplex(p1p1.variables, (p1p1.variables,))
    ai = a_invariants_hochster(simplex, p1p1, (1, 1))
    assert ai.values == (None, None, None, None, -4)


def test_ext_modules_shapes(p1p1, koszul_module):
    free = ModulePresentation.free_module(p1p1, [(0, 0)])
    ext_free = ext_modules(free)
    assert ext_free[0] is not None and ext_free[0].shifts == ((2, 2),)
    assert all(e is None for e in ext_free[1:])

    ext_koszul = ext_modules(koszul_module)
    assert ext_koszul[2] is not None
    assert all(ext_koszul[j] is None for j in (0, 1, 3, 4))
    # E^2 of the complete intersection is the quotient itself, so indeg 0
    assert min(sum(s) for s in ext_koszul[2].shifts) == 0


def test_a_invariants_ext_examples(bigraded_xy, koszul_module):
    S = ModulePresentation.free_module(bigraded_xy, [(0, 0)])
    assert a_invariants_ext(S, (1, 1)).values == (None, None, -2)
    assert a_invariants_ext(koszul_module, (1, 1)).values == (None, None, 0, None, None)
    shifted = ModulePresentation.free_module(bigraded_xy, [(1, 0), (0, 1)])
    assert a_invariants_ext(shifted, (5, 3)).values == (None, None, -3)


def test_a_top_of_ring_is_minus_sigma(p1p1, weighted44, bigraded_xy):
    for ring, v in ((p1p1, (1, 1)), (p1p1, (2, 3)), (weighted44, (1,)), (bigraded_xy, (4, 7))):
        S = ModulePresentation.free_module(ring, [(0,) * ring.r])
        ai = a_invariants_ext(S, v)
        sigma = sum(ring.vdegs(v))
        assert ai.get(ring.n) == -sigma
        assert all(ai.get(i) is None for i in range(ring.n))


def test_weighted_gap_piece_pattern(weighted44):
    # top local cohomology of the weight-(4,4) ring: multiples of 4, at most -8
    P = ModulePresentation.free_module(weighted44, [(0,)])
    for p in range(-16, 1):
        dim = local_cohomology_piece_dimension(P, (1,), 2, p)
        expected = p <= -8 and p % 4 == 0
        assert (dim > 0) == expected


def test_shift_identity_for_free_modules(bigraded_xy):
    # a^i(M(-d)) = a^i(M) + d.v on free modules
    v = (2, 5)
    base = a_invariants_ext(ModulePresentation.free_module(bigraded_xy, [(0, 0)]), v)
    for d in ((1, 0), (2, 3), (0, 4)):
        shifted = a_invariants_ext(ModulePresentation.free_module(bigraded_xy, [d]), v)
        dv = d[0] * v[0] + d[1] * v[1]
        for i in range(bigraded_xy.n + 1):
            a0, a1 = base.get(i), shifted.get(i)
            assert (a0 is None) == (a1 is None)
            if a0 is not None:
                assert a1 == a0 + dv


def _generic_ext_modules(P):
    """E^j built the generic way: a kernel, its relations modulo the image, minimalized."""
    ring = P.ring
    v = find_positive_coarsening_vector(ring.degrees)
    F = cached_minimal_resolution(P)
    w = tuple(map(sum, zip(*ring.degrees)))
    dual = [tuple(tuple(a - b for a, b in zip(w, s)) for s in level) for level in F.shifts]

    def dual_map(i):
        """Columns of d_i^T: the q-th is row q of d_i."""
        return [{(c, m): x for c, col in enumerate(F.differentials[i - 1])
                 for (r, m), x in col.items() if r == q}
                for q in range(F.rank(i - 1))]

    out = []
    for j in range(ring.n + 1):
        if j > F.length:
            out.append(None)
            continue
        ctx = ModuleCtx.for_vector(ring, dual[j], v)
        if j < F.length:
            kernel = kernel_of_map(ModuleCtx.for_vector(ring, dual[j + 1], v), dual_map(j + 1))
        else:
            kernel = [{(q, (0,) * ring.n): ring.field.one} for q in range(F.rank(j))]
        if not kernel:
            out.append(None)
            continue
        rels = relations(ctx, kernel, dual_map(j) if j else [])
        pres = ModulePresentation(ring, tuple(ctx.vec_degree(k) for k in kernel), tuple(rels))
        try:
            out.append(minimalize_presentation(pres))
        except ZeroModuleError:
            out.append(None)
    return out


EXT_CASES = [f"problems/{p.name}" for p in sorted(PROBLEMS.glob("*.json"))]
EXT_CASES += ["fixture-koszul", "fixture-hirzebruch", "nine-generic-points"]
EXT_CASES += [f"gf32003-{c}-points" for c in (4, 5, 6)] + [f"qq-{c}-points" for c in (4, 5)]


@pytest.mark.parametrize("case", EXT_CASES)
def test_ext_modules_equal_the_generic_construction(case, request):
    P = _nine_generic_points() if case == "nine-generic-points" else _module(case, request)
    v = find_positive_coarsening_vector(P.ring.degrees)
    ext, oracle = ext_modules(P), _generic_ext_modules(P)
    assert [E is None for E in ext] == [E is None for E in oracle]
    for E, O in zip(ext, oracle):
        if E is not None:
            assert sorted(E.shifts) == sorted(O.shifts)
            # both pieces vanish below the least generator degree
            low = min(sum(map(mul, s, v)) for s in E.shifts)
            for m in range(max(low, -12), 4):
                assert graded_piece_dimension(E, v, m) == graded_piece_dimension(O, v, m), (case, m)


def test_ext_relations_are_checked_against_the_complex(monkeypatch):
    """A d_2 that does not compose to zero with d_1 makes ext_modules raise."""
    import mreg.localcoh

    P = _nine_generic_points()
    F = cached_minimal_resolution(P)
    col = F.differentials[1][0]
    k = min(r for r, _ in col)
    bad = {(r, m): P.ring.field.add(c, c) if r == k else c for (r, m), c in col.items()}
    broken = FreeResolution(F.ring, F.shifts, [F.differentials[0], [bad] + F.differentials[1][1:],
                                               *F.differentials[2:]])
    monkeypatch.setattr(mreg.localcoh, "cached_minimal_resolution", lambda P, limits: broken)
    clear_memos()
    with pytest.raises(ArithmeticError, match="^image column does not lie in the kernel$"):
        ext_modules(P)


def test_ext_relations_are_checked_to_map_to_their_image(monkeypatch):
    """Image quotients that do not map back to their column make ext_modules raise."""
    import mreg.resolution

    real = mreg.resolution._frame_syzygies

    def skewed(ctx, elems, leads, image, limits):
        rels, rel_leads = real(ctx, elems, leads, image, limits)
        if image:  # only the Ext route passes image columns
            t, c = next(iter(rels[-1].items()))
            rels[-1][t] = ctx.ring.field.add(c, c)
        return rels, rel_leads

    monkeypatch.setattr(mreg.resolution, "_frame_syzygies", skewed)
    clear_memos()
    with pytest.raises(ArithmeticError, match="^Ext relation does not map to its image$"):
        ext_modules(_nine_generic_points())


def test_ext_at_codim_is_checked_to_be_nonzero(monkeypatch):
    """E^codim minimalizing to zero contradicts the Betti table and raises."""
    import mreg.resolution

    def zero(ctx, rels):
        raise ZeroModuleError("presentation minimalized to the zero module")

    # the Ext route minimalizes each E^j on codes, in minimalize_presentation's core
    monkeypatch.setattr(mreg.resolution, "_minimal_presentation", zero)
    clear_memos()
    with pytest.raises(ArithmeticError, match=r"^Ext\^codim minimalizes to zero$"):
        ext_modules(_nine_generic_points())


def _codim(P, v=None):
    v = v or find_positive_coarsening_vector(P.ring.degrees)
    return codimension(betti_table(coarsen_resolution(cached_minimal_resolution(P), v)))


def _positive_vectors(ring, box):
    """Every vector in [-box, box]^r positive on each variable degree."""
    return [v for v in itertools.product(range(-box, box + 1), repeat=ring.r)
            if all(d >= 1 for d in ring.vdegs(v))]


@pytest.mark.parametrize("case", EXT_CASES)
def test_codimension_is_where_ext_starts(case, request):
    """The first nonzero E^j of the generic construction sits at codim M."""
    P = _nine_generic_points() if case == "nine-generic-points" else _module(case, request)
    oracle = _generic_ext_modules(P)
    assert next(j for j, E in enumerate(oracle) if E is not None) == _codim(P)


def test_codimension_examples(p1p1, bigraded_xy, weighted44):
    for case in ["problems/ex1-four-points.json", "problems/eight-points.json"] + [
        f"gf32003-{c}-points" for c in (4, 5, 6)
    ] + [f"qq-{c}-points" for c in (4, 5)]:
        P = _module(case, None)
        assert _codim(P) == 2, case
    assert _codim(_nine_generic_points()) == 2
    for ring in (p1p1, bigraded_xy, weighted44):
        free = ModulePresentation.free_module(ring, [(0,) * ring.r, (1,) * ring.r])
        assert _codim(free) == 0
    hyperplane = ModulePresentation.quotient_by_ideal(p1p1, [p1p1.parse("x0")])
    assert [_codim(hyperplane, v) for v in ((1, 1), (2, 5))] == [1, 1]


def test_codimension_of_face_rings_is_n_minus_the_largest_facet(p1p1):
    """codim k[Delta] = n - dim k[Delta], and dim k[Delta] is the largest facet size."""
    trigraded = MultigradedRing(
        ("x0", "x1", "y0", "y1", "z0", "z1"),
        ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
    )
    cycle = ("x0", "y0", "z0", "x1", "y1", "z1")
    edges = [trigraded.parse(f"{a}*{b}") for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    six_cycle = complex_from_squarefree_ideal(trigraded, edges)
    corpus = [(K, ring) for K, ring, _ in squarefree_corpus(p1p1)] + [(six_cycle, trigraded)]
    for K, ring in corpus:
        gens = stanley_reisner_ideal(K, ring)
        P = (
            ModulePresentation.quotient_by_ideal(ring, gens)
            if gens
            else ModulePresentation.free_module(ring, [(0,) * ring.r])
        )
        expected = ring.n - max(len(f) for f in K.facets)
        vectors = _positive_vectors(ring, 4)
        assert len(vectors) > 1
        assert {_codim(P, v) for v in vectors} == {expected}, K.facets


def test_codimension_rejects_the_zero_table():
    # K(t) = 1 + t^2 - (1 + 2t + t^2) + 2t vanishes identically: the zero module
    zero = BettiTable((((0, 0), 1), ((0, 2), 1), ((1, 0), 1), ((1, 1), 2),
                       ((1, 2), 1), ((2, 1), 2)))
    with pytest.raises(ZeroModuleError):
        codimension(zero)


def test_graded_pieces_of_an_ext_module_share_one_basis(monkeypatch):
    """Work guard: a window of 16 degrees on one Ext module makes one Buchberger run."""
    import mreg.groebner

    clear_memos()
    E = ext_modules(_nine_generic_points())[2]
    calls = {}
    _count_everywhere(monkeypatch, calls, mreg.groebner, "_degree_ordered_basis")
    dims = [graded_piece_dimension(E, (1, 1), m) for m in range(16)]
    assert calls["_degree_ordered_basis"] == 1
    # E^2 has nine generators of degree (1, 1) and no relation in coarse degree 2
    assert dims[:3] == [0, 0, 9]
    # a call the caps stop raises and stores nothing
    before = mreg.groebner._memo_basis.cache_info().currsize
    with pytest.raises(ResourceLimitError):
        graded_piece_dimension(E, (1, 1), 3, Limits(max_degree=0))
    assert mreg.groebner._memo_basis.cache_info().currsize == before


def squarefree_corpus(p1p1):
    H = hirzebruch_ring(2)
    four_cycle_h = SimplicialComplex(
        H.variables, (("x1", "x3"), ("x1", "x4"), ("x2", "x3"), ("x2", "x4"))
    )
    four_cycle = SimplicialComplex(
        p1p1.variables, (("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1"))
    )
    simplex = SimplicialComplex(p1p1.variables, (p1p1.variables,))
    disjoint_edges = SimplicialComplex(p1p1.variables, (("x0", "x1"), ("y0", "y1")))
    return [
        (four_cycle, p1p1, [(1, 1), (2, 3), (1, 4)]),
        (four_cycle_h, H, [(1, 3), (1, 4)]),
        (simplex, p1p1, [(1, 1), (3, 2)]),
        (disjoint_edges, p1p1, [(1, 1), (2, 3)]),
    ]


def test_cross_oracle_agreement(p1p1):
    for K, ring, vectors in squarefree_corpus(p1p1):
        gens = stanley_reisner_ideal(K, ring)
        P = (
            ModulePresentation.quotient_by_ideal(ring, gens)
            if gens
            else ModulePresentation.free_module(ring, [(0,) * ring.r])
        )
        for v in vectors:
            hochster = a_invariants_hochster(K, ring, v)
            ext = a_invariants_ext(P, v)
            assert hochster.values == ext.values, (K.facets, v)


def test_stanley_reisner_round_trip(p1p1, four_cycle):
    gens = stanley_reisner_ideal(four_cycle, p1p1)
    texts = sorted(p1p1.poly_str(g) for g in gens)
    assert texts == ["x0*x1", "y0*y1"]
    K = complex_from_squarefree_ideal(p1p1, gens)
    assert set(K.facets) == set(four_cycle.facets)
    with pytest.raises(InputError):
        complex_from_squarefree_ideal(p1p1, [p1p1.parse("x0^2")])


def test_stanley_reisner_tries_only_subsets_that_can_be_minimal_non_faces(monkeypatch):
    # a minimal non-face of a graph has at most three vertices; walking all
    # 2^24 vertex subsets of the 24-cycle would not finish here
    n = 24
    names = tuple(f"x{k}" for k in range(n))
    cycle = SimplicialComplex(names, tuple((names[k], names[(k + 1) % n]) for k in range(n)))
    ring = MultigradedRing(names, ((1,),) * n)
    budget = math.comb(n, 1) + math.comb(n, 2) + math.comb(n, 3)
    tried = 0

    def counted(pool, size):
        nonlocal tried
        for sub in itertools.combinations(pool, size):
            if len(pool) == n:
                tried += 1
                assert tried <= budget, "tried a subset that cannot be a minimal non-face"
            yield sub

    monkeypatch.setattr(mreg.localcoh, "itertools", types.SimpleNamespace(combinations=counted))
    gens = stanley_reisner_ideal(cycle, ring)
    # the non-edges, in the order of their vertex pairs; no triangle is a face
    non_edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if j - i not in (1, n - 1)]
    assert len(non_edges) == 252
    assert gens == [{tuple(int(k in pair) for k in range(n)): ring.field.one} for pair in non_edges]


def test_homology_field_independent_here(four_cycle):
    # the shipped examples are characteristic-free; sanity check three fields
    from mreg import QQ

    for K in (QQ, FieldDescriptor("prime", 2), FieldDescriptor("prime", 32003)):
        ranks = reduced_homology_ranks(four_cycle, K)
        assert ranks == {-1: 0, 0: 0, 1: 1}


def test_hochster_needs_ring_variables(four_cycle):
    other = MultigradedRing(("a", "b"), ((1,), (1,)))
    with pytest.raises(InputError):
        hochster_supports(four_cycle, other)


def _support_one_index(K, R, i):
    """Hochster's support for one i, from each face's link built as a complex."""
    out = []
    for face in K.sorted_faces():
        want = i - len(face) - 1
        if want < -1:
            continue
        link = K.link_faces(face)
        facets = tuple(tuple(f) for f in link if not any(f < g for g in link))
        ranks = reduced_homology_ranks(SimplicialComplex(K.vertices, facets), R.field)
        if ranks.get(want, 0):
            out.append((face, ranks[want]))
    return out


def _hochster_corpus(p1p1):
    """The squarefree corpus plus seeded random complexes on the P^1 x P^1 and (P^1)^3 variables."""
    out = [(K, ring) for K, ring, _ in squarefree_corpus(p1p1)]
    trigraded = MultigradedRing(
        ("x0", "x1", "y0", "y1", "z0", "z1"),
        ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
    )
    cycle = ("x0", "y0", "z0", "x1", "y1", "z1")
    edges = [trigraded.parse(f"{a}*{b}") for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    out.append((complex_from_squarefree_ideal(trigraded, edges), trigraded))
    rng = random.Random(777)
    for ring in (p1p1, trigraded) * 4:
        verts = ring.variables
        facets = tuple(tuple(rng.sample(verts, rng.randint(1, 3))) for _ in range(rng.randint(1, 5)))
        out.append((SimplicialComplex(verts, facets), ring))
    return out


def test_hochster_supports_match_the_one_index_definition(p1p1):
    for K, ring in _hochster_corpus(p1p1):
        supports = hochster_supports(K, ring)
        assert len(supports) == ring.n + 1
        for i in range(ring.n + 1):
            assert supports[i] == _support_one_index(K, ring, i), (K.facets, i)
        # no face supports an index outside 0..n
        for i in (-1, ring.n + 1):
            assert _support_one_index(K, ring, i) == [], (K.facets, i)
        v = find_positive_coarsening_vector(ring.degrees)
        weights = dict(zip(ring.variables, ring.vdegs(v)))
        expected_ai = tuple(
            max((-sum(weights[x] for x in face) for face, _ in supports[i]), default=None)
            for i in range(ring.n + 1)
        )
        assert a_invariants_hochster(K, ring, v).values == expected_ai


def test_hochster_link_homology_once_per_face(p1p1, monkeypatch):
    import mreg.localcoh

    original = mreg.localcoh._homology_from_faces
    calls = []

    def counted(faces, *args):
        calls.append(frozenset(faces))
        return original(faces, *args)

    monkeypatch.setattr(mreg.localcoh, "_homology_from_faces", counted)
    for K, ring in _hochster_corpus(p1p1):
        calls.clear()
        a_invariants_hochster(K, ring, find_positive_coarsening_vector(ring.degrees))
        links = [frozenset(K.link_faces(f)) for f in K.sorted_faces()]
        assert len(calls) == len(K.faces())
        assert sorted(calls, key=sorted) == sorted(links, key=sorted)


def test_hochster_route_link_homology_once_per_face_across_vectors(p1p1, monkeypatch):
    original = mreg.localcoh._homology_from_faces
    calls = []

    def counted(faces, *args):
        calls.append(frozenset(faces))
        return original(faces, *args)

    monkeypatch.setattr(mreg.localcoh, "_homology_from_faces", counted)
    for K, ring, vectors in squarefree_corpus(p1p1):
        P = ModulePresentation.quotient_by_ideal(ring, stanley_reisner_ideal(K, ring))
        clear_memos()
        calls.clear()
        for v in vectors:
            assert module_a_invariants(P, v, "hochster") == a_invariants_ext(P, v), (K.facets, v)
        assert len(calls) == len(K.faces()), K.facets


def test_hochster_route_memo_keys_on_the_field():
    # the six-vertex real projective plane: its links have homology over GF(2) only
    V = tuple(f"x{i}" for i in range(1, 7))
    facets = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))
    expected = {2: ((None, None, 0, 0, None, None, None), 3),
                32003: ((None, None, None, -1, None, None, None), 2)}
    for order in ((2, 32003), (32003, 2)):
        clear_memos()
        for p in order:
            R = MultigradedRing(V, ((1,),) * 6, FieldDescriptor("prime", p))
            K = SimplicialComplex(V, tuple(tuple(f"x{i}" for i in f) for f in facets))
            P = ModulePresentation.quotient_by_ideal(R, stanley_reisner_ideal(K, R))
            ai = module_a_invariants(P, (1,), "hochster")
            assert ai == a_invariants_hochster(K, R, (1,)) == a_invariants_ext(P, (1,)), (order, p)
            assert (ai.values, regnum_module(P, (1,), "hochster")) == expected[p], (order, p)
            assert regnum_module(P, (1,)) == expected[p][1]
