import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mreg import (
    GradingError,
    InputError,
    Limits,
    ModulePresentation,
    MultigradedRing,
    ResourceLimitError,
    ZeroModuleError,
    coarsening_constants,
    degree_bound_set,
    degree_bound_sets,
    enumerate_bounded_region,
    find_positive_coarsening_vector,
    intersect_degree_bounds,
    load_problem,
    local_cohomology_piece_dimension,
    minimal_coarsening_set,
    minimalize_presentation,
    positive_coarsening_candidates,
    regnum_free,
    regnum_module,
    regnum_ring,
    regularity_report,
    scalar_coarsening_report,
    syzygy_degree_bound,
    vreg_membership,
)
import mreg.localcoh
import mreg.regularity
import mreg.resolution
from mreg.resolution import first_syzygy_presentation
from tests.conftest import clear_memos, hirzebruch_ring

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def test_coarsening_constants_examples(bigraded_xy):
    H2 = hirzebruch_ring(2)
    cv = coarsening_constants(H2, (1, 3))
    assert (cv.c_v, cv.s_v, cv.sigma) == (3, 6, 6)
    cu = coarsening_constants(H2, (1, 4))
    assert (cu.c_v, cu.s_v, cu.sigma) == (4, 8, 8)
    std = coarsening_constants(bigraded_xy, (1, 1))
    assert (std.c_v, std.s_v) == (1, 1)
    with pytest.raises(GradingError):
        coarsening_constants(H2, (1, 1))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(2, 4))
@settings(max_examples=60)
def test_constants_scale_linearly(weights, d):
    # c and s computed from the weights directly scale by d
    from math import gcd

    def lcm_list(ws):
        out = 1
        for w in ws:
            out = out * w // gcd(out, w)
        return out

    n = len(weights)
    c, sigma = lcm_list(weights), sum(weights)
    s = max(n * c - sigma, c)
    cd = lcm_list([d * w for w in weights])
    sd = max(n * cd - d * sigma, cd)
    assert cd == d * c
    assert sd == d * s


def test_regnum_ring_examples(weighted44):
    assert regnum_ring(weighted44, (1,)) == -3
    for s in (1, 2, 3):
        H = hirzebruch_ring(s)
        assert regnum_ring(H, (1, s + 1)) == 2 * s
        assert regnum_ring(H, (1, 2 * s)) == 3 * s - 1
    std = hirzebruch_ring(1)  # any ring works; standard graded below
    from mreg import MultigradedRing

    for n in (1, 2, 3, 5):
        R = MultigradedRing(tuple(f"x{i}" for i in range(n)), ((1,),) * n)
        assert regnum_ring(R, (1,)) == 0


def test_regnum_free_examples(bigraded_xy):
    shifts = [(1, 0), (0, 1)]
    assert regnum_free(shifts, bigraded_xy, (1, 1)) == 1
    assert regnum_free(shifts, bigraded_xy, (5, 3)) == 13
    assert regnum_free([(0, 0)], bigraded_xy, (1, 1)) == regnum_ring(bigraded_xy, (1, 1))
    with pytest.raises(InputError):
        regnum_free([], bigraded_xy, (1, 1))


def test_regnum_module_examples(koszul_module, hirzebruch_module, p1p1):
    assert regnum_module(koszul_module, (2, 3)) == 7
    assert regnum_module(hirzebruch_module, (1, 3)) == 4
    trivial = ModulePresentation.free_module(p1p1, [(0, 0)])
    assert regnum_module(trivial, (1, 1)) == regnum_ring(p1p1, (1, 1))


def test_regnum_module_free_consistency(bigraded_xy):
    shifts = [(1, 0), (0, 1)]
    free = ModulePresentation.free_module(bigraded_xy, shifts)
    for v in ((1, 1), (5, 3), (2, 7)):
        assert regnum_module(free, v) == regnum_free(shifts, bigraded_xy, v)


def test_regnum_module_rejects_zero(p1p1):
    unit = ModulePresentation.quotient_by_ideal(p1p1, [{(0, 0, 0, 0): 1}])
    with pytest.raises(ZeroModuleError):
        regnum_module(unit, (1, 1))


def test_vreg_membership_examples(weighted44):
    P = ModulePresentation.free_module(weighted44, [(0,)])
    assert vreg_membership(P, (1,), -5) is True
    assert vreg_membership(P, (1,), -4) is False
    assert vreg_membership(P, (1,), -3) is True


def test_membership_threshold_coherence(full_corpus):
    for P in full_corpus:
        v = find_positive_coarsening_vector(P.ring.degrees)
        cst = coarsening_constants(P.ring, v)
        r = regnum_module(P, v)
        assert vreg_membership(P, v, r - 1) is False
        for q in (r, r + 1, r + cst.c_v):
            assert vreg_membership(P, v, q) is True


def test_syzygy_degree_bound_examples(p1p1, koszul_module):
    cst = coarsening_constants(p1p1, (1, 1))
    r = regnum_module(koszul_module, (1, 1))
    assert syzygy_degree_bound(r, cst, 0) == 2
    assert syzygy_degree_bound(r, cst, 1) == 3
    H2 = hirzebruch_ring(2)
    cst_h = coarsening_constants(H2, (1, 3))
    assert syzygy_degree_bound(4, cst_h, 1) == 4 + 6 + 3 - 1
    with pytest.raises(InputError):
        syzygy_degree_bound(r, cst, -1)


def test_degree_bound_set_examples(koszul_module, eight_point_module, p1p1):
    d0 = degree_bound_set(koszul_module, (1, 1), 0)
    assert set(d0.degrees) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    d8 = degree_bound_set(eight_point_module, (1, 1), 0)
    assert set(d8.degrees) == {(a, b) for a in range(5) for b in range(5) if a + b <= 4}
    trivial = ModulePresentation.free_module(p1p1, [(0, 0)])
    dt = degree_bound_set(trivial, (1, 1), 0)
    assert set(dt.degrees) == {(0, 0)}


def test_intersect_degree_bounds(koszul_module, hirzebruch_module):
    both = intersect_degree_bounds(koszul_module, [(1, 1), (2, 3)], 1)
    only_one = degree_bound_set(koszul_module, (1, 1), 1)
    assert set(both.degrees) == set(only_one.degrees)

    single = intersect_degree_bounds(koszul_module, [(2, 3)], 1)
    assert set(single.degrees) == set(degree_bound_set(koszul_module, (2, 3), 1).degrees)

    hz = intersect_degree_bounds(hirzebruch_module, [(1, 3), (1, 4)], 1)
    for v in ((1, 3), (1, 4)):
        assert set(hz.degrees) <= set(degree_bound_set(hirzebruch_module, v, 1).degrees)

    with pytest.raises(InputError):
        intersect_degree_bounds(koszul_module, [], 0)


def test_minimal_coarsening_set_examples(koszul_module, p1p1):
    kept = minimal_coarsening_set(koszul_module, box=4, i_range=(0, 1, 2))
    assert kept == [(1, 1)]

    trivial = ModulePresentation.free_module(p1p1, [(0, 0)])
    kept_trivial = minimal_coarsening_set(trivial, box=2, i_range=(0,))
    assert len(kept_trivial) == 1

    only = minimal_coarsening_set(koszul_module, candidates=[(2, 3)], i_range=(0, 1))
    assert only == [(2, 3)]


def test_minimal_coarsening_set_needs_a_homological_index(koszul_module):
    with pytest.raises(InputError, match="no homological indices"):
        minimal_coarsening_set(koszul_module, box=2, i_range=())


def test_minimal_set_still_cuts_the_full_intersection(hirzebruch_module):
    i_range = (0, 1, 2)
    candidates = positive_coarsening_candidates(hirzebruch_module.ring.degrees, 4)
    kept = minimal_coarsening_set(hirzebruch_module, candidates=candidates, i_range=i_range)
    assert set(kept) <= set(candidates)
    for i in i_range:
        full = set(intersect_degree_bounds(hirzebruch_module, candidates, i).degrees)
        reduced = set(intersect_degree_bounds(hirzebruch_module, kept, i).degrees)
        assert full == reduced


def test_scalar_report_examples(koszul_module):
    rep = scalar_coarsening_report(koszul_module, (1, 1), 2)
    assert rep.regnum_v == 2 and rep.regnum_dv == 3
    assert rep.regnum_identity_holds
    assert all(eq for _, eq in rep.set_comparisons)

    rep1 = scalar_coarsening_report(koszul_module, (1, 1), 1, i_range=(0,))
    assert rep1.regnum_v == rep1.regnum_dv and rep1.regnum_identity_holds

    rep3 = scalar_coarsening_report(koszul_module, (1, 1), 3, i_range=(0, 1, 2))
    assert rep3.regnum_identity_holds and all(eq for _, eq in rep3.set_comparisons)


def test_scalar_vanishing_between_multiples(koszul_module):
    # coarsening by 2v kills every graded piece in odd degrees
    for q in range(-9, 6):
        if q % 2:
            assert local_cohomology_piece_dimension(koszul_module, (2, 2), 2, q) == 0


def test_dp_minus_ell_membership(koszul_module, hirzebruch_module):
    for P, v in ((koszul_module, (1, 1)), (hirzebruch_module, (1, 3))):
        p = regnum_module(P, v)
        assert vreg_membership(P, v, p)
        for d in (2, 3):
            dv = tuple(d * x for x in v)
            for ell in range(d):
                assert vreg_membership(P, dv, d * p - ell), (v, d, ell)


def test_exact_sequence_inequalities(full_corpus):
    # 0 -> M1 -> F -> M -> 0 built from the free cover of each corpus module
    for P in full_corpus:
        ring = P.ring
        v = find_positive_coarsening_vector(ring.degrees)
        cst = coarsening_constants(ring, v)
        M1, cover_shifts, _ = first_syzygy_presentation(P)
        if M1 is None:
            continue
        r_m = regnum_module(P, v)
        r_f = regnum_free(cover_shifts, ring, v)
        r_m1 = regnum_module(M1, v)
        assert r_m <= max(r_f, r_m1 - cst.c_v)
        assert r_f <= max(r_m1, r_m)
        assert r_m1 <= max(r_f, r_m + cst.c_v)


def test_main_containment_light(koszul_module, hirzebruch_module):
    # every nonzero Betti multidegree lands in its degree-bound set
    from mreg import betti_table, cached_minimal_resolution

    for P, vecs in (
        (koszul_module, [(1, 1), (2, 3)]),
        (hirzebruch_module, [(1, 3), (1, 4)]),
    ):
        B = betti_table(cached_minimal_resolution(P))
        for v in vecs:
            for i, a, _ in B.positions():
                assert a in set(degree_bound_set(P, v, i).degrees), (v, i, a)


def test_report_shape(koszul_module):
    rep = regularity_report(koszul_module, (1, 1))
    js = rep.to_json()
    assert js["regnum"] == 2 and js["lower_bound"] == 2
    assert js["c"] == 1 and js["s"] == 1 and js["sigma"] == 4
    assert js["bounds"]["0"] == 2
    assert any(item["finite"] for item in js["a_invariants"])


def test_finite_length_module(bigraded_xy):
    # S/(x, y) is the base field: only H^0 survives, concentrated in degree 0
    P = ModulePresentation.quotient_by_ideal(
        bigraded_xy, [bigraded_xy.parse("x"), bigraded_xy.parse("y")]
    )
    from mreg import a_invariants_ext

    ai = a_invariants_ext(P, (1, 1))
    assert ai.values == (0, None, None)
    assert regnum_module(P, (1, 1)) == 0
    assert vreg_membership(P, (1, 1), 0) and not vreg_membership(P, (1, 1), -1)


def test_rational_field_end_to_end():
    from mreg import QQ, MultigradedRing, a_invariants_ext

    R = MultigradedRing(("x0", "x1", "y0", "y1"), ((1, 0), (1, 0), (0, 1), (0, 1)), QQ)
    P = ModulePresentation.quotient_by_ideal(R, [R.parse("x0*x1"), R.parse("y0*y1")])
    assert regnum_module(P, (1, 1)) == 2
    assert a_invariants_ext(P, (2, 3)).values == (None, None, 0, None, None)
    assert set(degree_bound_set(P, (1, 1), 0).degrees) == {
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
    }


def test_generator_degrees_default_bases(eight_point_module):
    gens = minimalize_presentation(eight_point_module).shifts
    assert gens == ((0, 0),)
    d = degree_bound_set(eight_point_module, (1, 1), 0)
    assert d.bases == ((0, 0),)


def test_caps_are_part_of_the_memo_key(count_calls, p1p1):
    from mreg import PointSet, cached_minimal_resolution, quotient_presentation

    # coordinates no other test uses, so no earlier test has memoized the module
    coords = [(11, 12), (11, 13), (14, 12), (15, 16), (17, 18)]
    P = quotient_presentation(PointSet((1, 1), tuple(((1, i), (1, j)) for i, j in coords)), p1p1)
    resolutions = count_calls(mreg.resolution, "minimal_free_resolution")
    ext_runs = count_calls(mreg.localcoh, "cached_minimal_resolution")

    def report_runs(limits=Limits()):
        before = len(resolutions), len(ext_runs)
        report = regularity_report(P, (1, 1), limits=limits)
        return report, (len(resolutions) - before[0], len(ext_runs) - before[1])

    # a call its caps stop stores nothing, so the same call computes again
    for limits in (Limits(max_degree=1), Limits(max_length=1)):
        for _ in range(2):
            before = len(resolutions)
            with pytest.raises(ResourceLimitError):
                regularity_report(P, (1, 1), limits=limits)
            assert len(resolutions) == before + 1
    capped, runs = report_runs(Limits(max_degree=50, max_length=4))
    assert runs == (1, 1)
    assert report_runs(Limits(max_degree=50, max_length=4)) == (capped, (0, 0))
    # a capped entry serves neither an uncapped call nor other caps
    uncapped, runs = report_runs()
    assert uncapped == capped and runs == (1, 1)
    assert report_runs(Limits(max_degree=60, max_length=4)) == (capped, (1, 1))
    assert report_runs(Limits(max_degree=50)) == (capped, (1, 1))
    assert report_runs() == (capped, (0, 0))
    # positional and keyword calls find the same entry
    count = len(resolutions)
    cached_minimal_resolution(P)
    cached_minimal_resolution(P, limits=Limits(max_degree=50, max_length=4))
    assert len(resolutions) == count
    # the default and an explicit unlimited Limits() share one entry
    clear_memos()
    cached_minimal_resolution(P)
    cached_minimal_resolution(P, Limits())
    assert len(resolutions) == count + 1


def test_capped_coarsening_work_resolves_once(count_calls):
    P = load_problem(str(PROBLEMS / "eight-points.json")).presentation()
    caps = {"limits": Limits(max_degree=1000, max_length=10)}
    calls = count_calls(mreg.resolution, "minimal_free_resolution")
    for run in (
        lambda: minimal_coarsening_set(P, box=5, **caps),
        lambda: regularity_report(P, (1, 1), **caps),
        lambda: scalar_coarsening_report(P, (1, 1), 2, **caps),
    ):
        clear_memos()
        calls.clear()
        run()
        assert calls == [caps]


def _six_cycle_module():
    """The edge ideal of a six-cycle in the trigraded ring of (P^1)^3."""
    R = MultigradedRing(
        ("x0", "x1", "y0", "y1", "z0", "z1"),
        ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
    )
    cycle = ("x0", "y0", "z0", "x1", "y1", "z1")
    edges = zip(cycle, cycle[1:] + cycle[:1])
    return ModulePresentation.quotient_by_ideal(R, [R.parse(f"{a}*{b}") for a, b in edges])


def _sweep_modules():
    """The shipped problems and the trigraded six-cycle, with a candidate box each."""
    out = [(path.stem, load_problem(path).presentation(), 4) for path in sorted(PROBLEMS.glob("*.json"))]
    out.append(("six-cycle", _six_cycle_module(), 2))
    return out


def _greedy_family(P, candidates, i_range):
    """Greedy elimination over degree sets computed one index at a time."""
    dsets = {
        v: {i: frozenset(degree_bound_set(P, v, i).degrees) for i in i_range}
        for v in candidates
    }

    def meet(family, i):
        return frozenset.intersection(*(dsets[v][i] for v in family))

    target = {i: meet(candidates, i) for i in i_range}
    kept = list(candidates)
    for v in sorted(candidates, reverse=True):
        trial = [u for u in kept if u != v]
        if trial and all(meet(trial, i) == target[i] for i in i_range):
            kept = trial
    return sorted(kept)


def test_minimal_coarsening_set_matches_greedy_over_single_levels():
    for name, P, box in _sweep_modules():
        candidates = positive_coarsening_candidates(P.ring.degrees, box)
        for i_range in ((0, 1, 2), (1, 3)):
            expected = _greedy_family(P, candidates, i_range)
            assert minimal_coarsening_set(P, candidates=candidates, i_range=i_range) == expected, name


def test_degree_bound_sets_equal_single_level_sets():
    for name, P, box in _sweep_modules():
        for v in positive_coarsening_candidates(P.ring.degrees, box)[:4]:
            indices = (0, 1, 2, 3)
            sets = degree_bound_sets(P, v, indices)
            assert sets == tuple(degree_bound_set(P, v, i) for i in indices), (name, v)
            assert len({s.bound for s in sets}) == len(indices)
            assert degree_bound_sets(P, v, (2, 0, 2)) == (sets[2], sets[0], sets[2])
            assert degree_bound_sets(P, v, ()) == ()


def test_degree_bounds_meet_the_cap_before_any_enumeration(koszul_module, monkeypatch):
    import mreg.grading
    import mreg.regularity

    top = degree_bound_set(koszul_module, (1, 1), 2).bound
    clear_memos()
    built, steps = [], []
    region_class, step = mreg.regularity.LatticeRegion, mreg.grading._step

    def counted_region(*args):
        built.append(args)
        return region_class(*args)

    def counted_step(codes, delta):
        steps.append(len(codes))
        return step(codes, delta)

    monkeypatch.setattr(mreg.regularity, "LatticeRegion", counted_region)
    monkeypatch.setattr(mreg.grading, "_step", counted_step)
    with pytest.raises(ResourceLimitError):
        degree_bound_sets(koszul_module, (1, 1), (0, 1, 2), limits=Limits(max_degree=top - 1))
    assert built == [] and steps == []
    capped = degree_bound_sets(koszul_module, (1, 1), (0, 1, 2), limits=Limits(max_degree=top))
    assert len(built) == 1 and steps
    assert capped == degree_bound_sets(koszul_module, (1, 1), (0, 1, 2))
    assert len(built) == 1


def test_region_memo_keys_on_the_module_and_bases(p1p1):
    renamed = MultigradedRing(("a0", "a1", "b0", "b1"), p1p1.degrees)
    P = ModulePresentation.quotient_by_ideal(p1p1, [p1p1.parse("x0*x1"), p1p1.parse("y0*y1")])
    Q = ModulePresentation.quotient_by_ideal(renamed, [renamed.parse("a0*a1"), renamed.parse("b0*b1")])
    memo = mreg.regularity._memo_region
    clear_memos()
    sets = degree_bound_sets(P, (1, 1), (0, 1))
    assert degree_bound_set(P, (1, 1), 2) == degree_bound_sets(P, (1, 1), (2,))[0]
    assert (memo.cache_info().hits, memo.cache_info().misses) == (2, 1)
    assert degree_bound_sets(Q, (1, 1), (0, 1)) == sets  # equal numbers, a region of its own
    assert memo.cache_info().misses == 2
    assert memo(Q, sets[0].bases, (1, 1)) is not memo(P, sets[0].bases, (1, 1))
    assert memo.cache_info().misses == 3
    other = memo(P, ((1, 0),), (1, 1))  # the bases are part of the key
    assert memo.cache_info().misses == 4
    assert other.points(5) == enumerate_bounded_region(((1, 0),), p1p1.degrees, (1, 1), 5).bases
