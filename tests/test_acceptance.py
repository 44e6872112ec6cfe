"""Acceptance suite: one test per published criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v` (or -s for the explicit
PASS lines).  Every assertion is exact integer or set equality; nothing is
checked against a tolerance band.
"""

import pytest

from mreg import (
    ModulePresentation,
    MultigradedRing,
    a_invariants_ext,
    a_invariants_hochster,
    b_regularity_region,
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    coarsening_constants,
    connections_check,
    degree_bound_set,
    find_positive_coarsening_vector,
    graded_piece_dimension,
    hilbert_function_points,
    minimal_coarsening_set,
    positive_coarsening_candidates,
    regnum_free,
    regnum_lower_bound,
    regnum_module,
    regnum_ring,
    res_reg_vector_points,
    stanley_reisner_ideal,
    vreg_membership,
)
from mreg.poly import mono_divides, monomials_of_weight
from mreg.resolution import first_syzygy_presentation
from tests.conftest import hirzebruch_ring
from tests.test_localcoh import squarefree_corpus
from tests.test_points import EIGHT_POINT_WINDOW, FOUR_POINT_WINDOW


def _ok(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_closed_form_regularity_numbers(weighted44):
    assert regnum_ring(weighted44, (1,)) == -3
    P = ModulePresentation.free_module(weighted44, [(0,)])
    assert vreg_membership(P, (1,), -5) is True
    assert vreg_membership(P, (1,), -4) is False
    assert vreg_membership(P, (1,), -3) is True
    for s in (1, 2, 3):
        H = hirzebruch_ring(s)
        assert regnum_ring(H, (1, s + 1)) == 2 * s
        assert regnum_ring(H, (1, 2 * s)) == 3 * s - 1
    _ok(1, "closed-form regularity numbers and membership gaps")


def test_criterion_02_four_cycle_ladder(p1p1, koszul_module, four_cycle):
    for a, b in ((1, 1), (2, 3), (3, 5)):
        hoch = a_invariants_hochster(four_cycle, p1p1, (a, b))
        ext = a_invariants_ext(koszul_module, (a, b))
        assert hoch.values == ext.values
        assert ext.get(2) == 0
        assert all(ext.get(i) is None for i in range(p1p1.n + 1) if i != 2)
        assert regnum_module(koszul_module, (a, b)) == a * b + 1
    _ok(2, "four-cycle ladder: both routes, regnum = ab + 1")


def test_criterion_03_hirzebruch_module():
    for s in (1, 2, 3):
        H = hirzebruch_ring(s)
        P = ModulePresentation.quotient_by_ideal(
            H, [H.parse("x1*x2"), H.parse("x3*x4")]
        )
        assert regnum_module(P, (1, s + 1)) == s + 2
    _ok(3, "Hirzebruch quotient regnum = s + 2")


def test_criterion_04_point_set_examples(
    four_points, eight_points, koszul_module, eight_point_module
):
    for j, row in enumerate(FOUR_POINT_WINDOW):
        for i, val in enumerate(row):
            assert hilbert_function_points(four_points, (i, j)) == val
    for j, row in enumerate(EIGHT_POINT_WINDOW):
        for i, val in enumerate(row):
            assert hilbert_function_points(eight_points, (i, j)) == val
    assert b_regularity_region(four_points, (8, 8)).bases == ((1, 1),)
    assert b_regularity_region(eight_points, (10, 10)).bases == ((4, 3),)
    assert res_reg_vector_points(four_points) == (1, 1)
    assert res_reg_vector_points(eight_points) == (4, 3)
    Bz = betti_table(coarsen_resolution(cached_minimal_resolution(eight_point_module), (1, 1)))
    assert sorted(j for (i, j), _ in Bz.entries if i == 1) == [2, 4, 5]
    assert sorted(j for (i, j), _ in Bz.entries if i == 2) == [5, 6]
    assert regnum_module(koszul_module, (1, 1)) == 2
    assert regnum_module(eight_point_module, (1, 1)) == 4
    _ok(4, "printed Hilbert matrices, regions, vectors, shifts, regnums")


def test_criterion_05_main_containment(full_corpus):
    checked = 0
    for P in full_corpus:
        B = betti_table(cached_minimal_resolution(P))
        for v in positive_coarsening_candidates(P.ring.degrees, box=5):
            sets = {}
            for i, a, _ in B.positions():
                if i not in sets:
                    sets[i] = set(degree_bound_set(P, v, i).degrees)
                assert a in sets[i], (P.shifts, v, i, a)
                checked += 1
    assert checked > 100
    _ok(5, f"containment of every Betti multidegree ({checked} checks)")


def test_criterion_06_scalar_laws(full_corpus):
    for P in full_corpus:
        v = find_positive_coarsening_vector(P.ring.degrees)
        rv = regnum_module(P, v)
        for d in (2, 3):
            dv = tuple(d * x for x in v)
            assert regnum_module(P, dv) == d * rv - d + 1
            for i in (0, 1, 2):
                set_v = set(degree_bound_set(P, v, i).degrees)
                set_dv = set(degree_bound_set(P, dv, i).degrees)
                assert set_v == set_dv, (P.shifts, d, i)
    _ok(6, "scalar laws for regnum and degree-bound sets, d in {2, 3}")


def test_criterion_07_lower_bound(full_corpus, koszul_module, eight_point_module, bigraded_xy):
    for P in full_corpus:
        for v in positive_coarsening_candidates(P.ring.degrees, box=3):
            cst = coarsening_constants(P.ring, v)
            Bz = betti_table(coarsen_resolution(cached_minimal_resolution(P), v))
            assert regnum_lower_bound(Bz, cst.c_v, cst.s_v) <= regnum_module(P, v)
    for P in (koszul_module, eight_point_module):
        Bz = betti_table(coarsen_resolution(cached_minimal_resolution(P), (1, 1)))
        assert regnum_lower_bound(Bz, 1, 1) == regnum_module(P, (1, 1))
    free = ModulePresentation.free_module(bigraded_xy, [(1, 0), (0, 1)])
    cst = coarsening_constants(bigraded_xy, (5, 3))
    Bf = betti_table(coarsen_resolution(cached_minimal_resolution(free), (5, 3)))
    low = regnum_lower_bound(Bf, cst.c_v, cst.s_v)
    reg = regnum_module(free, (5, 3))
    assert low == -9 and reg == 13 and low < reg
    assert regnum_free([(1, 0), (0, 1)], bigraded_xy, (5, 3)) == 13
    _ok(7, "resolution lower bound: <= everywhere, tight and strict as printed")


def test_criterion_08_exact_sequence_inequalities(full_corpus):
    for P in full_corpus:
        v = find_positive_coarsening_vector(P.ring.degrees)
        cst = coarsening_constants(P.ring, v)
        M1, cover_shifts, _ = first_syzygy_presentation(P)
        if M1 is None:
            continue
        r_m = regnum_module(P, v)
        r_f = regnum_free(cover_shifts, P.ring, v)
        r_m1 = regnum_module(M1, v)
        assert r_m <= max(r_f, r_m1 - cst.c_v)
        assert r_f <= max(r_m1, r_m)
        assert r_m1 <= max(r_f, r_m + cst.c_v)
    _ok(8, "short-exact-sequence inequalities on free covers")


def test_criterion_09_minimal_coarsening_set(koszul_module):
    kept = minimal_coarsening_set(koszul_module, box=4, i_range=(0, 1, 2))
    assert kept == [(1, 1)]
    _ok(9, "minimal coarsening family {(1,1)} from the box-4 candidates")


def test_criterion_10_connections_theorem(four_points, eight_points):
    assert connections_check(eight_points, (10, 10)).holds
    assert connections_check(four_points, (10, 10)).holds
    _ok(10, "resolution vector bound and shifted-region containment")


def test_criterion_11_oracle_duplication(p1p1, monomial_corpus):
    for K, ring, vectors in squarefree_corpus(p1p1):
        gens = stanley_reisner_ideal(K, ring)
        P = (
            ModulePresentation.quotient_by_ideal(ring, gens)
            if gens
            else ModulePresentation.free_module(ring, [(0,) * ring.r])
        )
        for v in vectors:
            assert a_invariants_hochster(K, ring, v).values == a_invariants_ext(P, v).values
    for P in monomial_corpus:
        v = find_positive_coarsening_vector(P.ring.degrees)
        weights = P.ring.vdegs(v)
        gens = [next(iter(rel))[1] for rel in P.relations]
        for m in range(0, 13):
            brute = sum(
                1
                for e in monomials_of_weight(weights, m)
                if not any(mono_divides(g, e) for g in gens)
            )
            assert graded_piece_dimension(P, v, m) == brute
    _ok(11, "Hochster vs Ext agreement and graded pieces vs raw counting")
