import pathlib
import random
from itertools import product
from math import comb, prod

import pytest

import mreg.points
import mreg.resolution
from mreg import (
    InputError,
    InsufficientBoxError,
    Limits,
    ModuleCtx,
    MregError,
    PointSet,
    ResourceLimitError,
    b_regularity_region,
    betti_table,
    cached_minimal_resolution,
    connections_check,
    generic_position_check,
    generic_regularity_formula,
    graded_piece_dimension,
    hilbert_function_points,
    load_problem,
    multiproj_ring,
    point_ideal,
    poly_to_vec,
    quotient_presentation,
    regnum_module,
    res_reg_vector_points,
    resolution_regularity_vector,
)
from mreg.groebner import buchberger
from mreg.poly import QQ, FieldDescriptor
from tests.conftest import clear_memos, normal_form

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

# Hilbert values frozen from the two worked examples: entry [j][i] = H(i, j)
FOUR_POINT_WINDOW = [
    [1, 2, 2],
    [2, 4, 4],
    [2, 4, 4],
]
EIGHT_POINT_WINDOW = [
    [1, 2, 3, 4, 5, 5],
    [2, 3, 4, 5, 6, 6],
    [3, 4, 5, 6, 7, 7],
    [4, 5, 6, 7, 8, 8],
    [4, 5, 6, 7, 8, 8],
]


def test_four_point_hilbert_matrix(four_points, p1p1):
    for j, row in enumerate(FOUR_POINT_WINDOW):
        for i, val in enumerate(row):
            assert hilbert_function_points(four_points, (i, j), p1p1) == val


def test_eight_point_hilbert_matrix(eight_points, p1p1):
    for j, row in enumerate(EIGHT_POINT_WINDOW):
        for i, val in enumerate(row):
            assert hilbert_function_points(eight_points, (i, j), p1p1) == val


def test_hilbert_origin_and_cap(four_points, eight_points, p1p1):
    assert hilbert_function_points(four_points, (0, 0), p1p1) == 1
    assert hilbert_function_points(eight_points, (0, 0), p1p1) == 1
    assert hilbert_function_points(eight_points, (4, 3), p1p1) == 8
    for i in range(6):
        for j in range(5):
            assert hilbert_function_points(eight_points, (i, j), p1p1) <= 8


@pytest.mark.parametrize("deg", [(2,), (2, 0, 5)])
def test_hilbert_rejects_a_degree_of_the_wrong_length(eight_points, p1p1, deg):
    with pytest.raises(InputError, match="one entry per factor"):
        hilbert_function_points(eight_points, deg, p1p1)
    with pytest.raises(InputError, match="one entry per factor"):
        generic_position_check(eight_points, (3,) * len(deg), p1p1)


def test_hilbert_respects_the_field():
    # (1,0,0), (1,1,1), (1,2,7) span a plane over QQ but lie on a line mod 5;
    # asked alternately, so the table of one field never answers for the other
    X = PointSet((2,), (((1, 0, 0),), ((1, 1, 1),), ((1, 2, 7),)))
    gf5, qq = multiproj_ring((2,), FieldDescriptor("prime", 5)), multiproj_ring((2,), QQ)
    assert [hilbert_function_points(X, (1,), ring) for ring in (gf5, qq, gf5, qq)] == [2, 3, 2, 3]


def test_hilbert_far_along_one_factor(eight_points, p1p1):
    # H(t, 0) counts the distinct x-projections for large t; every degree is
    # clamped to |X| - 1 in each factor, so a huge one costs no more than that
    assert hilbert_function_points(eight_points, (2000, 0), p1p1) == 5
    assert hilbert_function_points(eight_points, (10**9, 10**9), p1p1) == 8


def test_the_evaluation_table_is_bounded_by_the_clamp(eight_points, p1p1):
    clear_memos()
    assert hilbert_function_points(eight_points, (10**9, 10**9), p1p1) == 8
    _, spaces = mreg.points._memo_spaces(eight_points, p1p1.field)
    assert len(spaces) <= len(eight_points) ** 2


def test_points_not_distinct_over_the_field_raise_on_every_call():
    # (1:0) and (1:5) are one point mod 5, two over QQ
    X = PointSet((1,), (((1, 0),), ((1, 5),)))
    gf5 = multiproj_ring((1,), FieldDescriptor("prime", 5))
    for _ in range(2):
        with pytest.raises(InputError, match="one entry per factor"):
            hilbert_function_points(X, (3, 1), gf5)
        with pytest.raises(InputError, match="not pairwise distinct over the field"):
            hilbert_function_points(X, (3,), gf5)
        with pytest.raises(InputError, match="not pairwise distinct over the field"):
            generic_position_check(X, (2,), gf5)
    assert hilbert_function_points(X, (3,), multiproj_ring((1,), QQ)) == 2


def test_generic_check_grows_each_clamped_degree_once(count_calls):
    # the box (n+1, n+1) clamps to the n x n degrees below (n, n), and the
    # graded pieces a points report asks after the check are all among them
    rng = random.Random(11)
    n = 5
    X = PointSet((1, 1), tuple(((1, rng.randint(1, 31000)), (1, rng.randint(1, 31000)))
                               for _ in range(n)))
    ring = multiproj_ring((1, 1))
    clear_memos()
    products = count_calls(mreg.points, "_times_linear_forms")
    generic_position_check(X, (n + 1, n + 1), ring)
    assert 0 < len(products) <= n * n - 1
    products.clear()
    for m in (1, 2, 3):
        for i in range(m + 1):
            hilbert_function_points(X, (i, m - i), ring)
    assert products == []


# -- the evaluation-matrix oracle ----------------------------------------------
# H_X(d) as the rank of the matrix of all degree-d monomials evaluated at the
# normalized points, and the region and generic checks read off those ranks
# one degree at a time: an independent route to every value of the sweep.

def oracle_hilbert(X, deg, K):
    points = X.normalized(K)
    blocks = [[e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d]
              for d, n in zip(deg, X.dims)]
    # values[f][p][i]: the i-th degree-d_f monomial of factor f at point p
    values = []
    for f, block in enumerate(blocks):
        values.append([])
        for pt in points:
            row = []
            for e in block:
                val = K.one
                for c, k in zip(pt[f], e):
                    for _ in range(k):
                        val = K.mul(val, c)
                row.append(val)
            values[-1].append(row)
    # the rank of the columns, one monomial at a time, stopping at full rank;
    # each kept row is zero at the pivots of the rows kept before it
    rows = {}
    for idx in product(*(range(len(b)) for b in blocks)):
        w = []
        for p in range(len(points)):
            val = K.one
            for f, i in enumerate(idx):
                val = K.mul(val, values[f][p][i])
            w.append(val)
        for pivot, row in rows.items():
            if w[pivot]:
                c = w[pivot]
                w = [K.sub(a, K.mul(c, b)) for a, b in zip(w, row)]
        pivot = next((p for p, a in enumerate(w) if a), None)
        if pivot is not None:
            inv = K.inv(w[pivot])
            rows[pivot] = [K.mul(a, inv) for a in w]
            if len(rows) == len(points):
                break
    return len(rows)


def oracle_region(X, box, K):
    values = {deg: oracle_hilbert(X, deg, K) for deg in product(*(range(b + 1) for b in box))}
    inside = {deg for deg, h in values.items() if h == len(X)}
    if box not in inside:
        raise InsufficientBoxError(
            f"insufficient box {box}: the Hilbert function has not stabilized; use a larger box")
    for deg in inside:
        for k in range(len(box)):
            up = deg[:k] + (deg[k] + 1,) + deg[k + 1:]
            if up in values and up not in inside:
                raise InsufficientBoxError("region is not upward closed inside the box; enlarge the box")
    minimal = sorted(d for d in inside if not any(o != d and all(map(int.__le__, o, d)) for o in inside))
    for m in minimal:
        if any(m[k] == box[k] > 0 for k in range(len(box))):
            raise InsufficientBoxError(
                f"minimal element {m} touches the box boundary; enlarge the box to certify it")
    return tuple(minimal)


def oracle_generic(X, box, K):
    corner = oracle_hilbert(X, box, K)
    if corner != len(X):
        raise InsufficientBoxError(
            f"insufficient box {box}: Hilbert function is {corner} < {len(X)} at the corner")
    return all(oracle_hilbert(X, deg, K) == min(prod(map(comb, map(sum, zip(X.dims, deg)), X.dims)), len(X))
               for deg in product(*(range(b + 1) for b in box)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except MregError as e:
        return type(e).__name__, str(e)


ORACLE_FIELDS = {"gf32003": FieldDescriptor("prime", 32003), "gf5": FieldDescriptor("prime", 5),
                 "gf2": FieldDescriptor("prime", 2), "qq": QQ}


@pytest.mark.parametrize("field", ORACLE_FIELDS)
@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 1, 1)], ids=str)
def test_sweep_matches_the_evaluation_matrix_oracle(dims, field):
    K = ORACLE_FIELDS[field]
    ring = multiproj_ring(dims, K)
    rng = random.Random(f"{dims}:{field}")
    for _ in range(8):
        box = (rng.randint(1, 4),) * 2 if len(dims) == 2 else (rng.randint(1, 2),) * 3
        # small coordinates, so that coincidences, special position and
        # repeated points over the small fields all occur
        pts = tuple(tuple(tuple(rng.randint(0, 3) for _ in range(n + 1)) for n in dims)
                    for _ in range(rng.randint(1, 7)))
        pts = tuple(pt for pt in pts if all(any(c) for c in pt)) or (tuple((1,) + (0,) * n for n in dims),)
        X = PointSet(dims, pts)
        for deg in product(*(range(b + 1) for b in box)):
            assert outcome(hilbert_function_points, X, deg, ring) == outcome(oracle_hilbert, X, deg, K)
        assert (outcome(lambda: b_regularity_region(X, box, ring).bases)
                == outcome(oracle_region, X, box, K))
        assert outcome(generic_position_check, X, box, ring) == outcome(oracle_generic, X, box, K)


@pytest.mark.parametrize("field", ORACLE_FIELDS)
@pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)], ids=str)
def test_table_matches_the_oracle_past_the_clamp(dims, field):
    # every degree of a box reaching |X| + 2 in each factor, so past the
    # clamp at |X| - 1: one degree at a time in a shuffled order, then the
    # whole box as one sweep, each from a cold table
    K = ORACLE_FIELDS[field]
    ring = multiproj_ring(dims, K)
    rng = random.Random(f"clamp:{dims}:{field}")
    for count in range(1, 8):
        for _ in range(20):  # draw until distinct over K, if K has that many points
            pts = tuple(tuple(tuple(rng.randint(0, 3) for _ in range(n + 1)) for n in dims)
                        for _ in range(count))
            X = PointSet(dims, tuple(pt for pt in pts if all(map(any, pt)))
                         or (tuple((1,) + (0,) * n for n in dims),))
            if not isinstance(outcome(X.normalized, K), tuple):
                break
        box = (len(X) + 2,) * len(dims)
        degrees = list(product(*(range(b + 1) for b in box)))
        expected = {deg: outcome(oracle_hilbert, X, deg, K) for deg in degrees}
        clear_memos()
        rng.shuffle(degrees)
        assert {deg: outcome(hilbert_function_points, X, deg, ring) for deg in degrees} == expected
        clear_memos()
        assert outcome(mreg.points._hilbert_sweep, X, box, ring) == (
            next((e for e in expected.values() if isinstance(e, tuple)), expected))


def test_point_ideal_examples(four_points, p1p1):
    gens = point_ideal(four_points, p1p1)
    assert sorted(p1p1.poly_str(g) for g in gens) == ["x0*x1", "y0*y1"]

    single = PointSet((1, 1), (((1, 0), (1, 0)),))
    gens1 = point_ideal(single, p1p1)
    assert sorted(p1p1.poly_str(g) for g in gens1) == ["x1", "y1"]


def test_point_ideal_rejects_duplicates():
    with pytest.raises(InputError):
        PointSet((1, 1), (((1, 0), (1, 0)), ((2, 0), (1, 0)))).normalized(
            multiproj_ring((1, 1)).field
        )


def test_point_ideal_vanishes_on_points(eight_points, p1p1):
    gens = point_ideal(eight_points, p1p1)
    K = p1p1.field
    for pt in eight_points.normalized(K):
        flat = [c for factor in pt for c in factor]
        for g in gens:
            val = K.zero
            for mono, coeff in g.items():
                term = coeff
                for c, e in zip(flat, mono):
                    for _ in range(e):
                        term = K.mul(term, c)
                val = K.add(val, term)
            assert val == K.zero


def test_quotient_pieces_match_hilbert(eight_points, eight_point_module, p1p1):
    # coarse graded pieces are antidiagonal sums of the bigraded values
    for m in range(0, 6):
        total = sum(
            hilbert_function_points(eight_points, (i, m - i), p1p1) for i in range(m + 1)
        )
        assert graded_piece_dimension(eight_point_module, (1, 1), m) == total


def test_b_regularity_examples(four_points, eight_points, p1p1):
    assert b_regularity_region(four_points, (6, 6), p1p1).bases == ((1, 1),)
    assert b_regularity_region(eight_points, (10, 10), p1p1).bases == ((4, 3),)
    single = PointSet((1, 1), (((1, 2), (1, 5)),))
    assert b_regularity_region(single, (1, 1), p1p1).bases == ((0, 0),)


def test_b_regularity_insufficient_box(eight_points, p1p1):
    with pytest.raises(InsufficientBoxError):
        b_regularity_region(eight_points, (2, 2), p1p1)


def test_res_reg_vector_examples(four_points, eight_points, p1p1):
    assert res_reg_vector_points(eight_points, p1p1) == (4, 3)
    assert res_reg_vector_points(four_points, p1p1) == (1, 1)
    single = PointSet((1, 1), (((1, 7), (1, 3)),))
    assert res_reg_vector_points(single, p1p1) == (0, 0)


def test_res_reg_vector_matches_resolution(four_points, eight_points, p1p1):
    for X in (four_points, eight_points):
        P = quotient_presentation(X, p1p1)
        B = betti_table(cached_minimal_resolution(P))
        assert res_reg_vector_points(X, p1p1) == resolution_regularity_vector(B, p1p1)


def test_generic_position_examples(four_points, eight_points, p1p1):
    assert generic_position_check(four_points, (4, 4), p1p1) is False
    assert generic_position_check(eight_points, (8, 8), p1p1) is False
    single = PointSet((1, 1), (((1, 0), (1, 0)),))
    assert generic_position_check(single, (2, 2), p1p1) is True


def test_generic_regularity_formula():
    assert generic_regularity_formula((1, 1), 4) == 3
    assert generic_regularity_formula((3, 2), 1) == 0
    assert generic_regularity_formula((2,), 6) == 2
    with pytest.raises(InputError):
        generic_regularity_formula((1, 1), 0)


def test_random_generic_points_match_formula():
    # random points over GF(32003) are in generic position with high
    # probability; the seed below is checked to land there
    rng = random.Random(424243)
    ring = multiproj_ring((1, 1))
    for count in (2, 3, 5):
        pts = tuple(
            ((1, rng.randint(1, 31000)), (1, rng.randint(1, 31000)))
            for _ in range(count)
        )
        X = PointSet((1, 1), pts)
        box = (count + 1, count + 1)
        if not generic_position_check(X, box, ring):
            continue
        P = quotient_presentation(X, ring)
        assert regnum_module(P, (1, 1)) == generic_regularity_formula((1, 1), count)


def test_connections_examples(four_points, eight_points, p1p1):
    rep8 = connections_check(eight_points, (10, 10), p1p1)
    assert rep8.regnum == 4 and rep8.m == 2 and rep8.holds
    rep4 = connections_check(four_points, (10, 10), p1p1)
    assert rep4.regnum == 2 and rep4.m == 2 and rep4.holds
    single = PointSet((1, 1), (((1, 0), (0, 1)),))
    assert connections_check(single, (6, 6), p1p1).holds


@pytest.mark.parametrize("box", [(3,), (-1, 4)])
def test_connections_rejects_a_bad_box_before_any_work(box, eight_points, p1p1, count_calls):
    ideals = count_calls(mreg.points, "point_ideal")
    with pytest.raises(InputError, match="^box must be a componentwise nonnegative multidegree$"):
        connections_check(eight_points, box, p1p1)
    assert ideals == []
    with pytest.raises(InputError, match="^box must be a componentwise nonnegative multidegree$"):
        b_regularity_region(eight_points, box, p1p1)


def test_point_ideal_obeys_the_degree_cap(eight_points, p1p1):
    # the intersection of the eight point ideals reduces S-pairs of coarse
    # degree up to 6; no higher pair is queued
    with pytest.raises(ResourceLimitError, match="^S-pair of coarse degree 6 exceeds the degree cap 5$"):
        point_ideal(eight_points, p1p1, Limits(max_degree=5))
    assert point_ideal(eight_points, p1p1, Limits(max_degree=6)) == point_ideal(eight_points, p1p1)
    problem = load_problem(str(PROBLEMS / "eight-points.json"))
    with pytest.raises(ResourceLimitError):
        problem.presentation(Limits(max_degree=5))
    assert problem.presentation(Limits(max_degree=6)) == problem.presentation()


@pytest.mark.parametrize("field", [None, QQ], ids=["file", "qq"])
def test_point_file_presentation_is_the_quotient_presentation(field):
    problem = load_problem(str(PROBLEMS / "eight-points.json"), field)
    assert problem.presentation() == quotient_presentation(problem.payload, problem.ring)


def test_connections_caps_reach_every_engine_call(eight_points, p1p1, count_calls):
    caps = {"limits": Limits(max_degree=1000, max_length=10)}
    clear_memos()
    resolutions = count_calls(mreg.resolution, "minimal_free_resolution")
    intersections = count_calls(mreg.points, "ideal_intersection")
    capped = connections_check(eight_points, (10, 10), p1p1, **caps)
    # the regnum's Ext route and the projective dimension share one memo entry
    assert resolutions == [caps]
    assert intersections and all(c == caps for c in intersections)
    assert capped == connections_check(eight_points, (10, 10), p1p1)
    assert connections_check(eight_points, (10, 10), p1p1, limits=Limits(max_degree=6)) == capped
    for tight in (Limits(max_degree=5), Limits(max_length=1)):
        with pytest.raises(ResourceLimitError):
            connections_check(eight_points, (10, 10), p1p1, limits=tight)


def test_duality_matches_resolution_regularity_on_random_points():
    """Under the all-ones coarsening the regularity number is classical
    Castelnuovo-Mumford regularity, which the resolution computes as
    max(j - i).  The duality route must reproduce it exactly, including on
    configurations that are not arithmetically Cohen-Macaulay."""
    from mreg import coarsen_resolution, regnum_lower_bound

    rng = random.Random(99)
    ring = multiproj_ring((1, 1))
    saw_non_cm = False
    for _ in range(6):
        n = rng.randint(2, 6)
        pts = set()
        while len(pts) < n:
            pts.add(((1, rng.randint(0, 12)), (1, rng.randint(0, 12))))
        X = PointSet((1, 1), tuple(sorted(pts)))
        P = quotient_presentation(X, ring)
        F = cached_minimal_resolution(P)
        saw_non_cm = saw_non_cm or F.length > 2
        Bz = betti_table(coarsen_resolution(F, (1, 1)))
        assert regnum_module(P, (1, 1)) == regnum_lower_bound(Bz, 1, 1)
    assert saw_non_cm  # the sample must include a module with nonzero H^1


def test_point_ideal_members_reduce_to_zero(eight_points, p1p1):
    # interpolation check: a random bihomogeneous form vanishing on the
    # points must lie in the computed ideal
    gens = point_ideal(eight_points, p1p1)
    ctx = ModuleCtx.for_vector(p1p1, ((0, 0),), (1, 1))
    G = buchberger(ctx, [poly_to_vec(g) for g in gens])
    # x-degree 5 form through the five x-values times anything vanishes
    K = p1p1.field
    xs = [1, 2, 3, 4, 5]
    poly = {(0, 0, 0, 0): K.one}  # product of (x1 - c x0) over the x-values
    for c in xs:
        new = {}
        for mono, coeff in poly.items():
            m1 = list(mono)
            m1[1] += 1
            new[tuple(m1)] = K.add(new.get(tuple(m1), K.zero), coeff)
            m0 = list(mono)
            m0[0] += 1
            new[tuple(m0)] = K.add(new.get(tuple(m0), K.zero), K.mul(K.neg(K.of(c)), coeff))
        poly = {m: c for m, c in new.items() if c}
    assert normal_form(ctx, poly_to_vec(poly), *G) == {}
