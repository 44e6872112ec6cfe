import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mreg.grading
from mreg import (
    GradingError,
    InputError,
    check_positive_grading,
    enumerate_bounded_region,
    find_positive_coarsening_vector,
    positive_coarsening_candidates,
    primitive_reduce,
    shifted_orthant_region,
)
from mreg.grading import LatticeRegion

HIRZEBRUCH2 = ((1, 0), (-2, 1), (1, 0), (0, 1))


def test_positive_grading_examples():
    assert check_positive_grading(HIRZEBRUCH2) is True
    assert check_positive_grading(((1,), (-1,))) is False
    assert check_positive_grading(((0, 1), (0, 0))) is False


def test_positive_grading_ragged_matrix():
    with pytest.raises(InputError):
        check_positive_grading(((1, 0), (1,)))


def test_find_vector_examples():
    assert find_positive_coarsening_vector(((1, 0), (0, 1))) == (1, 1)
    assert find_positive_coarsening_vector(HIRZEBRUCH2) == (1, 3)
    assert find_positive_coarsening_vector(((4,), (4,))) == (1,)


def test_find_vector_needs_positive_grading():
    with pytest.raises(GradingError):
        find_positive_coarsening_vector(((1,), (-1,)))


def test_find_vector_is_memoized_by_the_degree_tuple():
    memo = mreg.grading._least_coarsening_vector
    assert memo.cache_info().maxsize is not None
    memo.cache_clear()
    as_lists = [list(col) for col in HIRZEBRUCH2]
    assert find_positive_coarsening_vector(as_lists) == find_positive_coarsening_vector(HIRZEBRUCH2) == (1, 3)
    assert memo.cache_info().hits == 1
    for _ in range(2):  # a grading that raises is not stored
        with pytest.raises(GradingError, match="^grading is not positive"):
            find_positive_coarsening_vector([[1], [-1]])
    assert memo.cache_info().currsize == 1


def test_find_vector_feasibility():
    for degrees in (HIRZEBRUCH2, ((1, 0), (0, 1)), ((2, -1), (0, 1)), ((4,), (4,))):
        v = find_positive_coarsening_vector(degrees)
        assert all(sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees)


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_positivity_decision_consistent_with_search(cols):
    degrees = tuple(cols)
    positive = check_positive_grading(degrees)
    if positive:
        v = find_positive_coarsening_vector(degrees)
        assert all(sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees)
    else:
        # exhaustive box search finds nothing feasible
        box = 4
        found = any(
            all(sum(a * b for a, b in zip(col, (i, j))) >= 1 for col in degrees)
            for i in range(-box, box + 1)
            for j in range(-box, box + 1)
        )
        assert not found


def test_primitive_reduce():
    assert primitive_reduce((2, 6)) == (1, 3)
    assert primitive_reduce((1, 1)) == (1, 1)
    assert primitive_reduce((3, 3)) == (1, 1)


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)))
def test_primitive_reduce_idempotent(v):
    if not any(v):
        return
    once = primitive_reduce(v)
    assert primitive_reduce(once) == once
    # parallel to the input
    assert all(a * once[0] == v[0] * b for a, b in zip(v, once))


@given(st.integers(1, 6))
def test_primitive_reduce_preserves_feasibility(scale):
    for degrees in (HIRZEBRUCH2, ((1, 0), (0, 1)), ((4,), (4,))):
        v = find_positive_coarsening_vector(degrees)
        blown = tuple(scale * x for x in v)
        red = primitive_reduce(blown)
        assert all(sum(a * b for a, b in zip(col, red)) >= 1 for col in degrees)


def test_enumerate_region_examples():
    std = ((1, 0), (1, 0), (0, 1), (0, 1))
    pts = enumerate_bounded_region([(0, 0)], std, (1, 1), 2).bases
    assert set(pts) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    hz = enumerate_bounded_region([(0, 0)], HIRZEBRUCH2, (1, 3), 2).bases
    assert set(hz) == {(0, 0), (1, 0), (-2, 1), (2, 0), (-1, 1), (-4, 2)}
    assert enumerate_bounded_region([(0, 0)], std, (1, 1), -1).bases == ()


def test_enumerate_region_monotone():
    region = enumerate_bounded_region([(0, 0), (1, 1)], HIRZEBRUCH2, (1, 3), 4)
    for pt in region.bases:
        assert pt[0] * 1 + pt[1] * 3 <= 4
    smaller = set(enumerate_bounded_region([(0, 0), (1, 1)], HIRZEBRUCH2, (1, 3), 3).bases)
    assert smaller <= set(region.bases)


def test_shifted_orthant_examples():
    r = shifted_orthant_region(2, -1)
    assert (-1, 5) in r and (-1, -1) not in r
    r2 = shifted_orthant_region(2, 2)
    assert (1, 1) in r2 and (1, 0) not in r2
    r0 = shifted_orthant_region(2, 0)
    assert (0, 0) in r0 and (-1, 0) not in r0


@given(st.integers(0, 3), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=200, deadline=None)
def test_shifted_orthant_against_deficit_formula(m, x):
    region = shifted_orthant_region(2, -m)
    expected = sum(max(0, -c) for c in x) <= m
    assert (x in region) == expected


def test_candidate_family_box5_p1p1():
    fam = positive_coarsening_candidates(((1, 0), (1, 0), (0, 1), (0, 1)), box=5)
    assert (1, 1) in fam and (5, 3) in fam
    assert (2, 2) not in fam  # not primitive
    assert all(a >= 1 and b >= 1 for a, b in fam)
    assert len(fam) == 19


def _feasible(degrees, v):
    return all(sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees)


def test_search_matches_the_least_vector_of_a_brute_force_box():
    rng = random.Random(2323)
    found = 0
    for case in range(160):
        r = 1 + case % 4
        degrees = tuple(tuple(rng.randint(-2, 2) for _ in range(r))
                        for _ in range(rng.randint(1, 5)))
        box = (6, 5, 4, 3)[r - 1]
        vectors = list(itertools.product(range(-box, box + 1), repeat=r))
        # every vector of L1 norm <= box lies in the box, so the least
        # feasible one of such norm is the global (L1, lex) minimum
        least = min((v for v in vectors if _feasible(degrees, v)
                     and sum(map(abs, v)) <= box),
                    key=lambda v: (sum(map(abs, v)), v), default=None)
        if not check_positive_grading(degrees):
            assert least is None
            with pytest.raises(GradingError, match="^grading is not positive"):
                find_positive_coarsening_vector(degrees)
        elif least is not None:
            found += 1
            assert find_positive_coarsening_vector(degrees) == least, degrees
        candidates = [v for v in vectors if any(v) and _feasible(degrees, v)
                      and not any(all(x % d == 0 for x in v) for d in range(2, box + 1))]
        assert positive_coarsening_candidates(degrees, box) == sorted(candidates), degrees
    assert found > 80


def test_search_stops_at_the_coordinate_cap():
    # v.(-100, 1) >= 1 with v_0 >= 1 needs v_1 >= 101
    assert check_positive_grading(((1, 0), (-100, 1)))
    with pytest.raises(GradingError, match="^no coarsening vector with coordinates up to 64$"):
        find_positive_coarsening_vector(((1, 0), (-100, 1)))
    assert find_positive_coarsening_vector(((1, 0), (-63, 1))) == (1, 64)


def _random_positive_matrix(rng, r):
    """A positive grading of Z^r with duplicate and dependent columns, and its v."""
    while True:
        v = tuple(rng.randint(-2, 3) for _ in range(r))
        cols = []
        for _ in range(60):
            col = tuple(rng.randint(-3, 3) for _ in range(r))
            if 1 <= sum(a * b for a, b in zip(col, v)) <= 3:
                cols.append(col)
            if len(cols) == 3:
                break
        if len(cols) == 3:
            break
    a, b, _ = cols
    cols.append(tuple(x + 2 * y for x, y in zip(a, b)))  # dependent, like (0,1) = (-2,1) + 2(1,0)
    cols.append(rng.choice(cols))  # a duplicate variable degree
    rng.shuffle(cols)
    return tuple(cols), v


def _count_vectors(weights, budget):
    """Every nonnegative count vector with sum(count * weight) <= budget."""
    if not weights:
        yield ()
        return
    for k in range(budget // weights[0] + 1):
        for rest in _count_vectors(weights[1:], budget - k * weights[0]):
            yield (k,) + rest


def _brute_force_region(bases, degrees, v, bound):
    weights = [sum(a * b for a, b in zip(col, v)) for col in degrees]
    out = set()
    for b in bases:
        budget = bound - sum(x * y for x, y in zip(b, v))
        if budget < 0:
            continue
        for counts in _count_vectors(weights, budget):
            out.add(tuple(
                x + sum(k * col[t] for k, col in zip(counts, degrees)) for t, x in enumerate(b)
            ))
    return tuple(sorted(out))


def test_enumerate_region_matches_brute_force():
    rng = random.Random(4242)
    for case in range(150):
        r = 1 + case % 3
        degrees, v = _random_positive_matrix(rng, r)
        bases = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(rng.randint(1, 3))]
        if len(bases) > 1 and rng.random() < 0.5:
            bases[1] = tuple(x + y for x, y in zip(bases[0], degrees[0]))  # overlapping translates
        bound = rng.randint(-4, 10)
        region = enumerate_bounded_region(bases, degrees, v, bound)
        assert region.bases == _brute_force_region(bases, degrees, v, bound), (degrees, v, bases, bound)
        for pt in region.bases:
            assert sum(a * b for a, b in zip(pt, v)) <= bound


def test_enumerate_region_steps_once_per_distinct_column(monkeypatch):
    import mreg.grading

    bases, v, bound = [(0, 0), (1, 1)], (1, 3), 12
    points = _brute_force_region(bases, HIRZEBRUCH2, v, bound)
    distinct = len(set(HIRZEBRUCH2))
    limit = len(points) * distinct  # each point steps at most once along each distinct column
    original = mreg.grading._step
    steps = 0

    def counted(codes, delta):
        nonlocal steps
        steps += len(codes)
        assert steps <= limit, "the kernel stepped past the bound or along duplicate columns"
        return original(codes, delta)

    monkeypatch.setattr(mreg.grading, "_step", counted)
    assert enumerate_bounded_region(bases, HIRZEBRUCH2, v, bound).bases == points
    assert steps > len(points) - len(bases)  # every point off the bases came from a step


def test_grown_region_matches_brute_force_at_every_bound():
    rng = random.Random(5151)
    widened = 0
    for case in range(120):
        r = 1 + case % 3
        if case % 4 == 0:
            s = rng.randint(1, 4)
            degrees, v = ((1, 0), (-s, 1), (1, 0), (0, 1)), (1, s + 1)  # Hirzebruch
        else:
            degrees, v = _random_positive_matrix(rng, r)
        bases = [tuple(rng.randint(-3, 3) for _ in range(len(v))) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            bases.append(tuple((y < 0) - (y > 0) for y in v))  # v-degree -sum|v_k| < 0
        region = LatticeRegion(bases, degrees, v)
        width = region.width
        bounds = [rng.randint(-6, 9) for _ in range(5)]
        bounds.insert(rng.randrange(6), bounds[0])  # a repeated bound
        for bound in bounds:
            assert region.points(bound) == _brute_force_region(bases, degrees, v, bound), (
                degrees, v, bases, bounds, bound)
        widened += region.width > width
    assert widened > 20



def test_a_region_grown_bound_after_bound_re_encodes_rarely():
    bases, v = [(0, 0), (-3, 2)], (1, 3)
    region = LatticeRegion(bases, HIRZEBRUCH2, v)
    widths = [region.width]
    for bound in range(1, 201):
        region.grow(bound)
        widths.append(region.width)
    changes = sum(a != b for a, b in zip(widths, widths[1:]))
    assert changes <= math.ceil(math.log2(200)) + 2
    assert region.points(200) == LatticeRegion(bases, HIRZEBRUCH2, v).points(200)
    # the width chosen at a bound holds twice its steps: at bound 14 the
    # coordinates reach 3 + 2 * 14 = 31, which fits 5 bits and a sign; the
    # width chosen there still fits bound 28, where they reach 59
    region = LatticeRegion(bases, HIRZEBRUCH2, v)
    region.grow(14)
    width = region.width
    region.grow(28)
    assert region.width == width
    assert region.points(28) == _brute_force_region(bases, HIRZEBRUCH2, v, 28)


def test_levels_in_any_order_match_fresh_regions_and_brute_force():
    rng = random.Random(6262)
    widened = 0
    for case in range(90):
        r = 1 + case % 3
        degrees, v = _random_positive_matrix(rng, r)
        bases = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
        region = LatticeRegion(bases, degrees, v)
        bounds = [rng.randint(-6, 8) for _ in range(4)]
        asks = [sorted(bounds), sorted(bounds, reverse=True), [bounds[0]] * 2, bounds,
                [bounds[1], rng.randint(-6, 24), bounds[1]]]  # the last may re-encode
        for ask in asks[case % 5:] + asks[:case % 5]:
            width = region.width
            levels = region.levels(ask)
            widened += region.width > width > 1
            for bound, level in zip(ask, levels):
                case_info = (degrees, v, bases, ask)
                assert level == LatticeRegion(bases, degrees, v).points(bound), case_info
                assert level == _brute_force_region(bases, degrees, v, bound), case_info
    assert widened > 5


def test_levels_decode_each_code_once():
    # Hirzebruch s = 4 under (1, 7), as a sweep asks i = 0..3 one call at a time
    region = LatticeRegion([(0, 0)], ((1, 0), (-4, 1), (1, 0), (0, 1)), (1, 7))
    decode, widen = region._decode, region._widen
    decoded = []

    def counted(codes):
        decoded.append(len(codes))
        return decode(codes)

    def widen_uncounted(bound):
        region._decode = decode
        try:
            widen(bound)
        finally:
            region._decode = counted

    region._decode, region._widen = counted, widen_uncounted
    widths = set()
    for bound in (40, 102, 164, 226):
        level, = region.levels((bound,))
        widths.add(region.width)
    assert len(widths) > 1  # the region re-encoded between calls
    assert sum(decoded) == len(region.codes) == len(level)
    region.levels((226, 40))
    assert sum(decoded) == len(region.codes)
