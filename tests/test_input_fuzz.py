"""Fuzzing the input layer: every outcome is a value or a package error.

Polynomial strings mix variable names, operators and digit runs, some of
them longer than the 4300 digits Python converts to int by default.
Problem objects put such strings, and other odd leaves, where each payload
expects polynomials, integers, names or nested lists.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mreg import DEFAULT_FIELD, QQ, MregError, MultigradedRing, Problem, problem_from_obj

# a digit run past the default int-conversion limit of 4300 digits
LONG_DIGITS = st.builds(lambda d, n: d * n, st.sampled_from("123456789"), st.integers(4301, 4400))
DIGITS = st.one_of(st.text("0123456789", min_size=1, max_size=4), LONG_DIGITS)
ATOMS = st.one_of(DIGITS, st.sampled_from(["x", "y", "z", "w", "+", "-", "*", "^", "/", " ", "1/0"]))
# a long run as a coefficient, an exponent and a numerator, with nothing before it to fail on
LONG_TERMS = st.one_of(LONG_DIGITS.map("{}*x".format), LONG_DIGITS.map("x^{}".format),
                       LONG_DIGITS.map("x - {}/3*y".format))
POLY = st.one_of(st.lists(ATOMS, max_size=8).map("".join), LONG_TERMS)

LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.floats(-2, 2), POLY)
RING = {"variables": ["x", "y", "z"], "degrees": [[1], [1], [1]]}
RINGS = st.one_of(
    st.just(RING),
    st.fixed_dictionaries({"variables": st.lists(st.sampled_from(["x", "y", "z", "1x", 3]),
                                                max_size=3),
                           "degrees": st.lists(st.lists(st.one_of(st.integers(-1, 2), DIGITS),
                                                        max_size=2), max_size=3)}),
)
INTS = st.lists(st.one_of(st.integers(-1, 3), DIGITS, LEAF), max_size=3)
PAYLOADS = st.one_of(
    st.fixed_dictionaries({"ring": RINGS, "ideal": st.lists(st.one_of(POLY, LEAF), max_size=3)}),
    st.fixed_dictionaries({"ring": RINGS, "module": st.fixed_dictionaries(
        {"shifts": st.lists(INTS, max_size=2),
         "relations": st.lists(st.lists(st.one_of(POLY, LEAF), max_size=2), max_size=2)})}),
    st.fixed_dictionaries({"ring": RINGS, "free": st.fixed_dictionaries(
        {"shifts": st.lists(INTS, max_size=2)})}),
    st.fixed_dictionaries({"ring": RINGS, "complex": st.fixed_dictionaries(
        {"vertices": st.lists(st.one_of(st.sampled_from(["x", "y", "q"]), LEAF), max_size=3),
         "facets": st.lists(st.lists(st.sampled_from(["x", "y", "q"]), max_size=2),
                            max_size=2)})}),
    st.fixed_dictionaries({"points": st.fixed_dictionaries(
        {"dims": INTS, "points": st.lists(st.lists(INTS, max_size=2), max_size=3)})}),
)
FIELDS = st.one_of(st.none(), st.sampled_from(["q", "p:5", "p:4", "p:x", 7]), DIGITS)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=POLY, field=st.sampled_from([QQ, DEFAULT_FIELD]))
def test_parse_returns_a_polynomial_or_raises_a_package_error(text, field):
    ring = MultigradedRing(("x", "y", "z"), ((1,), (1,), (1,)), field)
    try:
        f = ring.parse(text)
    except MregError:
        return
    assert isinstance(f, dict) and all(c for c in f.values())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(obj=PAYLOADS, field=FIELDS)
def test_problem_from_obj_returns_a_problem_or_raises_a_package_error(obj, field):
    if field is not None:
        obj = {**obj, "field": field}
    try:
        problem = problem_from_obj(obj)
    except MregError:
        return
    assert isinstance(problem, Problem)
