from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mreg import (
    FieldDescriptor,
    HomogeneityError,
    InputError,
    MultigradedRing,
    QQ,
    TermOrder,
)
from mreg.poly import monomials_of_weight, pmul


@pytest.fixture
def hirzebruch():
    return MultigradedRing(("x1", "x2", "x3", "x4"), ((1, 0), (-2, 1), (1, 0), (0, 1)))


def test_field_descriptors():
    gf = FieldDescriptor("prime", 32003)
    assert gf.of(-1) == 32002
    assert gf.mul(gf.of(Fraction(1, 2)), gf.of(2)) == 1
    assert QQ.of(3) == Fraction(3)
    with pytest.raises(InputError):
        FieldDescriptor("prime", 32004)
    with pytest.raises(InputError):
        FieldDescriptor("real")
    with pytest.raises(InputError):
        FieldDescriptor("prime", 2).of(Fraction(1, 2))


def test_multidegree_examples(p1p1, hirzebruch):
    assert p1p1.multidegree_of(p1p1.parse("x0*x1")) == (2, 0)
    assert hirzebruch.multidegree_of(hirzebruch.parse("x1*x2")) == (-1, 1)
    with pytest.raises(HomogeneityError):
        p1p1.multidegree_of(p1p1.parse("x0 + y0"))
    with pytest.raises(HomogeneityError):
        p1p1.multidegree_of({})


def test_order_key_examples():
    o = TermOrder((1, 1))
    assert o.key((2, 0)) > o.key((1, 1))
    o2 = TermOrder((1, 3))
    assert o2.key((0, 1)) > o2.key((2, 0))
    assert o.key((1, 1)) == o.key((1, 1))
    assert o.key((0, 2)) < o.key((2, 0))


def test_parse_round_trip(p1p1):
    for text in ("x0*x1 - 2*y0^2*y1", "3*x0^2 + x0*x1", "y1", "0"):
        f = p1p1.parse(text)
        again = p1p1.parse(p1p1.poly_str(f))
        assert again == f


def test_parse_rationals():
    R = MultigradedRing(("x", "y"), ((1, 0), (0, 1)), QQ)
    f = R.parse("1/2*x - y")
    assert f[(1, 0)] == Fraction(1, 2)
    assert f[(0, 1)] == Fraction(-1)
    assert R.parse("x - x") == {}


def test_parse_rejects_garbage(p1p1):
    for bad in ("x0 + $", "q9", "x0^^2", "*x0", "x0^1/2"):
        with pytest.raises(InputError):
            p1p1.parse(bad)


mono2 = st.tuples(st.integers(0, 5), st.integers(0, 5))


@given(mono2, mono2, mono2)
@settings(max_examples=150)
def test_order_total_and_multiplicative(a, b, t):
    o = TermOrder((1, 3))
    ka, kb = o.key(a), o.key(b)
    assert (ka == kb) == (a == b)
    # multiplicative
    at = tuple(x + y for x, y in zip(a, t))
    bt = tuple(x + y for x, y in zip(b, t))
    assert (o.key(at) < o.key(bt)) == (ka < kb)


@given(mono2, mono2, mono2)
@settings(max_examples=100)
def test_order_transitive(a, b, c):
    o = TermOrder((2, 1))
    if o.key(a) >= o.key(b) and o.key(b) >= o.key(c):
        assert o.key(a) >= o.key(c)


def test_finitely_many_monomials_below():
    # every monomial dominates only finitely many others: enumerate by weight
    o = TermOrder((1, 3))
    bound = o.wdeg((4, 2))
    below = [
        m
        for w in range(bound + 1)
        for m in monomials_of_weight((1, 3), w)
        if o.key(m) < o.key((4, 2))
    ]
    assert len(below) == len(set(below))
    assert all(o.wdeg(m) <= bound for m in below)


@given(
    st.lists(st.tuples(mono2, st.integers(-5, 5)), min_size=1, max_size=4),
    st.lists(st.tuples(mono2, st.integers(-5, 5)), min_size=1, max_size=4),
)
@settings(max_examples=80)
def test_homogeneous_product_degree_adds(t1, t2):
    R = MultigradedRing(("x", "y"), ((1, 0), (0, 1)))
    K = R.field

    def homogenize(terms):
        # keep only terms matching the first monomial's degree
        base = terms[0][0]
        f = {}
        for m, c in terms:
            if R.mono_degree(m) == R.mono_degree(base) and c % 32003:
                f[m] = K.of(c)
        return f

    f, g = homogenize(t1), homogenize(t2)
    if not f or not g:
        return
    prod = pmul(f, g, K)
    if prod:
        assert R.multidegree_of(prod) == tuple(
            a + b for a, b in zip(R.multidegree_of(f), R.multidegree_of(g))
        )


def test_ring_validation():
    with pytest.raises(InputError):
        MultigradedRing(("x", "x"), ((1,), (1,)))
    with pytest.raises(InputError):
        MultigradedRing(("x", "y"), ((1, 0), (1,)))
    with pytest.raises(InputError):
        MultigradedRing((), ())
