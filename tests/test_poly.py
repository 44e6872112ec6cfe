import math
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
from mreg.groebner import element_degree, poly_to_vec
from mreg.poly import monomials_of_weight, pmul


def degree(R, f):
    """Multidegree of a polynomial by the one homogeneity check."""
    return element_degree(R, ((0,) * R.r,), poly_to_vec(f))


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


def _field_elements(K):
    """Field elements of K, with zero, -1 and (over GF(p)) p - 1 and unreduced ints."""
    if K.p:
        return st.one_of(st.sampled_from([0, 1, K.p - 1]), st.integers(0, K.p - 1),
                         st.integers(-3 * K.p, 3 * K.p))
    big = 10 ** 40
    return st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                     st.fractions(max_denominator=1000),
                     st.builds(Fraction, st.integers(-big, big), st.integers(1, big)))


@pytest.mark.parametrize("K", [FieldDescriptor("prime", 2), FieldDescriptor("prime", 5),
                               FieldDescriptor("prime", 32003), QQ],
                         ids=["GF2", "GF5", "GF32003", "QQ"])
@settings(max_examples=300)
@given(data=st.data())
def test_fused_submul_equals_sub_of_mul(K, data):
    a, b, c = (data.draw(_field_elements(K)) for _ in range(3))
    for got, want in ((K.submul(a, b, c), K.sub(a, K.mul(b, c))),
                      (K.negmul(b, c), K.neg(K.mul(b, c)))):
        assert got == want
        if K.p:
            assert type(got) is int and 0 <= got < K.p
        else:
            assert type(got) is Fraction and got.denominator > 0
            assert math.gcd(got.numerator, got.denominator) == 1


def test_field_constants_are_built_once():
    for K in (FieldDescriptor("prime", 7), QQ):
        assert K.one is K.one and K.zero is K.zero
        assert (K.zero, K.one) == (0, 1) and type(K.one) is (int if K.p else Fraction)
    assert FieldDescriptor("prime", 7) == FieldDescriptor("prime", 7)
    assert repr(QQ) == "FieldDescriptor(kind='rational', p=None)"


def test_multidegree_examples(p1p1, hirzebruch):
    assert degree(p1p1, p1p1.parse("x0*x1")) == (2, 0)
    assert degree(hirzebruch, hirzebruch.parse("x1*x2")) == (-1, 1)
    with pytest.raises(HomogeneityError):
        degree(p1p1, p1p1.parse("x0 + y0"))
    with pytest.raises(HomogeneityError):
        degree(p1p1, {})


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
        assert degree(R, prod) == tuple(a + b for a, b in zip(degree(R, f), degree(R, g)))


def test_ring_validation():
    with pytest.raises(InputError):
        MultigradedRing(("x", "x"), ((1,), (1,)))
    with pytest.raises(InputError):
        MultigradedRing(("x", "y"), ((1, 0), (1,)))
    with pytest.raises(InputError):
        MultigradedRing((), ())
