"""Shared rings, modules, and point sets for the test suite.

The monomial quotients below are drawn with a fixed seed so the "random"
corpus is reproducible across runs.
"""

from __future__ import annotations

import random

import pytest

import mreg.localcoh
import mreg.points
import mreg.resolution
from mreg.groebner import reduce_vec
from mreg import (
    ModulePresentation,
    MultigradedRing,
    PointSet,
    SimplicialComplex,
    point_ideal,
)


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module.name for one test; the returned list collects each call's keywords."""

    def install(module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


def mono_mul(a, b):
    """x^a * x^b as an exponent tuple."""
    return tuple(x + y for x, y in zip(a, b))


def padd(f, g, K):
    """f + g for polynomials or module vectors: an oracle sharing no code with groebner."""
    out = dict(f)
    for m, c in g.items():
        s = K.add(out.get(m, K.zero), c)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(f, g, K):
    """f * g for polynomials, term by term: an oracle sharing no code with groebner."""
    out = {}
    for m, c in f.items():
        for m2, c2 in g.items():
            mm = mono_mul(m, m2)
            s = K.add(out.get(mm, K.zero), K.mul(c, c2))
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
    return out


def leading_term(ctx, f):
    """The leading (component, monomial) term of f under ctx: the least code."""
    return min(f, key=ctx.code)


def normal_form(ctx, f, basis, lts):
    """reduce_vec on (component, monomial) dicts: the inputs are encoded, the normal form decoded."""
    codes = [ctx.encode(g) for g in basis]
    return ctx.decode(reduce_vec(ctx, ctx.encode(f), codes, [ctx.code(t) for t in lts]))


def clear_memos():
    """Empty the resolution, Ext, Hochster, region, basis and evaluation memos, so the next call starts cold."""
    mreg.resolution._memo_resolution.cache_clear()
    mreg.localcoh._memo_ext_modules.cache_clear()
    mreg.regularity._memo_region.cache_clear()
    mreg.regularity._memo_hochster_supports.cache_clear()
    mreg.groebner._memo_basis.cache_clear()
    mreg.points._memo_spaces.cache_clear()


@pytest.fixture(scope="session")
def p1p1():
    return MultigradedRing(("x0", "x1", "y0", "y1"), ((1, 0), (1, 0), (0, 1), (0, 1)))


@pytest.fixture(scope="session")
def bigraded_xy():
    return MultigradedRing(("x", "y"), ((1, 0), (0, 1)))


@pytest.fixture(scope="session")
def weighted44():
    return MultigradedRing(("x1", "x2"), ((4,), (4,)))


def hirzebruch_ring(s: int) -> MultigradedRing:
    return MultigradedRing(
        ("x1", "x2", "x3", "x4"), ((1, 0), (-s, 1), (1, 0), (0, 1))
    )


@pytest.fixture(scope="session")
def hirzebruch2():
    return hirzebruch_ring(2)


@pytest.fixture(scope="session")
def koszul_module(p1p1):
    """S/(x0 x1, y0 y1): the vanishing ideal of the four corner points."""
    return ModulePresentation.quotient_by_ideal(
        p1p1, [p1p1.parse("x0*x1"), p1p1.parse("y0*y1")]
    )


@pytest.fixture(scope="session")
def four_cycle(p1p1):
    return SimplicialComplex(
        p1p1.variables, (("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1"))
    )


@pytest.fixture(scope="session")
def four_points():
    return PointSet(
        (1, 1),
        (((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))),
    )


@pytest.fixture(scope="session")
def eight_points():
    coords = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1), (5, 1)]
    return PointSet((1, 1), tuple((((1, i), (1, j))) for i, j in coords))


@pytest.fixture(scope="session")
def eight_point_module(eight_points, p1p1):
    return ModulePresentation.quotient_by_ideal(p1p1, point_ideal(eight_points, p1p1))


@pytest.fixture(scope="session")
def hirzebruch_module(hirzebruch2):
    return ModulePresentation.quotient_by_ideal(
        hirzebruch2, [hirzebruch2.parse("x1*x2"), hirzebruch2.parse("x3*x4")]
    )


def _random_monomial(ring, rng, max_exp=2):
    while True:
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.n))
        if any(e):
            return {e: ring.field.one}


def random_monomial_quotients(p1p1, bigraded_xy, weighted44):
    """Deterministic sample of small monomial quotients in <= 4 variables."""
    rng = random.Random(20260809)
    out = []
    for ring, count in ((p1p1, 2), (bigraded_xy, 2), (weighted44, 1)):
        for _ in range(count):
            gens = []
            seen = set()
            for _ in range(rng.randint(2, 3)):
                g = _random_monomial(ring, rng)
                key = next(iter(g))
                if key not in seen:
                    seen.add(key)
                    gens.append(g)
            out.append(ModulePresentation.quotient_by_ideal(ring, gens))
    return out


@pytest.fixture(scope="session")
def monomial_corpus(p1p1, bigraded_xy, weighted44):
    return random_monomial_quotients(p1p1, bigraded_xy, weighted44)


@pytest.fixture(scope="session")
def full_corpus(koszul_module, eight_point_module, hirzebruch_module, monomial_corpus):
    return [koszul_module, eight_point_module, hirzebruch_module] + monomial_corpus
