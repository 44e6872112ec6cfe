"""Betti tables against Koszul homology, an oracle that builds no resolution.

beta_{i,a}(M) = dim_k H_i(K(x) (x) M)_a.  The graded pieces of M come from
one Groebner basis of the presentation: M_b has the standard monomials of
fine degree b as a basis, and x_j acts by multiplication followed by
reduce_vec.  Ranks come from linalg.matrix_rank.  The table is compared
with the minimal resolution's on a box that holds every resolution degree
with a margin of one, and must vanish everywhere else in the box.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from operator import mul

import pytest

from mreg import (
    ModuleCtx,
    ModulePresentation,
    PointSet,
    betti_table,
    check_positive_grading,
    degree_bound_sets,
    find_positive_coarsening_vector,
    load_problem,
    minimal_free_resolution,
    multiproj_ring,
    quotient_presentation,
)
from mreg.groebner import buchberger, reduce_vec
from mreg.linalg import matrix_rank
from mreg.poly import DEFAULT_FIELD, QQ, mono_divides, monomials_of_weight

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class KoszulOracle:
    """Graded pieces of coker(P) and the Koszul complex on them."""

    def __init__(self, P: ModulePresentation):
        self.P = P
        ring = self.ring = P.ring
        self.K = ring.field
        self.v = find_positive_coarsening_vector(ring.degrees)
        self.vdegs = ring.vdegs(self.v)
        self.ctx = ModuleCtx.for_vector(ring, P.shifts, self.v)
        self.G = buchberger(self.ctx, P.relations)
        self.leads: dict[int, list] = {}
        for (comp, mono), _ in self.G[1]:
            self.leads.setdefault(comp, []).append(mono)
        self.pieces: dict = {}
        self.products: dict = {}
        self.ranks: dict = {}
        self.units = [tuple(int(k == j) for k in range(ring.n)) for j in range(ring.n)]

    def piece(self, b) -> dict:
        """Standard monomials of fine degree b, each mapped to its coordinate."""
        if b not in self.pieces:
            basis = []
            for comp, shift in enumerate(self.P.shifts):
                d = _sub(b, shift)
                for e in monomials_of_weight(self.vdegs, sum(map(mul, d, self.v))):
                    if self.ring.mono_degree(e) == d and not any(
                        mono_divides(lead, e) for lead in self.leads.get(comp, ())
                    ):
                        basis.append((comp, e))
            self.pieces[b] = {t: k for k, t in enumerate(basis)}
        return self.pieces[b]

    def times(self, j: int, term) -> dict:
        """x_j * term in the next piece, as a normal form."""
        if (j, term) not in self.products:
            comp, e = term
            shifted = (comp, tuple(x + u for x, u in zip(e, self.units[j])))
            self.products[(j, term)] = reduce_vec(self.ctx, {shifted: self.K.one}, *self.G)
        return self.products[(j, term)]

    def chain(self, i: int, a):
        """Coordinates of K_i (x) M in degree a: (subset J, piece degree, term)."""
        out = []
        for J in itertools.combinations(range(self.ring.n), i):
            b = a
            for j in J:
                b = _sub(b, self.ring.degrees[j])
            out.extend((J, b, t) for t in self.piece(b))
        return out

    def boundary_rank(self, i: int, a) -> int:
        """Rank of d_i: K_i (x) M -> K_{i-1} (x) M in degree a."""
        if i < 1 or i > self.ring.n:
            return 0
        if (i, a) not in self.ranks:
            self.ranks[(i, a)] = self._rank(i, a)
        return self.ranks[(i, a)]

    def _rank(self, i: int, a) -> int:
        src, tgt = self.chain(i, a), self.chain(i - 1, a)
        if not src or not tgt:
            return 0
        index = {(J, t): k for k, (J, _, t) in enumerate(tgt)}
        K = self.K
        rows = []
        for J, _, t in src:
            row = [K.zero] * len(tgt)
            for k, j in enumerate(J):
                rest = J[:k] + J[k + 1 :]
                for term, c in self.times(j, t).items():
                    row[index[(rest, term)]] = K.add(row[index[(rest, term)]], c if k % 2 == 0 else K.neg(c))
            rows.append(row)
        return matrix_rank(rows, K)

    def beta(self, i: int, a) -> int:
        dim = len(self.chain(i, a))
        return dim - self.boundary_rank(i, a) - self.boundary_rank(i + 1, a)


def _point_module(count: int, field, seed: int) -> ModulePresentation:
    rng = random.Random(seed)
    top = 31000 if field.kind == "prime" else 12
    pts = set()
    while len(pts) < count:
        pts.add(((1, rng.randint(0, top)), (1, rng.randint(0, top))))
    ring = multiproj_ring((1, 1), field)
    return quotient_presentation(PointSet((1, 1), tuple(sorted(pts))), ring)


CASES = [f"problems/{p.name}" for p in sorted(PROBLEMS.glob("*.json"))]
CASES += ["fixture-koszul", "fixture-hirzebruch", "binomials-frame-longer"]
CASES += [f"gf32003-{c}-points" for c in (4, 5, 6, 7)]
CASES += [f"qq-{c}-points" for c in (4, 5)]


def _module(case, request) -> ModulePresentation:
    if case.startswith("problems/"):
        return load_problem(str(PROBLEMS / case.split("/", 1)[1])).presentation()
    if case.startswith("fixture-"):
        return request.getfixturevalue(case.split("-", 1)[1] + "_module")
    if case == "binomials-frame-longer":
        # its Schreyer frame has length 3, its minimal resolution length 2
        ring = request.getfixturevalue("p1p1")
        return ModulePresentation.quotient_by_ideal(
            ring, [ring.parse("y0^2 + y1^2"), ring.parse("x0*y0*y1 - x0*y1^2")]
        )
    field, count = case.split("-")[:2]
    K = QQ if field == "qq" else DEFAULT_FIELD
    return _point_module(int(count), K, seed=1000 + int(count))


@pytest.mark.parametrize("case", CASES)
def test_betti_table_equals_koszul_homology(case, request):
    P = _module(case, request)
    table = betti_table(minimal_free_resolution(P)).as_dict()
    ring = P.ring
    degrees = [a for (_, a) in table]
    lo = tuple(min(a[k] for a in degrees) - 1 for k in range(ring.r))
    hi = tuple(max(a[k] for a in degrees) + 1 for k in range(ring.r))
    oracle = KoszulOracle(P)
    seen = 0
    for a in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        for i in range(ring.n + 1):
            beta = oracle.beta(i, a)
            assert beta == table.get((i, a), 0), (case, i, a)
            seen += beta
    assert seen == sum(table.values())

    # the paper's theorem, against a table the regularity code did not make
    vectors = [v for v in ((1, 1), (1, 2))
               if len(v) == ring.r and check_positive_grading(ring.degrees) and min(ring.vdegs(v)) > 0]
    vectors = vectors or [find_positive_coarsening_vector(ring.degrees)]
    levels = sorted({i for (i, _) in table})
    for v in vectors:
        sets = dict(zip(levels, degree_bound_sets(P, v, levels)))
        for (i, a), b in table.items():
            assert b and a in sets[i].as_set(), (case, v, i, a)
