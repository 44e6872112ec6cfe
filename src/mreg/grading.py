"""Degree matrices, positive gradings, coarsening vectors, and lattice regions.

Positivity of a Z^r-grading is decided exactly: the system {v . a_i >= 1}
must be feasible over the rationals, which we check with Fourier-Motzkin
elimination on Fraction arithmetic.  Coarsening vectors returned to callers
are always integral and found by a deterministic expanding-box search.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from .errors import GradingError, InputError
from .poly import Multidegree

DEFAULT_BOX = 10
_SEARCH_BOX_CAP = 64


def _validate_degree_matrix(degrees) -> tuple[tuple[int, ...], ...]:
    degrees = tuple(tuple(int(x) for x in col) for col in degrees)
    if not degrees:
        raise InputError("degree matrix needs at least one column")
    r = len(degrees[0])
    if r < 1 or any(len(col) != r for col in degrees):
        raise InputError("ragged degree matrix")
    return degrees


def check_positive_grading(degrees) -> bool:
    """True iff no variable degree is zero and some v has v . a_i >= 1 for all i."""
    degrees = _validate_degree_matrix(degrees)
    if any(not any(col) for col in degrees):
        return False
    r = len(degrees[0])
    # inequalities sum_j v_j * col[j] >= 1
    system = [(tuple(Fraction(x) for x in col), Fraction(1)) for col in degrees]
    return _fourier_motzkin_feasible(system, r)


def _fourier_motzkin_feasible(system, nvars: int) -> bool:
    """Feasibility of {coeffs . v >= rhs} over the rationals, exactly."""
    for k in range(nvars):
        pos, neg, zero = [], [], []
        for coeffs, rhs in system:
            c = coeffs[k]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                zero.append((coeffs, rhs))
        new = zero
        # lower bound from p, upper bound from q: combine away v_k
        for pc, pr in pos:
            for qc, qr in neg:
                coeffs = tuple(
                    pc[j] / pc[k] - qc[j] / qc[k] if j != k else Fraction(0)
                    for j in range(nvars)
                )
                rhs = pr / pc[k] - qr / qc[k]
                new.append((coeffs, rhs))
        system = new
    # all coefficients are now zero: 0 >= rhs must hold
    return all(rhs <= 0 for _, rhs in system)


def _box_vectors(r: int, box: int):
    """Vectors with max |coord| <= box, ordered by L1 norm then lexicographic."""
    vs = itertools.product(range(-box, box + 1), repeat=r)
    return sorted(vs, key=lambda v: (sum(abs(x) for x in v), v))


def find_positive_coarsening_vector(degrees, max_box: int = _SEARCH_BOX_CAP) -> Multidegree:
    """Smallest integral v (L1 norm, then lex) with v . a_i >= 1 for all i."""
    degrees = _validate_degree_matrix(degrees)
    if not check_positive_grading(degrees):
        raise GradingError("grading is not positive: no coarsening vector exists")
    r = len(degrees[0])

    def feasible(v):
        return all(sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees)

    for box in range(1, max_box + 1):
        for v in _box_vectors(r, box):
            if feasible(v):
                # every vector with smaller L1 norm fits in a box of that
                # size, so one widened pass yields the global minimum
                scan = min(max(box, sum(abs(x) for x in v)), max_box)
                return next(u for u in _box_vectors(r, scan) if feasible(u))
    raise GradingError(f"no coarsening vector with coordinates up to {max_box}")


def primitive_reduce(v) -> Multidegree:
    """Divide v by the gcd of its coordinates."""
    v = tuple(int(x) for x in v)
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g <= 1:
        return v
    return tuple(x // g for x in v)


def positive_coarsening_candidates(degrees, box: int = 5) -> list[Multidegree]:
    """All primitive positive coarsening vectors with max |coordinate| <= box."""
    degrees = _validate_degree_matrix(degrees)
    r = len(degrees[0])
    out = []
    for v in _box_vectors(r, box):
        if not any(v):
            continue
        if primitive_reduce(v) != v:
            continue
        if all(sum(a * b for a, b in zip(col, v)) >= 1 for col in degrees):
            out.append(v)
    return sorted(out)


# -- lattice regions ----------------------------------------------------------

@dataclass(frozen=True)
class DegreeRegion:
    """A decidable region of Z^r.

    kind "finite": `bases` is the (deduplicated, sorted) list of points and
    `witnesses` retains one semigroup decomposition per point.
    kind "orthant": union of b + N^r over the base points b.
    """

    kind: str
    bases: tuple[Multidegree, ...]
    bounding_box: tuple[Multidegree, Multidegree] | None = None
    witnesses: Mapping | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("finite", "orthant"):
            raise InputError(f"unknown region kind {self.kind!r}")

    def points(self) -> tuple[Multidegree, ...]:
        if self.kind != "finite":
            raise InputError("only finite regions enumerate their points")
        return self.bases

    def __contains__(self, a) -> bool:
        a = tuple(int(x) for x in a)
        if self.kind == "finite":
            return a in set(self.bases)
        return any(all(x >= b for x, b in zip(a, base)) for base in self.bases)


class _Witnesses(Mapping):
    """point -> (base index, multiplicity per variable), rebuilt on lookup.

    Each point stores only the point it was reached from and the variable
    of that step; a base stores None and its index.
    """

    def __init__(self, steps: dict, n: int):
        self._steps = steps
        self._n = n

    def __getitem__(self, pt):
        counts = [0] * self._n
        prev, i = self._steps[pt]
        while prev is not None:
            counts[i] += 1
            prev, i = self._steps[prev]
        return i, tuple(counts)

    def __iter__(self):
        return iter(self._steps)

    def __len__(self):
        return len(self._steps)


def enumerate_bounded_region(bases, degrees, v, bound: int) -> DegreeRegion:
    """All points of  U_k (b_k + N{a_i})  with v-degree <= bound.

    The semigroup N{a_i} depends only on the distinct columns a_i, so the
    breadth-first closure steps along those alone, in ascending order of
    v-degree, and stops at the first step that leaves the bound; it
    terminates because every column has positive v-degree.  Every point
    keeps a witness (base index, multiplicity per variable), with each
    step counted on the first variable of that degree.
    """
    degrees = _validate_degree_matrix(degrees)
    v = tuple(int(x) for x in v)
    wdegs = [sum(map(mul, col, v)) for col in degrees]
    if any(w < 1 for w in wdegs):
        raise GradingError(f"{v} is not a positive coarsening vector for this matrix")
    first: dict[Multidegree, int] = {}
    for i, col in enumerate(degrees):
        first.setdefault(col, i)
    steps = sorted((wdegs[i], i, col) for col, i in first.items())

    reached: dict[Multidegree, tuple] = {}  # point -> (previous point, variable)
    frontier = []
    for k, b in enumerate(bases):
        b = tuple(int(x) for x in b)
        d = sum(map(mul, b, v))
        if d <= bound and b not in reached:
            reached[b] = (None, k)
            frontier.append((b, d))
    while frontier:
        nxt = []
        for pt, d in frontier:
            for w, i, col in steps:
                e = d + w
                if e > bound:
                    break
                q = tuple(map(add, pt, col))
                if q not in reached:
                    reached[q] = (pt, i)
                    nxt.append((q, e))
        frontier = nxt
    return DegreeRegion(
        kind="finite",
        bases=tuple(sorted(reached)),
        witnesses=_Witnesses(reached, len(degrees)),
    )


def shifted_orthant_region(r: int, j: int) -> DegreeRegion:
    """The region N^r[j]: translates of N^r by the sign(j)-weighted compositions of |j|."""
    if r < 1:
        raise InputError("dimension must be >= 1")
    sign = 1 if j >= 0 else -1
    bases = tuple(
        sorted(tuple(sign * x for x in w) for w in _compositions(abs(j), r))
    )
    return DegreeRegion(kind="orthant", bases=bases)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
