"""Degree matrices, positive gradings, coarsening vectors, and lattice regions.

Positivity of a Z^r-grading is decided exactly: the system {v . a_i >= 1}
must be feasible over the rationals, which we check with Fourier-Motzkin
elimination on Fraction arithmetic.  Coarsening vectors returned to callers
are integral: the first feasible one in a lex-ordered walk of L1 shells.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import GradingError, InputError, show
from .poly import Multidegree

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


def _shell(r: int, n: int, cap: int):
    """Vectors of length r and L1 norm n with coordinates in [-cap, cap], in lex order."""
    if r == 1:
        if n <= cap:
            yield from ((-n,), (n,)) if n else ((0,),)
        return
    for x in range(-min(n, cap), min(n, cap) + 1):
        for rest in _shell(r - 1, n - abs(x), cap):
            yield (x,) + rest


def find_positive_coarsening_vector(degrees) -> Multidegree:
    """Smallest integral v (L1 norm, then lex) with v . a_i >= 1 for all i,
    among the vectors with coordinates up to 64 in absolute value."""
    return _least_coarsening_vector(_validate_degree_matrix(degrees))


@lru_cache(maxsize=128)
def _least_coarsening_vector(degrees) -> Multidegree:
    if not check_positive_grading(degrees):
        raise GradingError("grading is not positive: no coarsening vector exists")
    r = len(degrees[0])
    for n in range(1, _SEARCH_BOX_CAP * r + 1):
        for v in _shell(r, n, _SEARCH_BOX_CAP):
            if all(sum(map(mul, col, v)) >= 1 for col in degrees):
                return v
    raise GradingError(f"no coarsening vector with coordinates up to {_SEARCH_BOX_CAP}")


def primitive_reduce(v) -> Multidegree:
    """Divide v by the gcd of its coordinates."""
    v = tuple(int(x) for x in v)
    g = math.gcd(*v)
    return v if g <= 1 else tuple(x // g for x in v)


def positive_coarsening_candidates(degrees, box: int = 5) -> list[Multidegree]:
    """All primitive positive coarsening vectors with max |coordinate| <= box, in lex order."""
    degrees = _validate_degree_matrix(degrees)
    vectors = itertools.product(range(-box, box + 1), repeat=len(degrees[0]))
    return [v for v in vectors
            if math.gcd(*v) == 1 and all(sum(map(mul, col, v)) >= 1 for col in degrees)]


# -- lattice regions ----------------------------------------------------------

@dataclass(frozen=True)
class DegreeRegion:
    """A decidable region of Z^r.

    kind "finite": `bases` is the (deduplicated, sorted) list of points.
    kind "orthant": union of b + N^r over the base points b.
    """

    kind: str
    bases: tuple[Multidegree, ...]

    def __post_init__(self):
        if self.kind not in ("finite", "orthant"):
            raise InputError(f"unknown region kind {self.kind!r}")

    def __contains__(self, a) -> bool:
        a = tuple(int(x) for x in a)
        if self.kind == "finite":
            return a in set(self.bases)
        return any(all(x >= b for x, b in zip(a, base)) for base in self.bases)


def _step(codes, delta):
    """Every point of a layer moved one step along a column: one addition each."""
    return [c + delta for c in codes]


def _pack(p, width: int, off: int) -> int:
    code = 0
    for x in p:
        code = (code << width) + x + off
    return code


class LatticeRegion:
    """The points of  U_k (b_k + N{a_i})  grown one v-degree layer at a time.

    Layer d holds the bases of v-degree d and, for each distinct column a,
    layer d - v.a stepped by a.  Every column has positive v-degree, so a
    layer depends on lower layers only: the region grown to a bound is a
    prefix of the region at any higher bound, and `levels` answers every
    lower bound from the layers already grown.  Only degrees reachable from
    a base are visited, and only the last max_a v.a layers are kept as sets
    for the recurrence.

    The points of the layers merged so far are kept decoded, in one
    lex-sorted list: `levels` decodes each code once, when its layer is
    first asked for.

    A point p is stored as the integer  sum_k (p_k + off) 2^(width (r-1-k)),
    off = 2^(width-1): a step is the addition of the column's code, and
    integer order is the lexicographic order of the points.  The width fits
    every point up to the grown bound; growing further re-encodes when the
    coordinate bound needs more bits, with headroom for twice the steps.
    """

    def __init__(self, bases, degrees, v):
        degrees = _validate_degree_matrix(degrees)
        self.r = r = len(degrees[0])
        self.v = v = tuple(int(x) for x in v)
        if len(v) != r:
            raise InputError("coarsening vector has wrong length")
        wdegs = [sum(map(mul, col, v)) for col in degrees]
        if any(w < 1 for w in wdegs):
            raise GradingError(f"{show(v)} is not a positive coarsening vector for this matrix")
        self.columns = sorted(set(zip(wdegs, degrees)))
        self.weights = sorted(set(wdegs))
        self.pending: dict[int, set] = {}  # v-degree -> bases not yet in a layer
        for b in bases:
            b = tuple(int(x) for x in b)
            if len(b) != r:
                raise InputError("base point has wrong length")
            self.pending.setdefault(sum(map(mul, b, v)), set()).add(b)
        self.lowest = min(self.pending, default=0)
        self.base_abs = max((abs(x) for pts in self.pending.values() for b in pts for x in b),
                            default=0)
        self.col_abs = max(abs(x) for col in degrees for x in col)
        self.queue = sorted(self.pending)  # a heap of the degrees to visit, with repeats
        self.width = 1
        self.deltas = self._deltas()
        self.codes: list[int] = []  # every point, layer after layer
        self.layer_degrees: list[int] = []
        self.layer_ends: list[int] = []  # len(codes) after each layer
        self.recent: dict[int, set] = {}  # the layers the recurrence still reads
        self.sorted: list[Multidegree] = []  # the points of codes[:merged], sorted
        self.merged = 0

    def _deltas(self):
        return [(w, _pack(col, self.width, 0)) for w, col in self.columns]

    def _decode(self, codes) -> tuple[Multidegree, ...]:
        width, r = self.width, self.r
        mask, off = (1 << width) - 1, 1 << (width - 1)
        coords = [[((c >> (width * (r - 1 - k))) & mask) - off for c in codes]
                  for k in range(r)]
        return tuple(zip(*coords))

    def _widen(self, bound: int):
        """Re-encode if a point of v-degree <= bound may need more bits, with
        headroom for twice the steps: growing re-encodes a log number of times."""
        steps = (bound - self.lowest) // self.weights[0]
        if (self.base_abs + self.col_abs * steps).bit_length() + 1 <= self.width:
            return
        width = (self.base_abs + self.col_abs * 2 * steps).bit_length() + 1
        pts = self._decode(self.codes)
        recent = {d: self._decode(layer) for d, layer in self.recent.items()}
        self.width = width
        off = 1 << (width - 1)
        self.codes = [_pack(p, width, off) for p in pts]
        self.recent = {d: {_pack(p, width, off) for p in layer} for d, layer in recent.items()}
        self.deltas = self._deltas()

    def grow(self, bound: int):
        """Complete every layer of v-degree <= bound."""
        queue = self.queue
        if not queue or queue[0] > bound:
            return
        self._widen(bound)
        off = 1 << (self.width - 1)
        recent, span = self.recent, self.weights[-1]
        while queue and queue[0] <= bound:
            d = heapq.heappop(queue)
            if self.layer_degrees and d == self.layer_degrees[-1]:
                continue
            layer = {_pack(b, self.width, off) for b in self.pending.pop(d, ())}
            for w, delta in self.deltas:
                prev = recent.get(d - w)
                if prev:
                    layer.update(_step(prev, delta))
            self.codes.extend(layer)
            self.layer_degrees.append(d)
            self.layer_ends.append(len(self.codes))
            recent[d] = layer
            for w in self.weights:
                heapq.heappush(queue, d + w)
            for e in [e for e in recent if e <= d - span]:
                del recent[e]

    def _end(self, bound: int) -> int:
        k = bisect.bisect_right(self.layer_degrees, bound)
        return self.layer_ends[k - 1] if k else 0

    def levels(self, bounds) -> list[tuple[Multidegree, ...]]:
        """The sorted points of v-degree <= b for every b in bounds, growing
        the layers if needed; the levels share their point tuples.

        Only the codes of layers past the merged prefix are sorted and
        decoded, once, and merged into the sorted points (timsort merges the
        two runs in linear time); the largest level is a snapshot of that
        list.  A smaller end among the new layers keeps the new points whose
        codes it holds.  An end inside the merged prefix is read off by
        v-degree: layer d holds exactly the points of v-degree d."""
        self.grow(max(bounds))
        ends = [self._end(b) for b in bounds]
        old, top = self.merged, max(ends)
        out = {}
        if top > old:
            new = self.codes[old:top]
            new.sort()
            pts = self._decode(new)
            for end in set(ends):
                if old < end < top:
                    inside = set(self.codes[old:end])
                    level = [p for c, p in zip(new, pts) if c in inside]
                    out[end] = tuple(sorted(self.sorted + level) if old else level)
            self.sorted += pts
            if old:
                self.sorted.sort()
            self.merged = top
        v = self.v
        for end, b in zip(ends, bounds):
            if end not in out:
                out[end] = (tuple(self.sorted) if end == self.merged else
                            tuple(p for p in self.sorted if sum(map(mul, v, p)) <= b))
        return [out[end] for end in ends]

    def points(self, bound: int) -> tuple[Multidegree, ...]:
        """The sorted points of v-degree <= bound."""
        return self.levels((bound,))[0]


def enumerate_bounded_region(bases, degrees, v, bound: int) -> DegreeRegion:
    """All points of  U_k (b_k + N{a_i})  with v-degree <= bound, sorted.

    A fresh LatticeRegion grown to the bound; callers asking one module
    and vector for several bounds keep the region instead (see
    regularity.degree_bound_sets).
    """
    return DegreeRegion(kind="finite", bases=LatticeRegion(bases, degrees, v).points(bound))


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
