"""Exact coefficient fields, sparse multivariate polynomials, and monomial orders.

Polynomials are plain dicts mapping dense exponent tuples to nonzero field
elements (Fraction for the rationals, int in [1, p) for a prime field).  The
zero polynomial is the empty dict.  All arithmetic goes through a
FieldDescriptor so there is no floating point anywhere.  Every elimination
loop updates a coefficient by the fused `submul(a, b, c) = a - b*c` (or
`negmul(b, c) = -b*c` for a new term): one modular expression over GF(p),
and over QQ one Fraction built from integer numerators and denominators,
so one gcd in place of two normalized products (Henrici's rule, Knuth,
TAOCP Vol. 2, 4.5.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import le, mul, sub

from .errors import GradingError, InputError, show

Mono = tuple[int, ...]
Multidegree = tuple[int, ...]
PolyDict = dict  # Mono -> coefficient


@dataclass(frozen=True)
class FieldDescriptor:
    """An exact coefficient field: the rationals or a prime field GF(p)."""

    kind: str  # "rational" | "prime"
    p: int | None = None
    zero: object = field(init=False, repr=False, compare=False)
    one: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("rational", "prime"):
            raise InputError(f"unknown field kind {self.kind!r}")
        if self.kind == "prime":
            if self.p is not None and self.p >= _PRIME_LIMIT:
                raise InputError(
                    f"characteristic must be below {show(_PRIME_LIMIT)}, got {show(self.p)}")
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise InputError(f"characteristic must be prime, got {show(self.p)}")
        elif self.p is not None:
            raise InputError("rational field takes no characteristic")
        object.__setattr__(self, "zero", 0 if self.p else Fraction(0))
        object.__setattr__(self, "one", 1 if self.p else Fraction(1))

    # -- arithmetic ---------------------------------------------------------
    def of(self, x) -> object:
        """Map an int or Fraction into the field."""
        if self.kind == "prime":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise InputError(f"denominator of {show(x)} is divisible by "
                                     f"the characteristic {show(self.p)}")
                return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
            return x % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def submul(self, a, b, c):
        """a - b*c, exactly as sub(a, mul(b, c)), in one step."""
        if self.p:
            return (a - b * c) % self.p
        da, dbc = a.denominator, b.denominator * c.denominator
        return Fraction(a.numerator * dbc - b.numerator * c.numerator * da, da * dbc)

    def negmul(self, b, c):
        """-b*c, exactly as neg(mul(b, c)): submul for a term not yet present."""
        if self.p:
            return (-b * c) % self.p
        return Fraction(-b.numerator * c.numerator, b.denominator * c.denominator)

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, -1, self.p) if self.kind == "prime" else 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981  # the witnesses decide every p below it


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < _PRIME_LIMIT (Sorenson and Webster,
    Math. Comp. 86 (2017)): p is prime iff no witness shows it composite."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    return not any(pow(a, d, p) != 1 and all(pow(a, d << j, p) != p - 1 for j in range(s))
                   for a in _WITNESSES)


QQ = FieldDescriptor("rational")
DEFAULT_FIELD = FieldDescriptor("prime", 32003)


# -- monomials ---------------------------------------------------------------

def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# -- term orders -------------------------------------------------------------

@dataclass(frozen=True)
class TermOrder:
    """Weight order (weights >= 1) refined by graded reverse-lexicographic.

    Comparison key: weighted degree, then total degree, then revlex (the
    monomial whose last differing exponent is smaller is the larger one).
    This is a multiplicative well-order because every weight is positive.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w < 1 for w in self.weights):
            raise InputError(f"order weights must be >= 1, got {show(self.weights)}")

    def wdeg(self, e: Mono) -> int:
        return sum(map(mul, self.weights, e))

    def key(self, e: Mono):
        return (self.wdeg(e), sum(e), tuple(-x for x in reversed(e)))


# -- the ring ----------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^]))"
)


@dataclass(frozen=True)
class MultigradedRing:
    """A polynomial ring graded by Z^r through per-variable multidegrees.

    `degrees[i]` is the multidegree of `variables[i]`; all rows must share
    the length r.  The ring object is immutable and hashable, so analyses
    keyed on it can be cached safely.
    """

    variables: tuple[str, ...]
    degrees: tuple[Multidegree, ...]
    field: FieldDescriptor = DEFAULT_FIELD

    def __post_init__(self):
        if not self.variables:
            raise InputError("ring needs at least one variable")
        if len(self.degrees) != len(self.variables):
            raise InputError("one multidegree per variable required")
        r = len(self.degrees[0]) if self.degrees else 0
        if r < 1 or any(len(d) != r for d in self.degrees):
            raise InputError("ragged degree matrix")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable names")
        for v in self.variables:
            if not _NAME_RE.fullmatch(v):
                raise InputError(f"bad variable name {v!r}")
        object.__setattr__(self, "_columns", tuple(zip(*self.degrees)))  # for mono_degree

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def r(self) -> int:
        return len(self.degrees[0])

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None

    def mono_degree(self, e: Mono) -> Multidegree:
        return tuple(sum(map(mul, col, e)) for col in self._columns)

    def vdegs(self, v: Multidegree) -> tuple[int, ...]:
        """Coarse degree of every variable under the coarsening vector v."""
        if len(v) != self.r:
            raise InputError("coarsening vector has wrong length")
        return tuple(sum(a * b for a, b in zip(d, v)) for d in self.degrees)

    def order(self, v: Multidegree) -> TermOrder:
        w = self.vdegs(v)
        if any(x < 1 for x in w):
            raise GradingError(f"vector {show(v)} is not a positive coarsening (vdegs {show(w)})")
        return TermOrder(w)

    # -- text syntax ---------------------------------------------------------
    def parse(self, text: str) -> PolyDict:
        """Parse `2*x0^2*y1 - y0*y1` style polynomial text."""
        K = self.field
        pos, out = 0, {}
        sign = 1
        term_coeff, term_mono, in_term = None, None, False

        def flush():
            nonlocal term_coeff, term_mono, in_term, sign
            if not in_term:
                return
            c = K.of(sign) if term_coeff is None else K.of(sign * term_coeff)
            m = term_mono or (0,) * self.n
            cur = K.add(out.get(m, K.zero), c)
            if cur:
                out[m] = cur
            else:
                out.pop(m, None)
            term_coeff, term_mono, in_term, sign = None, None, False, 1

        tokens = []
        while pos < len(text):
            mo = _TOKEN_RE.match(text, pos)
            if not mo:
                if text[pos:].strip():
                    raise InputError(f"cannot parse polynomial near {text[pos:]!r}")
                break
            tokens.append(mo)
            pos = mo.end()

        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.group("op") in ("+", "-"):
                flush()
                if tok.group("op") == "-":
                    sign = -sign
                i += 1
                continue
            if tok.group("op") == "*":
                if not in_term:
                    raise InputError("misplaced '*'")
                i += 1
                continue
            if tok.group("op") == "^":
                raise InputError("misplaced '^'")
            if tok.group("num"):
                val = tok.group("num")
                try:
                    q = Fraction(val) if "/" in val else int(val)
                except ZeroDivisionError:
                    raise InputError(f"zero denominator in coefficient {val!r}") from None
                except ValueError:  # past the interpreter's int-conversion digit limit
                    raise InputError(f"coefficient of {len(val)} characters is too long") from None
                term_coeff = q if term_coeff is None else term_coeff * q
                in_term = True
                i += 1
                continue
            name = tok.group("name")
            j = self.var_index(name)
            exp = 1
            if i + 2 < len(tokens) and tokens[i + 1].group("op") == "^":
                nxt = tokens[i + 2].group("num")
                if nxt is None or "/" in nxt:
                    raise InputError("exponent must be a nonnegative integer")
                try:
                    exp = int(nxt)
                except ValueError:  # past the interpreter's int-conversion digit limit
                    raise InputError(f"exponent of {len(nxt)} digits is too long") from None
                i += 2
            e = list(term_mono or (0,) * self.n)
            e[j] += exp
            term_mono = tuple(e)
            in_term = True
            i += 1
        flush()
        return out

    def poly_str(self, f: PolyDict) -> str:
        """Canonical display form: terms in descending degree-revlex order."""
        if not f:
            return "0"
        parts = []
        for m in sorted(f, key=lambda e: (sum(e), tuple(-x for x in reversed(e))), reverse=True):
            c = f[m]
            mono = "*".join(
                v if k == 1 else f"{v}^{show(k)}"
                for v, k in zip(self.variables, m)
                if k
            )
            if not mono:
                body = show(abs(c)) if self.field.kind == "rational" else show(c)
            elif self.field.kind == "rational":
                body = mono if abs(c) == 1 else f"{show(abs(c))}*{mono}"
            else:
                body = mono if c == 1 else f"{show(c)}*{mono}"
            neg = self.field.kind == "rational" and c < 0
            parts.append(("- " if neg else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


@lru_cache(maxsize=1024)
def monomials_of_weight(weights: tuple[int, ...], target: int) -> tuple[Mono, ...]:
    """All exponent tuples e with sum(e_i * weights_i) == target (weights >= 1)."""
    if target < 0:
        return ()
    if not weights:
        return ((),) if target == 0 else ()
    head, rest = weights[0], weights[1:]
    out = []
    k = 0
    while k * head <= target:
        for tail in monomials_of_weight(rest, target - k * head):
            out.append((k,) + tail)
        k += 1
    return tuple(out)
