"""Exception taxonomy shared across the package, and the resource caps.

Each error class carries the CLI exit code it maps onto, so raise the most
specific one.  Messages format computed numbers through `show`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction


def show(x) -> str:
    """A number, or a tuple or list of them, as str prints it but with every
    integer in full: str(int) raises past the interpreter's digit limit,
    str(Decimal(int)) does not.  Anything else shows as its repr."""
    if type(x) is int:
        return str(Decimal(x))
    if isinstance(x, Fraction):
        return show(x.numerator) + ("" if x.denominator == 1 else "/" + show(x.denominator))
    if isinstance(x, list):
        return "[" + ", ".join(map(show, x)) + "]"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(show, x)) + ("," if len(x) == 1 else "") + ")"
    return repr(x)


class MregError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(MregError):
    """Malformed input: ragged matrices, bad schema, unparseable text."""

    exit_code = 2


class GradingError(MregError):
    """The grading is not positive, or a vector is not a positive coarsening."""

    exit_code = 3


class HomogeneityError(MregError):
    """A polynomial or module element is not homogeneous in the multigrading."""

    exit_code = 4


class ResourceLimitError(MregError):
    """A configured degree/box/length cap was exceeded, or a monomial's
    weighted degree passed what the Groebner core's term codes hold (2^31 - 1)."""

    exit_code = 5


class ZeroModuleError(MregError):
    """An operation that needs a nonzero module received the zero module."""

    exit_code = 2


class InsufficientBoxError(ResourceLimitError):
    """A truncation box was too small to certify the answer; enlarge it."""


@dataclass(frozen=True)
class Limits:
    """Resource caps for the engine; None leaves a cap off.

    max_degree bounds the coarse degree of every S-pair of every Groebner
    run (point ideals, resolutions, Ext and standard-monomial counts) and
    every syzygy degree bound before its region is enumerated.  Generators
    above it are still decided.  max_length bounds the length of every
    minimal free resolution.  A computation the caps stop raises
    ResourceLimitError; the memos key on the whole value, so a result is
    never served to a call with other caps.  A negative max_length raises
    InputError; max_degree may be negative.
    """

    max_degree: int | None = None
    max_length: int | None = None

    def __post_init__(self):
        if self.max_length is not None and self.max_length < 0:
            raise InputError(f"max_length must be nonnegative, not {show(self.max_length)}")

    def check_degree(self, what: str, degree: int) -> None:
        if self.max_degree is not None and degree > self.max_degree:
            raise ResourceLimitError(
                f"{what} {show(degree)} exceeds the degree cap {show(self.max_degree)}")

    def check_length(self, length: int) -> None:
        if self.max_length is not None and length > self.max_length:
            raise ResourceLimitError(f"resolution length exceeds the cap {show(self.max_length)}")


NO_LIMITS = Limits()
