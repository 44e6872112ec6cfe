"""Exception taxonomy shared across the package, and the resource caps.

Each error class carries the CLI exit code it maps onto, so raise the most
specific one.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    """A configured degree/box/length cap was exceeded."""

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
            raise InputError(f"max_length must be nonnegative, not {self.max_length}")

    def check_degree(self, what: str, degree: int) -> None:
        if self.max_degree is not None and degree > self.max_degree:
            raise ResourceLimitError(f"{what} {degree} exceeds the degree cap {self.max_degree}")

    def check_length(self, length: int) -> None:
        if self.max_length is not None and length > self.max_length:
            raise ResourceLimitError(f"resolution length exceeds the cap {self.max_length}")


NO_LIMITS = Limits()
