"""Ordinals below w**2 in the canonical form w*a + b.

Every walk length and distance in this package lives below w**2, so an
ordinal is just a pair of naturals (omega_coeff, finite_part).  Addition is
the natural (Hessenberg) sum, which is componentwise and therefore
commutative; comparison is lexicographic.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class HyperOrder(enum.Enum):
    """Order of two values; FILTER_DEPENDENT when two ordinal-valued points
    are ordered one way on the even indices and the other way on the odd."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    FILTER_DEPENDENT = "filter-dependent"


@dataclass(frozen=True, order=True)
class Ordinal:
    """w*omega_coeff + finite_part; dataclass field order gives lex compare."""

    omega_coeff: int = 0
    finite_part: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.omega_coeff, int) or not isinstance(self.finite_part, int):
            raise TypeError("ordinal coefficients must be integers")
        if self.omega_coeff < 0 or self.finite_part < 0:
            raise ValueError("ordinal coefficients must be naturals")

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        return Ordinal(self.omega_coeff + other.omega_coeff,
                       self.finite_part + other.finite_part)

    __radd__ = __add__

    @property
    def is_finite(self) -> bool:
        return self.omega_coeff == 0

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({self.omega_coeff}, {self.finite_part})"


ZERO = Ordinal(0, 0)
OMEGA = Ordinal(1, 0)


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    return a + b


def compare(a: Ordinal, b: Ordinal) -> HyperOrder:
    if a == b:
        return HyperOrder.EQUAL
    return HyperOrder.LESS if a < b else HyperOrder.GREATER


def render_ordinal(o: Ordinal) -> str:
    """Canonical text: "w*3+4", "w*1", "5", "0"."""
    if o.omega_coeff == 0:
        return str(o.finite_part)
    if o.finite_part == 0:
        return f"w*{o.omega_coeff}"
    return f"w*{o.omega_coeff}+{o.finite_part}"


_ORDINAL_RE = re.compile(r"^(?:w\*(\d+))?(?:(?:(?<=\d)\+)?(\d+))?$")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the same grammar render_ordinal emits (w*A+B | w*A | B)."""
    s = text.strip()
    m = _ORDINAL_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None) or s.endswith("+"):
        raise ValueError(f"not an ordinal literal: {text!r}")
    omega = int(m.group(1)) if m.group(1) is not None else 0
    finite = int(m.group(2)) if m.group(2) is not None else 0
    return Ordinal(omega, finite)
