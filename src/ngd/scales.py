"""The commutative scale group driving dilations.

One realization ships: positive rationals under multiplication, with
modulus equal to the value.  The dyadic grid 2^-k is a sequence of such
scales.  Models only ever consume a scale through `.modulus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Scale:
    """A positive rational scale; modulus is the value itself."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise ValueError(f"scale must be positive, got {self.value}")

    @property
    def modulus(self) -> Fraction:
        return self.value

    def mul(self, other: "Scale") -> "Scale":
        return Scale(self.value * other.value)

    def inv(self) -> "Scale":
        return Scale(1 / self.value)

    @classmethod
    def one(cls) -> "Scale":
        return cls(Fraction(1))

    def __repr__(self):
        return f"Scale({self.value})"


def dyadic_grid(kmax: int = 20) -> list:
    """Scales 2^-k for k = 1..kmax -- the default evaluation grid."""
    return [Scale(Fraction(1, 2**k)) for k in range(1, kmax + 1)]


def as_scale(s) -> Scale:
    """Coerce ints/Fractions/strings to a rational Scale."""
    if isinstance(s, Scale):
        return s
    # floats show up from CLI flags; they convert exactly
    return Scale(Fraction(s))
