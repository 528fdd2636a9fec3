"""The commutative scale group driving dilations.

One realization ships: positive rationals under multiplication, with
modulus equal to the value.  The dyadic grid 2^-k is a sequence of such
scales; the analytic checks sweep them in chunks (see chunks), each a
ScaleBatch or a lone Scale.  Models only ever consume a scale through
kernel_modulus.

Each product, inverse and chunk batch is built once and shared while its
operands live: s keeps s.inv(), and s.mul(m) while m lives; a chunk's
first scale keeps its batch (of the last 8 chunks it heads).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property


@dataclass(frozen=True)
class Scale:
    """A positive rational scale; modulus is the value itself."""

    value: Fraction
    _float: float = field(init=False, repr=False, compare=False)  # taken once
    _hash = cached_property(lambda self: hash(self.value))  # a modular pow
    __hash__ = lambda self: self._hash  # noqa: E731

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise ValueError(f"scale must be positive, got {self.value}")
        object.__setattr__(self, "_float", float(self.value))
        object.__setattr__(self, "_memo", {})  # the results it keeps

    @property
    def modulus(self) -> Fraction:
        return self.value

    def mul(self, other: "Scale") -> "Scale":
        hit = self._memo.get(k := id(other))
        if hit is None or hit[0]() is not other:  # dropped when other dies
            ref = weakref.ref(other, lambda _, m=self._memo: m.pop(k, None))
            hit = self._memo[k] = ref, Scale(self.value * other.value)
        return hit[1]

    def inv(self) -> "Scale":
        return self._memo.get(None) or self._memo.setdefault(
            None, Scale(1 / self.value))

    def __reduce__(self):  # the results it keeps hold weak references
        return Scale, (self.value,)

    @classmethod
    def one(cls) -> "Scale":
        return cls(Fraction(1))

    scales = property(lambda self: (self,))  # as the chunk of one scale

    def __repr__(self):
        return f"Scale({self.value})"


class ScaleBatch:
    """k scales swept as one batch axis: modulus is the (k, 1) column of
    their float(modulus), so each enters a kernel as the float it would
    alone; inv() inverts each scale exactly, once per batch."""

    def __init__(self, scales):
        import numpy as np  # only the analytic side sweeps batches

        self.scales = tuple(scales)
        self.modulus = np.array([[s._float] for s in self.scales])
        self.modulus.flags.writeable = False  # shared by every caller
        self._inv = None

    @staticmethod
    def of(scales) -> "ScaleBatch":
        """The one batch of the chunk scales, kept by its first scale."""
        memo, key = scales[0]._memo, tuple(map(id, scales))
        if (hit := memo.get(key)) is None:  # keep 8: a report pass needs 5
            for old in [k for k in memo if type(k) is tuple][:-7]:
                memo.pop(old, None)
            hit = memo[key] = ScaleBatch(scales)
        return hit

    def inv(self) -> "ScaleBatch":
        self._inv = self._inv or ScaleBatch(s.inv() for s in self.scales)
        return self._inv


def kernel_modulus(scale):
    """|scale| as the carrier kernels take it: float(modulus) for one
    scale, the (k, 1) float column for a ScaleBatch."""
    s = as_scale(scale)
    return s.modulus if isinstance(s, ScaleBatch) else s._float


# points per chunk of a sweep, k n: timed on check_A3, check_A4weak and
# gh_estimate at n = 200 .. 4000, chunks of 4096 to 8192 points ran
# fastest, past 16384 slower than one scale per call.  6144 sweeps the
# report clouds (218 points with A3's probes) in one chunk each.
CHUNK_POINTS = 6144


def chunks(scales, n) -> list:
    """scales (or tuples of them) cut, in order, into chunks of k >= 1 with
    k n <= CHUNK_POINTS for n samples a scale: the one chunk rule."""
    k = max(1, CHUNK_POINTS // max(n, 1))
    return [scales[i:i + k] for i in range(0, len(scales), k)]


def batch(scales):
    """A chunk as the kernels take it: a lone scale as itself (a float to
    the kernels, its results views), several as a ScaleBatch."""
    return scales[0] if len(scales) == 1 else ScaleBatch.of(scales)


def dyadic_grid(kmax: int = 20) -> list:
    """Scales 2^-k for k = 1..kmax -- the default evaluation grid."""
    return list(_dyadic_scales(kmax))  # a fresh list for each caller


@cache  # the Scales, built once per kmax and shared: they are frozen
def _dyadic_scales(kmax: int) -> tuple:
    return tuple(Scale(Fraction(1, 2**k)) for k in range(1, kmax + 1))


def as_scale(s) -> Scale:
    """Coerce ints/Fractions/strings to a rational Scale; a Scale or a
    ScaleBatch passes through."""
    if isinstance(s, (Scale, ScaleBatch)):
        return s
    # floats show up from CLI flags; they convert exactly
    return Scale(Fraction(s))
