"""Extended-real values: finite numbers, the two infinities, and "undefined".

Moment functions of Levy processes routinely take the values +inf (an
exponential moment blows up) and, for the derivative, also -inf or no value
at all (positive and negative parts both diverge).  Encoding those states in
a small value type keeps NaN/inf sentinels out of public interfaces.
"""

from __future__ import annotations

import math
from typing import Union

from .record import Record

__all__ = ["ExtReal", "POS_INF", "NEG_INF", "UNDEFINED", "as_extreal"]

_FINITE = "finite"
_POS = "+inf"
_NEG = "-inf"
_UNDEF = "undefined"


class ExtReal(Record):
    """An element of [-inf, +inf] plus a distinguished "undefined" state.

    Construct finite values with ``ExtReal.finite(x)`` and use the module
    constants :data:`POS_INF`, :data:`NEG_INF`, :data:`UNDEFINED` for the
    rest.  Arithmetic implements the usual conventions and maps the
    indeterminate forms (inf - inf, 0 * inf) to undefined.
    """

    kind: str
    _value: float = 0.0

    @staticmethod
    def finite(x: float) -> "ExtReal":
        x = float(x)
        if math.isnan(x):
            return UNDEFINED
        if math.isinf(x):
            return POS_INF if x > 0 else NEG_INF
        return ExtReal(_FINITE, x)

    # -- predicates -----------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE

    @property
    def is_pos_inf(self) -> bool:
        return self.kind == _POS

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == _NEG

    @property
    def is_undefined(self) -> bool:
        return self.kind == _UNDEF

    @property
    def is_infinite(self) -> bool:
        return self.kind in (_POS, _NEG)

    # -- accessors ------------------------------------------------------
    @property
    def value(self) -> float:
        """The finite value; raises for non-finite states."""
        if self.kind != _FINITE:
            raise ValueError(f"no finite value: {self}")
        return self._value

    def as_float(self) -> float:
        """Lossy float view (inf maps to math.inf, undefined to nan).

        Intended for display and serialization edges only.
        """
        if self.kind == _FINITE:
            return self._value
        if self.kind == _POS:
            return math.inf
        if self.kind == _NEG:
            return -math.inf
        return math.nan

    # -- arithmetic ------------------------------------------------------
    def __neg__(self) -> "ExtReal":
        if self.kind == _FINITE:
            return ExtReal.finite(-self._value)
        if self.kind == _POS:
            return NEG_INF
        if self.kind == _NEG:
            return POS_INF
        return UNDEFINED

    def __add__(self, other: "ExtRealLike") -> "ExtReal":
        other = as_extreal(other)
        if self.kind == _UNDEF or other.kind == _UNDEF:
            return UNDEFINED
        if self.kind == _FINITE and other.kind == _FINITE:
            return ExtReal.finite(self._value + other._value)
        if self.is_infinite and other.is_infinite:
            return self if self.kind == other.kind else UNDEFINED
        return self if self.is_infinite else other

    __radd__ = __add__

    def __sub__(self, other: "ExtRealLike") -> "ExtReal":
        return self + (-as_extreal(other))

    def __mul__(self, other: "ExtRealLike") -> "ExtReal":
        other = as_extreal(other)
        if self.kind == _UNDEF or other.kind == _UNDEF:
            return UNDEFINED
        if self.kind == _FINITE and other.kind == _FINITE:
            return ExtReal.finite(self._value * other._value)
        # at least one infinite factor
        sa, sb = self.sign(), other.sign()
        if sa == 0 or sb == 0:
            return UNDEFINED
        return POS_INF if sa * sb > 0 else NEG_INF

    __rmul__ = __mul__

    def sign(self) -> int:
        if self.kind == _POS:
            return 1
        if self.kind == _NEG:
            return -1
        if self.kind == _UNDEF:
            raise ValueError("sign of undefined")
        return (self._value > 0) - (self._value < 0)

    # -- order -----------------------------------------------------------
    def _key(self) -> float:
        if self.kind == _UNDEF:
            raise ValueError(f"cannot order {self}")
        return self.as_float()

    def __lt__(self, other: "ExtRealLike") -> bool:
        return self._key() < as_extreal(other)._key()

    def __le__(self, other: "ExtRealLike") -> bool:
        return self._key() <= as_extreal(other)._key()

    def __gt__(self, other: "ExtRealLike") -> bool:
        return self._key() > as_extreal(other)._key()

    def __ge__(self, other: "ExtRealLike") -> bool:
        return self._key() >= as_extreal(other)._key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == _FINITE:
            return f"ExtReal({self._value!r})"
        return f"ExtReal<{self.kind}>"


POS_INF = ExtReal(_POS)
NEG_INF = ExtReal(_NEG)
UNDEFINED = ExtReal(_UNDEF)

ExtRealLike = Union[ExtReal, float, int]


def as_extreal(x: ExtRealLike) -> ExtReal:
    """Coerce a float/int (including math.inf) to :class:`ExtReal`."""
    if isinstance(x, ExtReal):
        return x
    return ExtReal.finite(float(x))
