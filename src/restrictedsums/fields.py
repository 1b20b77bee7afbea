"""Exact field arithmetic for GF(p) and the rationals.

Elements are immutable and canonical: a residue in [0, p) for prime fields,
a reduced ``fractions.Fraction`` for the rationals.  The characteristic is
an :class:`ExtendedNat` so that "min with p(F)" clamping is a total operation
even in characteristic zero.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import DivisionByZero, FieldMismatch, NotPrime


@functools.total_ordering
class ExtendedNat:
    """A positive integer or infinity, ordered the obvious way."""

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"ExtendedNat needs an int or None, got {value!r}")
            if value < 1:
                raise ValueError(f"ExtendedNat must be positive, got {value}")
        self._value = value

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinite ExtendedNat has no finite value")
        return self._value

    def clamp(self, x: int) -> int:
        """min(self, x) as a plain integer; infinity never clamps."""
        if self._value is None:
            return x
        return min(self._value, x)

    def __sub__(self, other: int) -> "ExtendedNat":
        # infinity minus a finite amount stays infinite
        if self._value is None:
            return self
        return ExtendedNat(self._value - other)

    def __eq__(self, other):
        if isinstance(other, ExtendedNat):
            return self._value == other._value
        if isinstance(other, int) and not isinstance(other, bool):
            return self._value == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = ExtendedNat(other)
        if not isinstance(other, ExtendedNat):
            return NotImplemented
        # a finite value is below infinity
        return self._value is not None and (other._value is None or self._value < other._value)

    def __hash__(self):
        return hash(("ExtendedNat", self._value))

    def __repr__(self):
        return "inf" if self._value is None else str(self._value)


INFINITY = ExtendedNat(None)


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """GF(p) when ``p`` is set, the rational field when ``p`` is None."""

    p: int | None

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def characteristic(self) -> ExtendedNat:
        return INFINITY if self.p is None else ExtendedNat(self.p)

    def element(self, value: Union[int, Fraction, str, "FieldElement"]) -> "FieldElement":
        """Build a canonical element from an int, Fraction, or "a/b" string."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"element of {value.field} is not in {self}")
            return value
        if self.p is not None:
            if isinstance(value, str):
                value = int(value)
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer residue for {self}")
                value = value.numerator
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"cannot coerce {value!r} into {self}")
            return FieldElement(self, value % self.p)
        if isinstance(value, str):
            try:
                value = Fraction(value)
            except ZeroDivisionError as exc:
                raise ValueError(f"{value!r} has a zero denominator") from exc
        if isinstance(value, int) and not isinstance(value, bool):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        return FieldElement(self, value)

    def embed(self, n: int) -> "FieldElement":
        """Image of the integer n under the canonical ring map Z -> F."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"embed expects an integer, got {n!r}")
        return self.element(n)

    @property
    def zero(self) -> "FieldElement":
        return self.embed(0)

    @property
    def one(self) -> "FieldElement":
        return self.embed(1)

    def elements(self) -> Iterator["FieldElement"]:
        if self.p is None:
            raise ValueError("the rational field is not enumerable")
        for v in range(self.p):
            yield FieldElement(self, v)

    def __str__(self):
        return "rational" if self.p is None else f"gf({self.p})"


def prime_field(p: int) -> FieldDescriptor:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise NotPrime(f"gf({p}): {p} is not prime")
    return FieldDescriptor(p)


def rational_field() -> FieldDescriptor:
    return FieldDescriptor(None)


_FIELD_RE = re.compile(r"^\s*gf\(\s*([+-]?\d+)\s*\)\s*$", re.IGNORECASE)


def parse_field(text: str) -> FieldDescriptor:
    """Parse a field string: ``gf(<decimal>)`` or ``rational``, case-insensitive."""
    if not isinstance(text, str):
        raise TypeError(f"field string expected, got {text!r}")
    if text.strip().lower() == "rational":
        return rational_field()
    m = _FIELD_RE.match(text)
    if m is None:
        raise ValueError(f"unrecognized field string: {text!r}")
    return prime_field(int(m.group(1)))


class FieldElement:
    """Immutable element of a :class:`FieldDescriptor`.

    Arithmetic promotes plain ints through the canonical embedding, so
    ``a + 1`` and ``3 * a`` work.  Equality is canonical-representation
    equality between elements of the same field only; use :attr:`is_zero`
    rather than ``== 0``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"FieldElement is immutable (tried to set {name})")

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.field.embed(other)
        if isinstance(other, Fraction) and self.field.p is None:
            return self.field.element(other)
        return None

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value + o.value
        if self.field.p is not None:
            v %= self.field.p
        return FieldElement(self.field, v)

    __radd__ = __add__

    def __neg__(self):
        v = -self.value
        if self.field.p is not None:
            v %= self.field.p
        return FieldElement(self.field, v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value * o.value
        if self.field.p is not None:
            v %= self.field.p
        return FieldElement(self.field, v)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero(f"zero has no inverse in {self.field}")
        if self.field.p is not None:
            return FieldElement(self.field, pow(self.value, self.field.p - 2, self.field.p))
        return FieldElement(self.field, 1 / self.value)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.p is not None:
            return FieldElement(self.field, pow(self.value, exponent, self.field.p))
        return FieldElement(self.field, self.value**exponent)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """Canonical ordering key within one field (residue, or rational value)."""
        return self.value

    def __repr__(self):
        return f"{self.value}"
