"""Exact Laurent polynomials in one variable q over the integers.

A LaurentPoly is stored densely: an integer ``low`` (the exponent of the
lowest term) and a tuple of coefficients, where ``coeffs[i]`` is the
coefficient of ``q**(low + i)``.  Coefficients are Python ints; the ring
operations take ints and LaurentPolys only (a rational operand raises
TypeError), and only evaluation takes a rational point.  The zero
polynomial is canonically ``low == 0, coeffs == ()``; for nonzero
polynomials the first and last coefficients are nonzero.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable


class LaurentPoly:
    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: Iterable[int]):
        # no per-coefficient type check: it slows the proof audit by 20-30 %
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)
        # trim to canonical form
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        start = 0
        while start < end and coeffs[start] == 0:
            start += 1
        _set_low(self, low + start if end else 0)
        _set_coeffs(self, tuple(
            coeffs if end - start == len(coeffs) else coeffs[start:end]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.low, self.coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(exp: int, coef: int = 1) -> "LaurentPoly":
        return LaurentPoly(exp, (coef,))

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        if not d:
            return _ZERO
        lo = min(d)
        hi = max(d)
        coeffs = [0] * (hi - lo + 1)
        for e, c in d.items():
            coeffs[e - lo] = c
        return LaurentPoly(lo, coeffs)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Exponent of the highest term; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def terms(self) -> dict:
        return {self.low + i: c for i, c in enumerate(self.coeffs) if c != 0}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        a, b = (self, other) if self.low <= other.low else (other, self)
        off, bc = b.low - a.low, b.coeffs
        out = list(a.coeffs) + [0] * (off + len(bc) - len(a.coeffs))
        out[off:off + len(bc)] = map(add, out[off:off + len(bc)], bc)
        return LaurentPoly(a.low, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self.low, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            return _make(self.low, [c * other for c in self.coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        # only the nonzero terms: a polynomial in q^d has d - 1 zeros per term
        a = [(i, ca) for i, ca in enumerate(a) if ca]
        for j, cb in enumerate(b):
            if cb:
                for i, ca in a:
                    out[i + j] += ca * cb
        return _make(self.low + other.low, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # square only while bits remain
                base = base * base
        return result

    def shift(self, t: int) -> "LaurentPoly":
        """Multiply by q**t (every exponent increased by t)."""
        if not self.coeffs:
            return _ZERO
        return _make(self.low + t, self.coeffs)

    def times_one_minus(self, m: int) -> "LaurentPoly":
        """Multiply by (1 - q^m) in one pass over the coefficients."""
        a = self.coeffs
        if not a or not m:
            return _ZERO
        if m > 0:
            return _make(self.low, list(a[:m]) + [0] * (m - len(a))
                         + list(map(sub, a[m:], a)) + [-c for c in a[-m:]])
        # 1 - q^m = q^m (q^{-m} - 1)
        return _make(self.low + m, [-c for c in a[:-m]] + [0] * (-m - len(a))
                     + list(map(sub, a, a[-m:])) + list(a[m:]))

    def div_one_minus(self, m: int) -> "LaurentPoly":
        """Exact quotient by (1 - q^m): c_i = a_i + c_{i-m}.  A nonzero
        remainder raises ArithmeticError."""
        if not m:
            raise ZeroDivisionError("division by 1 - q^0 = 0")
        if m < 0:  # 1 - q^m = -q^m (1 - q^{-m})
            return -self.div_one_minus(-m).shift(-m)
        c = list(self.coeffs)
        for start in range(m, len(c), m):
            c[start:start + m] = [x + y for x, y in zip(c[start:start + m],
                                                        c[start - m:start])]
        if any(c[-m:]):
            raise ArithmeticError(f"(1 - q^{m}) does not divide {self}")
        return _make(self.low, c[:-m])

    def divrem(self, other: "LaurentPoly") -> tuple:
        """Exact long division of honest polynomials by a divisor with
        leading coefficient +-1, so integer coefficients stay integral.

        Both operands must have ``low >= 0``, and any other leading
        coefficient raises ValueError: every divisor in the package is a
        power of a cyclotomic polynomial.  Returns (quotient, remainder)
        with deg(remainder) < deg(divisor).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.low < 0 or other.low < 0:
            raise ValueError("divrem requires honest polynomials (low >= 0)")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError(f"divrem needs a leading coefficient +-1, not {lead}")
        if self.is_zero:
            return _ZERO, _ZERO
        a = [0] * self.low + list(self.coeffs)
        b = [0] * other.low + list(other.coeffs)
        db = len(b) - 1
        if len(a) - 1 < db:
            return _ZERO, self
        quo = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            if a[i] == 0:
                continue
            c = a[i] * lead
            quo[i - db] = c
            a[i] = 0
            for j in range(db):
                a[i - db + j] -= c * b[j]
        return LaurentPoly(0, quo), LaurentPoly(0, a[:db])

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Evaluate at a rational point (x != 0 when low < 0)."""
        if self.low < 0 and x == 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.low:
            if self.low > 0:
                acc *= x ** self.low
            else:
                acc *= Fraction(1, 1) / Fraction(x) ** (-self.low)
        return acc

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.terms().items()):
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


_set_low, _set_coeffs = LaurentPoly.low.__set__, LaurentPoly.coeffs.__set__


def _make(low: int, coeffs) -> LaurentPoly:
    """A LaurentPoly from coefficients with nonzero ends, not scanned again."""
    p = object.__new__(LaurentPoly)
    _set_low(p, low)
    _set_coeffs(p, tuple(coeffs))  # a tuple is not copied
    return p


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.constant(x) if x != 0 else _ZERO
    return NotImplemented


_ZERO = LaurentPoly(0, ())
_ONE = LaurentPoly(0, (1,))

#: the variable itself, for building expressions
Q = LaurentPoly.monomial(1)
