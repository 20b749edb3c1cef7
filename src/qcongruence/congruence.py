"""Congruences of exact rational functions modulo Phi_n(q)^k, plus the
small amount of elementary number theory the statements need.

A congruence f == g (mod Phi_n^k) whose denominators are units modulo
Phi_n holds exactly when Phi_n^k divides the numerator Delta of f - g
over a common denominator, so every verdict comes from folding such a
numerator into the residue ring Z[q]/((q^N - eps)^k) (``Residue``,
``fold_mod_binomial_power``), (N, eps) = (n/2, -1) for even n and (n, 1)
for odd n, the least binomial modulus that Phi_n^k divides; there q is a
unit and every element is k vectors of length N.  The verdict is the
remainder of the folded Delta, a polynomial of degree < k N, under exact
division by the monic polynomial Phi_n^k, which does not depend on the
multiple of Phi_n^k that the ring is built on.  ``congruent_mod_phi``,
the exact oracle, takes Delta over the max-multiplicity union of two
QRat denominators (``union_sum``), checked coprime to Phi_n.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, mul, sub
from typing import Optional, Union

from .cyclotomic import cyclotomic
from .polyring import LaurentPoly
from .qcombinatorics import QRat, union_sum


class CongruenceDomainError(ValueError):
    """A precondition violation (not a false verdict)."""


class Verdict:
    """Holds exactly when it carries neither a witness (a nonzero
    residue) nor a reason (why a failure has no residue).

    The witness of a failed congruence f == g (mod Phi_n^k) is the
    remainder mod Phi_n^k of the folded numerator of f - g over the
    union of the two denominators (``congruent_mod_phi``).  A pure
    function may stand in for it, called on the first read of ``witness``
    (never by ``holds`` or ``bool``), so concurrent first reads agree;
    pickling computes it.  Verdicts are immutable and compare by their
    four fields."""

    __slots__ = ("holds", "modulus_power", "_witness", "reason")

    def __init__(self, holds: bool, modulus_power: int,
                 witness: Optional[LaurentPoly] = None,
                 reason: Optional[str] = None):
        if holds != (witness is None and reason is None):
            raise ValueError("a verdict fails exactly with a witness or reason")
        for name, value in zip(self.__slots__,
                               (holds, modulus_power, witness, reason)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Verdict is immutable")

    @property
    def witness(self) -> Optional[LaurentPoly]:
        w = self._witness
        # a LaurentPoly is callable too (evaluation), so tell them by type
        if w is not None and not isinstance(w, LaurentPoly):
            w = w()
            object.__setattr__(self, "_witness", w)
        return w

    def __reduce__(self):
        return Verdict, self._fields()

    def _fields(self) -> tuple:
        return self.holds, self.modulus_power, self.witness, self.reason

    def __eq__(self, other):
        return isinstance(other, Verdict) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("Verdict(holds=%r, modulus_power=%r, witness=%r, reason=%r)"
                % self._fields())

    def __bool__(self) -> bool:
        return self.holds


def residue_index(x: Union[int, Fraction], n: int) -> int:
    """The unique a in [0, n) with denominator(x) * a == numerator(x) mod n."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    x = Fraction(x)
    try:
        inv = pow(x.denominator, -1, n)
    except ValueError as exc:
        raise CongruenceDomainError(
            f"denominator {x.denominator} is not invertible modulo {n}") from exc
    return (x.numerator * inv) % n


def is_odd_prime(p: int) -> bool:
    """Deterministic trial division; inputs in scope are tiny."""
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def legendre(m: int, p: int) -> int:
    """Legendre symbol (m | p) by Euler's criterion."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    m %= p
    if m == 0:
        return 0
    v = pow(m, (p - 1) // 2, p)
    return 1 if v == 1 else -1


# -- the residue ring Z[q]/((q^N - eps)^k) ----------------------------------

class Residue:
    """An element sum_{j<k} t^j c_j(q) of Z[q]/((q^N - eps)^k), t = q^N - eps.

    (N, eps) is (n/2, -1) for even n and (n, 1) for odd n, so for even n
    every vector is half as long as in Z[q]/((q^n - 1)^k).  ``c`` is a
    list of k coefficient lists of length N, ``c[j][i]`` being the
    coefficient of t^j q^i.  Because q^N = eps + t, multiplying by q^m
    with m = M N + s is a rotation by s whose wrapped part picks up the
    factor eps and carries into the next power of t, followed by the
    truncated binomial (eps + t)^M.
    """

    __slots__ = ("n", "k", "c", "N", "eps")

    def __init__(self, n: int, k: int, c: list):
        self.n, self.k, self.c = n, k, c
        # q^N - eps is the least binomial that Phi_n divides
        self.N, self.eps = (n // 2, -1) if n % 2 == 0 else (n, 1)

    def __add__(self, other: "Residue") -> "Residue":
        return Residue(self.n, self.k, [[x + y for x, y in zip(a, b)]
                                        for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "Residue") -> "Residue":
        return Residue(self.n, self.k, [[x - y for x, y in zip(a, b)]
                                        for a, b in zip(self.c, other.c)])

    def __mul__(self, scalar) -> "Residue":
        return Residue(self.n, self.k, [[scalar * x for x in a] for a in self.c])

    def _times_q(self, m: int) -> tuple:
        """(sign, c): q^m times this element is sign times the element with
        coefficient lists c; sign = eps^M is left to the caller to absorb."""
        eps = self.eps
        big, s = divmod(m, self.N)
        c = self.c
        if s:
            cut = self.N - s
            # x t^j q^N = eps x t^j + x t^(j+1) for each wrapped coefficient x
            top = c[0][cut:] if eps > 0 else [-x for x in c[0][cut:]]
            wrap = add if eps > 0 else sub
            c = [top + c[0][:cut]] + [
                list(map(wrap, lo[cut:], hi[cut:])) + hi[:cut]
                for lo, hi in zip(c, c[1:])]
        if big:
            # the coefficient of t^j in (1 + eps t)^big, for any integer big
            binoms = [comb(big, j) * eps ** j if big > 0 else
                      comb(j - big - 1, j) * (-eps) ** j for j in range(self.k)]
            out = []
            for j, cj in enumerate(c):
                for i in range(j):
                    b = binoms[j - i]
                    if b:
                        cj = [x + b * y for x, y in zip(cj, c[i])]
                out.append(cj)
            c = out
        return eps ** (big % 2), c

    def shift(self, m: int) -> "Residue":
        """Multiply by q^m (m may be negative)."""
        sign, c = self._times_q(m)
        out = Residue(self.n, self.k, c)
        return out if sign > 0 else out * -1

    def times_one_minus(self, m: int) -> "Residue":
        """Multiply by the factor (1 - q^m)."""
        sign, c = self._times_q(m)
        other = Residue(self.n, self.k, c)
        return self - other if sign > 0 else self + other

    def poly(self) -> LaurentPoly:
        """The representative sum_j c_j(q) (q^N - eps)^j, of degree < k N."""
        acc = LaurentPoly.zero()
        for cj in reversed(self.c):
            acc = acc.shift(self.N) + (-acc if self.eps > 0 else acc) \
                + LaurentPoly(0, cj)
        return acc

    def verdict(self) -> Verdict:
        """Decide whether this element vanishes modulo Phi_n^k, which
        divides (q^N - eps)^k."""
        rem = self.poly()
        if rem.coeffs:
            rem = rem.divrem(cyclotomic(self.n) ** self.k)[1]
        return Verdict(True, self.k) if rem.is_zero else Verdict(False, self.k, rem)


def fold_mod_binomial_power(p: LaurentPoly, n: int, k: int) -> Residue:
    """Reduce the Laurent polynomial p into Z[q]/((q^N - eps)^k).

    Since q^{M N + s} = q^s (eps + t)^M, digit j at slot s of q^{-low} p,
    low = p.low, is the strided sum over the blocks M >= 0 of
    binom(M, j) eps^{M - j} a_{low + M N + s}, a_e the coefficient of q^e;
    slots past the last coefficient are zero.  One ``Residue.shift`` by
    low then multiplies by q^low.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    out = Residue(n, k, [])
    N, eps, coeffs = out.N, out.eps, p.coeffs
    used = min(N, len(coeffs))
    blocks = range(-(-len(coeffs) // N))
    for j in range(k):
        w = [comb(M, j) * eps ** ((M - j) % 2) for M in blocks]
        out.c.append([sum(map(mul, w, coeffs[i::N])) for i in range(used)]
                     + [0] * (N - used))
    return out.shift(p.low)


def congruent_mod_phi(f: QRat, g: QRat, n: int, k: int) -> Verdict:
    """Decide f == g (mod Phi_n(q)^k) on the numerator of f - g over the
    max-multiplicity union of the two denominators; a failing verdict's
    witness is that numerator's remainder mod Phi_n^k."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    for side, name in ((f, "left"), (g, "right")):
        # Phi_n divides (1 - q^m) exactly when n divides m
        if any(m % n == 0 for m in side.factors):
            raise CongruenceDomainError(
                f"{name} denominator shares a factor with Phi_{n}")
    delta = union_sum([(f.num, f.factors), (-g.num, g.factors)])
    return fold_mod_binomial_power(delta.num, n, k).verdict()
