"""q-Pochhammer symbols, Gaussian binomials, and rational functions of q
with structurally factored denominators.

The only denominators ever needed are products of factors (1 - q^m); a
QRat keeps that structure explicit, as the sorted tuple of the exponents
m, instead of reducing to lowest terms, so that
``congruence.congruent_mod_phi`` reads coprimality with Phi_n off the
factors.  A constant lives in the integer numerator, and without a
denominator (the empty product) QRat(p) is the polynomial p.

Products and quotients by (1 - q^m) are single passes over a coefficient
list (``LaurentPoly.times_one_minus``/``div_one_minus``): a product of
such factors, such as the factors a proof-step numerator lacks, is one
``factor_product``.  The Pochhammer products (q^u;q^b)_i and the Gaussian
binomials [N, i], each from the one before by one factor (and, for a
binomial, one exact division), are ``Prefixes``: built for i = 0, 1, ...
as far as a caller reads, and kept as long as the caller keeps them.
``union_sum`` builds a sum of terms over their union denominator by
Horner's rule.  No verifier decides through QRat: ``theorems`` folds
numerators over denominators known in advance, and QRat arithmetic with
``union_sum`` and ``congruent_mod_phi`` is the exact oracle the tests
compare them with.
"""

from __future__ import annotations

from .polyring import LaurentPoly


class QRat:
    """Exact rational function num / prod(1 - q^m), num in Z[q, 1/q], the
    product given by ``factors``, the sorted tuple of the exponents m >= 1.
    Immutable; equality is semantic (``union_sum``)."""

    __slots__ = ("num", "factors")

    def __init__(self, num: LaurentPoly, factors=()):
        factors = tuple(sorted(factors))
        if any(type(m) is not int for m in factors):  # bools included
            raise TypeError("denominator factor exponents must be ints")
        if factors and factors[0] < 1:
            raise ValueError("denominator factor exponents must be >= 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    def __reduce__(self):
        return QRat, (self.num, self.factors)

    def __repr__(self):
        return f"QRat(num={self.num!r}, factors={self.factors!r})"

    @staticmethod
    def monomial(exp: int, coef: int = 1) -> "QRat":
        return QRat(LaurentPoly.monomial(exp, coef))

    def __add__(self, other) -> "QRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return union_sum([(self.num, self.factors),
                          (other.num, other.factors)])

    __radd__ = __add__

    def __neg__(self) -> "QRat":
        return QRat(-self.num, self.factors)

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

    def __mul__(self, other) -> "QRat":
        if isinstance(other, (int, LaurentPoly)):
            return QRat(self.num * other, self.factors)
        if not isinstance(other, QRat):
            return NotImplemented
        return QRat(self.num * other.num, self.factors + other.factors)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).num.is_zero

    def __hash__(self):
        raise TypeError("QRat is not hashable (equality is semantic)")

    def shift(self, m: int) -> "QRat":
        """Multiply by q**m."""
        return QRat(self.num.shift(m), self.factors)


def union_sum(terms) -> QRat:
    """The sum of num / prod_{m in factors} (1 - q^m) over the pairs
    (num, factors) in terms, as one numerator over the max-multiplicity
    union of the factor multisets: the QRat that adding the terms one by
    one builds, whose numerator over that denominator is unique.

    Horner's rule, one factor (1 - q^m) at a time: a factor new to the
    union multiplies the sum so far, and each term is multiplied by the
    factors of the union that its own denominator lacks.
    """
    acc, union = LaurentPoly.zero(), {}
    for num, factors in terms:
        own = {}
        for m in factors:
            own[m] = own.get(m, 0) + 1
        for m, c in union.items():
            for _ in range(c - own.get(m, 0)):
                num = num.times_one_minus(m)
        for m, c in own.items():
            for _ in range(c - union.get(m, 0)):
                acc = acc.times_one_minus(m)
                union[m] = union.get(m, 0) + 1
        acc = acc + num
    return QRat(acc, (m for m, c in union.items() for _ in range(c)))


def _coerce(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, LaurentPoly):
        return QRat(x)
    if isinstance(x, int):
        return QRat(LaurentPoly.constant(x))
    return NotImplemented


def factor_product(p: LaurentPoly, exponents) -> LaurentPoly:
    """p prod_{m in exponents} (1 - q^m), one factor at a time."""
    for m in exponents:
        p = p.times_one_minus(m)
    return p


class Prefixes:
    """The sequence p_0 = 1, p_i = step(p_{i-1}, i) of Laurent polynomials,
    built on the first read of an index and only as far as that read.  The
    built part is a tuple that a longer one replaces, never changed in
    place, so concurrent readers never see a partial prefix."""

    __slots__ = ("_step", "_built")

    def __init__(self, step):
        self._step, self._built = step, (LaurentPoly.one(),)

    def upto(self, k: int) -> tuple:
        """p_0, ..., p_k."""
        built = self._built
        if k >= len(built):
            grown = list(built)
            for i in range(len(built), k + 1):
                grown.append(self._step(grown[-1], i))
            built = tuple(grown)
            if k >= len(self._built):
                self._built = built
        return built[:k + 1]

    def __getitem__(self, i: int) -> LaurentPoly:
        built = self._built
        return built[i] if i < len(built) else self.upto(i)[-1]


def pochhammer_prefixes(u: int, b: int) -> Prefixes:
    """(q^u; q^b)_i for i = 0, 1, ...: one factor (1 - q^{u + (i-1) b})
    per step."""
    return Prefixes(lambda p, i: p.times_one_minus(u + (i - 1) * b))


def q_pochhammer(u: int, b: int, k: int) -> LaurentPoly:
    """(q^u; q^b)_k = prod_{j=0}^{k-1} (1 - q^{u + j b})."""
    if k < 0:
        raise ValueError("Pochhammer length must be >= 0")
    return pochhammer_prefixes(u, b)[k]


def binomial_prefixes(N: int, b: int = 1) -> Prefixes:
    """The Gaussian binomials [N choose i] in base q^b for i = 0, 1, ...

    Each comes from the one before by one factor and one exact division,
    [N, i] = [N, i-1] (1 - q^{b(N-i+1)}) / (1 - q^{b i}); for N < 0 these
    are Laurent polynomials, and for 0 <= N < i the factor (1 - q^0) makes
    them zero.  An inexact division is an implementation bug and raises
    ArithmeticError.
    """
    return Prefixes(lambda p, i: p.times_one_minus(b * (N - i + 1))
                    .div_one_minus(b * i))


def gauss_binomial_row(N: int, k: int, b: int = 1) -> list:
    """The Gaussian binomials [N choose i] in base q^b for i = 0..k, from
    ``binomial_prefixes``."""
    if k < 0:
        raise ValueError("lower index must be >= 0")
    return list(binomial_prefixes(N, b).upto(k))


def gauss_binomial(N: int, k: int, b: int = 1) -> LaurentPoly:
    """Gaussian binomial [N choose k] in base q^b.

    For N >= 0 this is the usual polynomial (zero when k > N); for N < 0
    it is a Laurent polynomial.  Built by ``gauss_binomial_row``.
    """
    return gauss_binomial_row(N, k, b)[-1]


def binom_rational_index(r: int, d: int, k: int) -> QRat:
    """[-r/d choose k] in base q^d, defined through the Pochhammer rewrite

        (q^r; q^d)_k / (q^d; q^d)_k
            = (-1)^k q^{r k + d k(k-1)/2} [-r/d choose k]_{q^d}.
    """
    if d < 1:
        raise ValueError("base exponent must be >= 1")
    if k < 0:
        raise ValueError("lower index must be >= 0")
    return QRat(rational_index_numerator(q_pochhammer(r, d, k), r, d, k),
                (d * j for j in range(1, k + 1)))


def rational_index_numerator(poch: LaurentPoly, r: int, d: int, k: int) -> LaurentPoly:
    """The numerator of [-r/d choose k] over (q^d; q^d)_k, from the
    Pochhammer product poch = (q^r; q^d)_k."""
    num = poch.shift(-r * k - d * (k * (k - 1) // 2))
    return -num if k % 2 else num


def poch_to_binom_check(r: int, d: int, k: int) -> bool:
    """Exact-identity check of the Pochhammer-to-binomial rewrite.

    The right side expands the binomial with (possibly) rational upper
    index as prod_{j=0}^{k-1}(1 - q^{-r - d j}) / prod_{j=1}^{k}(1 - q^{d j}).
    Both sides share the denominator (q^d; q^d)_k, so their numerators are
    compared.
    """
    lhs_num = q_pochhammer(r, d, k)
    sign = -1 if k % 2 else 1
    rhs_num = (LaurentPoly.monomial(r * k + d * (k * (k - 1) // 2), sign)
               * q_pochhammer(-r, -d, k))
    return lhs_num == rhs_num


def qchu_check(form: int, n: int, m: int, k: int) -> bool:
    """Check one of the two convolution identities for Gaussian binomials:

        form 1:  [n+m, k] = sum_j q^{(n-j)(k-j)} [n, j] [m, k-j]
        form 2:  [n+m, k] = sum_j q^{j(m-k+j)}   [n, j] [m, k-j]
    """
    if form not in (1, 2):
        raise ValueError("form must be 1 or 2")
    if n < 0 or m < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    lhs = gauss_binomial(n + m, k)
    rhs = LaurentPoly.zero()
    for j in range(k + 1):
        exp = (n - j) * (k - j) if form == 1 else j * (m - k + j)
        rhs = rhs + (gauss_binomial(n, j) * gauss_binomial(m, k - j)).shift(exp)
    return lhs == rhs
