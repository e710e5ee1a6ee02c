"""Exact arithmetic in the deformation parameter.

Everything downstream works over the field Q(v) where v = q^(1/2), so that
both integer powers of q and the half-integer powers needed by the explicit
sl_n constants stay representable.  There is one arithmetic:

* ``RatFunc`` -- an element of Q(v) held over the integers as
  c * v^s * N(v) / D(v): a rational content c, a v-shift s, and coprime
  primitive integer polynomials N, D with nonzero constant terms and
  positive leading coefficients.  c is an ``int`` when it is integral and
  a ``Fraction`` with denominator > 1 otherwise.  The form is canonical,
  so equality is plain structural equality.

``LaurentPoly`` is a view for input and inspection only: a dict {exponent:
Fraction} with no operators.  ``RatFunc.num``/``.den`` present a value as
such a quotient (denominator monic, of valuation 0), ``RatFunc(num, den)``
reads views back, and printing and JSON write that quotient straight from
the integer form.  ``RatFunc.from_json`` reads a stored {exponent: "p/q"}
into integer parts, with no Fraction per coefficient and no view.

All scalar work runs on Python ints, through one gcd and one exact-division
routine over Z[v]: the primitive remainder sequence (Brown, J. ACM 18,
1971).  Products and sums cancel before they multiply, in the manner of
Henrici (J. ACM 3, 1956), so a finished result is never normalized again.
Arithmetic on two RatFuncs reads their parts directly (only an int, a
Fraction or a view is coerced, and a float or complex operand raises
TypeError), and no gcd or polynomial product is
computed on a part (1,): a product with a monomial c * v^s, or a sum of
two polynomials, needs no gcd at all.  The q-numbers, square roots and
``clear_denominators`` (a vector scaled to coprime polynomials) are
computed on the same integer form.  Only this module builds a RatFunc
from its parts (``RatFunc._make``); elsewhere ``x.vshift(k)`` gives x v^k.
``laurent_gcd`` and ``_divmod_laurent`` are the old view-level entry points:
nothing here calls them.  They are kept, unchanged, because the benchmark's
tracer patches them by name; they go when the tracer reads library records
instead (ROADMAP item 6).

The gcd of two nonconstant operands is memoized in a bounded
least-recently-used table of ``GCD_MEMO_SIZE`` entries, keyed on the operand
tuples and holding only tuples.  This table is process state: a pipeline
meets the same few denominators over and over, and most cancellations pair
one of them with a short numerator it has seen before.  Stored views are
memoized the same way, since a stored table repeats a few denominators
across its constants: a second bounded table of ``VIEW_MEMO_SIZE``
entries, keyed on a view's ordered (exponent, coefficient) strings and
holding its integer parts as tuples, reads each distinct view once.  A
refused view raises and is never kept.

The classical limit is evaluation at v = 1; q-conjugation is the ring
automorphism v -> 1/v (i.e. h -> -h for q = e^h).

All operations are pure; no instance is mutated after construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm, log2


class DenominatorVanishes(ZeroDivisionError):
    """Raised for a zero denominator, or a classical limit at a pole at v = 1."""


class InvalidRange(ValueError):
    """Raised for q-binomial arguments outside 0 <= b <= a."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial in v over Q, as a view {exponent: Fraction}.

    It has no arithmetic: ``RatFunc(num, den)`` turns views into a value,
    and ``RatFunc.num``/``.den`` turn a value back into views.  A view
    equals (and hashes as) the RatFunc it denotes.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, x in coeffs.items():
                x = _fr(x)
                if x != 0:
                    c[int(e)] = x
        self.coeffs = c

    @staticmethod
    def constant(x) -> "LaurentPoly":
        return LaurentPoly({0: _fr(x)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, RatFunc)):
            return RatFunc(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(RatFunc(self))

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


# ---------------------------------------------------------------------------
# integer polynomials: ascending coefficient lists over Z
# ---------------------------------------------------------------------------

_ONE = (1,)


def _zmul(a, b):
    """Product of two integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        x = b[0]
        return [x * y for y in a] if x != 1 else list(a)
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(a) if y]
    for i, x in enumerate(b):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _zdivmod(a, b):
    """Division of integer polynomials that scales only when it must.

    Returns (m, q, r) with m*a = q*b + r, len(r) < len(b) and r free of
    trailing zeros.  m is a power of lc(b); it is 1 when every step divides
    exactly, so b divides a over Z exactly when m == 1 and r is empty.
    The loops skip zero coefficients: most polynomials here are in q = v^2
    or in a higher power of v.
    """
    top, lb = len(b) - 1, b[-1]
    r = list(a)
    if len(r) <= top:
        return 1, [], r
    q = [0] * (len(r) - top)
    m = 1
    terms = [(j - top, y) for j, y in enumerate(b) if y]
    for k in range(len(r) - 1, top - 1, -1):
        c = r[k]
        if not c:
            continue
        f, rem = divmod(c, lb)
        if rem:
            r = [x * lb for x in r]
            q = [x * lb for x in q]
            m *= lb
            f = c
        q[k - top] = f
        for j, y in terms:
            r[k + j] -= f * y
    del r[top:]
    if any(r):
        while not r[-1]:
            r.pop()
        return m, q, r
    return m, q, []


def _zexact(a, b):
    """a / b over Z; raises ValueError unless b divides a exactly."""
    m, q, r = _zdivmod(a, b)
    if m != 1 or r:
        raise ValueError("division is not exact")
    return q


def _zprimitive(t):
    """Split a nonzero integer polynomial without trailing zeros into
    (content, valuation, primitive part): t = content * v^valuation * part,
    where the part has a nonzero constant term and a positive leading
    coefficient."""
    val = 0
    while not t[val]:
        val += 1
    if val:
        t = t[val:]
    g = gcd(*t)
    if t[-1] < 0:
        g = -g
    if g != 1:
        t = [x // g for x in t]
    return g, val, t


GCD_MEMO_SIZE = 1024


def _zgcd(a, b):
    """(g, a/g, b/g) for the gcd g of two primitive integer polynomials
    with nonzero constant terms.  g is primitive with a positive leading
    coefficient.  A constant operand costs nothing; any other pair goes
    through the memoized remainder sequence, and its parts are tuples.
    """
    if len(a) == 1 or len(b) == 1:
        return _ONE, a, b
    return _zgcd_memo(tuple(a), tuple(b))


@lru_cache(maxsize=GCD_MEMO_SIZE)
def _zgcd_memo(a, b):
    """_zgcd of two nonconstant tuples by the primitive remainder sequence
    (Brown 1971), with every part a tuple, so no caller can change a cached
    result.

    When the first division is exact its quotient is the cofactor.  v does
    not divide g, so each remainder sheds its v-power as well as its
    content.
    """
    flip = len(a) < len(b)
    x, y = (b, a) if flip else (a, b)
    m, q, r = _zdivmod(x, y)
    if not r:
        q = tuple(c // m for c in q) if m != 1 else tuple(q)
        return (y, _ONE, q) if flip else (y, q, _ONE)
    x, y = y, _zprimitive(r)[2]
    while len(y) > 1:
        r = _zdivmod(x, y)[2]
        if not r:
            return tuple(y), tuple(_zexact(a, y)), tuple(_zexact(b, y))
        x, y = y, _zprimitive(r)[2]
    return _ONE, a, b


def _zlcm(a, b):
    """The lcm of two primitive integer polynomials with nonzero constant
    terms, as a tuple: a times b / gcd(a, b)."""
    return tuple(_zmul(a, _zgcd(a, b)[2]))


def _zsqrt(t):
    """The square root with a positive leading coefficient of an integer
    polynomial with a positive leading coefficient, or None when it is not
    the square of an integer polynomial.  Coefficients are found from the
    top down; by Gauss's lemma an integer square root is the only kind a
    primitive polynomial can have."""
    if len(t) % 2 == 0:
        return None
    top = isqrt(t[-1])
    if top * top != t[-1]:
        return None
    m = (len(t) + 1) // 2
    r = [0] * m
    r[-1] = top
    for k in range(m - 2, -1, -1):
        e = k + m - 1
        acc = t[e] - sum(r[i] * r[e - i] for i in range(k + 1, m - 1))
        x, rem = divmod(acc, 2 * top)
        if rem:
            return None
        r[k] = x
    return tuple(r) if _zmul(r, r) == list(t) else None


def _zsplit(p):
    """(content, valuation, primitive int tuple) of a nonzero int, Fraction
    or LaurentPoly view; None for zero."""
    if isinstance(p, (int, Fraction)):
        return (_fr(p), 0, _ONE) if p else None
    if not isinstance(p, LaurentPoly):
        raise TypeError(f"a RatFunc is read from an int, a Fraction or a LaurentPoly, "
                        f"not a {type(p).__name__}")
    co = p.coeffs
    if not co:
        return None
    g, den, lo, t = _zlayout({e: (x.numerator, x.denominator) for e, x in co.items()})
    return Fraction(g, den), lo, t


def _zlayout(terms: dict):
    """(g, den, valuation, primitive int tuple) of a nonzero Laurent
    polynomial given as {exponent: (p, q)}, each p/q in lowest terms with
    q > 0: the polynomial is g/den * v^valuation * part.  The span from the
    lowest to the highest exponent is laid out densely, so callers bound
    the exponents first."""
    lo = min(terms)
    den = lcm(*(q for _, q in terms.values()))
    t = [0] * (max(terms) - lo + 1)
    for e, (p, q) in terms.items():
        t[e - lo] = p * (den // q)
    g, _, t = _zprimitive(t)
    return g, den, lo, tuple(t)


def _zterms(c, s: int, t, top: int):
    """c * v^s * t / top, for top > 0, as ascending (exponent, "p/q") terms,
    each coefficient in lowest terms as str(Fraction) writes it."""
    p0, q0 = c.numerator, c.denominator * top
    out = []
    for i, x in enumerate(t):
        if x:
            p = p0 * x
            g = gcd(p, q0)
            out.append((s + i, str(p // g) if g == q0 else f"{p // g}/{q0 // g}"))
    return out


def _format_terms(terms) -> str:
    """Terms highest exponent first, q = v^2 for even exponents: '2*q - 2*q^{-1}'."""
    parts = []
    for e, x in reversed(terms):
        if e:
            var, k = ("q", e // 2) if e % 2 == 0 else ("v", e)
            body = var if k == 1 else f"{var}^{k}" if k > 0 else f"{var}^{{{k}}}"
            x = body if x == "1" else f"-{body}" if x == "-1" else f"{x}*{body}"
        if parts:
            x = f"- {x[1:]}" if x[0] == "-" else f"+ {x}"
        parts.append(x)
    return " ".join(parts) or "0"


def _zlaurent(c: Fraction, s: int, t) -> LaurentPoly:
    """The view of c * v^s * t."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = {s + i: c * x for i, x in enumerate(t) if x}
    return out


# Kept for the benchmark's tracer, which counts calls to these two by name;
# the library calls neither.  Remove them once the tracer reads library
# records instead (ROADMAP item 6).

def _divmod_laurent(a: LaurentPoly, b: LaurentPoly):
    """Quotient/remainder; remainder is taken in the ordinary-poly sense
    after shifting both operands to valuation 0."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if a.is_zero():
        return LaurentPoly(), LaurentPoly()
    ca, sa, ta = _zsplit(a)
    cb, sb, tb = _zsplit(b)
    m, q, r = _zdivmod(ta, tb)
    return _zlaurent(ca / (cb * m), sa - sb, q), _zlaurent(ca / m, sa, r)


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd as ordinary polynomials (valuation factors v^k are units
    in the Laurent ring and are dropped)."""
    if a.is_zero() and b.is_zero():
        return LaurentPoly()
    if a.is_zero() or b.is_zero():
        g = _zsplit(a or b)[2]
    else:
        g = _zgcd(_zsplit(a)[2], _zsplit(b)[2])[0]
    return _zlaurent(Fraction(1, g[-1]), 0, g)


def _fraction_sqrt(x: Fraction):
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


class RatFunc:
    """An element c * v^s * N(v) / D(v) of Q(v), held over Z.

    c is an int when it is integral (0 for the zero element, with N = ()
    and D = (1,)) and a Fraction with denominator > 1 otherwise; N and D
    are primitive integer polynomials, stored as ascending tuples, with
    nonzero constant terms, positive leading coefficients and
    gcd(N, D) = 1.  The form is canonical, so equality and hashing are
    structural, except that zero and the constants hash as the int or
    Fraction they equal.

    Arithmetic never normalizes a finished result.  A product cancels
    gcd(N1, D2) and gcd(N2, D1) before it multiplies (Henrici); a sum over
    g = gcd(D1, D2) is reduced only by the gcd of its numerator with g.
    No gcd or product is computed on a part (1,), so a product with a
    monomial c * v^s only multiplies contents and adds shifts, and two int
    contents multiply with no check.  Negation, inversion and q-conjugation
    need no gcd at all.  Nonconstant gcds go through the module's bounded
    memo.  Only an operand that is not a RatFunc goes through coercion.

    ``RatFunc(num, den)`` is the way in from outside: it takes ints,
    Fractions or LaurentPoly views and normalizes them once.  The library
    builds its values from integer parts and never goes through a view.
    ``num`` and ``den`` give a value back, for inspection, as views with
    Fraction coefficients over a monic denominator of valuation 0; printing
    and JSON write that quotient from the integer parts, with no view.
    """

    __slots__ = ("c", "s", "n", "d")

    def __init__(self, num, den=None):
        d = _zsplit(1 if den is None else den)
        if d is None:
            raise DenominatorVanishes("zero denominator")
        n = _zsplit(num)
        if n is None:
            self.c, self.s, self.n, self.d = 0, 0, (), _ONE
            return
        (cn, sn, n), (cd, sd, d) = n, d
        _, n, d = _zgcd(n, d)
        self.c, self.s, self.n, self.d = _integral(cn / cd), sn - sd, tuple(n), tuple(d)

    @staticmethod
    def _make(c, s, n, d) -> "RatFunc":
        """A RatFunc from parts that already satisfy the invariants, N and D
        given as tuples."""
        out = RatFunc.__new__(RatFunc)
        out.c, out.s, out.n, out.d = c, s, n, d
        return out

    # -- structure -----------------------------------------------------------

    @property
    def num(self) -> LaurentPoly:
        return _zlaurent(Fraction(self.c, self.d[-1]), self.s, self.n)

    @property
    def den(self) -> LaurentPoly:
        return _zlaurent(Fraction(1, self.d[-1]), 0, self.d)

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self):
        return self.n != ()

    def is_polynomial(self) -> bool:
        return self.d == _ONE

    def vshift(self, k: int) -> "RatFunc":
        """self * v^k, from the parts."""
        if not self.n:
            return self
        out = RatFunc.__new__(RatFunc)
        out.c, out.s, out.n, out.d = self.c, self.s + k, self.n, self.d
        return out

    def __eq__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return (self.n == other.n and self.d == other.d and self.s == other.s
                and self.c == other.c)

    def __hash__(self):
        if self.s == 0 and len(self.n) <= 1 and self.d == _ONE:
            return hash(self.c)
        return hash((self.c, self.s, self.n, self.d))

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        num = _format_terms(_zterms(self.c, self.s, self.n, self.d[-1]))
        if self.d == _ONE:
            return num
        return f"({num}) / ({_format_terms(_zterms(1, 0, self.d, self.d[-1]))})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.n, other.n
        if not n2:
            return self
        if not n1:
            return other
        c1, c2 = self.c, other.c
        p1, q1, p2, q2 = c1.numerator, c1.denominator, c2.numerator, c2.denominator
        if q1 != q2:
            k = gcd(q1, q2)
            p1, p2, q1 = p1 * (q2 // k), p2 * (q1 // k), q1 // k * q2
        # over g = gcd(D1, D2): n1 and n2 become N1 (D2/g) and N2 (D1/g),
        # and a12 = (D1/g)(D2/g); when one D is 1, g = 1 with no gcd call
        d1, d2 = self.d, other.d
        if d1 == d2:
            g, a12 = d1, _ONE
        elif len(d1) == 1:
            g, n1, a12 = _ONE, _zmul(n1, d2), d2
        elif len(d2) == 1:
            g, n2, a12 = _ONE, _zmul(n2, d1), d1
        else:
            g, a1, a2 = _zgcd_memo(d1, d2)
            n1, n2, a12 = _zmul(n1, a2), _zmul(n2, a1), tuple(_zmul(a1, a2))
        # t = p1 v^e1 n1 + p2 v^e2 n2, from the lower of the two v-powers
        s = min(self.s, other.s)
        e1, e2 = self.s - s, other.s - s
        f1, f2 = e1 + len(n1), e2 + len(n2)
        t = [0] * max(f1, f2)
        t[e1:f1] = n1 if p1 == 1 else [p1 * x for x in n1]
        for i, x in enumerate(n2, e2):
            if x:
                t[i] += p2 * x
        if not any(t):
            return RF_ZERO
        while not t[-1]:
            t.pop()
        cont, val, t = _zprimitive(t)
        # only a factor of g can be shared with t (Henrici)
        if len(t) > 1 and len(g) > 1:
            _, t, g = _zgcd_memo(tuple(t), g)
        else:
            t = tuple(t)
        c = cont if q1 == 1 else _integral(Fraction(cont, q1))
        d = g if len(a12) == 1 else a12 if len(g) == 1 else tuple(_zmul(g, a12))
        return RatFunc._make(c, s + val, t, d)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.c, self.s, self.n, self.d)

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, other.n, other.d
        if not n1 or not n2:
            return RF_ZERO
        c1, c2 = self.c, other.c
        c = c1 * c2 if c1.__class__ is int and c2.__class__ is int else _integral(c1 * c2)
        # a part of length 1 is (1,): it shares no factor with the other
        # side, so a product with a monomial c * v^s needs no gcd at all
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _zgcd_memo(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _zgcd_memo(n2, d1)
        n = n1 if len(n2) == 1 else n2 if len(n1) == 1 else tuple(_zmul(n1, n2))
        d = d1 if len(d2) == 1 else d2 if len(d1) == 1 else tuple(_zmul(d1, d2))
        return RatFunc._make(c, self.s + other.s, n, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce_rf(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "RatFunc":
        if not self.n:
            raise ZeroDivisionError("division by zero rational function")
        c = self.c
        if c != 1 and c != -1:
            c = _integral(Fraction(1, c))
        return RatFunc._make(c, -self.s, self.d, self.n)

    # -- ring maps ----------------------------------------------------------------

    def qconjugate(self) -> "RatFunc":
        """v -> 1/v: N(1/v) = v^(-deg N) * reversed N, and the same for D."""
        if not self.n:
            return self
        n, d = self.n[::-1], self.d[::-1]
        c = self.c
        if n[-1] < 0:
            n, c = tuple(-x for x in n), -c
        if d[-1] < 0:
            d, c = tuple(-x for x in d), -c
        return RatFunc._make(c, len(d) - len(n) - self.s, n, d)

    def eval_at_one(self) -> Fraction:
        d = sum(self.d)
        if d == 0:
            raise DenominatorVanishes("pole at v = 1")
        return self.c * Fraction(sum(self.n), d)

    def is_regular_at_one(self) -> bool:
        return sum(self.d) != 0

    def to_json(self) -> dict:
        """{"num": ..., "den": ...}, each {exponent: "p/q"} in ascending order."""
        num, den = _zterms(self.c, self.s, self.n, self.d[-1]), _zterms(1, 0, self.d, self.d[-1])
        return {"num": {str(e): x for e, x in num}, "den": {str(e): x for e, x in den}}

    @staticmethod
    def from_json(d: dict) -> "RatFunc":
        """The value that to_json wrote, read from its integer parts with
        the bounds of _stored_view; a zero denominator raises
        DenominatorVanishes once both views are read."""
        num, den = _stored_view(d["num"]), _stored_view(d["den"])
        if den is None:
            raise DenominatorVanishes("zero denominator")
        if num is None:
            return RF_ZERO
        (gn, ln, sn, n), (gd, ld, sd, dp) = num, den
        _, n, dp = _zgcd(n, dp)
        return RatFunc._make(_integral(Fraction(gn * ld, ln * gd)), sn - sd, n, dp)


def _coerce_rf(x):
    """x as a RatFunc, NotImplemented for a type that is not a scalar here;
    a float or complex operand raises TypeError, as Q(v) has no rounding."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc(x)
    if isinstance(x, (int, Fraction)):
        return RatFunc._make(_integral(x), 0, _ONE if x else (), _ONE)
    if isinstance(x, (float, complex)):
        raise TypeError(f"a RatFunc takes no {type(x).__name__} operand: the arithmetic is exact")
    return NotImplemented


def _integral(x):
    """x (an int or a Fraction) as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)


def rf_vpow(k: int) -> RatFunc:
    """v^k as a RatFunc."""
    return RatFunc._make(1, k, _ONE, _ONE)


def rf_sqrt(x: RatFunc):
    """The square root of x in Q(v) whose leading coefficients are
    positive, or None when there is none.  In canonical form a square is
    c v^s N / D with c a rational square, s even and N, D integer squares,
    so the root is sqrt(c) v^(s/2) sqrt(N) / sqrt(D)."""
    if not x.n:
        return x
    c = _fraction_sqrt(x.c)
    if c is None or x.s % 2:
        return None
    n, d = _zsqrt(x.n), _zsqrt(x.d)
    if n is None or d is None:
        return None
    return RatFunc._make(_integral(c), x.s // 2, n, d)


def clear_denominators(vec):
    """A RatFunc vector scaled to polynomial entries: times the monic lcm L
    of its denominators, divided by the monic gcd G of the resulting
    numerators (so the integer content stays), and shifted so that the
    lowest v-power is v^0.  Runs on the integer form c v^s N / D: the
    numerator of entry i is (c_i / lc L) v^(s_i) N_i (L / D_i)."""
    nonzero = [x for x in vec if x]
    if not nonzero:
        return list(vec)
    den_lcm = reduce(_zlcm, (x.d for x in nonzero), _ONE)
    parts = [_zmul(x.n, _zexact(den_lcm, x.d)) for x in nonzero]
    g = parts[0]
    for p in parts[1:]:
        g = _zgcd(g, p)[0]
    if len(g) > 1:
        parts = [_zexact(p, g) for p in parts]
    scale = Fraction(g[-1], den_lcm[-1])
    low = min(x.s for x in nonzero)
    cleared = (RatFunc._make(_integral(x.c * scale), x.s - low, tuple(p), _ONE)
               for x, p in zip(nonzero, parts))
    return [next(cleared) if x else RF_ZERO for x in vec]


def _zq_int(n: int, d: int):
    """(shift, list) of the q-integer [n] = v^(-2d(n-1)) (1 + v^(4d) + ...
    + v^(4d(n-1))) in base q_d = v^(2d), for n >= 1."""
    if d <= 0:
        raise InvalidRange("d must be a positive integer")
    t = [0] * (4 * d * (n - 1) + 1)
    t[::4 * d] = [1] * n
    return -2 * d * (n - 1), t


def _zq_product(ks, d: int):
    """(shift, list) of the product of the q-integers [k], k in ks."""
    s, t = 0, _ONE
    for k in ks:
        sk, tk = _zq_int(k, d)
        s, t = s + sk, _zmul(t, tk)
    return s, t


def q_int(n: int, d: int = 1) -> RatFunc:
    """Symmetric q-integer [n] in base q_d = v^(2d):
    (q_d^n - q_d^-n)/(q_d - q_d^-1) = v^(2d(n-1)) + v^(2d(n-3)) + ...
    """
    if d <= 0:
        raise InvalidRange("d must be a positive integer")
    if n == 0:
        return RF_ZERO
    s, t = _zq_int(abs(n), d)
    return RatFunc._make(1 if n > 0 else -1, s, tuple(t), _ONE)


def q_factorial(n: int, d: int = 1) -> RatFunc:
    """[n]! = [1][2]...[n] in base q_d."""
    if n < 0:
        raise InvalidRange("factorial of a negative integer")
    s, t = _zq_product(range(2, n + 1), d)
    return RatFunc._make(1, s, tuple(t), _ONE)


def q_binomial(a: int, b: int, d: int = 1) -> RatFunc:
    """Gaussian binomial [a choose b] in base q_d, a Laurent polynomial:
    [a][a-1]...[a-b+1] divided exactly by [b]! over Z."""
    if not 0 <= b <= a:
        raise InvalidRange(f"q-binomial out of range: ({a}, {b})")
    sn, num = _zq_product(range(a - b + 1, a + 1), d)
    sf, fact = _zq_product(range(2, b + 1), d)
    return RatFunc._make(1, sn - sf, tuple(_zexact(num, fact)), _ONE)


MAX_SCALAR_DEGREE = 1024
MAX_SCALAR_BITS = 1024
MAX_SCALAR_NESTING = 64
# the most digits of an integer of at most MAX_SCALAR_BITS bits, and the
# longest "-p/q" with p and q of at most MAX_SCALAR_BITS bits
_MAX_INT_DIGITS = len(str(2 ** MAX_SCALAR_BITS))
_MAX_FRACTION_CHARS = 2 * _MAX_INT_DIGITS + 2
# the strings RatFunc.to_json writes: [0-9] is ASCII only, unlike \d
_JSON_EXPONENT = re.compile(r"-?[0-9]+")
_JSON_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
VIEW_MEMO_SIZE = 1024


def _stored_view(view):
    """_zlayout's parts of a stored view {exponent: "p/q"}, None for zero.
    The view is read once per distinct ordered pairs of strings through the
    bounded memo, which does not keep a refused view.  Keying on the
    strings keeps apart values that compare equal, such as 1, 1.0 and
    True, of which only 1 reads.  The key is a tuple of a list: built from
    a generator, the memo's keys for the four perfbench tables held 70 kB
    more."""
    return _view_memo(tuple([(str(e), str(x)) for e, x in view.items()]))


def _read_view(pairs):
    """_zlayout's parts of the view with these (exponent, coefficient)
    string pairs, within the bounds of parse_scalar: every exponent within
    +-MAX_SCALAR_DEGREE and every integer of a reduced p/q within
    MAX_SCALAR_BITS bits, written as to_json writes them (_JSON_EXPONENT,
    _JSON_COEFFICIENT).  The strings are matched and measured before they
    are converted, so any other form, such as "1e999", or an oversized
    entry raises ValueError before a long digit string is read or the span
    is laid out.  A nonzero coefficient replaces one read earlier for the
    same exponent (spelled "0", "00" or "-0"), and a zero one is dropped."""
    terms = {}
    for e, x in pairs:
        if len(e) <= 5 and not _JSON_EXPONENT.fullmatch(e):
            raise ValueError(f"invalid literal for a power of v: {e!r}")
        k = int(e) if len(e) <= 5 else None
        if k is None or abs(k) > MAX_SCALAR_DEGREE:
            raise ValueError(f"a power of v beyond +-{MAX_SCALAR_DEGREE}")
        if len(x) > _MAX_FRACTION_CHARS:
            raise ValueError(f"integers above {MAX_SCALAR_BITS} bits")
        m = _JSON_COEFFICIENT.fullmatch(x)
        if m is None:
            raise ValueError(f"invalid literal for a coefficient: {x!r}")
        p, q = int(m[1]), int(m[2]) if m[2] else 1
        if not q:
            raise ZeroDivisionError(f"Fraction({p}, 0)")
        g = gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        if max(abs(p), q).bit_length() > MAX_SCALAR_BITS:
            raise ValueError(f"integers above {MAX_SCALAR_BITS} bits")
        if p:
            terms[k] = p, q
    return _zlayout(terms) if terms else None


_view_memo = lru_cache(maxsize=VIEW_MEMO_SIZE)(_read_view)


def _coefficient_bits(x: RatFunc) -> int:
    """Bit length of the largest integer in x = c v^s N / D: the numerator
    and denominator of c and the coefficients of N and D."""
    c = x.c
    return max(c.numerator.bit_length(), c.denominator.bit_length(),
               *(abs(t).bit_length() for t in x.n + x.d))


def _power_bits(x: RatFunc, k: int) -> float:
    """An upper bound on _coefficient_bits(x ** k), from |c|^k and the
    coefficient sums of N and D (no coefficient of N^k exceeds sum|N|^k)."""
    c = x.c
    top = max(abs(c.numerator), c.denominator, sum(map(abs, x.n)), sum(map(abs, x.d)))
    return abs(k) * log2(top)


def _clip(text: str) -> str:
    """text cut to 60 characters and '...', to quote user input in errors."""
    return text if len(text) <= 60 else text[:60] + "..."


def parse_scalar(text: str) -> RatFunc:
    """Parse a rational-function string over tokens q, v, integers, + - * / ^ ( ).

    q is interpreted as v^2.  Used by the CLI for --s/--t and by tests.
    Every value the parser produces keeps the v-exponents of c v^s N and of
    D within +-MAX_SCALAR_DEGREE, and every integer in it (the numerator
    and denominator of c, the coefficients of N and D) within
    MAX_SCALAR_BITS bits.  An exponent literal above the degree bound, or a
    power whose |k| times the degree of its base, or whose bound on the
    coefficient size, exceeds a bound, is rejected before it is computed,
    so the work on any input stays bounded.  Parentheses and unary signs
    together nest at most MAX_SCALAR_NESTING deep, which bounds the
    recursion.
    """
    tokens = _tokenize(text)
    pos = [0]
    depth = [0]
    shown = _clip(text)

    def bounded(x):
        if x.n and (x.s < -MAX_SCALAR_DEGREE
                    or max(x.s + len(x.n), len(x.d)) - 1 > MAX_SCALAR_DEGREE):
            raise ValueError(f"scalar {shown!r} exceeds degree {MAX_SCALAR_DEGREE} in v")
        if x.n and _coefficient_bits(x) > MAX_SCALAR_BITS:
            raise ValueError(f"scalar {shown!r} has integers above {MAX_SCALAR_BITS} bits")
        return x

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"parse error in {shown!r} at token {pos[0]}: "
                             f"expected {expected}, got {_clip(str(tok))}")
        pos[0] += 1
        return tok

    def nested(parse):
        depth[0] += 1
        if depth[0] > MAX_SCALAR_NESTING:
            raise ValueError(f"scalar {shown!r} nests deeper than {MAX_SCALAR_NESTING} "
                             "parentheses and signs")
        node = parse()
        depth[0] -= 1
        return node

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = bounded(node + rhs if op == "+" else node - rhs)
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = bounded(node * rhs if op == "*" else node / rhs)
        return node

    def parse_factor():
        tok = peek()
        if tok == "-":
            take()
            return -nested(parse_factor)
        if tok == "+":
            take()
            return nested(parse_factor)
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            wrapped = peek() == "("
            if wrapped:
                take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            exp_tok = take()
            if not isinstance(exp_tok, int):
                raise ValueError(f"exponent must be an integer in {shown!r}")
            if wrapped:
                take(")")
            span = max(len(base.n), len(base.d)) - 1
            if exp_tok > MAX_SCALAR_DEGREE or exp_tok * span > MAX_SCALAR_DEGREE:
                raise ValueError(f"power in {shown!r} exceeds degree {MAX_SCALAR_DEGREE} in v")
            if base and _power_bits(base, exp_tok) > MAX_SCALAR_BITS:
                raise ValueError(f"power in {shown!r} has integers above {MAX_SCALAR_BITS} bits")
            return bounded(base ** (-exp_tok if neg else exp_tok))
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            node = nested(parse_expr)
            take(")")
            return node
        if tok == "q":
            take()
            return rf_vpow(2)
        if tok == "v":
            take()
            return rf_vpow(1)
        if isinstance(tok, int):
            take()
            return bounded(RatFunc(tok))
        raise ValueError(f"parse error in {shown!r}: unexpected token {tok!r}")

    try:
        result = parse_expr()
    except ZeroDivisionError as exc:
        raise ValueError(f"division by zero in {shown!r}") from exc
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {shown!r}")
    return result


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^()":
            tokens.append(c)
            i += 1
        elif c in "{}":
            # exponent braces in printed tables read back as parentheses
            tokens.append("(" if c == "{" else ")")
            i += 1
        elif c in "qv":
            tokens.append(c)
            i += 1
        elif c in "0123456789":     # ASCII only, unlike str.isdigit
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            digits = text[i:j].lstrip("0") or "0"
            if len(digits) > _MAX_INT_DIGITS:   # measured before int() reads it
                raise ValueError(f"scalar {_clip(text)!r} has integers above "
                                 f"{MAX_SCALAR_BITS} bits")
            tokens.append(int(digits))
            i = j
        else:
            raise ValueError(f"bad character {c!r} in scalar expression")
    if not tokens:
        raise ValueError("empty scalar expression")
    return tokens
