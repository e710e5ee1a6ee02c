"""Test oracles that the package itself does not need: Laurent polynomials
as plain {exponent: Fraction} dicts with their own sum, product and exact
evaluation, the exact value of a scalar at v = 1, the h-derivative by the
quotient rule, and the classical split Casimir of the rank-one algebra.

The dict arithmetic shares no code with the integer kernel of ``qring``:
values built here enter ``RatFunc`` only through ``rf``, that is through
``RatFunc(LaurentPoly(num), LaurentPoly(den))``.
"""

from fractions import Fraction

from qlie.classical import ClassicalModule
from qlie.qring import LaurentPoly, RatFunc, _fr


def mono(k, c=1):
    """c * v^k."""
    return {k: _fr(c)}


def padd(*ps):
    """Sum of Fraction dicts."""
    out = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: _fr(c) for e, c in out.items() if c}


def pmul(*ps):
    """Product of Fraction dicts (1 when there are none)."""
    out = {0: Fraction(1)}
    for p in ps:
        prod = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in prod.items() if c}
    return out


def peval(p, x):
    """Exact value at a nonzero rational point."""
    x = _fr(x)
    if x == 0:
        raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
    return sum((_fr(c) * x ** e for e, c in p.items()), Fraction(0))


def rf(num, den=None):
    """The RatFunc num / den of two Fraction dicts."""
    return RatFunc(LaurentPoly(num), None if den is None else LaurentPoly(den))


def h_derivative(num, den):
    """(1/2) d/dv (num / den) at v = 1, by the quotient rule."""
    n1, d1 = peval(num, 1), peval(den, 1)
    dn1 = sum(e * c for e, c in num.items())
    dd1 = sum(e * c for e, c in den.items())
    return Fraction(1, 2) * (dn1 * d1 - n1 * dd1) / (d1 * d1)


def classical_limit(p):
    """Exact value at v = 1; raises DenominatorVanishes on a pole."""
    if isinstance(p, dict):
        return peval(p, 1)
    if isinstance(p, RatFunc):
        return p.eval_at_one()
    if isinstance(p, (int, Fraction)):
        return _fr(p)
    raise TypeError(f"cannot take classical limit of {type(p).__name__}")


def classical_split_casimir_a1(V: ClassicalModule, W: ClassicalModule) -> dict:
    """2 * (e (x) f + f (x) e + (1/2) h (x) h) on V (x) W over product indices
    a * dim(W) + b, for the rank-one algebra."""
    dw = W.dim
    e1, f1 = V.E[0], V.F[0]
    e2, f2 = W.E[0], W.F[0]
    h1 = {(a, a): Fraction(V.weights[a][0]) for a in range(V.dim) if V.weights[a][0]}
    h2 = {(b, b): Fraction(W.weights[b][0]) for b in range(W.dim) if W.weights[b][0]}
    out = {}

    def tensor_add(m1, m2, coeff):
        for (r1, c1), x in m1.items():
            for (r2, c2), y in m2.items():
                key = (r1 * dw + r2, c1 * dw + c2)
                out[key] = out.get(key, Fraction(0)) + coeff * x * y

    tensor_add(e1, f2, Fraction(2))
    tensor_add(f1, e2, Fraction(2))
    tensor_add(h1, h2, Fraction(1))
    return {k: v for k, v in out.items() if v}
