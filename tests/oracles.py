"""Test oracles that the package itself does not need: the exact value of a
scalar at v = 1, and the classical split Casimir of the rank-one algebra."""

from fractions import Fraction

from qlie.classical import ClassicalModule
from qlie.qring import LaurentPoly, RatFunc, _fr


def classical_limit(p):
    """Exact value at v = 1; raises DenominatorVanishes on a pole."""
    if isinstance(p, LaurentPoly):
        return p.eval_at_one()
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
