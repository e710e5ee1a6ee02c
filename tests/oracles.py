"""Test oracles that the package itself does not need: Laurent polynomials
as plain {exponent: Fraction} dicts with their own sum, product and exact
evaluation, the exact value of a scalar at v = 1, the h-derivative by the
quotient rule, the classical split Casimir of the rank-one algebra, the
full decomposition of a tensor product by peeling its character, the
coproduct of a tensor product as whole sparse matrices, the Fraction
forms of two v = 1 checks (the intertwining check with stored coproduct
matrices and the Jacobi sum), and the inverse Clebsch-Gordan
coefficients built from whole adjoints of the lowered embeddings, and a
textbook Gauss-Jordan elimination with the routines read off it.

The dict arithmetic shares no code with the integer kernel of ``qring``:
values built here enter ``RatFunc`` only through ``rf``, that is through
``RatFunc(LaurentPoly(num), LaurentPoly(den))``.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from qlie.classical import ClassicalModule
from qlie.linalg import inverse, solve, sp_add_to, sp_matmul, sp_transpose
from qlie.qring import RF_ONE, RF_ZERO, LaurentPoly, RatFunc, _fr, rf_vpow
from qlie.repbuild import contravariant_form
from qlie.rootdata import (CartanDatum, VerificationFailed, _check_dominant, is_dominant,
                           root_system, weight_multiplicities, weyl_dim)
from qlie.tensorcg import TensorProduct, lowered_table


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


def tensor_ops(V: ClassicalModule):
    """x -> x (x) 1 + 1 (x) x matrices over product indices a*dim+b."""
    d = V.dim
    dE, dF = {}, {}
    for mats, dmats in ((V.E, dE), (V.F, dF)):
        for i, mat in mats.items():
            acc = {}
            for (r, c), x in mat.items():
                for b in range(d):
                    acc[r * d + b, c * d + b] = acc.get((r * d + b, c * d + b), Fraction(0)) + x
                for a in range(d):
                    acc[a * d + r, a * d + c] = acc.get((a * d + r, a * d + c), Fraction(0)) + x
            dmats[i] = {k: v for k, v in acc.items() if v}
    return dE, dF


def coproduct(x1: dict, x2: dict, k1: list, k2: list) -> dict:
    """x1 (x) K^-1 + K (x) x2 as a sparse matrix on the product index
    a * len(k2) + b: the dense reference of tensorcg.coproduct_action."""
    d2 = len(k2)
    out = {}
    for (r, c), x in x1.items():
        for b in range(d2):
            sp_add_to(out, (r * d2 + b, c * d2 + b), x * rf_vpow(-k2[b]))
    for (r, c), x in x2.items():
        for a in range(len(k1)):
            sp_add_to(out, (a * d2 + r, a * d2 + c), rf_vpow(k1[a]) * x)
    return out


_DENSE = {}


def generators(side) -> tuple:
    """(E, F) of a side of a module-map check: a module's own matrices, or
    for a TensorProduct the coproduct of its factors' matrices, built once
    per product (the product is kept with them, so its id is not reused)."""
    if not isinstance(side, TensorProduct):
        return side.E, side.F
    if id(side) not in _DENSE:
        L, R = side.left, side.right
        _DENSE[id(side)] = side, tuple(
            {i: coproduct(mats[i], getattr(R, name)[i], L.kexp[i], R.kexp[i]) for i in mats}
            for name, mats in (("E", L.E), ("F", L.F)))
    return _DENSE[id(side)][1]


def sp_mul(a, b):
    """Product of two sparse Fraction matrices {(r, c): x}, zeros dropped."""
    b_rows = {}
    for (r, c), x in b.items():
        b_rows.setdefault(r, []).append((c, x))
    out = {}
    for (r, k), x in a.items():
        for c, y in b_rows.get(k, ()):
            out[r, c] = out.get((r, c), Fraction(0)) + x * y
    return {key: v for key, v in out.items() if v}


def fraction_intertwines(V: ClassicalModule, constants) -> bool:
    """pi(x) B = B Delta(x) for every E_i and F_i, as whole Fraction matrices
    with Delta(x) stored over V (x) V; B sends e_a (x) e_b to
    sum_c constants[a, b, c] e_c."""
    d = V.dim
    bmat = {(c, a * d + b): y for (a, b, c), y in constants.items()}
    dE, dF = tensor_ops(V)
    return all(sp_mul(mats[i], bmat) == sp_mul(bmat, dmats[i])
               for i in range(V.cd.rank) for mats, dmats in ((V.E, dE), (V.F, dF)))


def fraction_jacobi(constants) -> bool:
    """No sum [[x, y], z] over the cyclic rotations of an increasing triple
    survives, for the values at v = 1 of a RatFunc table, summed as
    Fractions."""
    f1 = {key: c1 for key, val in constants.items() if (c1 := val.eval_at_one())}
    by_pair = {}
    for (a, b, c), val in f1.items():
        by_pair.setdefault((a, b), {})[c] = val
    by_first = {}
    for (e, z), ez in by_pair.items():
        by_first.setdefault(e, []).append((z, ez))
    sums = {}
    for (x, y), xy in by_pair.items():
        for e, v1 in xy.items():
            for z, ez in by_first.get(e, ()):
                if x < y < z or y < z < x or z < x < y:
                    triple = tuple(sorted((x, y, z)))
                    for f, v2 in ez.items():
                        sums[triple, f] = sums.get((triple, f), Fraction(0)) + v1 * v2
    return not any(sums.values())


@lru_cache(maxsize=None)
def tensor_decompose(cd: CartanDatum, mu: tuple, nu: tuple):
    """Full decomposition {lam: multiplicity} of V(mu) (x) V(nu): peel off
    the dominant weight of least depth, then the least tuple, until the
    product character is exhausted.  Of the package's single-target count
    rootdata.tensor_multiplicity it shares only the weight multiplicities,
    and the tests compare the two.

    The depth of w, the number of simple roots subtracted from mu + nu, is
    <mu + nu - w, rho-check>.  Twice rho-check is the sum of the positive
    coroots, alpha-check = sum (c_j d_j / d_alpha) alpha_j-check with
    d_alpha = (alpha, alpha)/2, so twice the depth is the integer
    sum r_j (mu + nu - w)_j with r_j = sum over alpha > 0 of c_j d_j / d_alpha."""
    _check_dominant(cd, mu)
    _check_dominant(cd, nu)
    wm1 = weight_multiplicities(cd, mu)
    wm2 = weight_multiplicities(cd, nu)
    remaining = {}  # the product character, less the components peeled so far
    for w1, m1 in wm1.items():
        for w2, m2 in wm2.items():
            w = tuple(map(add, w1, w2))
            remaining[w] = remaining.get(w, 0) + m1 * m2
    top = tuple(a + b for a, b in zip(mu, nu))
    n, d = cd.rank, cd.d
    r = [0] * n
    for c, w in root_system(cd).positive_roots:
        d_alpha = sum(c[j] * d[j] * w[j] for j in range(n)) // 2
        for j in range(n):
            r[j] += c[j] * d[j] // d_alpha

    # depth of every dominant weight of the product; every weight that is
    # ever peeled or subtracted lies in the product
    depth = {}
    for w in remaining:
        if is_dominant(w):
            twice = sum(x * (a - b) for x, a, b in zip(r, top, w))
            if twice < 0 or twice % 2:
                raise VerificationFailed(f"{w} is not below {top} in V{mu} (x) V{nu}")
            depth[w] = twice // 2

    out = {}
    while remaining:
        cands = [w for w in remaining if w in depth]
        if not cands:
            raise VerificationFailed("nonnegativity of the remaining character failed")
        w0 = min(cands, key=lambda w: (depth[w], w))
        mult = remaining[w0]
        if mult <= 0:
            raise VerificationFailed(f"V{w0} has multiplicity {mult} in V{mu} (x) V{nu}")
        out[w0] = mult
        for w, m in weight_multiplicities(cd, w0).items():
            left = remaining.get(w, 0) - mult * m
            if left < 0:
                raise VerificationFailed(f"peeling V{w0} from V{mu} (x) V{nu}: "
                                         f"weight {w} goes negative")
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    if sum(m * weyl_dim(cd, w) for w, m in out.items()) != weyl_dim(cd, mu) * weyl_dim(cd, nu):
        raise VerificationFailed(f"V{mu} (x) V{nu}: component dimensions do not add up")
    return out


def form_square(V) -> dict:
    """S (x) S over product indices a*dim+b, S the contravariant form of V."""
    d = V.dim
    S = contravariant_form(V)
    return {(a * d + b, c * d + e): x * y for (a, c), x in S.items() for (b, e), y in S.items()}


def reference_invert_cg(T, v0, others) -> dict:
    """The constants {(a, b, c): f} of invert_cg by whole matrices:
    B = sum_k x_k S^-1 beta_k^T (S (x) S), beta_k the full lowered table of
    the k-th generating vector u_k in [v0, *others], S the contravariant
    form of V = T.left, and x the solution of
    sum_k u_j^T (S (x) S) u_k x_k = delta_j0."""
    V = T.left
    d = V.dim
    SS = form_square(V)
    sinv = {}
    for w, vw in V.weight_basis.items():
        for a, row in zip(vw, inverse(V.gram[w])):
            sinv.update({(a, b): g for b, g in zip(vw, row) if g})
    us = [v0, *others]
    pair = [[sum((uj[p] * x * uk[q] for (p, q), x in SS.items() if p in uj and q in uk), RF_ZERO)
             for uk in us] for uj in us]
    x = solve(pair, [RF_ONE] + [RF_ZERO] * len(others))
    out = {}
    for xk, u in zip(x, us):
        beta = {(p, a): y for a, col in enumerate(lowered_table(T, V, u)) for p, y in col.items()}
        for (c, p), y in sp_matmul(sinv, sp_matmul(sp_transpose(beta), SS)).items():
            a, b = divmod(p, d)
            out[a, b, c] = out.get((a, b, c), RF_ZERO) + xk * y
    return {key: y for key, y in out.items() if y}


def reference_rref(mat):
    """Textbook Gauss-Jordan on a copy of a list of rows: the pivot is the
    first row with a nonzero entry in the column, and every other row is
    updated in full.  Returns (reduced rows, pivot columns)."""
    work = [list(row) for row in mat]
    pivots = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        p = work[r][c]
        work[r] = [x / p for x in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def reference_solve(a, b):
    """x with a x = b, a square; ZeroDivisionError when a is singular."""
    n = len(a)
    red, pivots = reference_rref([list(row) + [y] for row, y in zip(a, b)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular")
    return [row[n] for row in red]


def reference_inverse(a, one):
    """The inverse of a square matrix over the field with unit one;
    ZeroDivisionError when a is singular."""
    n = len(a)
    zero = one - one
    red, pivots = reference_rref([list(row) + [one if i == j else zero for j in range(n)]
                                  for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular")
    return [row[n:] for row in red]


def reference_nullspace(mat, ncols, one):
    """One kernel vector per non-pivot column c: 1 at c, 0 at the other
    non-pivot columns, and minus column c of the reduced rows at the pivots."""
    red, pivots = reference_rref(mat)
    zero = one - one
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [zero] * ncols
        vec[c] = one
        for row, p in zip(red, pivots):
            vec[p] = -row[c]
        basis.append(vec)
    return basis
