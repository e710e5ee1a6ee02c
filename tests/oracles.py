"""Test oracles that the package itself does not need: Laurent polynomials
as plain {exponent: Fraction} dicts with their own sum, product and exact
evaluation, the exact value of a scalar at v = 1, the h-derivative by the
quotient rule (on dicts, and on the integer parts of a ``RatFunc``), the
first-order data of a monodromy and its eigenvalues as powers of q, the
classical split Casimir of the rank-one algebra, the
full decomposition of a tensor product by peeling its character, the
coproduct of a tensor product as whole sparse matrices, the Fraction
forms of the v = 1 checks (the intertwining check with stored coproduct
matrices, the Jacobi sum, the classical oracle's bracket and the whole
classical-limit check), the classical oracle's module built with a
column index per level, Gram positions by search and one solve per
non-pivot candidate, and the inverse Clebsch-Gordan
coefficients built from whole adjoints of the lowered embeddings, and a
textbook Gauss-Jordan elimination with the routines read off it, a
reader of stored scalars through one Fraction per coefficient, a writer
of scalars that prints and serializes their ``num``/``den`` views, and
``replaced``, a copy of a package record with some fields changed.

The dict arithmetic shares no code with the integer kernel of ``qring``:
values built here enter ``RatFunc`` only through ``rf``, that is through
``RatFunc(LaurentPoly(num), LaurentPoly(den))``.
"""

import inspect
import json
from fractions import Fraction
from functools import lru_cache
from operator import add

from qlie import classical
from qlie.classical import ClassicalModule, _apply_coproduct, _columns, _sp_vec
from qlie.linalg import inverse, rref, solve, sp_add_to, sp_matmul, sp_sub, sp_transpose
from qlie.qliealg import GaugeObstruction, _gauge_rebase, _module_basis, _sln_basis, _sln_labels
from qlie.qring import (_JSON_COEFFICIENT, _JSON_EXPONENT, _MAX_FRACTION_CHARS, MAX_SCALAR_BITS,
                        MAX_SCALAR_DEGREE, RF_ONE, RF_ZERO, DenominatorVanishes, LaurentPoly,
                        RatFunc, _coerce_rf, _fr, _fraction_sqrt, parse_scalar, rf_vpow)
from qlie.repbuild import contravariant_form
from qlie.rootdata import (DEFAULT_DIM_BUDGET, BudgetExceeded, CartanDatum, VerificationFailed, _check_dominant,
                           highest_root, is_dominant, root_system, simple_roots,
                           weight_multiplicities, weyl_dim)
from qlie.table import _moved
from qlie.tensorcg import TensorProduct, _along_parents, coproduct_action, lowered_table


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


def reference_view(d) -> LaurentPoly:
    """The view of a stored {exponent: "p/q"} read through one Fraction per
    coefficient, with the checks of RatFunc.from_json in the same order and
    with the same messages."""
    view = LaurentPoly()
    for e, x in d.items():
        e, x = str(e), str(x)
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
        f = Fraction(int(m[1]), int(m[2])) if m[2] else Fraction(int(m[1]))
        if max(abs(f.numerator), f.denominator).bit_length() > MAX_SCALAR_BITS:
            raise ValueError(f"integers above {MAX_SCALAR_BITS} bits")
        if f:
            view.coeffs[k] = f
    return view


def reference_from_json(d) -> RatFunc:
    """RatFunc.from_json by way of two Fraction views and RatFunc(num, den)."""
    return RatFunc(reference_view(d["num"]), reference_view(d["den"]))


def _reference_term(coeff: Fraction, exp: int) -> str:
    """coeff*v^exp, preferring q = v^2 for even exponents."""
    if exp == 0:
        return str(coeff)
    if exp % 2 == 0:
        var, e = "q", exp // 2
    else:
        var, e = "v", exp
    body = var if e == 1 else f"{var}^{e}" if e >= 0 else f"{var}^{{{e}}}"
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def reference_format(p: LaurentPoly) -> str:
    """A view written highest exponent first: '2*q - 2*q^{-1}'."""
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        t = _reference_term(p.coeffs[e], e)
        if parts:
            parts.append(f"- {t[1:]}" if t.startswith("-") else f"+ {t}")
        else:
            parts.append(t)
    return " ".join(parts)


def reference_str(x) -> str:
    """str of a scalar, written from its num and den views."""
    x = _coerce_rf(x)
    if x.is_polynomial():
        return reference_format(x.num)
    return f"({reference_format(x.num)}) / ({reference_format(x.den)})"


def reference_json(x) -> dict:
    """to_json of a scalar, written from its num and den views: each view
    as {exponent (string): str(Fraction)} in ascending order of exponent."""
    x = _coerce_rf(x)
    return {key: {str(e): str(view.coeffs[e]) for e in sorted(view.coeffs)}
            for key, view in (("num", x.num), ("den", x.den))}


def writer_mismatches(values) -> list:
    """The distinct scalars among values whose str, repr or to_json differ
    from the view-based writer (to_json in key order too), or whose printed
    text or stored form does not read back as the same value."""
    bad = []
    for x in set(values):
        text, stored = str(x), x.to_json()
        if (text != reference_str(x) or repr(x) != f"RatFunc({text})"
                or json.dumps(stored) != json.dumps(reference_json(x))
                or parse_scalar(text) != x or RatFunc.from_json(stored) != x):
            bad.append(x)
    return bad


def h_derivative(num, den):
    """(1/2) d/dv (num / den) at v = 1, by the quotient rule."""
    n1, d1 = peval(num, 1), peval(den, 1)
    dn1 = sum(e * c for e, c in num.items())
    dd1 = sum(e * c for e, c in den.items())
    return Fraction(1, 2) * (dn1 * d1 - n1 * dd1) / (d1 * d1)


def h_derivative_at_zero(p) -> Fraction:
    """First derivative with respect to h at h = 0, for q = e^h = v^2.

    Equals (1/2) * (d/dv p)(1).  For p = c v^s N / D the quotient rule gives

        (c/2) [(s N(1) + N'(1)) D(1) - N(1) D'(1)] / D(1)^2,

    exact; raises DenominatorVanishes when D(1) = 0.  Accepts a RatFunc or
    anything that converts to one (an int, a Fraction or a LaurentPoly).
    """
    x = _coerce_rf(p)
    if x is NotImplemented:
        raise TypeError(f"cannot differentiate {type(p).__name__}")
    d1 = sum(x.d)
    if d1 == 0:
        raise DenominatorVanishes("pole at v = 1")
    n1 = sum(x.n)
    dn1 = sum(i * a for i, a in enumerate(x.n))
    dd1 = sum(i * a for i, a in enumerate(x.d))
    return x.c * Fraction((x.s * n1 + dn1) * d1 - n1 * dd1, 2 * d1 * d1)


def extract_A(M):
    """The first-order data of a monodromy M: the exact sparse matrix M - 1
    and its classical limit, differentiated entrywise with respect to h at
    h = 0 (q = e^h).  The former vanishes entrywise at v = 1; the latter
    is the classical tensor the operator linearizes to."""
    m1 = sp_sub(M.matrix, {(p, p): RF_ONE for p in range(M.dim)})
    classical = {}
    for key, x in m1.items():
        val = h_derivative_at_zero(x)
        if val:
            classical[key] = val
    return m1, classical


def eigenvalue_q_exponents(M) -> set:
    """The true scalars of a monodromy M as powers of q (Fractions; halves
    etc. allowed)."""
    return {e / 2 for e in M.exponents.values()}


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


def reference_classical_module(cd: CartanDatum, lam, budget_dim: int = DEFAULT_DIM_BUDGET) -> ClassicalModule:
    """classical.build_classical_module as it was before it took
    build_irrep's shape: the column index of every E_i and F_i rebuilt on
    each level, Gram positions found by list.index and one solve per
    non-pivot candidate.  parent is read off the labels afterwards."""
    lam = tuple(lam)
    dim = weyl_dim(cd, lam)
    if dim > budget_dim:
        raise BudgetExceeded(f"dim V({lam}) = {dim} exceeds budget {budget_dim}")
    n = cd.rank
    simple_w = simple_roots(cd)

    labels = [()]
    weights = [lam]
    weight_basis = {lam: [0]}
    gram = {lam: [[Fraction(1)]]}
    E = {i: {} for i in range(n)}
    F = {i: {} for i in range(n)}

    prev_level = {lam: [0]}
    while prev_level:
        # e_i f_j v_b = f_j e_i v_b + [i = j] h_i v_b below reads E_i on the last
        # level and F_j on the level above it, whose columns are complete
        e_cols = [_columns(E[i]) for i in range(n)]
        f_cols = [_columns(F[i]) for i in range(n)]
        targets = {}
        for mu_up, idxs in prev_level.items():
            for j in range(n):
                mu = tuple(a - b for a, b in zip(mu_up, simple_w[j]))
                targets.setdefault(mu, []).extend((j, b) for b in idxs)
        new_level = {}
        for mu in sorted(targets):
            cands = sorted(targets[mu])
            eact = [dict() for _ in cands]
            for ci, (j, b) in enumerate(cands):
                for i in range(n):
                    vec = {}
                    for d, coeff in e_cols[i].get(b, {}).items():
                        for dd, f in f_cols[j].get(d, {}).items():
                            vec[dd] = vec.get(dd, Fraction(0)) + coeff * f
                    if i == j and weights[b][i]:
                        vec[b] = vec.get(b, Fraction(0)) + Fraction(weights[b][i])
                    eact[ci][i] = {d: x for d, x in vec.items() if x}
            m = len(cands)
            pair = [[Fraction(0)] * m for _ in range(m)]
            for col, (j, b) in enumerate(cands):
                for row, (i, a) in enumerate(cands):
                    up = tuple(x + y for x, y in zip(mu, simple_w[i]))
                    block = weight_basis.get(up)
                    if not block:
                        continue
                    g = gram[up]
                    la = block.index(a)
                    acc = Fraction(0)
                    for d, coeff in eact[col][i].items():
                        acc += coeff * g[la][block.index(d)]
                    pair[row][col] = acc
            pivots = rref([list(r) for r in pair])
            if not pivots:
                continue
            base = len(labels)
            new_idx = {}
            for p, col in enumerate(pivots):
                j, b = cands[col]
                labels.append((j,) + labels[b])
                weights.append(mu)
                new_idx[col] = base + p
            idxs = list(range(base, base + len(pivots)))
            weight_basis[mu] = idxs
            gram[mu] = [[pair[r][c] for c in pivots] for r in pivots]
            for col, gi in new_idx.items():
                for i in range(n):
                    for d, coeff in eact[col][i].items():
                        E[i][(d, gi)] = coeff
            gblock = gram[mu]
            for col, (j, b) in enumerate(cands):
                if col in new_idx:
                    F[j][(new_idx[col], b)] = Fraction(1)
                    continue
                rhs = [pair[p][col] for p in pivots]
                if all(x == 0 for x in rhs):
                    continue
                coords = solve(gblock, rhs)
                for p, x in enumerate(coords):
                    if x:
                        F[j][(idxs[p], b)] = x
            new_level[mu] = idxs
        prev_level = new_level

    index = {lab: a for a, lab in enumerate(labels)}
    parent = [None] + [index[lab[1:]] for lab in labels[1:]]
    return ClassicalModule(cd, lam, labels, parent, weights, E, F, gram, weight_basis)


def fraction_classical_bracket(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET):
    """classical.classical_bracket over Fractions throughout: the generating
    vectors are lowered by the rational F_i, paired with the rational form,
    and B is summed entry by entry as Fractions.  Returns (module,
    constants {(a, b, c): Fraction}), and raises VerificationFailed where
    the library does."""
    V = classical.build_classical_module(cd, highest_root(cd), budget_dim)
    d = V.dim
    n = cd.rank
    f_cols = [_columns(V.F[i]) for i in range(n)]
    theta = tuple(highest_root(cd))

    block = [a * d + b for a in range(d)
             for b in V.weight_basis.get(tuple(t - w for t, w in zip(theta, V.weights[a])), ())]
    rows = []
    for i in range(n):
        e_cols = _columns(V.E[i])
        images = [_apply_coproduct(e_cols, {p: 1}, d) for p in block]
        for q in sorted(set().union(*images)):
            rows.append([img.get(q, Fraction(0)) for img in images])
    kern = classical.nullspace(rows, len(block), Fraction(1))
    if not kern:
        raise VerificationFailed("no classical highest-weight vector at the highest root")

    anti = sym = None
    for cand in (dict(zip(block, k)) for k in kern):
        cand = {p: x for p, x in cand.items() if x}
        sw = {(p % d) * d + p // d: x for p, x in cand.items()}
        keys = set(cand) | set(sw)
        a = {p: (cand.get(p, 0) - sw.get(p, 0)) / 2 for p in keys}
        s = {p: (cand.get(p, 0) + sw.get(p, 0)) / 2 for p in keys}
        a = {p: x for p, x in a.items() if x}
        s = {p: x for p, x in s.items() if x}
        if anti is None and a:
            anti = a
        if sym is None and s:
            sym = s
    if anti is None:
        raise VerificationFailed("classically zero antisymmetrization")
    scale = 1 / anti[min(anti)]
    anti = {p: x * scale for p, x in anti.items()}
    us = [anti]
    if len(kern) > 1:
        if sym is None:
            raise VerificationFailed("classically zero symmetrization")
        us.append(sym)

    index = {lab: a for a, lab in enumerate(V.labels)}
    tables = []
    for u in us:
        table = [dict(u)] + [None] * (d - 1)
        for a in range(1, d):
            lab = V.labels[a]
            table[a] = _apply_coproduct(f_cols[lab[0]], table[index[lab[1:]]], d)
        tables.append(table)

    S = {}
    for w, vw in V.weight_basis.items():
        for a, row in zip(vw, V.gram[w]):
            S[a] = {c: g for c, g in zip(vw, row) if g}

    def paired(vec):
        out = {}
        for p, val in vec.items():
            a, b = divmod(p, d)
            for c, g in S[a].items():
                for e, h in S[b].items():
                    out[c * d + e] = out.get(c * d + e, Fraction(0)) + val * g * h
        return out

    m = len(us)
    P = [[sum((y * us[k].get(p, 0) for p, y in paired(us[j]).items()), Fraction(0))
          for k in range(m)] for j in range(m)]
    x = classical.solve(P, [Fraction(1)] + [Fraction(0)] * (m - 1))

    bmat = {}
    for k in range(m):
        if not x[k]:
            continue
        rows = [paired(col) for col in tables[k]]
        for w, vw in V.weight_basis.items():
            for a, ginv in zip(vw, inverse(V.gram[w])):
                for a1, gi in zip(vw, ginv):
                    for p, y in rows[a1].items():
                        bmat[a, p] = bmat.get((a, p), Fraction(0)) + x[k] * gi * y
    bmat = {k: v for k, v in bmat.items() if v}

    for a in range(1, d):
        lab = V.labels[a]
        if f_cols[lab[0]].get(index[lab[1:]]) != {a: 1}:
            raise VerificationFailed("classical f does not lower the monomial basis")
    if _sp_vec(bmat, us[0]) != {0: 1}:
        raise VerificationFailed("classical B o beta != id")
    if m > 1 and _sp_vec(bmat, us[1]):
        raise VerificationFailed("classical B nonzero on the complement")
    constants = {}
    for (c, p), val in bmat.items():
        a, b = divmod(p, d)
        constants[(a, b, c)] = val
    if not fraction_intertwines(V, constants):
        raise VerificationFailed("classical intertwining fails")
    return V, constants


def fraction_classical_limit(A, budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """qliealg.check_classical_limit with every value at v = 1 a Fraction
    (RatFunc.eval_at_one), every check summed as Fractions, and the oracle
    of generic tables from fraction_classical_bracket."""
    if not all(val.is_regular_at_one() for val in A.constants.values()):
        return {"regular_at_one": False, "all": False}
    report = {"regular_at_one": True}
    f1 = {key: c1 for key, val in A.constants.items() if (c1 := val.eval_at_one())}
    zero = Fraction(0)
    report["antisymmetric"] = all(f1.get((b, a, c)) == -val for (a, b, c), val in f1.items())
    report["jacobi"] = fraction_jacobi(A.constants)
    h_slots = A.h_indices()
    report["cartan_abelian"] = not any(a in h_slots and b in h_slots for a, b, _ in f1)
    xs = A.x_indices()
    report["l_equals_r"] = all(f1.get((h, x, x), zero) == -f1.get((x, h, x), zero)
                               for x in xs for h in h_slots)
    pairs = [(f1.get((h, x, x), zero), A.basis[x].root[A.basis[h].index - 1])
             for x in xs for h in h_slots]
    ratios = {lv / ak for lv, ak in pairs if ak}
    uniform = len(ratios) == 1 and not any(lv for lv, ak in pairs if not ak)
    report["kappa"] = str(ratios.pop()) if uniform else None

    def acts(g, x):
        return sum((gh * f1.get((h, x, x), zero) for h, gh in g.items()), zero)

    roots_map = A.root_index()

    def acts_as_coroot(i, alpha):
        neg = tuple(-c for c in alpha)
        if alpha not in roots_map or neg not in roots_map:
            return False
        xi, yi = roots_map[alpha], roots_map[neg]
        g = {h: f1.get((xi, yi, h), zero) for h in h_slots}
        ci = acts(g, xi)
        return ci != 0 and all(2 * acts(g, x) == ci * A.basis[x].root[i] for x in xs)

    report["roots_classical"] = all(
        acts_as_coroot(i, alpha) for i, alpha in enumerate(simple_roots(A.cd)))

    oracle = None
    if A.provenance == "explicit-sln" and not A.normalized:
        n = A.cd.rank + 1
        sigma = (A.params["s"] + A.params["t"]).eval_at_one()
        labels0, table0 = classical.classical_sln_table(n)
        basis0 = _sln_basis(n)
        if _sln_labels(basis0) != labels0:
            raise VerificationFailed("basis order mismatch against the oracle")
        oracle = {k: sigma * v for k, v in table0.items()}
    elif A.provenance == "generic-pipeline":
        V0, oracle = fraction_classical_bracket(A.cd, budget_dim)
        basis0 = _module_basis(V0.weights)
        if A.normalized:
            try:
                oracle = _gauge_rebase(oracle, A.cd, V0.weights, Fraction(2), _fraction_sqrt)
            except GaugeObstruction:
                oracle = None
    report["oracle_match"] = None if oracle is None else f1 == _moved(oracle, basis0, A.basis)
    report["all"] = all(report[k] for k in (
        "regular_at_one", "antisymmetric", "jacobi", "cartan_abelian", "l_equals_r",
        "roots_classical")) and report["oracle_match"] is not False
    return report


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


def reference_bracket_from_covector(T, top) -> dict:
    """tensorcg._bracket_from_covector by the Gram inverse: B = S^-1 R for
    the contravariant form S of V = T.left, row a of R raised from its
    parent's, r_a = r_parent Delta(E_{i_1}) for the label (i_1, ...) of a,
    since (S (x) S) Delta(E_i) = Delta(F_i)^T (S (x) S), and S^-1 applied
    one weight block at a time."""
    V = T.left
    rows = _along_parents(V, coproduct_action(T, "E", transpose=True), top)
    bmat = {}
    for w, vw in V.weight_basis.items():
        for a, grow in zip(vw, inverse(V.gram[w])):
            acc = {}
            for g, b in zip(grow, vw):
                for p, x in rows[b].items():
                    sp_add_to(acc, p, g * x)
            bmat.update({(a, p): x for p, x in acc.items()})
    return bmat


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


def replaced(obj, **changes):
    """obj rebuilt through its constructor, each argument read from the
    attribute of its name unless changes gives it, so whatever the
    constructor does to its arguments (a table drops zero constants) runs
    on the copy too.  A change that names no argument raises TypeError."""
    params = inspect.signature(type(obj)).parameters
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no argument {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in params})
