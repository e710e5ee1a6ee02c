"""Independent classical (v = 1) cross-check pipeline.

Everything here is computed with the classical formulas -- lowering/raising
operators with integer weight eigenvalues, the undeformed coproduct
x -> x (x) 1 + 1 (x) x (applied to sparse vectors, never stored as a
matrix), the classical contravariant form -- and never touches the deformed
ring.  The module is built over plain rationals in build_irrep's shape:
level by level, with E and F grouped by column as they are written, each
vector's parent recorded as it is made, and one rref of [G | R] per
weight, so it has the deformed module's labels and pivots, and the
bracket's tables are lowered along the parents.  The bracket and its checks
run on integers, each rational datum times the lcm of its denominators,
which is exact because every step is linear in each datum.  The quantum
pipeline specialized at v = 1 must agree with these tables exactly.

Also provides the standard sl_n structure constants in the
{X_ij} u {H_k} basis (X_ij ~ e_ij, H_k = e_kk - e_{k+1,k+1}).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rootdata import (DEFAULT_DIM_BUDGET, BudgetExceeded, VerificationFailed, CartanDatum,
                       highest_root, simple_roots, weyl_dim)
from .linalg import inverse, nullspace, rref, solve


class ClassicalModule:
    """Mirror of the deformed module data with plain Fraction entries;
    parent[a] is the basis index of the vector v_a is F_{i_1} of, as in
    IrrepModule (parent[0] is None)."""

    def __init__(self, cd, highest_weight, labels, parent, weights, E, F, gram, weight_basis):
        self.cd = cd
        self.highest_weight = highest_weight
        self.labels = labels
        self.parent = parent
        self.weights = weights
        self.E = E
        self.F = F
        self.gram = gram
        self.weight_basis = weight_basis

    @property
    def dim(self):
        return len(self.labels)


def build_classical_module(cd: CartanDatum, lam, budget_dim: int = DEFAULT_DIM_BUDGET) -> ClassicalModule:
    """Classical irreducible module in build_irrep's shape, on Fractions (see
    the repbuild module docstring), so with the same labels and pivots; a
    singular Gram block met by the [G | R] reduction raises
    VerificationFailed."""
    lam = tuple(lam)
    dim = weyl_dim(cd, lam)
    if dim > budget_dim:
        raise BudgetExceeded(f"dim V({lam}) = {dim} exceeds budget {budget_dim}")
    n = cd.rank
    simple_w = simple_roots(cd)

    labels, parent, weights, pos = [()], [None], [lam], [0]  # pos: place in its weight block
    weight_basis, gram = {lam: [0]}, {lam: [[Fraction(1)]]}
    E, F = {i: {} for i in range(n)}, {i: {} for i in range(n)}
    ecols, fcols = [{} for _ in range(n)], [{} for _ in range(n)]  # grouped by column

    prev_level = {lam: [0]}
    while prev_level:
        targets = {}
        for mu_up, idxs in prev_level.items():
            for j in range(n):
                mu = tuple(a - b for a, b in zip(mu_up, simple_w[j]))
                targets.setdefault(mu, []).extend((j, b) for b in idxs)
        new_level = {}
        for mu in sorted(targets):
            cands = sorted(targets[mu])
            # e_i f_j v_b = f_j e_i v_b + [i = j] h_i v_b reads column b of E_i
            # and columns of F_j one level up, all written by now
            eact = []
            for j, b in cands:
                acts = []
                for i in range(n):
                    vec = {}
                    for d, coeff in ecols[i].get(b, ()):
                        for dd, f in fcols[j].get(d, ()):
                            vec[dd] = vec.get(dd, 0) + coeff * f
                    if i == j:
                        vec[b] = vec.get(b, 0) + Fraction(weights[b][i])
                    acts.append({d: x for d, x in vec.items() if x})
                eact.append(acts)
            # <f_i v_a, f_j v_b> = <v_a, e_i f_j v_b>, from the Gram row of v_a
            grow = [gram[weights[a]][pos[a]] for _, a in cands]
            pair = [[sum((x * g[pos[d]] for d, x in acts[i].items()), Fraction(0)) for acts in eact]
                    for (i, _), g in zip(cands, grow)]
            pivots = rref(list(pair))
            if not pivots:
                continue
            k = len(pivots)
            idxs = list(range(len(labels), len(labels) + k))
            for p, (col, gi) in enumerate(zip(pivots, idxs)):
                j, b = cands[col]
                labels.append((j,) + labels[b])
                parent.append(b)
                weights.append(mu)
                pos.append(p)
                F[j][(gi, b)] = Fraction(1)
                fcols[j].setdefault(b, []).append((gi, Fraction(1)))
                for i, act in enumerate(eact[col]):
                    for d, coeff in act.items():
                        E[i][(d, gi)] = coeff
                    ecols[i][gi] = list(act.items())
            weight_basis[mu] = idxs
            gram[mu] = [[pair[r][c] for c in pivots] for r in pivots]
            others = [col for col in range(len(cands)) if col not in pivots]
            aug = [row + [pair[r][col] for col in others] for r, row in zip(pivots, gram[mu])]
            if others and rref(aug) != list(range(k)):
                raise VerificationFailed(f"singular Gram block at weight {mu}")
            for t, col in enumerate(others, k):
                j, b = cands[col]
                for gi, row in zip(idxs, aug):
                    if row[t]:
                        F[j][(gi, b)] = row[t]
                        fcols[j].setdefault(b, []).append((gi, row[t]))
            new_level[mu] = idxs
        prev_level = new_level

    return ClassicalModule(cd, lam, labels, parent, weights, E, F, gram, weight_basis)


def _columns(mat):
    """The sparse columns {c: {r: x}} of a matrix {(r, c): x}."""
    cols = {}
    for (r, c), x in mat.items():
        cols.setdefault(c, {})[r] = x
    return cols


def _apply_coproduct(cols, vec, d):
    """Delta(x) vec, for Delta(x) = x (x) 1 + 1 (x) x and x given by its sparse
    columns, over the product indices a*d+b.  Zero entries are dropped."""
    out = {}
    for p, val in vec.items():
        a, b = divmod(p, d)
        for r, x in cols.get(a, {}).items():
            out[r * d + b] = out.get(r * d + b, 0) + x * val
        for r, x in cols.get(b, {}).items():
            out[a * d + r] = out.get(a * d + r, 0) + x * val
    return {k: v for k, v in out.items() if v}


def _sp_vec(m, vec):
    out = {}
    for (r, c), x in m.items():
        if c in vec:
            out[r] = out.get(r, 0) + x * vec[c]
    return {k: v for k, v in out.items() if v}


def _lcm_den(values):
    """The lcm of the denominators of rationals (1 when there are none)."""
    return lcm(*(x.denominator for x in values))


def integral_multiple(mat, q=None):
    """q * mat as integers, q the lcm of the denominators of its values
    unless it is given (then a multiple of each of them)."""
    q = q or _lcm_den(mat.values())
    return {k: x.numerator * (q // x.denominator) for k, x in mat.items()}


def intertwines(V: ClassicalModule, constants) -> bool:
    """pi(x) B = B Delta(x) for every E_i and F_i of V, where B sends
    e_a (x) e_b to sum_c constants[a, b, c] e_c.  Row c of B Delta(x) is
    Delta(x^T) applied to row c of B; the columns of x^T are the rows of x.

    Runs on integers, exactly: constants is any integer multiple of B's
    table, and with q_x the lcm of the denominators of x, both sides of
    (q_x x) B = B Delta(q_x x) are q_x times the rational ones, because
    Delta is linear.
    """
    d = V.dim
    b_rows = _columns({(a * d + b, c): y for (a, b, c), y in constants.items()})
    for x in map(integral_multiple, [*V.E.values(), *V.F.values()]):
        x_rows = _columns({(c, r): y for (r, c), y in x.items()})
        diff = {(c, p): -z for c, row in b_rows.items()
                for p, z in _apply_coproduct(x_rows, row, d).items()}
        for (r, c), y in x.items():
            for p, z in b_rows.get(c, {}).items():
                diff[r, p] = diff.get((r, p), 0) + y * z
        if any(diff.values()):
            return False
    return True


def classical_bracket(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET):
    """Classical structure constants on the adjoint module basis, obtained by
    the same route as the deformed pipeline: highest-weight vector at the
    highest root inside V (x) V, antisymmetrized, lowered, and inverted
    against the complement.  Returns (module, constants {(a,b,c): Fraction}).

    Delta(x) = x (x) 1 + 1 (x) x is applied to vectors from the sparse columns
    of x and never stored as a d^2-dimensional matrix.  After the kernel it
    runs on integers: u is lowered as q_u u by q_F F_i (q the lcms of their
    denominators), so column a of its table carries q_u q_F^depth(a); it is
    paired with q_S S; and B is held as D B, integer coefficients times these
    rows over D, the lcm of the coefficients' denominators.  Every check is
    homogeneous in these scales.
    """
    V = build_classical_module(cd, highest_root(cd), budget_dim)
    d = V.dim
    n = cd.rank
    qf = _lcm_den(x for mat in V.F.values() for x in mat.values())
    f_cols = [_columns(integral_multiple(V.F[i], qf)) for i in range(n)]
    theta = tuple(highest_root(cd))

    # product indices of weight theta, in increasing order
    block = [a * d + b for a in range(d)
             for b in V.weight_basis.get(tuple(t - w for t, w in zip(theta, V.weights[a])), ())]
    rows = []
    for i in range(n):
        e_cols = _columns(V.E[i])
        images = [_apply_coproduct(e_cols, {p: 1}, d) for p in block]
        for q in sorted(set().union(*images)):
            rows.append([img.get(q, Fraction(0)) for img in images])
    kern = nullspace(rows, len(block), Fraction(1))
    if not kern:
        raise VerificationFailed("no classical highest-weight vector at the highest root")

    # the candidates are the kernel vectors alone: both halves are linear, so
    # a sum's half vanishes when both of its terms' halves do; the swap
    # (a, b) -> (b, a) maps the block onto itself
    anti = sym = None
    for cand in (dict(zip(block, k)) for k in kern):
        a = {p: z for p, y in cand.items() if (z := (y - cand[(p % d) * d + p // d]) / 2)}
        s = {p: z for p, y in cand.items() if (z := (y + cand[(p % d) * d + p // d]) / 2)}
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

    # each u as q_u u, q_u the lcm of its denominators; table[a] is
    # Delta(q_F f_{i_1}) of its parent's column
    qu = [_lcm_den(u.values()) for u in us]
    us = [integral_multiple(u, q) for u, q in zip(us, qu)]
    tables = []
    for u in us:
        table = [u] + [None] * (d - 1)
        for a in range(1, d):
            table[a] = _apply_coproduct(f_cols[V.labels[a][0]], table[V.parent[a]], d)
        tables.append(table)

    # q_S times the contravariant form of V, one sparse row per basis vector
    qs = _lcm_den(g for gram in V.gram.values() for row in gram for g in row)
    S = {}
    for w, vw in V.weight_basis.items():
        for a, row in zip(vw, V.gram[w]):
            S[a] = integral_multiple({c: g for c, g in zip(vw, row) if g}, qs)

    def paired(vec):
        """vec^T (S (x) S) over the product indices a*d+b."""
        out = {}
        for p, val in vec.items():
            a, b = divmod(p, d)
            for c, g in S[a].items():
                vg = val * g
                for e, h in S[b].items():
                    out[c * d + e] = out.get(c * d + e, 0) + vg * h
        return out

    m = len(us)
    P = [[Fraction(sum(y * us[k].get(p, 0) for p, y in paired(us[j]).items()),
                   qu[j] * qu[k] * qs * qs) for k in range(m)] for j in range(m)]
    x = solve(P, [Fraction(1)] + [Fraction(0)] * (m - 1))

    # B = sum_k x_k S^{-1} beta_k^T (S (x) S), with S^{-1} applied per weight
    # block; the row of a1 is q_u q_F^depth(a1) q_S^2 times the rational one
    terms = []
    for k in range(m):
        if not x[k]:
            continue
        rows = [paired(col) for col in tables[k]]
        for w, vw in V.weight_basis.items():
            unit = x[k] / (qu[k] * qf ** len(V.labels[vw[0]]) * qs * qs)
            for a, ginv in zip(vw, inverse(V.gram[w])):
                terms += [(a, rows[a1], gi * unit) for a1, gi in zip(vw, ginv) if gi]
    D = _lcm_den(coef for _, _, coef in terms)
    bmat = {}
    for a, row, coef in terms:
        coef = coef.numerator * (D // coef.denominator)
        for p, y in row.items():
            bmat[a, p] = bmat.get((a, p), 0) + coef * y
    bmat = {k: v for k, v in bmat.items() if v}

    # B o beta = id and B o beta_sym = 0, checked on the generators us: table[a]
    # is Delta(f_{i_1}) of its parent's column, f_{i_1} e_parent = e_a (checked here)
    # and B commutes with each f_i (checked below): B(table[a]) = f_{i_1}...B(u)
    for a in range(1, d):
        if f_cols[V.labels[a][0]].get(V.parent[a]) != {a: qf}:
            raise VerificationFailed("classical f does not lower the monomial basis")
    if _sp_vec(bmat, us[0]) != {0: D * qu[0]}:
        raise VerificationFailed("classical B o beta != id")
    if m > 1 and _sp_vec(bmat, us[1]):
        raise VerificationFailed("classical B nonzero on the complement")

    constants = {(p // d, p % d, c): val for (c, p), val in bmat.items()}
    if not intertwines(V, constants):
        raise VerificationFailed("classical intertwining fails")
    return V, {key: Fraction(val, D) for key, val in constants.items()}


def classical_sln_table(n: int):
    """Standard sl_n structure constants in the basis
    {X_ij : i != j, lexicographic} u {H_1..H_{n-1}} with X_ij ~ e_ij and
    H_k ~ e_kk - e_{k+1,k+1}.  Returns (labels, constants {(a,b,c): Fraction}).
    """
    xlabels = [("X", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = xlabels + [("H", k) for k in range(1, n)]
    pos = {lab: a for a, lab in enumerate(labels)}

    def cartan_coords(i, j):
        # e_ii - e_jj as a combination of H_k
        out = {}
        lo, hi, sgn = (i, j, 1) if i < j else (j, i, -1)
        for k in range(lo, hi):
            out[k] = Fraction(sgn)
        return out

    constants = {}

    def add(a, b, c, val):
        if val:
            constants[(a, b, c)] = constants.get((a, b, c), Fraction(0)) + val

    for (_, i, j) in xlabels:
        a = pos[("X", i, j)]
        for (_, k, l) in xlabels:
            b = pos[("X", k, l)]
            # [e_ij, e_kl] = d_jk e_il - d_li e_kj
            if j == k and i != l:
                add(a, b, pos[("X", i, l)], Fraction(1))
            if l == i and k != j:
                add(a, b, pos[("X", k, j)], Fraction(-1))
            if j == k and i == l:
                for hk, val in cartan_coords(i, j).items():
                    add(a, b, pos[("H", hk)], val)
        for k in range(1, n):
            hidx = pos[("H", k)]
            alpha = Fraction((1 if k == i else 0) - (1 if k == i - 1 else 0)
                             - (1 if k == j else 0) + (1 if k == j - 1 else 0))
            if alpha:
                add(hidx, a, a, alpha)    # [H_k, X_ij]
                add(a, hidx, a, -alpha)   # [X_ij, H_k]
    constants = {k: v for k, v in constants.items() if v}
    return labels, constants
