"""Independent classical (v = 1) cross-check pipeline.

Everything here is computed over plain rationals with the classical
formulas -- lowering/raising operators with integer weight eigenvalues,
the undeformed coproduct x -> x (x) 1 + 1 (x) x (applied to sparse vectors,
never stored as a matrix), the classical contravariant form -- and never
touches the deformed ring; the bracket's intertwining check compares integer
products.  The quantum pipeline specialized at v = 1 must agree with these
tables exactly; the tests enforce that equality entry by entry.

Also provides the standard sl_n structure constants in the
{X_ij} u {H_k} basis (X_ij ~ e_ij, H_k = e_kk - e_{k+1,k+1}).
"""

from __future__ import annotations

from fractions import Fraction

from .rootdata import DEFAULT_DIM_BUDGET, VerificationFailed, CartanDatum, highest_root, weyl_dim
from .linalg import inverse, nullspace, rref, solve


class ClassicalModule:
    """Mirror of the deformed module data with plain Fraction entries."""

    def __init__(self, cd, highest_weight, labels, weights, E, F, gram, weight_basis):
        self.cd = cd
        self.highest_weight = highest_weight
        self.labels = labels
        self.weights = weights
        self.E = E
        self.F = F
        self.gram = gram
        self.weight_basis = weight_basis

    @property
    def dim(self):
        return len(self.labels)


def build_classical_module(cd: CartanDatum, lam, budget_dim: int = DEFAULT_DIM_BUDGET) -> ClassicalModule:
    """Classical irreducible module with the same level-by-level algorithm
    (and therefore the same labels and pivot choices) as the deformed build."""
    lam = tuple(lam)
    if weyl_dim(cd, lam) > budget_dim:
        raise RuntimeError("dimension budget exceeded")
    n = cd.rank
    simple_w = [tuple(cd.cartan[k][j] for k in range(n)) for j in range(n)]

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

    return ClassicalModule(cd, lam, labels, weights, E, F, gram, weight_basis)


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
            out[r] = out.get(r, Fraction(0)) + x * vec[c]
    return {k: v for k, v in out.items() if v}


def integral_multiple(mat):
    """q * mat as integers, q the lcm of the denominators of its values
    (lcm(q, den) = q * Fraction(q, den).denominator)."""
    q = 1
    for x in mat.values():
        q *= Fraction(q, x.denominator).denominator
    return {k: x.numerator * (q // x.denominator) for k, x in mat.items()}


def intertwines(V: ClassicalModule, constants) -> bool:
    """pi(x) B = B Delta(x) for every E_i and F_i of V, where B sends
    e_a (x) e_b to sum_c constants[a, b, c] e_c.  Row c of B Delta(x) is
    Delta(x^T) applied to row c of B; the columns of x^T are the rows of x.

    Runs on integers, exactly: with q_B and q_x the lcms of the denominators
    of B and x, both sides of (q_x x)(q_B B) = (q_B B) Delta(q_x x) are q_B q_x
    times the rational ones, because Delta is linear.
    """
    d = V.dim
    b_rows = _columns({(a * d + b, c): y for (a, b, c), y in integral_multiple(constants).items()})
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
    of x and never stored as a d^2-dimensional matrix.  The closing check
    pi(x) B = B Delta(x) compares integer products, which is exact: scaling
    B and x by their common denominators scales both sides alike.
    """
    V = build_classical_module(cd, highest_root(cd), budget_dim)
    d = V.dim
    n = cd.rank
    f_cols = [_columns(V.F[i]) for i in range(n)]
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

    def swap_vec(vec):
        return {(p % d) * d + p // d: x for p, x in vec.items()}

    candidates = [dict(zip(block, k)) for k in kern]
    for i in range(len(kern)):
        for j in range(i + 1, len(kern)):
            candidates.append({p: kern[i][bi] + kern[j][bi] for bi, p in enumerate(block)})

    anti = sym = None
    for cand in candidates:
        cand = {p: x for p, x in cand.items() if x}
        sw = swap_vec(cand)
        a = {p: (cand.get(p, Fraction(0)) - sw.get(p, Fraction(0))) / 2 for p in set(cand) | set(sw)}
        a = {p: x for p, x in a.items() if x}
        s = {p: (cand.get(p, Fraction(0)) + sw.get(p, Fraction(0))) / 2 for p in set(cand) | set(sw)}
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
            raise VerificationFailed()
        us.append(sym)

    index = {lab: a for a, lab in enumerate(V.labels)}
    tables = []
    for u in us:
        table = [None] * d
        table[0] = dict(u)
        for a in range(1, d):
            lab = V.labels[a]
            table[a] = _apply_coproduct(f_cols[lab[0]], table[index[lab[1:]]], d)
        tables.append(table)

    # the contravariant form of V, one sparse row per basis vector
    S = {}
    for w, vw in V.weight_basis.items():
        for a, row in zip(vw, V.gram[w]):
            S[a] = {c: g for c, g in zip(vw, row) if g}

    def paired(vec):
        """vec^T (S (x) S) over the product indices a*d+b."""
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
    x = solve(P, [Fraction(1)] + [Fraction(0)] * (m - 1))

    # B = sum_k x_k S^{-1} beta_k^T (S (x) S), with S^{-1} applied per weight block
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

    # B o beta = id and B o beta_sym = 0, checked on the generators us: table[a]
    # is Delta(f_{i_1}) of its parent's column, f_{i_1} e_parent = e_a (checked here)
    # and B commutes with each f_i (checked below): B(table[a]) = f_{i_1}...B(u)
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
    if not intertwines(V, constants):
        raise VerificationFailed("classical intertwining fails")
    return V, constants


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
