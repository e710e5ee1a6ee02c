"""Finite-dimensional highest-weight modules of the quantized enveloping algebra.

Generators and conventions (q_i = q^{d_i} = v^{2 d_i}):

    K_i = the represented q_i^{h_i / 2}, diagonal with entries v^{d_i mu(h_i)},
    [E_i, F_j] = delta_ij (K_i^2 - K_i^{-2}) / (q_i - q_i^{-1}),
    K_i E_j K_i^{-1} = v^{d_i a_ij} E_j,
    quantum Serre relations with Gaussian binomials in base q_i.

The module with highest weight lam is built level by level.  Vectors are
F-monomials applied to the highest-weight vector; below the top each weight
space is spanned by F_i images of the previous level, so the candidates at
depth k+1 are exactly (j, b) = F_j v_b over the depth-k basis.  Their Gram
matrix under the contravariant form <F_i x, y> = <x, E_i y> is computed from
the previous level's Gram and E-expansions, pivot columns are selected on the
v = 1 specialization (equality of classical and quantum ranks makes a
classically invertible minor generically invertible), and the chosen
monomials become basis vectors.  This makes every matrix entry regular at
v = 1 and the v = 1 specialization a classical module on the same labels.

Each level groups E and F by column once (linalg.sp_grouped), and a basis
vector's position in its weight block and the index of its parent (the
vector it is F_j of) are recorded when it is created.  A weight space with
more candidates than basis vectors then runs one rref of [G | R], G the Gram
block of the pivot candidates and R their pairings with the others: it
gives the F-coordinates of all the others at once.

All matrices are sparse dicts {(row, col): RatFunc} on global basis indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qring import RF_ONE, RF_ZERO, q_int, q_binomial
from .rootdata import (
    DEFAULT_DIM_BUDGET,
    CartanDatum,
    adjoint_dim,
    cartan_to_json,
    weight_multiplicities,
    weyl_dim,
    highest_root,
    simple_roots,
)
from .linalg import rref, sp_add_to, sp_eq, sp_grouped, sp_matmul, sp_sub, sp_transpose


class BudgetExceeded(RuntimeError):
    """Module dimension above the configured budget."""


class InternalInconsistency(RuntimeError):
    """Constructed module violates a structural accounting identity."""


@dataclass
class IrrepModule:
    """An irreducible highest-weight module with a fixed monomial basis.

    labels[a] is the F-monomial (i_1, ..., i_k) with v_a = F_{i_1} ... F_{i_k}
    applied to the highest-weight vector (0-based simple-root indices);
    parent[a] is the basis index of the vector labelled (i_2, ..., i_k), so
    v_a = F_{i_1} v_parent[a] (parent[0] is None); weights[a] are
    h-coordinates; E[i], F[i] sparse matrices; kexp[i][a] the exponent of v
    in the diagonal K_i entry; gram maps a weight to the dense Gram block of
    the contravariant form on its basis indices.
    """

    cd: CartanDatum
    highest_weight: tuple
    labels: list
    parent: list
    weights: list
    E: dict
    F: dict
    kexp: dict
    gram: dict
    weight_basis: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.labels)

    def to_json(self) -> dict:
        def sp_json(m):
            return [[r, c, val.to_json()] for (r, c), val in sorted(m.items())]

        return {
            "cartan": cartan_to_json(self.cd),
            "highest_weight": list(self.highest_weight),
            "labels": [list(l) for l in self.labels],
            "weights": [list(w) for w in self.weights],
            "E": {str(i): sp_json(m) for i, m in self.E.items()},
            "F": {str(i): sp_json(m) for i, m in self.F.items()},
            "kexp": {str(i): list(v) for i, v in self.kexp.items()},
        }


def build_irrep(cd: CartanDatum, lam, budget_dim: int = DEFAULT_DIM_BUDGET) -> IrrepModule:
    """Construct the irreducible module with dominant highest weight lam, by
    the module docstring's levels.  G is invertible, being so at v = 1; a
    reduction of [G | R] that misses a column of G raises
    InternalInconsistency."""
    lam = tuple(lam)
    dim = weyl_dim(cd, lam)
    if dim > budget_dim:
        raise BudgetExceeded(f"dim V({lam}) = {dim} exceeds budget {budget_dim}")
    n = cd.rank
    alphas = simple_roots(cd)

    labels = [()]
    parent = [None]
    weights = [lam]
    weight_basis = {lam: [0]}
    gram = {lam: [[RF_ONE]]}
    pos = [0]  # basis index -> its position in its weight block
    E = {i: {} for i in range(n)}
    F = {i: {} for i in range(n)}

    prev_level = {lam: [0]}  # weight -> basis indices at current depth
    while prev_level:
        # group candidate weights: mu = (weight at prev depth) - alpha_j
        targets = {}
        for mu_up, idxs in prev_level.items():
            for j in range(n):
                mu = tuple(a - b for a, b in zip(mu_up, alphas[j]))
                targets.setdefault(mu, []).extend((j, b) for b in idxs)
        # a candidate F_j v_b reads column b of E_i and columns one level up
        # of F_j; earlier levels wrote all of them, so one grouping serves
        ecols = [sp_grouped(E[i], False) for i in range(n)]
        fcols = [sp_grouped(F[j], False) for j in range(n)]
        new_level = {}
        for mu in sorted(targets):
            cands = sorted(targets[mu])
            # E_i F_j v_b = F_j (E_i v_b) + delta_ij [mu_b(h_i)]_(q_i) v_b in the
            # basis at mu + alpha_i: push the E-column of b through F_j
            eact = []
            for j, b in cands:
                acts = []
                for i in range(n):
                    vec = {}
                    for d, coeff in ecols[i].get(b, ()):
                        for dd, f in fcols[j].get(d, ()):
                            vec[dd] = vec.get(dd, RF_ZERO) + coeff * f
                    if i == j:
                        sp_add_to(vec, b, q_int(weights[b][i], cd.d[i]))
                    acts.append({d: x for d, x in vec.items() if x})
                eact.append(acts)
            # Gram matrix of candidates: <F_i v_a, F_j v_b> = <v_a, E_i F_j v_b>,
            # read off the Gram row of v_a in its block at mu + alpha_i
            grow = [gram[weights[a]][pos[a]] for _, a in cands]
            pair = [[sum((x * g[pos[d]] for d, x in acts[i].items()), RF_ZERO) for acts in eact]
                    for (i, _), g in zip(cands, grow)]
            # pivot columns on the classical specialization
            pivots = rref([[x.eval_at_one() for x in row] for row in pair])
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
                F[j][(gi, b)] = RF_ONE
                for i, act in enumerate(eact[col]):
                    for d, coeff in act.items():
                        E[i][(d, gi)] = coeff
            weight_basis[mu] = idxs
            gram[mu] = [[pair[r][c] for c in pivots] for r in pivots]
            # F-columns of the other candidates: one reduction of [G | R], G
            # the Gram block of the pivot candidates and R the pairings of the
            # others, gives their coordinates in the new basis
            others = [col for col in range(len(cands)) if col not in pivots]
            aug = [row + [pair[r][col] for col in others] for r, row in zip(pivots, gram[mu])]
            if others and rref(aug) != list(range(k)):
                raise InternalInconsistency(f"singular Gram block at weight {mu}")
            for t, col in enumerate(others, k):
                j, b = cands[col]
                for gi, row in zip(idxs, aug):
                    if row[t]:
                        F[j][(gi, b)] = row[t]
            new_level[mu] = idxs
        prev_level = new_level

    kexp = {i: [cd.d[i] * w[i] for w in weights] for i in range(n)}
    mod = IrrepModule(cd, lam, labels, parent, weights, E, F, kexp, gram, weight_basis)
    if mod.dim != dim:
        raise InternalInconsistency(f"built dim {mod.dim}, Weyl dim {dim}")
    return mod


def adjoint_module(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET) -> IrrepModule:
    """The module with highest weight the highest root.  The budget is
    checked on the closed-form dimension first, so a large rank is rejected
    before its root system is built."""
    dim = adjoint_dim(cd)
    if dim > budget_dim:
        raise BudgetExceeded(f"dim of the adjoint module of {cd} = {dim} exceeds budget {budget_dim}")
    return build_irrep(cd, highest_root(cd), budget_dim)


def contravariant_form(mod: IrrepModule) -> dict:
    """The contravariant form <F_i x, y> = <x, E_i y> as one sparse matrix
    S[a, b] = <v_a, v_b> on the module basis.  It is block diagonal: one
    Gram block per weight space, and nothing across weights."""
    S = {}
    for mu, idxs in mod.weight_basis.items():
        for a, row in zip(idxs, mod.gram[mu]):
            for b, x in zip(idxs, row):
                if x:
                    S[(a, b)] = x
    return S


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_module(mod: IrrepModule) -> dict:
    """Exhaustive exact checks of the defining relations; returns a report
    {check_name: bool} and never raises on failure."""
    cd = mod.cd
    n = cd.rank
    report = {}

    # [E_i, F_j] = delta_ij (K_i^2 - K_i^-2)/(q_i - q_i^-1)
    ok = True
    for i in range(n):
        for j in range(n):
            lhs = sp_sub(sp_matmul(mod.E[i], mod.F[j]), sp_matmul(mod.F[j], mod.E[i]))
            rhs = {}
            if i == j:
                for a in range(mod.dim):
                    val = q_int(mod.weights[a][i], cd.d[i])
                    if not val.is_zero():
                        rhs[(a, a)] = val
            if not sp_eq(lhs, rhs):
                ok = False
    report["commutator"] = ok

    # K_i E_j K_i^-1 = v^(d_i a_ij) E_j, and the F version with -a_ij: K_i is
    # diagonal, so entry (r, c) is scaled by v^(kexp[i][r] - kexp[i][c])
    report["k_conjugation"] = all(
        mod.kexp[i][r] - mod.kexp[i][c] == sign * cd.d[i] * cd.cartan[i][j]
        for i in range(n) for j in range(n)
        for sign, X in ((1, mod.E[j]), (-1, mod.F[j]))
        for (r, c), x in X.items() if x)

    report["serre_e"] = _serre_ok(mod, mod.E)
    report["serre_f"] = _serre_ok(mod, mod.F)

    # weight multiset matches Freudenthal, dimension matches Weyl
    freud = weight_multiplicities(cd, mod.highest_weight)
    counts = {}
    for w in mod.weights:
        counts[w] = counts.get(w, 0) + 1
    report["weights_match_freudenthal"] = counts == freud
    report["dimension"] = mod.dim == weyl_dim(cd, mod.highest_weight)

    # regularity at v = 1 and classical specialization
    entries = [x for m in (*mod.E.values(), *mod.F.values()) for x in m.values()]
    regular = all(x.is_regular_at_one() for x in entries)
    report["regular_at_one"] = regular
    ok = regular
    if regular:
        for i in range(n):
            for j in range(n):
                e1 = {k: Fraction(x.eval_at_one()) for k, x in mod.E[i].items()}
                f1 = {k: Fraction(x.eval_at_one()) for k, x in mod.F[j].items()}
                lhs = sp_sub(sp_matmul(e1, f1), sp_matmul(f1, e1))
                rhs = {}
                if i == j:
                    for a in range(mod.dim):
                        if mod.weights[a][i]:
                            rhs[(a, a)] = Fraction(mod.weights[a][i])
                if lhs != rhs:
                    ok = False
    report["classical_commutator"] = ok

    # contravariant symmetry: S E_i = F_i^T S blockwise (S = Gram)
    ok = True
    S = contravariant_form(mod)
    for i in range(n):
        lhs = sp_matmul(S, mod.E[i])
        rhs = sp_matmul(sp_transpose(mod.F[i]), S)
        if not sp_eq(lhs, rhs):
            ok = False
    report["contravariant_adjoint"] = ok

    report["all"] = all(report.values())
    return report


def _serre_ok(mod: IrrepModule, mats: dict) -> bool:
    cd = mod.cd
    n = cd.rank
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = 1 - cd.cartan[i][j]
            acc = {}
            for k in range(m + 1):
                coeff = q_binomial(m, k, cd.d[i])
                if k % 2:
                    coeff = -coeff
                term = _sp_power(mats[i], k, mod.dim)
                term = sp_matmul(term, mats[j])
                term = sp_matmul(term, _sp_power(mats[i], m - k, mod.dim))
                for key, val in term.items():
                    sp_add_to(acc, key, coeff * val)
            if acc:
                return False
    return True


def _sp_power(m, k, dim):
    if k == 0:
        return {(a, a): RF_ONE for a in range(dim)}
    out = m
    for _ in range(k - 1):
        out = sp_matmul(out, m)
    return out
