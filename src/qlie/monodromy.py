"""Monodromy-type operator on tensor products and the induced adjoint
family of endomorphisms extracted from its first-order part.

On V (x) W the operator acts as the scalar q^(c_lam - c_mu - c_nu) on the
isotypic component of highest weight lam, where c_lam = (lam, lam + 2 rho)
is the Casimir exponent and mu, nu are the highest weights of the factors.
With q = v^2 the scalar is v^(2(c_lam - c_mu - c_nu)); the exponents for
the various lam always agree modulo 1, and when they are not themselves
integers the whole operator is rescaled by a single recorded power
v^(-shift) so that every eigen-scalar becomes an honest Laurent monomial.
The conventions (pairing normalization, coproduct, shift) travel in the
output metadata.

The components lam are the dominant weights of V (x) W with a positive
Brauer-Klimyk count rootdata.tensor_multiplicity, which
tensorcg.highest_weight_space checks its vectors against; with their Weyl
dimensions they must fill V (x) W.  No weight block is reduced: M is built
column by column.  The dim W seeds M x, x = e_0 (x) e_b, use sum P_lam = 1
for the isotypic projections: M x = v^e_top x + sum (v^e_lam - v^e_top)
P_lam x over lam != top, the largest component, which is never built.  The
components are orthogonal under S_V (x) S_W (the contravariant forms), copy
k of lam pairs with copy j by H[k][j] times lam's Gram S_lam, and S_V's top
entry is 1, so P_lam x has coordinates (H^-1 (x) S_lam^-1) p in lam's
lowered columns, p their pairings with e_0 (x) row b of S_W.  The other
columns are lowered along V's basis: F_i e_pa = e_a for the first letter i
of a's label and its parent pa, so with K_i = v^k_i and
Delta(F_i) = F_i (x) K_i^-1 + K_i (x) F_i,

    M(e_a (x) e_b) = v^k_i(b) [Delta(F_i) M(e_pa (x) e_b)
                               - v^k_i(pa) sum_b' F_i[b', b] M(e_pa (x) e_b')].

M is then re-verified: it must be a module map from V (x) W to itself
(tensorcg's module_map_defects, which covers every E_i and F_i and the
weight grading), M u = v^e_lam u for every highest-weight vector u, and
M - 1 must vanish entrywise at v = 1.  The first two pin M exactly,
whatever built it.  Any failure raises VerificationFailed; no check is
ever skipped.

For the vector representation V of U_q(sl_n) (basis e_1..e_n, with
e_(i+1) = F_i e_i, index a*n + b on V (x) V) the operator is Jimbo's
R-matrix squared (Lett. Math. Phys. 11, 1986).  With

    R_J = q sum_i e_ii (x) e_ii + sum_{i != j} e_ii (x) e_jj
          + (q - q^-1) sum_{i > j} e_ij (x) e_ji

and P the flip, the universal R-matrix acts on V (x) V as q^(-1/n) R_J, so
the stored matrix is v^(-shift - 4/n) (P R_J)^2: the scalar is q^-1 for
n = 2, 3 and v^-1 for n = 4.  The i < j form, R_J with its tensor factors
swapped, does not match.

M records its factors as M.tensor = V (x) W.  adjoint_family(M) is the one
contraction of M - 1: with the embedding K of the adjoint module into
V* (x) V of adjoint_in_dual_tensor(V), it contracts the first slot to the
endomorphisms A_a = K_a^{ij} (M-1)[(i,.),(j,.)] of W, as the sparse map
a -> A_a into End(W) = W (x) W*, W* = dual_data(W).  The A_a transform
like the adjoint module under the coproduct action on W (x) W*, the
twisted adjoint action x . A = rho(x_(1)) A rho(S(x_(2))):

    E_i . A = E_i A K_i - q_i^-1 K_i A E_i,
    F_i . A = F_i A K_i - q_i    K_i A F_i,
    K_i . A = K_i A K_i^-1.

verify_ad_submodule checks that with one call to the module-map check and
reports the rank of the family.  On W = adjoint_module(cd) the concrete
bracket is read off it: [X_a, X_b] = sum_c A_a[c, b] X_c (concrete_bracket),
and check_concrete compares it with the abstract table on W's basis.
"""

from __future__ import annotations

from fractions import Fraction

from .qring import RF_ONE, RF_ZERO, RatFunc, rf_vpow
from .rootdata import (CartanDatum, VerificationFailed, bilinear, highest_root, is_dominant,
                       tensor_multiplicity, weyl_dim)
from .repbuild import IrrepModule, adjoint_module, build_irrep
from .linalg import inverse, rank, sp_add_to, sp_diff, sp_grouped, sp_matvec, sp_sub
from .qliealg import check_q_antisymmetry
from .table import QuantumLieAlgebra
from .tensorcg import (TensorProduct, coproduct_action, highest_weight_space, lowered_table,
                       module_map_defects, pair_matrix, tensor_product)


def casimir_exponent(cd: CartanDatum, lam) -> Fraction:
    """(lam, lam + 2 rho) in the normalization (alpha_i, alpha_i) = 2 d_i.

    The Weyl vector rho has value 1 on every coroot, i.e. coordinates
    (1, ..., 1).
    """
    lam = tuple(lam)
    shifted = tuple(x + 2 for x in lam)
    return bilinear(cd, lam, shifted)


class ModuleData:
    """Matrix data of a module: just enough to form tensor products."""

    def __init__(self, cd: CartanDatum, dim: int, weights: list, E: dict, F: dict, kexp: dict,
                 highest_weight: tuple):
        self.cd = cd
        self.dim = dim
        self.weights = weights
        self.E = E
        self.F = F
        self.kexp = kexp
        self.highest_weight = highest_weight


def dual_data(V: IrrepModule) -> ModuleData:
    """The dual module via the antipode transpose: pi*(x) = pi(S(x))^T,
    so E* = -q_i^{-1} E^T, F* = -q_i F^T, and K* is the inverse diagonal.
    Its highest weight -w0(lam) is the negated lowest weight of V."""
    n = V.cd.rank
    E, F, kexp = {}, {}, {}
    for i in range(n):
        qi, qi_inv = rf_vpow(2 * V.cd.d[i]), rf_vpow(-2 * V.cd.d[i])
        E[i] = {(c, r): -qi_inv * x for (r, c), x in V.E[i].items()}
        F[i] = {(c, r): -qi * x for (r, c), x in V.F[i].items()}
        kexp[i] = [-k for k in V.kexp[i]]
    weights = [tuple(-x for x in w) for w in V.weights]
    return ModuleData(V.cd, V.dim, weights, E, F, kexp, weights[-1])


class Monodromy:
    """The assembled operator together with its spectral bookkeeping.

    matrix holds v^(-shift) times the true operator, so that entries are
    honest rational functions of v even when the Casimir exponents are
    fractional; shift is 0 whenever they are integers (in particular when
    the factor weights lie in the root lattice).  tensor is V (x) W.
    """

    def __init__(self, matrix: dict, tensor: TensorProduct, exponents: dict, shift: Fraction,
                 convention: dict, checks: dict):
        self.matrix = matrix          # sparse over product indices
        self.tensor = tensor
        self.exponents = exponents    # lam -> true v-exponent 2(c_lam - c_mu - c_nu), Fraction
        self.shift = shift            # common fractional offset removed from all exponents
        self.convention = convention
        self.checks = checks

    @property
    def dim(self):
        return self.tensor.dim


def monodromy_on_tensor(V: IrrepModule, W: IrrepModule) -> Monodromy:
    """Assemble the operator acting by q^(c_lam - c_mu - c_nu) on each
    isotypic component of V (x) W, then verify it exactly."""
    cd = V.cd
    mu, nu = V.highest_weight, W.highest_weight
    T = tensor_product(V, W)
    c0 = casimir_exponent(cd, mu) + casimir_exponent(cd, nu)
    lams = [lam for lam in sorted(T.weight_blocks)
            if is_dominant(lam) and tensor_multiplicity(cd, mu, nu, lam) > 0]
    exponents = {lam: 2 * (casimir_exponent(cd, lam) - c0) for lam in lams}
    e0 = exponents[lams[0]]
    shift = e0 - (e0.numerator // e0.denominator)
    for lam in lams:
        if (exponents[lam] - shift).denominator != 1:
            raise VerificationFailed(f"eigen-exponents not congruent modulo 1: {exponents}")
    evs = {lam: rf_vpow(int(exponents[lam] - shift)) for lam in lams}

    hws = {lam: highest_weight_space(T, lam) for lam in lams}
    if sum(len(hws[lam]) * weyl_dim(cd, lam) for lam in lams) != T.dim:
        raise VerificationFailed("isotypic components do not fill V (x) W")

    # the seeds M(e_0 (x) e_b), product index b (see the module docstring)
    dw = W.dim
    top = max(lams, key=lambda lam: weyl_dim(cd, lam))
    cols = [{b: evs[top]} if b < dw else {} for b in range(T.dim)]
    for lam in lams:
        if lam == top:
            continue
        Mlam, us, scale = build_irrep(cd, lam, T.dim), hws[lam], evs[lam] - evs[top]
        tables = [lowered_table(T, Mlam, u) for u in us]
        try:
            hinv = inverse(pair_matrix(T, us)[1])
        except ZeroDivisionError:
            raise VerificationFailed(f"singular isotypic basis of {lam}") from None
        for w, cs in Mlam.weight_basis.items():
            nu_w = tuple(x - y for x, y in zip(w, mu))
            if nu_w not in W.weight_basis:
                continue
            sinv, bs, gram = inverse(Mlam.gram[w]), W.weight_basis[nu_w], W.gram[nu_w]
            for s, b in enumerate(bs):
                pair = [[_dot([t[c].get(b2, RF_ZERO) for b2 in bs], [g[s] for g in gram])
                         for c in cs] for t in tables]
                for hrow, t in zip(hinv, tables):
                    for srow, c in zip(sinv, cs):
                        x = scale * _dot(hrow, [_dot(srow, pk) for pk in pair])
                        for p, y in t[c].items():
                            sp_add_to(cols[b], p, x * y)

    # every other column, lowered along V's basis (module docstring)
    act = coproduct_action(T, "F")
    fcols = {i: sp_grouped(m, False) for i, m in W.F.items()}
    for a in range(1, V.dim):
        i, pa = V.labels[a][0], V.parent[a]
        for b in range(dw):
            col = act(i, cols[pa * dw + b])
            for b2, f in fcols[i].get(b, ()):
                for p, x in cols[pa * dw + b2].items():
                    sp_add_to(col, p, -_vshift(x, V.kexp[i][pa]) * f)
            cols[a * dw + b] = {p: _vshift(x, W.kexp[i][b]) for p, x in col.items()}
    matrix = {(r, p): x for p, col in enumerate(cols) for r, x in col.items()}

    if module_map_defects(matrix, T, T):
        raise VerificationFailed("operator fails to commute with the coproduct action")
    for lam, us in hws.items():
        if any(sp_matvec(matrix, u) != {p: evs[lam] * x for p, x in u.items()} for u in us):
            raise VerificationFailed(f"M is not v^e on a highest-weight vector of {lam}")
    if (any((p, p) not in matrix for p in range(T.dim))
            or any(not x.is_regular_at_one() or x.eval_at_one() != (1 if r == c else 0)
                   for (r, c), x in matrix.items())):
        raise VerificationFailed("M - 1 does not vanish at v = 1")
    convention = {
        "eigenvalue": "q^((lam,lam+2rho) - (mu,mu+2rho) - (nu,nu+2rho))",
        "pairing": "(alpha_i, alpha_i) = 2 d_i",
        "coproduct": "Delta(x) = x (x) K^{-1} + K (x) x",
        "base": "q = v^2",
        "shift": f"matrix stores v^(-{shift}) times the true operator",
    }
    return Monodromy(matrix, T, exponents, shift, convention,
                     {"commutes": True, "vanishes_at_one": True})


def _dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys) if x and y), RF_ZERO)


def _vshift(x, k: int):
    return RatFunc._make(x.c, x.s + k, x.n, x.d)   # x v^k, x nonzero


def adjoint_in_dual_tensor(V: IrrepModule):
    """An embedding table of the adjoint module into V* (x) V: for each
    adjoint basis index a, a sparse vector over p = i * dim(V) + k with i a
    dual index and k a module index.  Deterministic first nullspace choice
    when the highest root appears with multiplicity; EmptySpace when it
    does not appear.  Returns the adjoint module together with the table."""
    T = tensor_product(dual_data(V), V)
    u = highest_weight_space(T, highest_root(V.cd))[0]
    adj = adjoint_module(V.cd, V.dim ** 2)
    return adj, lowered_table(T, adj, u)


def adjoint_family(M: Monodromy):
    """(adj, family): the first slot of M - 1 contracted with the adjoint
    embedding K: adj -> V* (x) V of adjoint_in_dual_tensor(V), V = M.tensor.left,
    to endomorphisms of W = M.tensor.right,

        A_a[k, l] = sum_{ij} K_a^{ij} (M - 1)[(i,k), (j,l)],

    family the sparse map {(k * dim W + l, a): A_a[k, l]} from adj into W (x) W*."""
    V, dw = M.tensor.left, M.tensor.right.dim
    adj, ktable = adjoint_in_dual_tensor(V)
    k_at = sp_grouped({(p, a): x for a, vec in enumerate(ktable) for p, x in vec.items()}, True)
    family = {}
    for (rp, cp), x in sp_sub(M.matrix, {(p, p): RF_ONE for p in range(M.dim)}).items():
        (i, k), (j, l) = divmod(rp, dw), divmod(cp, dw)
        for a, c in k_at.get(i * V.dim + j, ()):
            sp_add_to(family, (k * dw + l, a), c * x)
    return adj, family


def verify_ad_submodule(M: Monodromy, V: IrrepModule, W: IrrepModule) -> dict:
    """Check that adjoint_family(M) is a module map a -> A_a from the
    adjoint module into End(W) = W (x) W*, under the twisted adjoint action
    of the module docstring: ad_e, ad_f and ad_k report the E, F and weight
    conditions, and span_dim the rank of the family.  V and W must be M's
    factors; anything else raises ValueError."""
    # modules compare by their fields, as a rebuilt factor is M's factor too
    if (vars(V), vars(W)) != (vars(M.tensor.left), vars(M.tensor.right)):
        raise ValueError("V and W are not the factors of M")
    adj, family = adjoint_family(M)
    failed = {d[0] for d in module_map_defects(family, adj, tensor_product(W, dual_data(W)))}
    ok = {"ad_e": "E" not in failed, "ad_f": "F" not in failed, "ad_k": "K" not in failed}
    kls = sorted({kl for kl, _ in family})
    span = rank([[family.get((kl, a), RF_ZERO) for kl in kls] for a in range(adj.dim)])
    return {**ok, "span_dim": span, "all": all(ok.values())}


def concrete_bracket(M: Monodromy) -> dict:
    """The concrete bracket [X_a, X_b] = sum_c A_a[c, b] X_c of the family
    of adjoint_family(M), as constants {(a, b, c): A_a[c, b]} on the basis
    of W = M.tensor.right.  Raises ValueError unless W is the adjoint module."""
    adj, family = adjoint_family(M)
    if vars(adj) != vars(M.tensor.right):
        raise ValueError("W = M.tensor.right is not the adjoint module")
    d = adj.dim
    return {(a, cb % d, cb // d): x for (cb, a), x in family.items()}


def check_concrete(M: Monodromy, A) -> dict:
    """The paper's claims (1) and (3) on V = M.tensor.left, for the table A
    of build_generic on the basis of W = M.tensor.right.

    (1) The concrete bracket C = concrete_bracket(M) is lambda_V A, with
    lambda_V read at the first entry of A; otherwise lambda_V is None and
    witness is the first entry, in sorted order, where they differ.
    (3) lambda_V / bar(lambda_V) = -v^(2 m_V) for an integer m_V, which is
    measured; lambda'_V = lambda_V v^-m_V / (v - v^-1) is bar-invariant
    with a finite value at v = 1; C fails check_q_antisymmetry, and C
    divided by v^m_V (v - v^-1) passes it.  m_V is a gauge: it is read in
    the vectors of highest_weight_space (denominators cleared, then
    rescale_at_one).  Scalars are reported as strings.  Raises ValueError
    when A is not graded like W."""
    if [A.grade(a) for a in range(A.dim)] != M.tensor.right.weights:
        raise ValueError("A is not graded like W = M.tensor.right")
    C = concrete_bracket(M)
    first = min(A.constants)
    lam = C.get(first, RF_ZERO) / A.constants[first]
    bad = sp_diff(C, {k: lam * x for k, x in A.constants.items()})
    witness = list(bad[0]) if bad else None
    report = {"lambda_V": None, "witness": witness, "m_V": None, "lambda_prime_at_one": None,
              "bar_invariant": None, "q_antisymmetry_raw": None,
              "q_antisymmetry_normalized": None, "all": False}
    if witness is not None:
        return report
    report["lambda_V"] = str(lam)
    ratio = -lam / lam.qconjugate()
    m_V = ratio.s // 2
    if ratio != rf_vpow(2 * m_V):
        return report
    scale = rf_vpow(m_V + 1) - rf_vpow(m_V - 1)
    normalized = lam / scale
    raw, scaled = (check_q_antisymmetry(QuantumLieAlgebra(A.cd, A.basis, t, A.provenance, A.params,
                                                          A.normalized, A.checks))
                   for t in (C, {k: x / scale for k, x in C.items()}))
    at_one = str(normalized.eval_at_one()) if normalized.is_regular_at_one() else None
    bar = normalized.qconjugate() == normalized
    report.update(m_V=m_V, lambda_prime_at_one=at_one, bar_invariant=bar, q_antisymmetry_raw=raw,
                  q_antisymmetry_normalized=scaled,
                  all=bar and at_one is not None and not raw["ok"] and scaled["ok"])
    return report
