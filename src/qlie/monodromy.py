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

The operator is assembled weight block by weight block from bases of the
isotypic components obtained by lowering the joint highest-weight vectors;
the tensor product, the highest-vector kernel, the lowering and the
intertwining check are the shared ones of tensorcg.  On a block with
isotypic columns C and eigen-exponents e_k the operator is
M = C diag(v^e) C^-1; it is found without forming C^-1, by one row
reduction of [C^T | (C diag(v^e))^T], which leaves M^T on the right (C is
singular exactly when the pivots are not the first n columns).  It is then
re-verified: it must be a module map from V (x) W to itself (tensorcg's
module_map_defects, which covers every E_i and F_i and the weight
grading), and M - 1 must vanish entrywise at v = 1.  Any failure raises
ObstructionDetected -- these two oracle checks are what validates the
spectral construction, so they are never skipped.

For the vector representation V of U_q(sl_n) (basis e_1..e_n, with
e_(i+1) = F_i e_i, index a*n + b on V (x) V) the operator is Jimbo's
R-matrix squared (Lett. Math. Phys. 11, 1986).  With

    R_J = q sum_i e_ii (x) e_ii + sum_{i != j} e_ii (x) e_jj
          + (q - q^-1) sum_{i > j} e_ij (x) e_ji

and P the flip, the universal R-matrix acts on V (x) V as q^(-1/n) R_J, so
the stored matrix is v^(-shift - 4/n) (P R_J)^2: the scalar is q^-1 for
n = 2, 3 and v^-1 for n = 4.  The i < j form, R_J with its tensor factors
swapped, does not match.

From M - 1 and an embedding K of the adjoint module into the dual-pair
tensor V* (x) V one contracts the first slot to get endomorphisms
A_a = K_a^{ij} (M-1)[(i,.),(j,.)] of W.  These transform among themselves
exactly like the adjoint module under the twisted adjoint action
x . A = rho(x_(1)) A rho(S(x_(2))), which is the coproduct action on
End(W) = W (x) W* with W* = dual_data(W):

    E_i . A = E_i A K_i - q_i^-1 K_i A E_i,
    F_i . A = F_i A K_i - q_i    K_i A F_i,
    K_i . A = K_i A K_i^-1.

verify_ad_submodule therefore makes one call to the module-map check, for
a -> A_a from the adjoint module into tensor_product(W, dual_data(W)),
and reports the generic linear span of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qring import RF_ONE, RF_ZERO, h_derivative_at_zero, rf_vpow
from .rootdata import CartanDatum, bilinear, tensor_decompose
from .repbuild import IrrepModule, adjoint_module, build_irrep
from .linalg import rf_rank, rf_rref, sp_add_to, sp_sub
from .tensorcg import joint_highest_vectors, lowered_table, module_map_defects, tensor_product


class ObstructionDetected(RuntimeError):
    """The scalar-on-isotypic ansatz failed one of its verification oracles."""


def casimir_exponent(cd: CartanDatum, lam) -> Fraction:
    """(lam, lam + 2 rho) in the normalization (alpha_i, alpha_i) = 2 d_i.

    The Weyl vector rho has value 1 on every coroot, i.e. coordinates
    (1, ..., 1).
    """
    lam = tuple(lam)
    shifted = tuple(x + 2 for x in lam)
    return bilinear(cd, lam, shifted)


@dataclass
class ModuleData:
    """Matrix data of a module: just enough to form tensor products."""

    cd: CartanDatum
    dim: int
    weights: list
    E: dict
    F: dict
    kexp: dict


def dual_data(V: IrrepModule) -> ModuleData:
    """The dual module via the antipode transpose: pi*(x) = pi(S(x))^T,
    so E* = -q_i^{-1} E^T, F* = -q_i F^T, and K* is the inverse diagonal."""
    n = V.cd.rank
    E, F, kexp = {}, {}, {}
    for i in range(n):
        qi, qi_inv = rf_vpow(2 * V.cd.d[i]), rf_vpow(-2 * V.cd.d[i])
        E[i] = {(c, r): -qi_inv * x for (r, c), x in V.E[i].items()}
        F[i] = {(c, r): -qi * x for (r, c), x in V.F[i].items()}
        kexp[i] = [-k for k in V.kexp[i]]
    weights = [tuple(-x for x in w) for w in V.weights]
    return ModuleData(V.cd, V.dim, weights, E, F, kexp)


@dataclass
class Monodromy:
    """The assembled operator together with its spectral bookkeeping.

    matrix holds v^(-shift) times the true operator, so that entries are
    honest rational functions of v even when the Casimir exponents are
    fractional; shift is 0 whenever they are integers (in particular when
    the factor weights lie in the root lattice).
    """

    matrix: dict              # sparse over product indices
    dim: int
    exponents: dict           # lam -> true v-exponent 2(c_lam - c_mu - c_nu), Fraction
    shift: Fraction           # common fractional offset removed from all exponents
    convention: dict
    checks: dict

    def eigenvalue_q_exponents(self) -> set:
        """The true scalars as powers of q (Fractions; halves etc. allowed)."""
        return {e / 2 for e in self.exponents.values()}


def monodromy_on_tensor(V: IrrepModule, W: IrrepModule,
                        budget_dim: int = 256) -> Monodromy:
    """Assemble the operator acting by q^(c_lam - c_mu - c_nu) on each
    isotypic component of V (x) W, then verify it exactly."""
    cd = V.cd
    T = tensor_product(V, W)
    dec = tensor_decompose(cd, V.highest_weight, W.highest_weight)
    c0 = casimir_exponent(cd, V.highest_weight) + casimir_exponent(cd, W.highest_weight)
    exponents = {lam: 2 * (casimir_exponent(cd, lam) - c0) for lam in dec}
    lams = sorted(exponents)
    e0 = exponents[lams[0]]
    shift = e0 - (e0.numerator // e0.denominator)
    for lam in lams:
        if (exponents[lam] - shift).denominator != 1:
            raise ObstructionDetected(
                f"eigen-exponents not congruent modulo 1: {exponents}")
    int_exp = {lam: int(exponents[lam] - shift) for lam in lams}

    # columns of the isotypic bases, grouped per tensor weight
    col_vecs = {}   # weight -> list of (vector, lam)
    for lam in lams:
        mult = dec[lam]
        hws = joint_highest_vectors(T, lam)
        if len(hws) != mult:
            raise ObstructionDetected(
                f"found {len(hws)} highest vectors at {lam}, expected {mult}")
        Mlam = build_irrep(cd, lam, budget_dim)
        for u in hws:
            for a, vec in enumerate(lowered_table(T, Mlam, u)):
                col_vecs.setdefault(Mlam.weights[a], []).append((vec, lam))

    matrix = {}
    for w, block in T.weight_blocks.items():
        cols = col_vecs.get(w, [])
        if len(cols) != len(block):
            raise ObstructionDetected(
                f"isotypic columns do not fill the weight block at {w}")
        # M C = C D with D = diag(v^e_k), i.e. C^T M^T = (C D)^T: one row
        # reduction of [C^T | (C D)^T] leaves M^T on the right
        n = len(block)
        aug = []
        for vec, lam in cols:
            col = [vec.get(p, RF_ZERO) for p in block]
            ev = rf_vpow(int_exp[lam])
            aug.append(col + [x * ev for x in col])
        if rf_rref(aug) != list(range(n)):
            raise ObstructionDetected(f"singular isotypic basis at weight {w}")
        for r in range(n):
            for c in range(n):
                x = aug[c][n + r]
                if not x.is_zero():
                    matrix[(block[r], block[c])] = x

    dim = T.dim
    checks = {"commutes": not module_map_defects(matrix, T, T),
              "vanishes_at_one": True}
    for (r, c), x in matrix.items():
        if not x.is_regular_at_one():
            checks["vanishes_at_one"] = False
            break
        if x.eval_at_one() != (1 if r == c else 0):
            checks["vanishes_at_one"] = False
            break
    if checks["vanishes_at_one"]:
        for p in range(dim):
            if (p, p) not in matrix:
                checks["vanishes_at_one"] = False
                break
    if not checks["commutes"]:
        raise ObstructionDetected("operator fails to commute with the coproduct action")
    if not checks["vanishes_at_one"]:
        raise ObstructionDetected("M - 1 does not vanish at v = 1")
    convention = {
        "eigenvalue": "q^((lam,lam+2rho) - (mu,mu+2rho) - (nu,nu+2rho))",
        "pairing": "(alpha_i, alpha_i) = 2 d_i",
        "coproduct": "Delta(x) = x (x) K^{-1} + K (x) x",
        "base": "q = v^2",
        "shift": f"matrix stores v^(-{shift}) times the true operator",
    }
    return Monodromy(matrix, dim, exponents, shift, convention, checks)


def extract_A(M: Monodromy):
    """The first-order data of the operator: the exact sparse matrix M - 1
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


def adjoint_in_dual_tensor(V: IrrepModule, budget_dim: int = 256):
    """An embedding table of the adjoint module into V* (x) V: for each
    adjoint basis index a, a sparse vector over p = i * dim(V) + k with i a
    dual index and k a module index.  Deterministic first nullspace choice
    when the highest root appears with multiplicity.  Returns the adjoint
    module together with the table."""
    adj = adjoint_module(V.cd, budget_dim)
    T = tensor_product(dual_data(V), V)
    hws = joint_highest_vectors(T, adj.highest_weight)
    if not hws:
        raise ObstructionDetected("adjoint module absent from V* (x) V")
    return adj, lowered_table(T, adj, hws[0])


def verify_ad_submodule(M: Monodromy, V: IrrepModule, W: IrrepModule = None,
                        K: list = None) -> dict:
    """Contract the first slot of M - 1 with an adjoint embedding
    K: adjoint -> V* (x) V to get endomorphisms A_a of W,

        A_a[k, l] = sum_{ij} K_a^{ij} (M - 1)[(i,k), (j,l)],

    and check that a -> A_a is a module map from the adjoint module into
    End(W) = W (x) W*, index k * dim(W) + l.  The coproduct action on
    W (x) W* is the twisted adjoint action x . A = rho(x_(1)) A rho(S(x_(2))):

        E_i . A = rho(E_i) A rho(K_i) - q_i^{-1} rho(K_i) A rho(E_i),
        F_i . A = rho(F_i) A rho(K_i) - q_i     rho(K_i) A rho(F_i),
        K_i . A = rho(K_i) A rho(K_i^{-1})  (pure weight grading),

    each required to equal sum_b pi_adj(x)[b, a] A_b; ad_e, ad_f and ad_k
    report the three conditions.  Also reports the generic linear span of
    the family."""
    cd = V.cd
    if W is None:
        W = V
    if K is None:
        adj, ktable = adjoint_in_dual_tensor(V)
    else:
        adj, ktable = adjoint_module(cd), K
    dv, dw = V.dim, W.dim
    if M.dim != dv * dw:
        raise ValueError("operator dimension does not match V (x) W")

    m1 = sp_sub(M.matrix, {(p, p): RF_ONE for p in range(M.dim)})
    # group the entries of M - 1 by their first-slot index pair (i, j)
    slices = {}
    for (rp, cp), x in m1.items():
        i, k = divmod(rp, dw)
        j, l = divmod(cp, dw)
        slices.setdefault((i, j), {})[k * dw + l] = x
    As = []   # A_a as a sparse vector of W (x) W*
    for vec in ktable:
        A = {}
        for p, coeff in vec.items():
            for kl, x in slices.get(divmod(p, dv), {}).items():
                sp_add_to(A, kl, coeff * x)
        As.append(A)

    family = {(kl, a): x for a, A in enumerate(As) for kl, x in A.items()}
    failed = {d[0] for d in module_map_defects(family, adj, tensor_product(W, dual_data(W)))}
    ok = {"ad_e": "E" not in failed, "ad_f": "F" not in failed, "ad_k": "K" not in failed}
    flat = [[A.get(kl, RF_ZERO) for kl in range(dw * dw)] for A in As]
    return {**ok, "span_dim": rf_rank(flat), "all": all(ok.values())}
