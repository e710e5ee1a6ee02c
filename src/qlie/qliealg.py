"""Quantum Lie algebra structures.

Two constructions produce a ``QuantumLieAlgebra`` (a basis with structure
constants over Q(v), held by ``table``):

* ``build_generic``: the module pipeline.  The adjoint module V is built,
  the highest-weight vectors at the highest root are found inside V (x) V
  and each is split once into its halves under swap-composed-with-bar
  (tensorcg.swap_bar_halves).  The first classically nonzero odd half is
  inverted to a bracket V (x) V -> V that is the identity against the
  Clebsch-Gordan embedding it generates and kills the complementary copy
  that the first classically nonzero even half generates, if the
  multiplicity is two; the embedding is not formed, as the bracket's
  module-map check covers it (see tensorcg).  A multiplicity above two,
  or no classically nonzero half of a needed kind, raises
  VerificationFailed.
  Structure constants are indexed by the module basis, relabeled X_alpha
  for root vectors and H_k for the zero-weight slots.

* ``build_sln_explicit``: the closed-form two-parameter family for sl_n
  in the basis {X_ij} u {H_k}.  All its constants are linear in (s, t),
  E(s, t) = s * T_s + t * T_t, and T_t is the image of T_s under the flip
  tau, a signed permutation of the basis.

``canonical_normalize`` rescales a bracket and rebases its Cartan so that
H_i = [X_{alpha_i}, X_{-alpha_i}] and [H_1, X_{alpha_1}] =
2 q^{d_1} X_{alpha_1}, the normalization in which the rank-one algebra
takes its standard deformed shape.  ``table.change_basis`` is the single
change-of-basis routine for structure-constant tables: the normalization,
its classical oracle at v = 1, the fit and the transport of explicit
tables onto the pipeline basis all go through it; the flip tau, a signed
permutation, is ``_flip``.  Check functions verify the gradation,
q-antisymmetry (bar-antisymmetry of the constants), the classical v = 1
limit against independently computed rational oracles, ad-invariance of
pipeline and explicit tables, and the flip symmetry of the explicit family; the
comparison fitter matches a pipeline output to the explicit family by
solving for the parameters and the change of basis exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import mul

from .qring import RatFunc, RF_ONE, RF_ZERO, rf_sqrt, rf_vpow, _fraction_sqrt
from .rootdata import (VerificationFailed, CartanDatum, build_cartan, highest_root, root_system,
                       simple_roots)
from .repbuild import adjoint_module, DEFAULT_DIM_BUDGET
from .tensorcg import (highest_weight_space, invert_cg, module_map_defects, rescale_at_one,
                       swap_bar_halves, tensor_square)
from .linalg import inverse, rank, rref, sp_add_to, sp_diff, sp_grouped
from .classical import _lcm_den, classical_bracket, classical_sln_table, integral_multiple
# same_algebra is re-exported: callers that build tables here compare them with it
from .table import (BasisLabel, InvalidParams, QuantumLieAlgebra, _by_pair, _moved, _sln_basis,
                    _sln_root, change_basis, check_sln_params, same_algebra)


class GaugeObstruction(RuntimeError):
    """Normalization impossible: missing root vectors, singular Cartan
    rebase, or a required square root that does not exist in Q(v)."""


def _qpow(k: int) -> RatFunc:
    return rf_vpow(2 * k)


# ---------------------------------------------------------------------------
# explicit two-parameter sl_n family
# ---------------------------------------------------------------------------

def _sln_parts(n: int):
    """Labels and the s- and t-linear parts of the explicit sl_n family
    (Delius-Hueffmann, q-alg/9506017): E(s, t) = s * T_s + t * T_t.

    Only T_s is written in closed form.  T_t is its image under the flip
    tau of _sln_tau, T_t(tau a, tau b, tau c) = sigma_a sigma_b sigma_c
    T_s(a, b, c), so tau maps the member (s, t) onto (t, s).
    """
    xlabels = [("X", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = xlabels + [("H", k) for k in range(1, n)]
    pos = {lab: a for a, lab in enumerate(labels)}
    Ts = {}

    def l_s(i, j, k):
        # l_ij(H_k) = q^{1-k} d_{ki} - q^{-1-k} d_{k,i-1} - q^{k-1} d_{kj} + q^{k+1} d_{k,j-1}
        out = RF_ZERO
        if k == i:
            out = out + _qpow(1 - k)
        if k == i - 1:
            out = out - _qpow(-1 - k)
        if k == j:
            out = out - _qpow(k - 1)
        if k == j - 1:
            out = out + _qpow(k + 1)
        return out

    for (_, i, j) in xlabels:
        a, b = pos["X", i, j], pos["X", j, i]
        for k in range(1, n):
            h = pos["H", k]
            sp_add_to(Ts, (h, a, a), l_s(i, j, k))
            # [X_ij, H_k] = -r_ij(H_k) X_ij with r_ij(H_k) = -l_ji(H_k)
            sp_add_to(Ts, (a, h, a), l_s(j, i, k))
            # [X_ij, X_ji] = q^{i-j} sum_k (q^k [k < j] - q^{-k} [k < i]) H_k
            g = (_qpow(k) if k < j else RF_ZERO) - (_qpow(-k) if k < i else RF_ZERO)
            sp_add_to(Ts, (a, b, h), _qpow(i - j) * g)
        for m in range(1, n + 1):
            if m != i and m != j:
                # [X_ij, X_jm] = v^{1-2j} X_im and [X_ij, X_mi] = -v^{2i-1} X_mj
                Ts[a, pos["X", j, m], pos["X", i, m]] = rf_vpow(1 - 2 * j)
                Ts[a, pos["X", m, i], pos["X", m, j]] = -rf_vpow(2 * i - 1)

    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                f = RF_ZERO
                if i == j == k:
                    f = _qpow(k + 1) - _qpow(-k - 1)
                elif i == j and k < i:
                    f = (_qpow(1) + _qpow(-1)) * (_qpow(k) - _qpow(-k))
                elif abs(i - j) == 1 and k <= min(i, j):
                    f = _qpow(-k) - _qpow(k)
                sp_add_to(Ts, (pos["H", i], pos["H", j], pos["H", k]), f)

    return labels, Ts, _flip(Ts, _sln_tau(labels, n))


def _sln_labels(basis: list) -> list:
    """The labels ("X", i, j) and ("H", k) of an explicit-family basis."""
    return [("X",) + lab.ij if lab.kind == "X" else ("H", lab.index) for lab in basis]


def _sln_tau(labels: list, n: int) -> list:
    """The flip tau: X_ij -> -X_{n+1-j,n+1-i}, H_k -> H_{n-k} on a basis
    labelled ("X", i, j) and ("H", k): entry a is (index of tau(x_a), sign)."""
    pos = {lab: a for a, lab in enumerate(labels)}
    return [(pos["X", n + 1 - lab[2], n + 1 - lab[1]], -1) if lab[0] == "X"
            else (pos["H", n - lab[1]], 1) for lab in labels]


def _flip(table: dict, tau: list) -> dict:
    """The image of a table under a signed permutation tau of its basis:
    entry (a, b, c) moves to (tau a, tau b, tau c), times the three signs."""
    out = {}
    for (a, b, c), val in table.items():
        (a2, sa), (b2, sb), (c2, sc) = tau[a], tau[b], tau[c]
        out[a2, b2, c2] = val if sa * sb * sc > 0 else -val
    return out


def _sln_table(Ts: dict, Tt: dict, s: RatFunc, t: RatFunc) -> dict:
    """The explicit constants s * T_s + t * T_t, zero entries dropped."""
    out = {}
    for key in set(Ts) | set(Tt):
        val = s * Ts.get(key, RF_ZERO) + t * Tt.get(key, RF_ZERO)
        if val:
            out[key] = val
    return out


def build_sln_explicit(n: int, s, t) -> QuantumLieAlgebra:
    """The member E(s, t) = s * T_s + t * T_t of the explicit two-parameter
    family for sl_n, on the basis {X_ij} u {H_k}.  T_t is the flip tau of
    T_s (see _sln_parts), so tau maps E(s, t) onto E(t, s).  s + t must be
    regular and nonzero at v = 1; otherwise InvalidParams."""
    if n < 2:
        raise InvalidParams("n must be at least 2")
    s = s if isinstance(s, RatFunc) else RatFunc(s)
    t = t if isinstance(t, RatFunc) else RatFunc(t)
    check_sln_params(s, t)
    _, Ts, Tt = _sln_parts(n)
    return QuantumLieAlgebra(build_cartan("A", n - 1), _sln_basis(n), _sln_table(Ts, Tt, s, t),
                             "explicit-sln", params={"s": s, "t": t})


# ---------------------------------------------------------------------------
# generic module pipeline
# ---------------------------------------------------------------------------

class GenericPipeline:
    """The intermediate artifacts of the module construction.  The CG
    embedding that antisym generates is not formed: the bracket's top row
    is w^T (S (x) S), and every other row is solved from the module-map
    equations E_i B = B Delta(E_i), one weight block at a time.  invert_cg
    checks B whatever solved it, and by the identity
    (S (x) S) Delta(E_i) = Delta(F_i)^T (S (x) S) its module-map check of B
    is one of beta_w (see tensorcg)."""

    def __init__(self, module, tensor, hw_basis: list, antisym: dict, others: list,
                 constants: dict):
        self.module = module
        self.tensor = tensor
        self.hw_basis = hw_basis
        self.antisym = antisym
        self.others = others
        self.constants = constants


def generic_pipeline(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET) -> GenericPipeline:
    V = adjoint_module(cd, budget_dim)
    T = tensor_square(V)
    theta = highest_root(cd)
    hw = highest_weight_space(T, theta)
    if len(hw) > 2:
        raise VerificationFailed("highest-root multiplicity above 2 is not supported")
    # the candidates are the vectors of hw alone: both halves are additive,
    # and vanishing at v = 1 is closed under sums, so a sum hw[i] + hw[j]
    # would be tried only after both of its terms failed, and fail too
    anti = sym = None
    for cand in hw:
        a, s = swap_bar_halves(T, cand)
        anti, sym = anti or a, sym or s
        if anti and sym:
            break
    if anti is None:
        raise VerificationFailed("no candidate with classically nonzero antisymmetrization")
    anti = rescale_at_one(anti)
    if len(hw) > 1 and sym is None:
        raise VerificationFailed("no classically nonzero symmetric complement")
    others = [sym] if len(hw) > 1 else []
    constants = invert_cg(T, anti, others)
    return GenericPipeline(V, T, hw, anti, others, constants)


def build_generic(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET,
                  pipe: GenericPipeline = None) -> QuantumLieAlgebra:
    """Quantum Lie algebra on the adjoint module via the tensor pipeline.
    A precomputed pipeline for the same Cartan datum may be passed in."""
    if pipe is None:
        pipe = generic_pipeline(cd, budget_dim)
    return QuantumLieAlgebra(cd, _module_basis(pipe.module.weights), pipe.constants,
                             "generic-pipeline")


def _module_basis(weights) -> list:
    """The labels of a module basis with these weights: X_alpha at each root
    alpha, and H_1, H_2, ... on the zero-weight slots in basis order."""
    h = count(1)
    return [BasisLabel("X", root=w) if any(w) else BasisLabel("H", index=next(h))
            for w in weights]


# ---------------------------------------------------------------------------
# canonical normalization
# ---------------------------------------------------------------------------

def _gauge_rebase(constants, cd, weights, two, sqrt):
    """The canonical normalization of a graded table whose basis vector a
    has weight weights[a]: the Cartan is rebased to
    H'_i = sum_k G[i][k] H_k, where G[i] is the Cartan part of
    [X_{alpha_i}, X_{-alpha_i}], and each constant is then scaled by
    m^(1 + #Cartan inputs - #Cartan outputs) with m^2 = two / (g . l), so
    only root-root-to-root constants need m itself.

    Works over RatFunc or Fraction entries: two and sqrt (exact square
    root or None) are those of the scalar type.
    """
    n = cd.rank
    origin = (0,) * n
    h_slots = [a for a, w in enumerate(weights) if w == origin]
    if len(h_slots) != n:
        raise GaugeObstruction("Cartan slot count differs from the rank")
    roots = {w: a for a, w in enumerate(weights) if w != origin}
    simple = simple_roots(cd)
    for alpha in simple:
        if alpha not in roots or tuple(-c for c in alpha) not in roots:
            raise GaugeObstruction("missing simple-root vector X_alpha or X_-alpha")
    zero = two * 0
    G = [[constants.get((roots[alpha], roots[tuple(-c for c in alpha)], h), zero)
          for h in h_slots] for alpha in simple]
    x0 = roots[simple[0]]
    gl = zero
    for gk, h in zip(G[0], h_slots):
        gl = gl + gk * constants.get((h, x0, x0), zero)
    if not gl:
        raise GaugeObstruction("degenerate pairing [X,X_-] against [H, X]")
    m2 = two / gl
    try:
        Ginv = inverse(G)
    except ZeroDivisionError as exc:
        raise GaugeObstruction("singular Cartan rebase") from exc
    hset = set(h_slots)
    m = None
    if any(a not in hset and b not in hset and c not in hset for (a, b, c) in constants):
        m = sqrt(m2)
        if m is None:
            raise GaugeObstruction("normalization needs a square root missing from Q(v)")
    cols = {a: {a: 1} for a in range(len(weights)) if a not in hset}
    inv = dict(cols)
    for i, h in enumerate(h_slots):
        cols[h] = {h_slots[k]: g for k, g in enumerate(G[i]) if g}
        inv[h] = {h_slots[j]: y for j, y in enumerate(Ginv[i]) if y}
    scale = (None, m, m2)
    out = {}
    for (a, b, c), val in change_basis(constants, cols, inv).items():
        e = 1 + (a in hset) + (b in hset) - (c in hset)
        out[(a, b, c)] = val * scale[e] if e else val
    return out


def canonical_normalize(A: QuantumLieAlgebra) -> QuantumLieAlgebra:
    """Rescale the bracket and rebase the Cartan so that
    H_i = [X_{alpha_i}, X_{-alpha_i}] and [H_1, X_{alpha_1}] =
    2 q^{d_1} X_{alpha_1}.  Idempotent; raises GaugeObstruction when the
    basis lacks simple-root vectors, the rebase is singular, or the
    required square root does not exist in Q(v)."""
    if not check_gradation(A)["ok"]:
        raise GaugeObstruction("table is not graded")
    two = RatFunc(2) * _qpow(A.cd.d[0])
    weights = [A.grade(a) for a in range(A.dim)]
    new_constants = _gauge_rebase(A.constants, A.cd, weights, two, rf_sqrt)
    h = count(1)
    basis = [BasisLabel("H", index=next(h)) if lab.kind == "H" else lab for lab in A.basis]
    return QuantumLieAlgebra(A.cd, basis, new_constants, A.provenance,
                             params=A.params, normalized=True)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_gradation(A: QuantumLieAlgebra) -> dict:
    """Every nonzero f_ab^c must satisfy grade(c) = grade(a) + grade(b);
    off-diagonal Cartan output from two root vectors is likewise graded."""
    witness = None
    for (a, b, c) in sorted(A.constants):
        ga, gb, gc = A.grade(a), A.grade(b), A.grade(c)
        if tuple(x + y for x, y in zip(ga, gb)) != gc:
            witness = [a, b, c]
            break
    return {"ok": witness is None, "witness": witness}


def check_q_antisymmetry(A: QuantumLieAlgebra) -> dict:
    """f_ab^c(v) = -f_ba^c(v^{-1}) entrywise in the given basis; the
    witness is the first entry, in sorted order, where it fails."""
    bad = sp_diff(A.constants, {(b, a, c): -val.qconjugate()
                                for (a, b, c), val in A.constants.items()})
    return {"ok": not bad, "witness": list(bad[0]) if bad else None}


def check_lr_identity(A: QuantumLieAlgebra) -> dict:
    """r_a(H_k) = -l_{a'}(H_k) where a' carries the opposite root, for
    [H_k, X_a] = l_a(H_k) X_a and [X_a, H_k] = -r_a(H_k) X_a: that is,
    f[a, H_k]^a = f[H_k, a']^{a'}.  The witness is [a] when a' is missing,
    else [a, H_k], both basis indices."""
    roots, hs = A.root_index(), A.h_indices()
    for x in A.x_indices():
        y = roots.get(tuple(-c for c in A.basis[x].root))
        if y is None:
            return {"ok": False, "witness": [x]}
        for h in hs:
            if A.structure_constant(x, h, x) != A.structure_constant(h, y, y):
                return {"ok": False, "witness": [x, h]}
    return {"ok": True, "witness": None}


def check_classical_limit(A: QuantumLieAlgebra, budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """Evaluate at v = 1 and check: antisymmetry, the Jacobi identity,
    commuting Cartan, l = r with a single proportionality l_a = kappa * alpha,
    and exact agreement with the independent rational oracle (the classical
    pipeline for generic provenance, (s+t)(1) times the standard sl_n table
    for the explicit family), all read by label in any order of the basis.
    It runs on f1, the values c sum(N) / sum(D) of the constants c v^s N / D
    at v = 1 times q, the lcm of their denominators: every check is
    homogeneous in q, and two tables are equal exactly when their q and f1 are."""
    at_one = {}
    for key, val in A.constants.items():
        num, den = sum(val.n) * val.c.numerator, sum(val.d) * val.c.denominator
        if not den:
            return {"regular_at_one": False, "all": False}
        if num:
            g = gcd(num, den)
            at_one[key] = num // g, den // g
    report = {"regular_at_one": True}
    q = lcm(*(den for _, den in at_one.values()))
    f1 = {key: num * (q // den) for key, (num, den) in at_one.items()}

    report["antisymmetric"] = all(f1.get((b, a, c)) == -val for (a, b, c), val in f1.items())

    # sum [[x, y], z] over the cyclic rotations (x, y, z) of each increasing
    # triple, keyed by the sorted triple and the output index
    by_pair = _by_pair(f1)
    by_first = sp_grouped(by_pair, True)
    sums = {}
    for (x, y), xy in by_pair.items():
        for e, v1 in xy.items():
            for z, ez in by_first.get(e, ()):
                if x < y < z or y < z < x or z < x < y:
                    triple = tuple(sorted((x, y, z)))
                    for f, v2 in ez.items():
                        sums[triple, f] = sums.get((triple, f), 0) + v1 * v2
    report["jacobi"] = not any(sums.values())

    h_slots = A.h_indices()
    report["cartan_abelian"] = not any(a in h_slots and b in h_slots for a, b, _ in f1)

    # the eigenvalues of the H slots on each root vector
    xs = A.x_indices()
    eig = {x: [f1.get((h, x, x), 0) for h in h_slots] for x in xs}
    report["l_equals_r"] = all(lv == -f1.get((x, h, x), 0)
                               for x in xs for h, lv in zip(h_slots, eig[x]))
    # l_a(H_k) = kappa * alpha_k with one kappa for every root and every H_k
    pairs = [(lv, A.basis[x].root[A.basis[h].index - 1])
             for x in xs for h, lv in zip(h_slots, eig[x])]
    lv0, ak0 = next(((lv, ak) for lv, ak in pairs if ak), (0, 0))
    uniform = ak0 and all(lv * ak0 == lv0 * ak if ak else not lv for lv, ak in pairs)
    report["kappa"] = str(Fraction(lv0, q * ak0)) if uniform else None

    # l_alpha = r_alpha = alpha against the canonical classical Cartan:
    # H'_i := (2 / c_i) [X_{alpha_i}, X_{-alpha_i}], with c_i the eigenvalue
    # of the bracket on X_{alpha_i}, completes each simple-root pair to an sl2
    # triple at v = 1, so it must act as the coroot h_i on every root vector:
    # 2 g . eig[x] = c_i alpha_i(x).  Basis-independent and square-root free,
    # so it applies to every table.
    roots_map = A.root_index()

    def acts_as_coroot(i, alpha):
        neg = tuple(-c for c in alpha)
        if alpha not in roots_map or neg not in roots_map:
            return False
        xi, yi = roots_map[alpha], roots_map[neg]
        g = [f1.get((xi, yi, h), 0) for h in h_slots]
        acts = {x: sum(map(mul, g, eig[x])) for x in xs}
        return acts[xi] != 0 and all(2 * acts[x] == acts[xi] * A.basis[x].root[i] for x in xs)

    report["roots_classical"] = all(
        acts_as_coroot(i, alpha) for i, alpha in enumerate(simple_roots(A.cd))
    )

    oracle = None
    if A.provenance == "explicit-sln" and not A.normalized:
        n = A.cd.rank + 1
        sigma = (A.params["s"] + A.params["t"]).eval_at_one()
        labels0, table0 = classical_sln_table(n)
        basis0 = _sln_basis(n)
        if _sln_labels(basis0) != labels0:
            raise VerificationFailed("basis order mismatch against the oracle")
        oracle = {k: sigma * v for k, v in table0.items()}
    elif A.provenance == "generic-pipeline":
        V0, oracle = classical_bracket(A.cd, budget_dim)
        basis0 = _module_basis(V0.weights)
        if A.normalized:
            try:
                oracle = _gauge_rebase(oracle, A.cd, V0.weights, Fraction(2), _fraction_sqrt)
            except GaugeObstruction:
                oracle = None
    if oracle is not None:
        oracle = _moved(oracle, basis0, A.basis)
    report["oracle_match"] = None if oracle is None else (
        q == _lcm_den(oracle.values()) and f1 == integral_multiple(oracle, q))
    report["all"] = all(report[k] for k in (
        "regular_at_one", "antisymmetric", "jacobi", "cartan_abelian", "l_equals_r",
        "roots_classical")) and report["oracle_match"] is not False
    return report


def _phi_inverse(A: QuantumLieAlgebra, phi: dict) -> dict:
    """The inverse of the graded basis map phi of compare_to_explicit, as
    explicit index -> {generic index: coefficient}.  It is inverted one
    weight of A at a time: 1 x 1 on each root vector, and the Cartan block C
    on the H slots.  A block that is not square, or that shares an explicit
    vector with another block, raises InvalidParams; a singular block raises
    ZeroDivisionError."""
    blocks = {}
    for g in range(A.dim):
        blocks.setdefault(A.grade(g), []).append(g)
    inv = {}
    for w, gs in blocks.items():
        es = sorted({e for g in gs for e in phi.get(g, ())})
        if len(es) != len(gs) or any(e in inv for e in es):
            raise InvalidParams(f"phi does not map the weight {w} vectors of A one to one "
                                "onto explicit vectors of their own")
        block_inv = inverse([[phi.get(g, {}).get(e, RF_ZERO) for g in gs] for e in es])
        for k, e in enumerate(es):
            inv[e] = {g: row[k] for g, row in zip(gs, block_inv) if row[k]}
    return inv


def transport_explicit_constants(A: QuantumLieAlgebra, phi: dict,
                                 E: QuantumLieAlgebra) -> dict:
    """Rewrite the table of an explicit-family algebra E on the basis of the
    pipeline output A, through the module dictionary phi produced by
    compare_to_explicit(..., with_map=True): phi[g] is the column of the
    basis change, generic index -> {explicit index: coefficient}, inverted
    by _phi_inverse.

    The dictionary identifies the underlying modules, not a particular
    bracket, so E may carry any admissible (s, t), not just the fitted one,
    and E is read by its labels, in any order of its basis.
    """
    return change_basis(_moved(E.constants, E.basis, _sln_basis(E.cd.rank + 1)), phi,
                        _phi_inverse(A, phi))


def check_ad_invariance(A: QuantumLieAlgebra, pipe: GenericPipeline = None,
                        budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """pi(x) o B = B o Delta pi(x) for all generators, B the bracket of A on
    the adjoint module V of generic_pipeline.  A pipeline table is read onto
    V's basis by its labels; an explicit table is moved there through the
    basis map phi that compare_to_explicit fits on the pipeline table.  A
    normalized table mixes module vectors: not applicable.  pipe, the
    pipeline of A's Cartan datum when the caller has built it, saves
    building V and V (x) V again."""
    if A.normalized:
        return {"ok": None, "applicable": False}
    if A.provenance == "generic-pipeline":
        T = tensor_square(adjoint_module(A.cd, budget_dim)) if pipe is None else pipe.tensor
        constants = _moved(A.constants, A.basis, _module_basis(T.left.weights))
    else:
        pipe = pipe or generic_pipeline(A.cd, budget_dim)
        T, G = pipe.tensor, build_generic(A.cd, pipe=pipe)
        fit = compare_to_explicit(G, with_map=True)
        if not fit["match"]:
            raise VerificationFailed("the pipeline table does not fit the explicit family")
        constants = transport_explicit_constants(G, fit["phi"], A)
    d = T.left.dim
    defects = module_map_defects({(c, a * d + b): x for (a, b, c), x in constants.items()},
                                 T, T.left)
    rep = {"ok": not defects, "applicable": True}
    if defects:
        rep["witness"] = defects[0]
    return rep


# ---------------------------------------------------------------------------
# fitting a pipeline output to the explicit family
# ---------------------------------------------------------------------------

def compare_to_explicit(A: QuantumLieAlgebra, s=None, t=None,
                        with_map: bool = False) -> dict:
    """Match a graded table on an A-series root system against the explicit
    two-parameter family.

    Fits (s, t) from the Cartan action in one reduction: a row per root
    vector x holds the T_s and T_t coefficients of [H_k, x]^x, with one
    right-hand side f[h, x]^x per H slot h of A and free unknowns set to
    zero, so a pivot among the right-hand sides names the first H row that
    no parameters fit.  The unknowns are C*s and C*t, C the Cartan change
    of basis, so the fit is gauge-invariant and their ratio is the fitted
    epsilon = t/s.  Then the root-vector gauge scalars are fixed in one
    pass by root height, with the simple-root vectors scaled to 1, and the
    fitted member, moved onto A's basis through the fitted map phi, is
    checked against A constant by constant.  When s and t are both given,
    only C is solved.  For n = 2 the family is one-parameter, and the
    fitted member is (s, 0).

    with_map additionally returns the raw basis dictionary under "phi"
    (generic index -> {explicit index: RatFunc}) for transporting tables;
    that entry is not JSON-serializable and is left out by default.  Giving
    only one of s and t, or a pair that build_sln_explicit refuses (s + t
    not regular or zero at v = 1), raises InvalidParams.
    """
    if (s is None) != (t is None):
        raise InvalidParams("give both s and t to pin the fit, or neither")
    if s is not None:
        s, t = (x if isinstance(x, RatFunc) else RatFunc(x) for x in (s, t))
        check_sln_params(s, t)
    report = {"applicable": True, "match": False, "mismatches": []}
    cd = A.cd
    if cd.series != "A":
        return {"applicable": False, "match": None}
    n = cd.rank + 1
    nH = n - 1
    labels, Ts, Tt = _sln_parts(n)
    eroot = {_sln_root(n, lab[1], lab[2]): a for a, lab in enumerate(labels) if lab[0] == "X"}
    ehs = [labels.index(("H", k)) for k in range(1, n)]

    groots, ghs, gxs = A.root_index(), A.h_indices(), A.x_indices()
    if len(ghs) != nH or set(groots) != set(eroot):
        report["mismatches"].append("root systems differ")
        return report
    ex_of = {x: eroot[A.basis[x].root] for x in gxs}

    fit = s is None and t is None
    aug = []
    for x in gxs:
        srow = [Ts.get((e, ex_of[x], ex_of[x]), RF_ZERO) for e in ehs]
        trow = [Tt.get((e, ex_of[x], ex_of[x]), RF_ZERO) for e in ehs]
        row = srow + trow if fit else [s * a + t * b for a, b in zip(srow, trow)]
        aug.append(row + [A.structure_constant(h, x, x) for h in ghs])
    ncols = len(aug[0]) - nH
    pivots = rref(aug)
    bad = next((c - ncols for c in pivots if c >= ncols), None)
    if bad is not None:
        report["mismatches"].append(f"Cartan action row {bad} unfittable")
        return report
    # sol[apos] solves H row apos: its right-hand side read on the pivot rows
    solved = dict(zip(pivots, aug))
    sol = [[solved[c][ncols + apos] if c in solved else RF_ZERO for c in range(ncols)]
           for apos in range(nH)]

    eps = None
    if not fit:
        s_fit, t_fit, C = s, t, sol
    elif not any(x for row in sol for x in row[:nH]):
        s_fit, t_fit, C = RF_ZERO, RF_ONE, [row[nH:] for row in sol]
    else:
        C = [row[:nH] for row in sol]
        i, j = next((i, j) for i in range(nH) for j in range(nH) if C[i][j])
        eps = sol[i][nH + j] / C[i][j]
        if any(row[nH + j] != eps * row[j] for row in sol for j in range(nH)):
            report["mismatches"].append("parameter ratio not uniform")
            return report
        s_fit, t_fit = RF_ONE, eps
    report["epsilon"] = None if eps is None else str(eps)
    report["eps_bar_invariant"] = None if eps is None else eps == eps.qconjugate()
    report["fitted_s"] = str(s_fit)
    report["fitted_t"] = str(t_fit)
    report["cartan_map"] = [[str(x) for x in row] for row in C]

    if rank(C) < nH:
        report["mismatches"].append("Cartan change of basis is singular")
        return report

    tfit = _sln_table(Ts, Tt, s_fit, t_fit)

    # gauge scalars by height: 1 on a simple root vector; sigma_b e / f on X_g
    # from its first g = b + alpha_i whose [X_b, X_alpha_i]^{X_g} is nonzero
    # in A (f) and in the fitted member (e); on X_-g, the one the Cartan part
    # of [X_g, X_-g] fixes.  A scalar left 0 would make phi singular.
    def raised(x, g):
        for alpha in simple_roots(cd):
            b, a = groots.get(tuple(u - v for u, v in zip(g, alpha))), groots[alpha]
            f = RF_ZERO if b is None else A.structure_constant(b, a, x)
            e = f and tfit.get((ex_of[b], ex_of[a], ex_of[x]))
            if e:
                return scal[b] * e / f
        return RF_ZERO

    def lowered(x, y):
        k = next((k for k in range(nH) if tfit.get((ex_of[x], ex_of[y], ehs[k]))), None)
        if k is None:
            return RF_ZERO
        acc = sum((A.structure_constant(x, y, h) * C[apos][k] for apos, h in enumerate(ghs)),
                  RF_ZERO)
        return acc / (scal[x] * tfit[ex_of[x], ex_of[y], ehs[k]])

    scal = {}
    for coords, g in root_system(cd).positive_roots:
        x, y = groots[g], groots[tuple(-v for v in g)]
        scal[x] = RF_ONE if sum(coords) == 1 else raised(x, g)
        scal[y] = scal[x] and lowered(x, y)
        if not scal[y]:
            report["mismatches"].append("gauge scalars not determined for all roots")
            return report
    report["scalars"] = {A.basis[x].name(): str(v) for x, v in sorted(scal.items())}

    # the fitted member moved onto A's basis through phi, against A: phi is
    # invertible, so this is phi([x_a, x_b]) against [phi(x_a), phi(x_b)]
    phi = {x: {ex_of[x]: scal[x]} for x in gxs}
    for apos, h in enumerate(ghs):
        phi[h] = {ehs[k]: C[apos][k] for k in range(nH) if C[apos][k]}
    if with_map:
        report["phi"] = phi
    moved = change_basis(tfit, phi, _phi_inverse(A, phi))
    mismatches = sorted({k[:2] for k in sp_diff(A.constants, moved)})
    report["mismatches"] = [list(k) for k in mismatches]
    report["match"] = not mismatches
    return report


def check_tau_sln(A: QuantumLieAlgebra) -> dict:
    """The flip tau: X_ij -> -X_{n+1-j,n+1-i}, H_k -> H_{n-k} as a candidate
    automorphism of an explicit-family table.  tau maps the member (s, t)
    onto (t, s), so for n >= 3 it holds exactly when s = t; on sl_2,
    T_t = T_s and it always holds."""
    if A.provenance != "explicit-sln":
        return {"ok": None, "applicable": False}
    bad = sp_diff(A.constants, _flip(A.constants, _sln_tau(_sln_labels(A.basis), A.cd.rank + 1)))
    return {"ok": not bad, "witness": list(bad[0]) if bad else None, "applicable": True}
