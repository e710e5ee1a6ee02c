"""Quantum Lie algebra structures.

Two constructions produce a ``QuantumLieAlgebra`` (a basis with structure
constants over Q(v)):

* ``build_generic``: the module pipeline.  The adjoint module V is built,
  a highest-weight vector at the highest root is found inside V (x) V,
  antisymmetrized under swap-composed-with-bar, lowered to a full
  Clebsch-Gordan embedding, and inverted to a bracket V (x) V -> V that
  is the identity against the embedding and kills the complementary
  copies.  Structure constants are indexed by the module basis, relabeled
  X_alpha for root vectors and H_k for the zero-weight slots.

* ``build_sln_explicit``: the closed-form two-parameter family for sl_n
  in the basis {X_ij} u {H_k}.  All its constants are linear in (s, t).

``canonical_normalize`` rescales a bracket and rebases its Cartan so that
H_i = [X_{alpha_i}, X_{-alpha_i}] and [H_1, X_{alpha_1}] =
2 q^{d_1} X_{alpha_1}, the normalization in which the rank-one algebra
takes its standard deformed shape.  ``change_basis`` is the single
change-of-basis routine for structure-constant tables: the normalization,
its classical oracle at v = 1, the transport of explicit tables onto the
pipeline basis and the flip check of the explicit family all go through
it.  Check functions verify the gradation,
q-antisymmetry (bar-antisymmetry of the constants), the classical v = 1
limit against independently computed rational oracles, ad-invariance of
pipeline brackets, and the flip symmetry of the explicit family; the
comparison fitter matches a pipeline output to the explicit family by
solving for the parameters and the change of basis exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .qring import RatFunc, RF_ONE, RF_ZERO, rf_sqrt, rf_vpow, _fraction_sqrt
from .rootdata import (VerificationFailed, CartanDatum, adjoint_dim, build_cartan, cartan_to_json,
                       classical_dim, highest_root, simple_roots)
from .repbuild import adjoint_module, DEFAULT_DIM_BUDGET
from .tensorcg import (
    tensor_square,
    highest_weight_space,
    antisymmetrize_hw,
    symmetrize_hw,
    rescale_at_one,
    cg_embedding,
    verify_embedding,
    module_map_defects,
    invert_cg,
    bracket_matrix,
    ClassicallyZero,
)
from .linalg import inverse, rref, sp_add, sp_add_to, sp_eq, sp_grouped
from .classical import classical_bracket, classical_sln_table, integral_multiple


class InvalidParams(ValueError):
    """Parameters outside the admissible family (e.g. s + t vanishing at v=1)."""


class GaugeObstruction(RuntimeError):
    """Normalization impossible: missing root vectors, singular Cartan
    rebase, or a required square root that does not exist in Q(v)."""


def _qpow(k: int) -> RatFunc:
    return rf_vpow(2 * k)


@dataclass(frozen=True)
class BasisLabel:
    kind: str                 # "X" or "H"
    root: tuple = None        # h-coordinates of the root (X only)
    index: int = None         # 1-based Cartan slot (H only)
    ij: tuple = None          # matrix-unit position, explicit family only

    def name(self) -> str:
        if self.kind == "H":
            return f"H_{self.index}"
        if self.ij is not None:
            i, j = self.ij
            if i > 9 or j > 9:
                return "X_{%d,%d}" % (i, j)
            return "X_{%d%d}" % (i, j)
        return "X_{(%s)}" % ",".join(str(c) for c in self.root)

    def to_json(self) -> dict:
        if self.kind == "H":
            return {"label": "H", "index": self.index}
        out = {"label": "X", "root": list(self.root)}
        if self.ij is not None:
            out["ij"] = list(self.ij)
        return out

    @staticmethod
    def from_json(d: dict) -> "BasisLabel":
        if d["label"] == "H":
            return BasisLabel("H", index=int(d["index"]))
        ij = tuple(d["ij"]) if "ij" in d else None
        return BasisLabel("X", root=tuple(int(x) for x in d["root"]), ij=ij)


@dataclass
class QuantumLieAlgebra:
    cd: CartanDatum
    basis: list
    constants: dict           # {(a, b, c): RatFunc}, zero entries omitted
    provenance: str           # "generic-pipeline" or "explicit-sln"
    params: dict = None       # {"s": RatFunc, "t": RatFunc} for the explicit family
    normalized: bool = False
    checks: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)

    def grade(self, a: int) -> tuple:
        lab = self.basis[a]
        if lab.kind == "X":
            return lab.root
        return (0,) * self.cd.rank

    def structure_constant(self, a: int, b: int, c: int) -> RatFunc:
        return self.constants.get((a, b, c), RF_ZERO)

    def x_indices(self):
        return [a for a, lab in enumerate(self.basis) if lab.kind == "X"]

    def h_indices(self):
        return [a for a, lab in enumerate(self.basis) if lab.kind == "H"]

    def root_index(self):
        return {lab.root: a for a, lab in enumerate(self.basis) if lab.kind == "X"}

    def to_json(self) -> dict:
        out = {
            "cartan": cartan_to_json(self.cd),
            "basis": [lab.to_json() for lab in self.basis],
            "constants": [
                {"a": a, "b": b, "c": c, "value": val.to_json()}
                for (a, b, c), val in sorted(self.constants.items())
                if not val.is_zero()
            ],
            "provenance": self.provenance,
            "normalized": self.normalized,
            "checks": self.checks,
        }
        if self.params is not None:
            out["params"] = {k: v.to_json() for k, v in self.params.items()}
        return out

    @staticmethod
    def from_json(d: dict) -> "QuantumLieAlgebra":
        cd = table_cartan(d["cartan"]["series"], int(d["cartan"]["rank"]), len(d["basis"]))
        basis = [BasisLabel.from_json(x) for x in d["basis"]]
        constants = {
            (e["a"], e["b"], e["c"]): RatFunc.from_json(e["value"])
            for e in d["constants"]
        }
        params = None
        if "params" in d:
            params = {k: RatFunc.from_json(v) for k, v in d["params"].items()}
        return QuantumLieAlgebra(
            cd,
            basis,
            constants,
            d["provenance"],
            params=params,
            normalized=bool(d.get("normalized", False)),
            checks=dict(d.get("checks", {})),
        )


def table_cartan(series: str, rank: int, dim: int) -> CartanDatum:
    """The Cartan datum of a stored table with dim basis vectors on the
    algebra series + rank.  dim must be its adjoint dimension, and for A-D
    it is compared in closed form before the rank x rank Cartan matrix is
    built, so reading a table costs work bounded by the table's own size.
    A mismatch raises InvalidParams."""
    series = series.upper()
    if series in ("A", "B", "C", "D"):
        expect = classical_dim(series, rank)
    else:
        expect = adjoint_dim(build_cartan(series, rank))
    if dim != expect:
        raise InvalidParams(f"{series}{rank} has a {expect}-dimensional adjoint module, "
                            f"but the table has {dim} basis vectors")
    return build_cartan(series, rank)


def labeled_constants(A: QuantumLieAlgebra) -> dict:
    """Constants keyed by basis labels instead of positions, so tables on
    differently ordered bases can be compared: X vectors keyed by their
    root, H vectors by their Cartan index."""
    def key(a):
        lab = A.basis[a]
        return ("X", lab.root) if lab.kind == "X" else ("H", lab.index)

    out = {}
    for (a, b, c), val in A.constants.items():
        if not val.is_zero():
            out[(key(a), key(b), key(c))] = val
    return out


def same_algebra(A: QuantumLieAlgebra, B: QuantumLieAlgebra) -> bool:
    """Label-aware exact equality of two structure-constant tables."""
    return sp_eq(labeled_constants(A), labeled_constants(B))


# ---------------------------------------------------------------------------
# change of basis
# ---------------------------------------------------------------------------

def _by_pair(constants: dict) -> dict:
    """A table grouped by its inputs: {(a, b): {c: value}}."""
    out = {}
    for (a, b, c), val in constants.items():
        out.setdefault((a, b), {})[c] = val
    return out


def change_basis(constants: dict, cols, inv) -> dict:
    """The table of the same bracket on a new basis:

        f'(a, b, c) = sum cols[a][a'] cols[b][b'] f(a', b', c') inv[c'][c].

    cols[a] is new basis vector a in old coordinates, {old: x}; inv[e] is
    old basis vector e in new coordinates, {new: y}.  Entries may be
    RatFunc or Fraction; zero results are dropped.  Every change of basis
    of a structure-constant table in the package goes through here.
    """
    rows = sp_grouped({(a, a0): x for a, col in cols.items() for a0, x in col.items()}, False)
    acc = {}
    for (a0, b0), col in _by_pair(constants).items():
        for a, xa in rows.get(a0, ()):
            for b, xb in rows.get(b0, ()):
                w = xa * xb
                for c0, val in col.items():
                    sp_add_to(acc, (a, b, c0), w * val)
    out = {}
    for (a, b, c0), val in acc.items():
        for c, y in inv[c0].items():
            sp_add_to(out, (a, b, c), val * y)
    return out


# ---------------------------------------------------------------------------
# explicit two-parameter sl_n family
# ---------------------------------------------------------------------------

def _sln_parts(n: int):
    """Labels and the s- and t-linear parts of the explicit sl_n constants.

    The full table at parameters (s, t) is  s * T_s + t * T_t.
    """
    xlabels = [("X", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = xlabels + [("H", k) for k in range(1, n)]
    pos = {lab: a for a, lab in enumerate(labels)}
    Ts, Tt = {}, {}

    def l_parts(i, j, k):
        # l_ij(H_k) = (q^{1-k} d_{ki} - q^{-1-k} d_{k,i-1})(s + t q^n)
        #           - (q^{k-1} d_{kj} - q^{k+1} d_{k,j-1})(s + t q^{-n})
        first = RF_ZERO
        if k == i:
            first = first + _qpow(1 - k)
        if k == i - 1:
            first = first - _qpow(-1 - k)
        second = RF_ZERO
        if k == j:
            second = second + _qpow(k - 1)
        if k == j - 1:
            second = second - _qpow(k + 1)
        return first - second, first * _qpow(n) - second * _qpow(-n)

    for (_, i, j) in xlabels:
        a = pos[("X", i, j)]
        for k in range(1, n):
            h = pos[("H", k)]
            ls, lt = l_parts(i, j, k)
            sp_add_to(Ts, (h, a, a), ls)
            sp_add_to(Tt, (h, a, a), lt)
            # [X_ij, H_k] = -r_ij(H_k) X_ij with r_ij(H_k) = -l_ji(H_k)
            rs, rt = l_parts(j, i, k)
            sp_add_to(Ts, (a, h, a), rs)
            sp_add_to(Tt, (a, h, a), rt)

    for i in range(1, n):
        for j in range(1, n):
            a, b = pos[("H", i)], pos[("H", j)]
            for k in range(1, n):
                c = pos[("H", k)]
                fs = RF_ZERO
                ft = RF_ZERO
                if i == j:
                    if k == i:
                        fs = fs + _qpow(k + 1) - _qpow(-k - 1)
                        ft = ft + _qpow(n + 1 - i) - _qpow(-n - 1 + i)
                    if k < i:
                        fs = fs + (_qpow(1) + _qpow(-1)) * (_qpow(k) - _qpow(-k))
                    if k > i:
                        ft = ft + (_qpow(1) + _qpow(-1)) * (_qpow(n - k) - _qpow(-n + k))
                if i == j - 1:
                    if k <= i:
                        fs = fs + _qpow(-k) - _qpow(k)
                    if k > i:
                        ft = ft + _qpow(k - n) - _qpow(-k + n)
                if j == i - 1:
                    if k <= j:
                        fs = fs + _qpow(-k) - _qpow(k)
                    if k > j:
                        ft = ft + _qpow(k - n) - _qpow(-k + n)
                sp_add_to(Ts, (a, b, c), fs)
                sp_add_to(Tt, (a, b, c), ft)

    for (_, i, j) in xlabels:
        a = pos[("X", i, j)]
        b = pos[("X", j, i)]
        for k in range(1, n):
            c = pos[("H", k)]
            gs = RF_ZERO
            gt = RF_ZERO
            if k < j:
                gs = gs + _qpow(k)
            if k < i:
                gs = gs - _qpow(-k)
            if k >= i:
                gt = gt + _qpow(n - k)
            if k >= j:
                gt = gt - _qpow(k - n)
            sp_add_to(Ts, (a, b, c), _qpow(i - j) * gs)
            sp_add_to(Tt, (a, b, c), _qpow(i - j) * gt)

    for (_, i, j) in xlabels:
        a = pos[("X", i, j)]
        for (_, k, l) in xlabels:
            b = pos[("X", k, l)]
            if j == k and i != l:
                c = pos[("X", i, l)]
                sp_add_to(Ts, (a, b, c), rf_vpow(1 - 2 * j))
                sp_add_to(Tt, (a, b, c), rf_vpow(1 - 2 * j) * _qpow(n))
            if i == l and j != k:
                c = pos[("X", k, j)]
                sp_add_to(Ts, (a, b, c), -rf_vpow(2 * i - 1))
                sp_add_to(Tt, (a, b, c), -rf_vpow(2 * i - 1) * _qpow(-n))

    return labels, Ts, Tt


def _sln_root(n: int, i: int, j: int) -> tuple:
    """h-coordinates of the weight of X_ij (the root eps_i - eps_j)."""
    return tuple(
        (1 if k == i else 0) - (1 if k == i - 1 else 0)
        - (1 if k == j else 0) + (1 if k == j - 1 else 0)
        for k in range(1, n)
    )


def _sln_table(Ts: dict, Tt: dict, s: RatFunc, t: RatFunc) -> dict:
    """The explicit constants s * T_s + t * T_t, zero entries dropped."""
    out = {}
    for key in set(Ts) | set(Tt):
        val = s * Ts.get(key, RF_ZERO) + t * Tt.get(key, RF_ZERO)
        if val:
            out[key] = val
    return out


def build_sln_explicit(n: int, s, t) -> QuantumLieAlgebra:
    """The explicit two-parameter quantum Lie algebra structure for sl_n."""
    if n < 2:
        raise InvalidParams("n must be at least 2")
    s = s if isinstance(s, RatFunc) else RatFunc(s)
    t = t if isinstance(t, RatFunc) else RatFunc(t)
    st = s + t
    if not st.is_regular_at_one() or st.eval_at_one() == 0:
        raise InvalidParams("s + t must be regular and nonzero at v = 1")
    labels, Ts, Tt = _sln_parts(n)
    constants = _sln_table(Ts, Tt, s, t)
    basis = []
    for lab in labels:
        if lab[0] == "X":
            _, i, j = lab
            basis.append(BasisLabel("X", root=_sln_root(n, i, j), ij=(i, j)))
        else:
            basis.append(BasisLabel("H", index=lab[1]))
    cd = build_cartan("A", n - 1)
    return QuantumLieAlgebra(cd, basis, constants, "explicit-sln",
                             params={"s": s, "t": t})


# ---------------------------------------------------------------------------
# generic module pipeline
# ---------------------------------------------------------------------------

@dataclass
class GenericPipeline:
    """All intermediate artifacts of the module construction."""

    module: object
    tensor: object
    hw_basis: list
    antisym: dict
    others: list
    embedding: list   # the CG table: entry a is the image of basis vector a
    constants: dict


def _first_classically_nonzero(part, T, candidates):
    """part(T, cand) for the first candidate where it does not vanish at
    v = 1, or None."""
    for cand in candidates:
        try:
            return part(T, cand)
        except ClassicallyZero:
            continue
    return None


def generic_pipeline(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET) -> GenericPipeline:
    V = adjoint_module(cd, budget_dim)
    T = tensor_square(V)
    theta = highest_root(cd)
    hw = highest_weight_space(T, theta)
    if len(hw) > 2:
        raise GaugeObstruction("highest-root multiplicity above 2 is not supported")
    candidates = list(hw)
    for i in range(len(hw)):
        for j in range(i + 1, len(hw)):
            candidates.append(sp_add(hw[i], hw[j]))
    anti = _first_classically_nonzero(antisymmetrize_hw, T, candidates)
    if anti is None:
        raise ClassicallyZero("no candidate with classically nonzero antisymmetrization")
    anti = rescale_at_one(anti)
    others = []
    if len(hw) > 1:
        sym = _first_classically_nonzero(symmetrize_hw, T, candidates)
        if sym is None:
            raise VerificationFailed("no classically nonzero symmetric complement")
        others.append(sym)
    table = cg_embedding(T, anti)
    if not verify_embedding(T, table):
        raise VerificationFailed("Clebsch-Gordan embedding fails to intertwine")
    constants = invert_cg(T, anti, others)
    return GenericPipeline(V, T, hw, anti, others, table, constants)


def build_generic(cd: CartanDatum, budget_dim: int = DEFAULT_DIM_BUDGET,
                  pipe: GenericPipeline = None) -> QuantumLieAlgebra:
    """Quantum Lie algebra on the adjoint module via the tensor pipeline.
    A precomputed pipeline for the same Cartan datum may be passed in."""
    if pipe is None:
        pipe = generic_pipeline(cd, budget_dim)
    h = count(1)  # the zero-weight slots, numbered in basis order
    basis = [BasisLabel("X", root=w) if any(w) else BasisLabel("H", index=next(h))
             for w in pipe.module.weights]
    return QuantumLieAlgebra(cd, basis, dict(pipe.constants), "generic-pipeline")


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

def extract_roots(A: QuantumLieAlgebra):
    """Left and right root tables: [H_k, X_a] = l_a(H_k) X_a and
    [X_a, H_k] = -r_a(H_k) X_a.  Keys are (x_index, h_position)."""
    l, r = {}, {}
    for x in A.x_indices():
        for pos, h in enumerate(A.h_indices()):
            lv = A.structure_constant(h, x, x)
            rv = -A.structure_constant(x, h, x)
            if not lv.is_zero():
                l[(x, pos)] = lv
            if not rv.is_zero():
                r[(x, pos)] = rv
    return l, r


def check_gradation(A: QuantumLieAlgebra) -> dict:
    """Every nonzero f_ab^c must satisfy grade(c) = grade(a) + grade(b);
    off-diagonal Cartan output from two root vectors is likewise graded."""
    witness = None
    for (a, b, c), val in sorted(A.constants.items()):
        if val.is_zero():
            continue
        ga, gb, gc = A.grade(a), A.grade(b), A.grade(c)
        if tuple(x + y for x, y in zip(ga, gb)) != gc:
            witness = [a, b, c]
            break
    return {"ok": witness is None, "witness": witness}


def check_q_antisymmetry(A: QuantumLieAlgebra) -> dict:
    """f_ab^c(v) = -f_ba^c(v^{-1}) entrywise in the given basis."""
    witness = None
    keys = set(A.constants) | {(b, a, c) for (a, b, c) in A.constants}
    for (a, b, c) in sorted(keys):
        lhs = A.structure_constant(a, b, c)
        rhs = -A.structure_constant(b, a, c).qconjugate()
        if lhs != rhs:
            witness = [a, b, c]
            break
    return {"ok": witness is None, "witness": witness}


def check_lr_identity(A: QuantumLieAlgebra) -> dict:
    """r_a(H_k) = -l_{a'}(H_k) where a' carries the opposite root.  The
    witness is [a] when a' is missing, else [a, H_k], both basis indices."""
    l, r = extract_roots(A)
    roots = A.root_index()
    witness = None
    for x in A.x_indices():
        neg = tuple(-c for c in A.basis[x].root)
        if neg not in roots:
            witness = [x]
            break
        y = roots[neg]
        for pos, h in enumerate(A.h_indices()):
            lhs = r.get((x, pos), RF_ZERO)
            rhs = -l.get((y, pos), RF_ZERO)
            if lhs != rhs:
                witness = [x, h]
                break
        if witness:
            break
    return {"ok": witness is None, "witness": witness}


def check_classical_limit(A: QuantumLieAlgebra, budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """Evaluate at v = 1 and check: antisymmetry, the Jacobi identity,
    commuting Cartan, l = r with a single proportionality l_a = kappa * alpha,
    and exact agreement with the independent rational oracle (the classical
    pipeline for generic provenance, (s+t)(1) times the standard sl_n table
    for the explicit family)."""
    if not all(val.is_regular_at_one() for val in A.constants.values()):
        return {"regular_at_one": False, "all": False}
    report = {"regular_at_one": True}
    f1 = {key: c1 for key, val in A.constants.items() if (c1 := val.eval_at_one())}
    dim = A.dim
    zero = Fraction(0)

    report["antisymmetric"] = all(f1.get((b, a, c)) == -val for (a, b, c), val in f1.items())

    # sum [[x, y], z] over the cyclic rotations (x, y, z) of each increasing
    # triple, keyed by the sorted triple and the output index; it is bilinear,
    # so it runs on the constants times the lcm of their denominators
    by_pair = _by_pair(integral_multiple(f1))
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

    xs = A.x_indices()
    report["l_equals_r"] = all(f1.get((h, x, x), zero) == -f1.get((x, h, x), zero)
                               for x in xs for h in h_slots)
    # l_a(H_k) = kappa * alpha_k with one kappa for every root and every H_k
    pairs = [(f1.get((h, x, x), zero), A.basis[x].root[k])
             for x in xs for k, h in enumerate(h_slots)]
    ratios = {lv / ak for lv, ak in pairs if ak}
    uniform = len(ratios) == 1 and not any(lv for lv, ak in pairs if not ak)
    report["kappa"] = str(ratios.pop()) if uniform else None

    def acts(g, x):
        """The v = 1 eigenvalue of sum_h g[h] H_h on X_x."""
        return sum((gh * f1.get((h, x, x), zero) for h, gh in g.items()), zero)

    # l_alpha = r_alpha = alpha against the canonical classical Cartan:
    # H'_i := (2 / c_i) [X_{alpha_i}, X_{-alpha_i}], with c_i the eigenvalue
    # of the bracket on X_{alpha_i}, completes each simple-root pair to an sl2
    # triple at v = 1, so it must act as the coroot h_i on every root vector:
    # 2 acts(g, x) = c_i alpha_i(x).  Basis-independent and square-root free,
    # so it applies to every table.
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
        acts_as_coroot(i, alpha) for i, alpha in enumerate(simple_roots(A.cd))
    )

    oracle = None
    if A.provenance == "explicit-sln" and A.params is not None and not A.normalized:
        n = A.cd.rank + 1
        sigma = (A.params["s"] + A.params["t"]).eval_at_one()
        labels0, table0 = classical_sln_table(n)
        expect_labels = [
            ("X",) + A.basis[a].ij if A.basis[a].kind == "X" else ("H", A.basis[a].index)
            for a in range(dim)
        ]
        if expect_labels != labels0:
            raise VerificationFailed("basis order mismatch against the oracle")
        oracle = {k: sigma * v for k, v in table0.items()}
    elif A.provenance == "generic-pipeline":
        _, f0 = classical_bracket(A.cd, budget_dim)
        if A.normalized:
            weights = [A.grade(a) for a in range(dim)]
            try:
                f0 = _gauge_rebase(f0, A.cd, weights, Fraction(2), _fraction_sqrt)
            except GaugeObstruction:
                f0 = None
        oracle = f0
    report["oracle_match"] = (None if oracle is None
                              else {k: v for k, v in oracle.items() if v} == f1)
    report["all"] = all(report[k] for k in (
        "regular_at_one", "antisymmetric", "jacobi", "cartan_abelian", "l_equals_r",
        "roots_classical")) and report["oracle_match"] is not False
    return report


def ad_invariance_of_table(constants: dict, T) -> dict:
    """pi(x) o B = B o Delta pi(x) for all generators, for the bracket B
    defined by a constants table written on the module basis of V, read as
    T.left of the tensor square T = V (x) V."""
    defects = module_map_defects(bracket_matrix(T.left.dim, constants), T, T.left)
    if defects:
        return {"ok": False, "witness": defects[0]}
    return {"ok": True}


def check_ad_invariance(A: QuantumLieAlgebra, pipe: GenericPipeline = None,
                        budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """pi(x) o B = B o Delta pi(x) for all generators, with B rebuilt from
    the stored constants on the adjoint module.  Only meaningful for raw
    pipeline output (the normalized basis mixes module vectors); explicit
    tables go through check_ad_invariance_explicit instead."""
    if A.provenance != "generic-pipeline" or A.normalized:
        return {"ok": None, "applicable": False}
    T = tensor_square(adjoint_module(A.cd, budget_dim)) if pipe is None else pipe.tensor
    rep = ad_invariance_of_table(A.constants, T)
    rep["applicable"] = True
    return rep


def transport_explicit_constants(A: QuantumLieAlgebra, phi: dict,
                                 E: QuantumLieAlgebra) -> dict:
    """Rewrite the table of an explicit-family algebra E on the basis of the
    pipeline output A, through the module dictionary phi produced by
    compare_to_explicit(..., with_map=True): phi[g] is the column of the
    basis change, generic index -> {explicit index: coefficient}.

    The dictionary identifies the underlying modules, not a particular
    bracket, so E may carry any admissible (s, t), not just the fitted one.
    """
    dim = A.dim
    P = [[RF_ZERO] * dim for _ in range(dim)]
    for g, col in phi.items():
        for e, x in col.items():
            P[e][g] = x
    Pinv = inverse(P)
    inv = [{g: Pinv[g][e] for g in range(dim) if Pinv[g][e]} for e in range(dim)]
    return change_basis(E.constants, phi, inv)


def check_ad_invariance_explicit(E: QuantumLieAlgebra,
                                 pipe: GenericPipeline = None,
                                 fit: dict = None,
                                 budget_dim: int = DEFAULT_DIM_BUDGET) -> dict:
    """Exact ad-invariance for an explicit-family table: transport it onto
    the pipeline module with the fitted basis dictionary, then run the
    matrix identity there."""
    if E.provenance != "explicit-sln":
        return {"ok": None, "applicable": False}
    if pipe is None:
        pipe = generic_pipeline(E.cd, budget_dim)
    A = build_generic(E.cd, pipe=pipe)
    if fit is None:
        fit = compare_to_explicit(A, with_map=True)
    if not fit.get("match") or "phi" not in fit:
        return {"ok": None, "applicable": False, "note": "no basis dictionary"}
    table = transport_explicit_constants(A, fit["phi"], E)
    rep = ad_invariance_of_table(table, pipe.tensor)
    rep["applicable"] = True
    return rep


# ---------------------------------------------------------------------------
# fitting a pipeline output to the explicit family
# ---------------------------------------------------------------------------

def _solve_consistent(rows, rhs, ncols):
    """Exact solution of a (possibly overdetermined) consistent linear system
    over Q(v), free variables set to zero; None if inconsistent."""
    if not rows:
        return [RF_ZERO] * ncols
    aug = [list(r) + [y] for r, y in zip(rows, rhs)]
    piv = rref(aug)
    if ncols in piv:
        return None
    sol = [RF_ZERO] * ncols
    for r, pc in enumerate(piv):
        sol[pc] = aug[r][ncols]
    return sol


def compare_to_explicit(A: QuantumLieAlgebra, s=None, t=None,
                        with_map: bool = False) -> dict:
    """Match a graded table on an A-series root system against the explicit
    two-parameter family.

    Fits (s, t) from the Cartan action (gauge-invariantly: the products
    C*s and C*t of the Cartan change of basis with the parameters solve a
    linear system, and their ratio is the fitted epsilon = t/s), then fixes
    the root-vector gauge scalars with simple-root vectors scaled to 1, and
    finally verifies every structure constant exactly.  When s and t are
    both given, the fit is disabled and only the change of basis is solved.
    Follows the convention that for n = 2 the family is one-parameter, so
    the fitted representative is (s, 0).

    with_map additionally returns the raw basis dictionary under "phi"
    (generic index -> {explicit index: RatFunc}) for transporting tables;
    that entry is not JSON-serializable and is left out by default.
    """
    report = {"applicable": True, "match": False, "mismatches": []}
    cd = A.cd
    if cd.series != "A":
        return {"applicable": False, "match": None}
    n = cd.rank + 1
    labels, Ts, Tt = _sln_parts(n)
    epos = {lab: a for a, lab in enumerate(labels)}
    eroot = {}
    for lab in labels:
        if lab[0] == "X":
            eroot[_sln_root(n, lab[1], lab[2])] = epos[lab]
    ehs = [epos[("H", k)] for k in range(1, n)]

    groots = A.root_index()
    ghs = A.h_indices()
    gxs = A.x_indices()
    if len(ghs) != n - 1 or set(groots) != set(eroot):
        report["mismatches"].append("root systems differ")
        return report
    ex_of = {x: eroot[A.basis[x].root] for x in gxs}

    fit = s is None and t is None
    nH = n - 1
    U = [[RF_ZERO] * nH for _ in range(nH)]
    W = [[RF_ZERO] * nH for _ in range(nH)]
    C = [[RF_ZERO] * nH for _ in range(nH)]
    for apos, h in enumerate(ghs):
        rows, rhs = [], []
        for x in sorted(gxs):
            ex = ex_of[x]
            srow = [Ts.get((ehs[k], ex, ex), RF_ZERO) for k in range(nH)]
            trow = [Tt.get((ehs[k], ex, ex), RF_ZERO) for k in range(nH)]
            if fit:
                rows.append(srow + trow)
            else:
                rows.append([s * a2 + t * b2 for a2, b2 in zip(srow, trow)])
            rhs.append(A.structure_constant(h, x, x))
        sol = _solve_consistent(rows, rhs, 2 * nH if fit else nH)
        if sol is None:
            report["mismatches"].append(f"Cartan action row {apos} unfittable")
            return report
        if fit:
            U[apos] = sol[:nH]
            W[apos] = sol[nH:]
        else:
            C[apos] = sol

    if fit:
        eps = None
        if all(x.is_zero() for row in U for x in row):
            s_fit, t_fit = RF_ZERO, RF_ONE
            C = W
        else:
            cells = [(i, j) for i in range(nH) for j in range(nH)]
            i, j = next((i, j) for i, j in cells if not U[i][j].is_zero())
            eps = W[i][j] / U[i][j]
            if any(W[i][j] != eps * U[i][j] for i, j in cells):
                report["mismatches"].append("parameter ratio not uniform")
                return report
            s_fit, t_fit = RF_ONE, eps
            C = U
        report["epsilon"] = str(eps) if eps is not None else None
        report["eps_bar_invariant"] = (
            eps == eps.qconjugate() if eps is not None else None
        )
    else:
        s_fit = s if isinstance(s, RatFunc) else RatFunc(s)
        t_fit = t if isinstance(t, RatFunc) else RatFunc(t)
        report["epsilon"] = None
        report["eps_bar_invariant"] = None
    report["fitted_s"] = str(s_fit)
    report["fitted_t"] = str(t_fit)
    report["cartan_map"] = [[str(x) for x in row] for row in C]

    try:
        inverse(C)
    except ZeroDivisionError:
        report["mismatches"].append("Cartan change of basis is singular")
        return report

    tfit = _sln_table(Ts, Tt, s_fit, t_fit)

    # gauge scalars: simple-root vectors pinned to 1, the rest propagated
    scal = {groots[alpha]: RF_ONE for alpha in simple_roots(cd)}
    a_pairs = _by_pair(A.constants)
    xset = set(gxs)
    progress = True
    while progress and len(scal) < len(gxs):
        progress = False
        for x1 in list(scal):
            for x2 in list(scal):
                col = a_pairs.get((x1, x2))
                if not col:
                    continue
                for c, val in col.items():
                    if c in xset and c not in scal and not val.is_zero():
                        tv = tfit.get((ex_of[x1], ex_of[x2], ex_of[c]), RF_ZERO)
                        if tv.is_zero():
                            report["mismatches"].append(
                                f"explicit constant vanishes where f[{x1},{x2}]^{c} does not")
                            return report
                        scal[c] = scal[x1] * scal[x2] * tv / val
                        progress = True
        for x1 in list(scal):
            neg = tuple(-v for v in A.basis[x1].root)
            x2 = groots[neg]
            if x2 in scal:
                continue
            for k in range(nH):
                tv = tfit.get((ex_of[x1], ex_of[x2], ehs[k]), RF_ZERO)
                if tv.is_zero():
                    continue
                acc = RF_ZERO
                for apos, h in enumerate(ghs):
                    acc = acc + A.structure_constant(x1, x2, h) * C[apos][k]
                scal[x2] = acc / (scal[x1] * tv)
                progress = True
                break
    if len(scal) < len(gxs):
        report["mismatches"].append("gauge scalars not determined for all roots")
        return report
    report["scalars"] = {A.basis[x].name(): str(v) for x, v in sorted(scal.items())}

    # full verification of every constant through the fitted map
    phicols = {}
    for x in gxs:
        phicols[x] = {ex_of[x]: scal[x]}
    for apos, h in enumerate(ghs):
        phicols[h] = {ehs[k]: C[apos][k]
                      for k in range(nH) if not C[apos][k].is_zero()}
    if with_map:
        report["phi"] = phicols
    # phi([x_a, x_b]) against [phi(x_a), phi(x_b)] in explicit coordinates
    identity = {a: {a: 1} for a in range(A.dim)}
    lhs = change_basis(A.constants, identity, phicols)
    rhs = change_basis(tfit, phicols, identity)
    mismatches = sorted({k[:2] for k in set(lhs) | set(rhs) if lhs.get(k) != rhs.get(k)})
    report["mismatches"] = [list(k) for k in mismatches]
    report["match"] = not mismatches
    return report


def check_tau_sln(A: QuantumLieAlgebra) -> dict:
    """The flip X_ij -> -X_{n+1-j,n+1-i}, H_i -> H_{n-i} as a candidate
    automorphism of the explicit family (holds iff t = s there)."""
    if A.provenance != "explicit-sln":
        return {"ok": None, "applicable": False}
    n = A.cd.rank + 1
    where = {(lab.kind, lab.ij or lab.index): a for a, lab in enumerate(A.basis)}
    flip = {}
    for a, lab in enumerate(A.basis):
        if lab.kind == "X":
            i, j = lab.ij
            flip[a] = {where["X", (n + 1 - j, n + 1 - i)]: -1}
        else:
            flip[a] = {where["H", n - lab.index]: 1}
    # tau is an involution, so it is an automorphism iff the table on the
    # basis tau(x_a) is the table itself
    flipped = change_basis(A.constants, flip, flip)
    bad = [k for k in set(A.constants) | set(flipped)
           if A.structure_constant(*k) != flipped.get(k, RF_ZERO)]
    witness = list(min(bad)) if bad else None
    return {"ok": witness is None, "witness": witness, "applicable": True}
