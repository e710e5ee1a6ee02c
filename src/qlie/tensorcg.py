"""The tensor-product layer: the coproduct action on M1 (x) M2, its joint
highest-weight vectors, lowering them to full module copies, the
module-map check, and inverse Clebsch-Gordan coefficients.

module_map_defects is the single check in the package that a sparse map
between two modules intertwines E_i, F_i and the weight grading (K_i).
The inverse-CG bracket, the ad-invariance of stored tables, the
monodromy operator and the adjoint family inside W (x) W*
(monodromy.verify_ad_submodule) are all checked through it.  It computes
on integers, each matrix written over Z[v] once (IntForm, sp_int_form,
sp_int_eval), and reads a tensor-product side from its factors; its
docstring argues why the integer comparison is exact.

highest_weight_space is likewise the single routine that finds
highest-weight vectors: the CG pipeline, the isotypic components of
monodromy_on_tensor and the adjoint inside V* (x) V all go through it,
and it checks their number against the single-target Brauer-Klimyk
count rootdata.tensor_multiplicity.

The coproduct convention (fixed globally, same as the module convention)
is Delta(E_i) = E_i (x) K_i^-1 + K_i (x) E_i and the F analog, with
K_i = represented q_i^(h_i/2).  The coproduct is applied, not stored:
coproduct_action applies Delta(x_i) to a sparse vector from the factors'
entries, so no matrix on the product space is formed.  Product basis
vectors are indexed row-major: (a, b) -> a*dim(M2) + b, which is also the
lexicographic order used for deterministic normalizations.  The same
tensor type serves the tensor square V (x) V of the bracket construction
and the general products V (x) W and V* (x) V of the monodromy module.

swap_bar_halves(T, v0) splits a vector of a tensor square into its odd
and even halves under swap o qconjugate, forming swap(qconjugate(v0))
once; a half that vanishes at v = 1 comes back as None.  The odd half of
a highest-weight vector generates the q-antisymmetric embedding, the even
half its complement, and the pipeline takes the first classically
nonzero half of each kind from one pass over the highest-weight vectors,
as classical.classical_bracket does at v = 1.

The layer passes plain data: a highest-weight space is the list of its
sparse vectors, and the module copy that a highest-weight vector generates
is its lowered table, entry a the sparse image of basis vector a
(lowered_table).  The structure constants of the quantum Lie algebra
are produced by invert_cg(T, v0, others), which reads V as T.left of the
tensor square T = V (x) V: given the highest-weight vector v0 of weight
theta that generates the embedding beta, the bracket B is the unique
module map V (x) V -> V with B o beta = id that kills the submodules
generated by the remaining theta-highest-weight vectors `others`.  It
is B = S^-1 beta_w^T (S (x) S), beta_w the embedding generated by a
combination w = sum_k x_k u_k of the generating vectors, with S the
contravariant form of V: the one sparse block-diagonal matrix of
repbuild.contravariant_form.  Only B's top row is read off that formula.
The generating vectors are paired with S (x) S once, which gives every
product form u_j^T (S (x) S) u_k among them, hence x on the (at most
two-dimensional) multiplicity space, and the top row B[0] =
w^T (S (x) S), since S is 1 on the top weight.  Every other row is raised
from the rows one level up by the module-map equations: E_i B = B Delta(E_i)
holds row by row, and row p reads

    sum_c E_i[p, c] B[c] = B[p] Delta(E_i),

c running over the weight block one level below p.  The blocks of V are
visited in basis order, and each is solved from as many independent
equations (i, p) as its dimension, with coefficients taken from V's E.  On
a one-dimensional block that is one division by the q-integer E_i[p, a],
with i and p the first letter and the parent of a (IrrepModule.parent)
whenever that entry is nonzero; on the Cartan block of the adjoint it is a
rank x rank solve.  The rows are raised from the top row cleared of its
denominators and scaled back at the end.  No Gram block of S is inverted,
and no column of beta_w is lowered and paired on its own.

invert_cg checks B exactly, independently of how B was built: in full, that
it is a module map; on generating vectors, B(v0) = e_0 and B(u) = 0 for each
complement vector u.  That suffices: column a of an embedding is Delta(F_i)
of the column of a's parent (lowered_table) and F_i maps V's parent basis
vector to e_a (also checked), so B o beta_u (e_a) = F_{i_1} ... F_{i_k} B(u)
by induction along the labels.  The induction reads V's F only, not the E
entries the raising solved with, so a wrong equation or a wrong solve shows
up as a failed check.

The module-map check of B is also one of beta_w.  S E_i = F_i^T S, which
repbuild.verify_module checks as "contravariant_adjoint", and K_i commutes
with the block-diagonal S, so

    (S (x) S) Delta(E_i) = Delta(F_i)^T (S (x) S),

and the adjoint (S (x) S)^-1 B^T S of a module map B is a module map
V -> V (x) V.  It sends e_0 to w, so it is beta_w, and
B = S^-1 beta_w^T (S (x) S).  Outside type A_n, n >= 2, beta_w is a
multiple of beta, which is never formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import add
from typing import NamedTuple

from .qring import RatFunc, RF_ONE, RF_ZERO, _ONE, _zexact, _zlcm, clear_denominators
from .rootdata import VerificationFailed, is_dominant, simple_roots, tensor_multiplicity
from .repbuild import IrrepModule, contravariant_form
from .linalg import inverse, nullspace, rank, solve, sp_add_to, sp_grouped, sp_matmul, sp_matvec


class EmptySpace(ValueError):
    """No highest-weight vector at the requested weight."""


class TensorProduct:
    """left (x) right with the coproduct action: the two factors, the
    weight of each product index p = a*dim(right) + b, and weight_blocks,
    the product indices of each weight.

    The factors are any modules with cd, dim, weights, E, F and kexp.  No
    matrix on the product is stored: coproduct_action applies Delta(E_i)
    and Delta(F_i) from the factors, and module_map_defects reads a
    tensor-product side from them too.  dE and dF, the sparse matrices of
    Delta(E_i) and Delta(F_i), are built on first use, for the benchmark
    tracer and the tests only; nothing in the package reads them.
    """

    def __init__(self, left, right, weights: list, weight_blocks: dict):
        self.left = left
        self.right = right
        self.weights = weights
        self.weight_blocks = weight_blocks

    @property
    def cd(self):
        return self.left.cd

    @property
    def dim(self):
        return self.left.dim * self.right.dim

    @cached_property
    def dE(self):
        return _dense_coproduct(self, "E")

    @cached_property
    def dF(self):
        return _dense_coproduct(self, "F")


def coproduct_action(T: TensorProduct, name: str, transpose: bool = False):
    """act(i, vec): Delta(x_i) vec for a sparse column vector vec over T's
    product index, x = E or F by name; with transpose, vec^T Delta(x_i) for
    a sparse row vector.  Delta(x_i) = x_i (x) K_i^-1 + K_i (x) x_i is read
    from the factors' entries, grouped once per factor and generator by
    column (by row with transpose): an entry x of vec at (a, b) meets the
    column (row) a of x_i in the left slot, times v^-k2[b], and the column
    (row) b in the right slot, times v^k1[a], so each call touches only the
    entries that meet vec."""
    d2 = T.right.dim
    ops = {}
    for i in range(T.cd.rank):
        m1, m2 = getattr(T.left, name)[i], getattr(T.right, name)[i]
        g1 = sp_grouped(m1, transpose)
        ops[i] = (g1, g1 if m2 is m1 else sp_grouped(m2, transpose),
                  [-k for k in T.right.kexp[i]], T.left.kexp[i])

    def act(i, vec):
        left, right, kl, kr = ops[i]
        out = {}
        for p, x in vec.items():
            a, b = divmod(p, d2)
            col = left.get(a)
            if col:
                xk = x.vshift(kl[b])
                for r, y in col:
                    key = r * d2 + b
                    cur = out.get(key)
                    out[key] = xk * y if cur is None else cur + xk * y
            col = right.get(b)
            if col:
                xk = x.vshift(kr[a])
                for r, y in col:
                    key = a * d2 + r
                    cur = out.get(key)
                    out[key] = xk * y if cur is None else cur + xk * y
        return {p: x for p, x in out.items() if x}

    return act


def _dense_coproduct(T: TensorProduct, name: str) -> dict:
    """{i: Delta(x_i)} as sparse matrices on the product, column p the action
    on basis vector p; the builder of TensorProduct.dE and .dF."""
    act = coproduct_action(T, name)
    return {i: {(r, p): x for p in range(T.dim) for r, x in act(i, {p: RF_ONE}).items()}
            for i in range(T.cd.rank)}


def tensor_product(M1, M2) -> TensorProduct:
    if M1.cd != M2.cd:
        raise ValueError(f"tensor factors over different algebras: {M1.cd} and {M2.cd}")
    weights = []
    blocks = {}
    keys = {}  # one tuple per distinct weight, shared by its product indices
    for wa in M1.weights:
        for wb in M2.weights:
            w = tuple(x + y for x, y in zip(wa, wb))
            w = keys.setdefault(w, w)
            blocks.setdefault(w, []).append(len(weights))
            weights.append(w)
    return TensorProduct(M1, M2, weights, blocks)


def tensor_square(V: IrrepModule) -> TensorProduct:
    return tensor_product(V, V)


def rescale_at_one(vec: dict) -> dict:
    """vec times the rational that makes its first coordinate (in index
    order) with nonzero value at v = 1 equal to 1 there."""
    c1 = next((c for c in (vec[p].eval_at_one() for p in sorted(vec)) if c), None)
    if c1 is None:
        raise VerificationFailed("vector vanishes at v = 1")
    scale = RatFunc(1) / RatFunc(c1)
    return {p: x * scale for p, x in vec.items()}


def highest_weight_space(T: TensorProduct, w) -> list:
    """Exact kernel of all Delta(E_i) on the weight-w block, as a list of
    sparse vectors, each denominator-cleared and rescaled by a rational so
    that its first coordinate with nonzero classical value equals 1 at v = 1.
    At a dominant w their number must equal the Brauer-Klimyk count
    rootdata.tensor_multiplicity, a construction independent of this one;
    a miscount raises VerificationFailed, and an empty space EmptySpace."""
    w = tuple(w)
    cd = T.cd
    block = T.weight_blocks.get(w, [])
    raise_row = coproduct_action(T, "E", transpose=True)
    rows = []
    for i, alpha in enumerate(simple_roots(cd)):
        up = tuple(a + b for a, b in zip(w, alpha))
        for q in T.weight_blocks.get(up, ()):
            row = raise_row(i, {q: RF_ONE})
            if row:
                rows.append([row.get(p, RF_ZERO) for p in block])
    basis = [rescale_at_one({p: x for p, x in zip(block, clear_denominators(vec)) if x})
             for vec in nullspace(rows, len(block), RF_ONE)]
    if is_dominant(w):
        mult = tensor_multiplicity(cd, T.left.highest_weight, T.right.highest_weight, w)
        if len(basis) != mult:
            raise VerificationFailed(
                f"the joint kernel of the Delta(E_i) at weight {w} has dimension"
                f" {len(basis)}, but the Brauer-Klimyk count is {mult}")
    if not basis:
        raise EmptySpace(f"no highest-weight vector at weight {w}")
    return basis


def swap_bar_halves(T: TensorProduct, v0: dict) -> tuple:
    """(anti, sym) = (1/2)(v0 -+ swap(qconjugate(v0))) on a tensor square
    T = V (x) V, the -1 and +1 eigenvectors of swap o qconjugate; the odd
    half gives q-antisymmetric Clebsch-Gordan tables.  swap(qconjugate(v0))
    is formed once, and a half that vanishes at v = 1 is None.  Raises
    ValueError on any other product."""
    if T.left is not T.right:
        raise ValueError("the swap is defined on a tensor square only")
    d = T.right.dim
    tv = {}
    for p, x in v0.items():
        a, b = divmod(p, d)
        tv[b * d + a] = x.qconjugate()
    half = RatFunc(Fraction(1, 2))
    anti, sym = {}, {}
    for p in set(v0) | set(tv):
        x, y = v0.get(p, RF_ZERO), tv.get(p, RF_ZERO)
        if z := (x - y) * half:
            anti[p] = z
        if z := (x + y) * half:
            sym[p] = z
    return tuple(h if any(x.eval_at_one() for x in h.values()) else None for h in (anti, sym))


def _along_parents(M, act, top: dict) -> list:
    """[top, ...] over M's basis: entry a is act(i_1, entry parent[a]) for
    the label (i_1, ...) of basis vector a."""
    out = [top]
    for lab, b in zip(M.labels[1:], M.parent[1:]):
        out.append(act(lab[0], out[b]))
    return out


def lowered_table(T: TensorProduct, M, v0: dict) -> list:
    """The copy of M generated by a highest-weight vector v0 of T: entry a
    is Delta(F_{i_1} ... F_{i_k}) v0 for the basis label (i_1, ..., i_k)
    of M, so the table is the image of M's basis under the embedding."""
    return _along_parents(M, coproduct_action(T, "F"), dict(v0))


class IntForm(NamedTuple):
    """A sparse RatFunc matrix m written once over Z[v] as v^low / (q L) * N
    (see module_map_defects): the entry c v^s n / d of m gives N the entry
    k v^e n cof[d], with k = q c, e = s - low >= 0 and cof[d] = L / d.
    row_norm bounds the largest row sum of the 1-norms of N's entries and
    top_norm their largest 1-norm."""

    m: dict
    low: int
    q: int
    den: tuple
    cof: dict
    row_norm: int
    top_norm: int

    @property
    def scale_norm(self) -> int:
        """The 1-norm of the common denominator q L."""
        return self.q * sum(map(abs, self.den))

    def scale_at(self, b: int) -> int:
        """q L(2^b)."""
        return self.q * _zat(self.den, b)

    def times(self, b: int, scale: int, mx: dict, left: bool) -> dict:
        """scale N(2^b) mx when left, else mx scale N(2^b)."""
        n = sp_int_eval(self, b, scale)
        return sp_matmul(n, mx) if left else sp_matmul(mx, n)


def _zat(t, b: int) -> int:
    """The integer polynomial t evaluated at 2^b (Horner, by shifts)."""
    acc = 0
    for x in reversed(t):
        acc = (acc << b) + x
    return acc


def sp_int_form(m) -> IntForm:
    """The IntForm of a sparse RatFunc matrix; L is the lcm of the distinct
    denominators only, and an entry of N has 1-norm at most
    |k| |n|_1 |L / d|_1."""
    if not m:
        return IntForm(m, 0, 1, _ONE, {}, 0, 0)
    dens = {x.d for x in m.values()}
    den = reduce(_zlcm, dens, _ONE)
    cof = {d: _zexact(den, d) for d in dens}
    cof_norm = {d: sum(map(abs, t)) for d, t in cof.items()}
    q = lcm(*{x.c.denominator for x in m.values()})
    rows, top = {}, 0
    for (r, _), x in m.items():
        c = x.c
        norm = abs(c.numerator) * (q // c.denominator) * sum(map(abs, x.n)) * cof_norm[x.d]
        rows[r] = rows.get(r, 0) + norm
        if norm > top:
            top = norm
    return IntForm(m, min(x.s for x in m.values()), q, den, cof, max(rows.values()), top)


def sp_int_eval(form: IntForm, b: int, scale: int = 1) -> dict:
    """scale * N(2^b) as a sparse integer matrix, each distinct numerator and
    cofactor evaluated once."""
    q, low = form.q, form.low
    at_n = {}
    at_d = {d: _zat(t, b) for d, t in form.cof.items()}
    out = {}
    for key, x in form.m.items():
        c, n = x.c, x.n
        xn = at_n.get(n)
        if xn is None:
            xn = at_n[n] = _zat(n, b)
        k = c.numerator * (q // c.denominator)
        out[key] = (scale * k * xn * at_d[x.d]) << (b * (x.s - low))
    return out


def _tensor_int_form(f1, f2, k1: list, k2: list):
    """Delta(x) = x1 (x) K^-1 + K (x) x2 as (IntForm, times) from the forms
    f1, f2 of its factor matrices, with no matrix on the product formed (the
    form's m and cof are None; its norms are argued in module_map_defects);
    see _int_forms for times.  Both factors are written over the common
    q = lcm(q1, q2) and L = lcm(L1, L2), so N_j gains the factor
    c_j = (q / q_j)(L / L_j).  An entry of x1 at (r, c) lands at
    ((r, b), (c, b)) times v^-k2[b], and an entry of x2 at ((a, r), (a, c))
    times v^k1[a]."""
    den = _zlcm(f1.den, f2.den)
    q = lcm(f1.q, f2.q)
    low = min(f1.low - max(k2), f2.low + min(k1))
    c1, c2 = _zexact(den, f1.den), _zexact(den, f2.den)
    n1, n2 = q // f1.q * sum(map(abs, c1)), q // f2.q * sum(map(abs, c2))
    form = IntForm(None, low, q, den, None, n1 * f1.row_norm + n2 * f2.row_norm,
                   max(n1 * f1.top_norm, n2 * f2.top_norm))
    d2 = len(k2)

    def times(b, scale, mx, left):
        # N(2^b) mx column by column, or mx N(2^b) as (N^T mx^T)^T
        g1 = sp_grouped(sp_int_eval(f1, b, scale * (q // f1.q) * _zat(c1, b)), not left)
        g2 = g1 if f2 is f1 else sp_grouped(
            sp_int_eval(f2, b, scale * (q // f2.q) * _zat(c2, b)), not left)
        sh1 = [b * (f1.low - low - k) for k in k2]
        sh2 = [b * (f2.low - low + k) for k in k1]
        out = {}
        for (p, o), x in (mx if left else {(c, r): x for (r, c), x in mx.items()}).items():
            a, bb = divmod(p, d2)
            xs = x << sh1[bb]
            for r, y in g1.get(a, ()):
                key = r * d2 + bb, o
                out[key] = out.get(key, 0) + xs * y
            xs = x << sh2[a]
            for r, y in g2.get(bb, ()):
                key = a * d2 + r, o
                out[key] = out.get(key, 0) + xs * y
        return {(key if left else key[::-1]): y for key, y in out.items() if y}

    return form, times


def _int_forms(side, forms: dict) -> dict:
    """(name, i) -> (IntForm, times) for each generator of a side of
    module_map_defects, times(b, scale, mx, left) being scale N(2^b) mx when
    left, else mx scale N(2^b), for an integer matrix mx.  A tensor product
    is read from its factors (_tensor_int_form).  forms caches sp_int_form
    by matrix, so each factor matrix is written once per call."""
    def form(mat):
        f = forms.get(id(mat))
        if f is None:
            f = forms[id(mat)] = sp_int_form(mat)
        return f

    out = {}
    for name in ("E", "F"):
        if isinstance(side, TensorProduct):
            left, right = getattr(side.left, name), getattr(side.right, name)
            for i in left:
                out[name, i] = _tensor_int_form(form(left[i]), form(right[i]),
                                                side.left.kexp[i], side.right.kexp[i])
        else:
            for i, mat in getattr(side, name).items():
                f = form(mat)
                out[name, i] = f, f.times
    return out


def module_map_defects(M: dict, source, target) -> list:
    """Every way in which the sparse map M from source to target fails to be
    a module map, in a fixed order: for each i ascending ["E", i] when
    target(E_i) M != M source(E_i), then ["F", i] likewise; after those,
    ["K", row, col] for the first entry of M that joins basis vectors of
    different weights (the K_i part).  Empty exactly when M intertwines
    every generator.  A side is a TensorProduct or anything with weights,
    E and F.

    The comparison is exact and runs on integers.  Each matrix is written
    once as v^low / (q L) * N (sp_int_form): q the lcm of its content
    denominators and L that of its distinct polynomial denominators, so N
    is over Z[v].  A tensor-product side is written from its factors' forms
    (_tensor_int_form): the entries of x1 (x) K^-1 and K (x) x2 never share
    a position, because E_i and F_i have no diagonal entries, so a row's
    1-norms add up to at most |c1|_1 rn1 + |c2|_1 rn2 and no entry's 1-norm
    exceeds the larger of |c1|_1 top1 and |c2|_1 top2.  With the common
    denominators cleared, target(x) M = M source(x) reads
    v^low_t q_s L_s N_t N_M = v^low_s q_t L_t N_M N_s, up to the same power of
    v on both sides.  The coefficients of either side are bounded by B, the
    largest row sum of 1-norms times the largest 1-norm times |q L|_1 over
    all generators, so their difference has coefficients below 2B.  Both
    sides are compared at X = 2^b > 2B (Kronecker substitution,
    sp_int_eval): an integer polynomial whose coefficients are below X in
    absolute value vanishes at X only when it is zero."""
    forms = {}
    src = _int_forms(source, forms)
    dst = src if target is source else _int_forms(target, forms)
    gens = sorted(src, key=lambda g: (g[1], g[0]))
    fm = sp_int_form(M)
    bound = max((max(dst[g][0].row_norm * fm.top_norm * src[g][0].scale_norm,
                     fm.row_norm * src[g][0].top_norm * dst[g][0].scale_norm) for g in gens),
                default=0)
    b = (2 * bound).bit_length()
    mx = sp_int_eval(fm, b)
    defects = []
    for g in gens:
        (fs, times_s), (ft, times_t) = src[g], dst[g]
        low = min(fs.low, ft.low)
        lhs = times_t(b, fs.scale_at(b) << b * (ft.low - low), mx, True)
        rhs = times_s(b, ft.scale_at(b) << b * (fs.low - low), mx, False)
        if lhs != rhs:
            defects.append(list(g))
    sw, tw = source.weights, target.weights
    cross = next(((r, c) for r, c in M if tw[r] != sw[c]), None)
    if cross is not None:
        defects.append(["K", *cross])
    return defects


def _paired_with_form(T: TensorProduct, vecs: list) -> list:
    """u^T (S_1 (x) S_2) for each sparse vector u of T = M_1 (x) M_2, S_k the
    contravariant form of M_k; each result is a sparse vector over the
    product index."""
    left = sp_grouped(contravariant_form(T.left), True)
    right = left if T.right is T.left else sp_grouped(contravariant_form(T.right), True)
    d = T.right.dim
    out = []
    for vec in vecs:
        acc = {}
        for p, x in vec.items():
            a, b = divmod(p, d)
            for c, s in left.get(a, ()):
                xs = x * s
                for e, t in right.get(b, ()):
                    sp_add_to(acc, c * d + e, xs * t)
        out.append(acc)
    return out


def pair_matrix(T: TensorProduct, us: list):
    """The covectors u^T (S_1 (x) S_2) of the sparse vectors us of T
    (_paired_with_form) and their pair matrix, entry [j][k] the product form
    u_j^T (S_1 (x) S_2) u_k."""
    paired = _paired_with_form(T, us)
    return paired, [[sum((su[p] * y for p, y in u.items() if p in su), RF_ZERO) for u in us]
                    for su in paired]


def _block_equations(V, w, vw):
    """The equations (i, p) of _bracket_from_covector that meet the weight
    block vw of V at w, lazily: first each basis vector's own, E_{i_1} at
    its parent for its label (i_1, ...), then every row p of each E_i one
    level up, at w + alpha_i."""
    for a in vw:
        yield V.labels[a][0], V.parent[a]
    for i, alpha in enumerate(simple_roots(V.cd)):
        for p in V.weight_basis.get(tuple(map(add, w, alpha)), ()):
            yield i, p


def _bracket_from_covector(T: TensorProduct, top: dict) -> dict:
    """The module map B: T -> V, T = V (x) V, whose top row is the covector
    top, every other row raised from the rows one level up: row p of
    E_i B = B Delta(E_i) reads sum_c E_i[p, c] B[c] = B[p] Delta(E_i), c
    over the weight block one level below p.  Each block below the top, in
    basis order, keeps the first equations of _block_equations that are
    independent, as many as its dimension, and solves its rows from them
    with the inverse of their coefficients E_i[p, c], which are entries of
    V's E: one division on a one-dimensional block, a rank x rank solve on
    the Cartan block of the adjoint.  coproduct_action applies Delta(E_i)
    to the known row B[p] from the rows of V's E_i.  A block that its
    equations do not fix raises VerificationFailed.  B is linear in top,
    so the rows are raised from top cleared of its denominators
    (clear_denominators), and each entry is scaled back once at the end:
    the raising then multiplies short polynomials, not rational functions
    over top's long common denominator.

    Returns a sparse matrix {(module_row, product_col): RatFunc}."""
    V = T.left
    raise_row = coproduct_action(T, "E", transpose=True)
    cols = list(top)
    cleared = clear_denominators([top[p] for p in cols])
    scale = top[cols[0]] / cleared[0]
    rows = [dict(zip(cols, cleared))] + [None] * (V.dim - 1)
    for w, vw in V.weight_basis.items():
        if w == V.highest_weight:
            continue
        eqs, coeffs = [], []
        for i, p in _block_equations(V, w, vw):
            row = [V.E[i].get((p, c), RF_ZERO) for c in vw]
            if any(row) and (not coeffs or rank(coeffs + [row]) > len(coeffs)):
                eqs.append((i, p))
                coeffs.append(row)
                if len(eqs) == len(vw):
                    break
        else:
            raise VerificationFailed(f"the module-map equations do not fix B at weight {w}")
        rhs = [raise_row(i, rows[p]) for i, p in eqs]
        inv = inverse(coeffs) if len(vw) > 1 else [[RF_ONE / coeffs[0][0]]]
        for a, grow in zip(vw, inv):
            acc = {}
            for g, r in zip(grow, rhs):
                if g:
                    for p, x in r.items():
                        sp_add_to(acc, p, g * x)
            rows[a] = acc
    return {(a, p): scale * x for a, row in enumerate(rows) for p, x in row.items()}


def invert_cg(T: TensorProduct, v0: dict, others: list) -> dict:
    """Structure constants f_ab^c of the unique module map B: V(x)V -> V
    on the tensor square T = V (x) V, V = T.left, with B o beta = id, beta
    the embedding of V generated by the highest-weight vector v0
    (lowered_table(T, V, v0)), and B = 0 on the submodules generated by
    `others`.  beta itself is never formed.

    The generating vectors [v0, *others] are paired with S (x) S once; the
    pair matrix gives the weights x_k of the combination w = sum_k x_k u_k
    with B = S^-1 beta_w^T (S (x) S), and the pairings give its top row
    w^T (S (x) S), from which _bracket_from_covector raises the others by
    the module-map equations (see the module docstring).

    Checked exactly before returning: V's F maps each basis vector's parent
    to it; B(v0) = e_0 and B(u) = 0 for u in `others`; and B is a module map
    in full.  With the lowering of V's basis these give B o beta = id
    (K_a^{bc} f_bc^d = delta_a^d) and B = 0 on the complements, by the module
    docstring's induction.
    """
    V = T.left
    us = [v0, *others]
    paired, pair = pair_matrix(T, us)
    try:
        x = solve(pair, [RF_ONE] + [RF_ZERO] * len(others))
    except ZeroDivisionError as exc:
        raise VerificationFailed(str(exc)) from exc
    # w^T (S (x) S) for w = sum_k x_k u_k
    top = {}
    for xk, su in zip(x, paired):
        for p, y in su.items():
            sp_add_to(top, p, xk * y)
    bmat = _bracket_from_covector(T, top)

    # exact checks: V's monomial basis, B on the generating vectors, then B
    # as a module map in full; the module docstring says why these suffice
    cols = {i: sp_grouped(mat, False) for i, mat in V.F.items()}
    for a, (lab, b) in enumerate(zip(V.labels[1:], V.parent[1:]), 1):
        if cols[lab[0]].get(b) != [(a, RF_ONE)]:
            raise VerificationFailed(f"F does not lower basis vector {a} from its parent")
    if sp_matvec(bmat, us[0]) != {0: RF_ONE}:
        raise VerificationFailed("B o beta != id")
    for u in us[1:]:
        if sp_matvec(bmat, u):
            raise VerificationFailed("B nonzero on a complement submodule")
    defects = module_map_defects(bmat, T, V)
    if defects:
        raise VerificationFailed("K intertwining (grading) fails" if defects[0][0] == "K"
                                 else "intertwining fails")
    return {(*divmod(p, V.dim), c): val for (c, p), val in bmat.items()}
