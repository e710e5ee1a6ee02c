"""Small exact linear algebra helpers used across the package.

Matrices are plain lists of lists (dense) or dicts {(row, col): value}
(sparse); scalars are Fraction or RatFunc, and zero is tested by truth
value, so every routine serves both fields.  Everything uses exact
arithmetic -- no pivot thresholds, a pivot is any nonzero entry.

`rref` is the one dense Gauss-Jordan elimination; `rank`, `solve`,
`inverse` and `nullspace` are read off its result.  It pivots on the first
row with a nonzero entry in the column.  The reduced row echelon form of a
matrix over a field is unique, and both scalar types hold their values in
a canonical form, so the pivot rule cannot change any result -- the pivot
columns, the reduced rows, solutions, inverses and kernel bases -- only
the cost of reaching it.

`sp_diff` is the one comparison of sparse tables: every equality test of
matrices or structure-constant tables, and every witness drawn from one,
is read off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .qring import RatFunc, RF_ZERO, _ONE, _integral, _zexact, _zgcd, _zmul


# ---------------------------------------------------------------------------
# dense matrices: lists of rows of Fraction or RatFunc entries
# ---------------------------------------------------------------------------

def rref(mat):
    """Gauss-Jordan on a list of rows, in place; returns the pivot columns.
    Each column pivots on its first nonzero entry below the rows already
    reduced (see the module docstring for why that choice is free).
    A row operation touches only the columns where the pivot row is nonzero,
    and every changed row is a new list, so no row list the caller passed in
    is mutated."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv if x else x for x in mat[r]]
        support = [(k, x) for k, x in enumerate(mat[r]) if x]
        for i in range(rows):
            f = mat[i][c]
            if i != r and f:
                row = list(mat[i])
                for k, x in support:
                    row[k] -= f * x
                mat[i] = row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(mat):
    """The number of pivots of mat, reduced on a copy."""
    return len(rref([list(row) for row in mat]))


def solve(a, b):
    """Solve a x = b (a square, nonsingular; b a column list); returns x.
    Raises ZeroDivisionError when a is singular."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    if rref(aug) != list(range(n)):
        raise ZeroDivisionError("singular linear system")
    return [row[n] for row in aug]


def inverse(a):
    """The inverse of a square matrix; raises ZeroDivisionError when a is
    singular."""
    n = len(a)
    if not n:
        return []
    one = type(a[0][0])(1)
    zero = one - one
    aug = [list(a[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    if rref(aug) != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in aug]


def nullspace(mat, ncols, one):
    """A basis of the right kernel of a list of rows with ncols columns: one
    vector per non-pivot column, with 1 there and 0 in the other non-pivot
    columns.  one is the field's one, since mat may have no rows."""
    work = [list(row) for row in mat]
    pivots = rref(work)
    zero = one - one
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def clear_denominators(vec):
    """A RatFunc vector scaled to polynomial entries: times the monic lcm L
    of its denominators, divided by the monic gcd G of the resulting
    numerators (so the integer content stays), and shifted so that the
    lowest v-power is v^0.  Runs on the integer form c v^s N / D: the
    numerator of entry i is (c_i / lc L) v^(s_i) N_i (L / D_i)."""
    nonzero = [x for x in vec if x]
    if not nonzero:
        return list(vec)
    den_lcm = _ONE
    for x in nonzero:
        den_lcm = _zmul(den_lcm, _zgcd(den_lcm, x.d)[2])
    parts = [_zmul(x.n, _zexact(den_lcm, x.d)) for x in nonzero]
    g = parts[0]
    for p in parts[1:]:
        g = _zgcd(g, p)[0]
    if len(g) > 1:
        parts = [_zexact(p, g) for p in parts]
    scale = Fraction(g[-1], den_lcm[-1])
    low = min(x.s for x in nonzero)
    cleared = (RatFunc._make(_integral(x.c * scale), x.s - low, tuple(p), _ONE)
               for x, p in zip(nonzero, parts))
    return [next(cleared) if x else RF_ZERO for x in vec]


# ---------------------------------------------------------------------------
# sparse matrices: dict {(row, col): value}, zero entries absent.  Values are
# Fraction or RatFunc; zero is tested by truth value, so both work.
# ---------------------------------------------------------------------------

def sp_add_to(m, key, val):
    """m[key] += val for any hashable key, dropping the entry when the sum
    vanishes; the shared accumulator of every sparse table."""
    if not val:
        return
    cur = m.get(key)
    if cur is not None:
        val = cur + val
    if val:
        m[key] = val
    else:
        del m[key]


def sp_matvec(m, vec):
    """m: sparse, vec: dict {col: val} -> dict {row: val}."""
    out = {}
    for (r, c), x in m.items():
        y = vec.get(c)
        if y:
            cur = out.get(r)
            out[r] = x * y if cur is None else cur + x * y
    return {r: v for r, v in out.items() if v}


def sp_grouped(m, by_row):
    """The entries x of a sparse matrix grouped by column as {c: [(r, x)]},
    or by row as {r: [(c, x)]}, each list in the matrix's order; the one
    row/column index of the package's sparse products and actions."""
    groups = {}
    for (r, c), x in m.items():
        g, o = (r, c) if by_row else (c, r)
        groups.setdefault(g, []).append((o, x))
    return groups


def sp_matmul(a, b):
    """Sparse product a @ b, b indexed by the same convention; the entries
    may be int, Fraction or RatFunc, and zero entries are dropped.  The one
    sparse product of the package."""
    b_by_row = sp_grouped(b, True)
    out = {}
    for (r, k), x in a.items():
        for c, y in b_by_row.get(k, ()):
            key = (r, c)
            cur = out.get(key)
            out[key] = x * y if cur is None else cur + x * y
    return {key: x for key, x in out.items() if x}


def sp_diff(a, b) -> list:
    """The sorted keys at which the sparse tables a and b differ, a missing
    key reading 0, so an explicit zero equals an absent entry.  A list, not
    a generator: callers test it for truth and read its first key."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0))


def sp_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        sp_add_to(out, k, -v)
    return out


def sp_transpose(m):
    return {(c, r): v for (r, c), v in m.items()}


# ---------------------------------------------------------------------------
# sparse matrices over Z[v]: a sparse RatFunc matrix m written once as
# v^low / (q L) * N, with q the lcm of the content denominators and L the lcm
# of the distinct polynomial denominators, so that N has entries in Z[v].
# Products are compared after evaluating N at X = 2^b (Kronecker
# substitution): an integer polynomial whose coefficients are smaller than X
# in absolute value vanishes at X only when it is zero, so a bound on the
# coefficients makes the integer comparison exact.
# ---------------------------------------------------------------------------

class IntForm(NamedTuple):
    """The sparse RatFunc matrix m = v^low / (q L) * N.  The entry
    c v^s n / d of m gives N the entry k v^e n cof[d], with k = q c,
    e = s - low >= 0 and cof[d] = L / d.  row_norm bounds the largest row
    sum of the 1-norms of N's entries and top_norm their largest 1-norm."""

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


def _zat(t, b: int) -> int:
    """The integer polynomial t evaluated at 2^b (Horner, by shifts)."""
    acc = 0
    for x in reversed(t):
        acc = (acc << b) + x
    return acc


def sp_int_form(m) -> IntForm:
    """The fraction-free form of a sparse RatFunc matrix; L is built from
    the distinct denominators only, and the 1-norm of an entry of N is
    bounded by |k| |n|_1 |L / d|_1."""
    if not m:
        return IntForm(m, 0, 1, _ONE, {}, 0, 0)
    dens = {x.d for x in m.values()}
    den = _ONE
    for d in dens:
        den = _zmul(den, _zgcd(den, d)[2])
    den = tuple(den)
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
