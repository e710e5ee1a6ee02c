"""Small exact linear algebra helpers, over any field.

Matrices are plain lists of lists (dense) or dicts {(row, col): value}
(sparse) of Fraction, RatFunc or (in the sparse products) int entries.
Zero is tested by truth value and no routine reads a scalar's parts, so
nothing here imports qring.  Everything uses exact arithmetic -- no pivot
thresholds, a pivot is any nonzero entry.

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


# ---------------------------------------------------------------------------
# sparse matrices: dict {(row, col): value}, zero entries absent; zero is
# tested by truth value, so any scalar type works.
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
