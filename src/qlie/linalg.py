"""Small exact linear algebra helpers used across the package.

Matrices are plain lists of lists (dense) or dicts {(row, col): value}
(sparse); scalars are Fraction or RatFunc.  Everything uses
exact arithmetic -- no pivot thresholds, a pivot is any nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction

from .qring import RatFunc, RF_ONE, RF_ZERO, _ONE, _integral, _zexact, _zgcd, _zmul


# ---------------------------------------------------------------------------
# dense matrices over Fraction (classical side)
# ---------------------------------------------------------------------------

def frac_rref(mat):
    """Row-reduce a list-of-lists of Fractions in place; returns pivot columns."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def frac_solve(a, b):
    """Solve a x = b over Fractions (a square, nonsingular); returns list."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    piv = frac_rref(aug)
    if piv != list(range(n)):
        raise ZeroDivisionError("singular classical system")
    return [aug[i][n] for i in range(n)]


def frac_inverse(a):
    n = len(a)
    aug = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    piv = frac_rref(aug)
    if piv != list(range(n)):
        raise ZeroDivisionError("singular classical matrix")
    return [row[n:] for row in aug]


def frac_nullspace(mat, ncols):
    """Basis of the right kernel of a Fraction matrix (list of rows)."""
    work = [list(row) for row in mat] if mat else []
    pivots = frac_rref(work) if work else []
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# dense matrices over RatFunc
# ---------------------------------------------------------------------------

def rf_rref(mat):
    """Gauss-Jordan over RatFunc, in place; returns pivot columns.

    Pivot choice: among nonzero candidates in the column, prefer the entry
    whose numerator+denominator have the fewest terms (keeps growth down),
    ties broken by row index for determinism.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    r = 0
    pivots = []
    for c in range(cols):
        cands = [(mat[i][c].term_count(), i)
                 for i in range(r, rows) if not mat[i][c].is_zero()]
        if not cands:
            continue
        _, pr = min(cands)
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rf_rank(mat):
    if not mat:
        return 0
    work = [list(row) for row in mat]
    return len(rf_rref(work))


def rf_solve(a, b):
    """Solve a x = b (a square nonsingular over RatFunc); b a column list."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    piv = rf_rref(aug)
    if piv != list(range(n)):
        raise ZeroDivisionError("singular system over Q(v)")
    return [aug[i][n] for i in range(n)]


def rf_inverse(a):
    n = len(a)
    aug = [list(a[i]) + [RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
    piv = rf_rref(aug)
    if piv != list(range(n)):
        raise ZeroDivisionError("singular matrix over Q(v)")
    return [row[n:] for row in aug]


def rf_nullspace(mat, ncols):
    """Right-kernel basis over RatFunc; each vector has denominators cleared
    (entries are RatFunc but polynomial)."""
    work = [list(row) for row in mat] if mat else []
    pivots = rf_rref(work) if work else []
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [RF_ZERO] * ncols
        vec[fc] = RF_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(clear_denominators(vec))
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
    cleared = (RatFunc._make(_integral(x.c * scale), x.s - low, p, _ONE)
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


def sp_matmul(a, b):
    """Sparse product a @ b; b indexed by the same convention."""
    b_by_row = {}
    for (r, c), x in b.items():
        b_by_row.setdefault(r, []).append((c, x))
    out = {}
    for (r, k), x in a.items():
        for c, y in b_by_row.get(k, ()):
            sp_add_to(out, (r, c), x * y)
    return out


def sp_eq(a, b):
    keys = set(a) | set(b)
    for k in keys:
        x = a.get(k, RF_ZERO)
        y = b.get(k, RF_ZERO)
        if x != y:
            return False
    return True


def sp_scale(a, s):
    if not s:
        return {}
    return {k: v * s for k, v in a.items()}


def sp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        sp_add_to(out, k, v)
    return out


def sp_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        sp_add_to(out, k, -v)
    return out


def sp_transpose(m):
    return {(c, r): v for (r, c), v in m.items()}
