"""Cartan matrices, root systems, weights and tensor multiplicities.

Conventions used throughout the package:

* the Cartan matrix entry is a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
  so a weight mu is stored by its values mu(h_j) = <mu, alpha_j-check>,
  and a root with simple-root coordinates c has weight coordinates A c;
* the symmetrizers d_i are the unique coprime positive integers with
  d_i a_ij symmetric, normalized so that (alpha_i, alpha_i) = 2 d_i.

Weights are plain int tuples in the h-coordinates above.  Weight
multiplicities and tensor multiplicities are computed on integer pairings
alone: for a root alpha = sum c_i alpha_i, (mu, alpha) = sum c_i d_i mu_i.
Only `bilinear`, the form on two arbitrary weights, takes Fraction values
(the Casimir exponent in `monodromy` needs it).  A failed self-check raises
`VerificationFailed`, which `python -O` does not remove.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, floordiv, mul, sub
from typing import NamedTuple

from .linalg import inverse

# the largest module dimension a construction attempts unless told otherwise
DEFAULT_DIM_BUDGET = 64


class InvalidType(ValueError):
    """Unknown series letter or rank out of range for the series."""


class NonDominant(ValueError):
    """A dominant integral weight was required."""


class BudgetExceeded(RuntimeError):
    """Module dimension above the configured budget."""


class VerificationFailed(AssertionError):
    """A mathematical self-check failed.  It is raised explicitly, so the
    check also runs under `python -O`; it is an AssertionError, so callers
    that catch failed asserts catch it too."""


class CartanDatum(NamedTuple):
    series: str
    rank: int
    cartan: tuple  # tuple of tuple of int, cartan[i][j] = a_ij
    d: tuple       # symmetrizers, one per node

    def __str__(self):
        return f"{self.series}{self.rank}"


def adjoint_dim(series: str, rank: int) -> int:
    """dim g = rank + number of roots for the simple Lie algebra series +
    rank, in closed form, so that an algebra is sized before its Cartan
    matrix exists and a budget check costs nothing at any rank.  It refuses
    exactly the types build_cartan refuses, with the same InvalidType: the
    rank rules live here only."""
    series, n = series.upper(), rank
    if n < 1:
        raise InvalidType(f"rank must be positive, got {rank}")
    if series == "A":
        return n * (n + 2)
    if series in ("B", "C"):
        if n < 2:
            raise InvalidType(f"{series} requires rank >= 2")
        return n * (2 * n + 1)
    if series == "D":
        if n < 3:
            raise InvalidType("D requires rank >= 3")
        return n * (2 * n - 1)
    if series == "E":
        if n not in (6, 7, 8):
            raise InvalidType("E requires rank in {6, 7, 8}")
        return {6: 78, 7: 133, 8: 248}[n]
    if series == "F":
        if n != 4:
            raise InvalidType("F requires rank 4")
        return 52
    if series == "G":
        if n != 2:
            raise InvalidType("G requires rank 2")
        return 14
    raise InvalidType(f"unknown series {series!r}")


def build_cartan(series: str, rank: int) -> CartanDatum:
    """Cartan datum for the finite series A-G (Bourbaki node numbering).  A
    type that adjoint_dim refuses raises its InvalidType."""
    series = series.upper()
    adjoint_dim(series, rank)
    n = rank

    def chain(last_edge=None):
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            a[i][i + 1] = -1
            a[i + 1][i] = -1
        if last_edge:
            a[n - 2][n - 1], a[n - 1][n - 2] = last_edge
        return a

    if series == "A":
        a = chain()
        d = [1] * n
    elif series == "B":
        # alpha_n short: a_{n-1,n} = -1, a_{n,n-1} = -2
        a = chain(last_edge=(-1, -2))
        d = [2] * (n - 1) + [1]
    elif series == "C":
        a = chain(last_edge=(-2, -1))
        d = [1] * (n - 1) + [2]
    elif series == "D":
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i in range(n - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        d = [1] * n
    elif series == "E":
        # Bourbaki: node 2 attaches to node 4 of the chain 1-3-4-5-...
        chain_nodes = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]
        pairs = [(chain_nodes[k], chain_nodes[k + 1]) for k in range(len(chain_nodes) - 1)]
        pairs.append((2, 4))
        for i, j in pairs:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        d = [1] * n
    elif series == "F":
        a = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        d = [2, 2, 1, 1]
    else:  # G2
        a = [[2, -3], [-1, 2]]
        d = [1, 3]

    # sanity: d_i a_ij symmetric with coprime positive d_i
    if not (all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n))
            and gcd(*d) == 1):
        raise VerificationFailed(f"{series}{n}: symmetrizers {d} do not fit the Cartan matrix")
    return CartanDatum(series, n, tuple(tuple(row) for row in a), tuple(d))


class RootSystem(NamedTuple):
    cd: CartanDatum
    positive_roots: tuple   # tuple of (simple_coords, weight_coords) pairs
    highest_root: tuple     # weight coordinates of theta
    rho: tuple              # weight with rho(h_i) = 1


def simple_roots(cd: CartanDatum) -> list:
    """h-coordinates of the simple roots: alpha_j is the j-th column of the
    Cartan matrix.  The one place they are read off it."""
    n = cd.rank
    return [tuple(cd.cartan[k][j] for k in range(n)) for j in range(n)]


def weight_of_root_coords(cd: CartanDatum, coords) -> tuple:
    """h-coordinates of sum_i coords[i] alpha_i: (A c)_j with A the Cartan matrix."""
    n = cd.rank
    return tuple(sum(cd.cartan[j][i] * coords[i] for i in range(n)) for j in range(n))


@lru_cache(maxsize=None)
def root_system(cd: CartanDatum) -> RootSystem:
    """Positive roots by closure along root strings, sorted by (height, coords)."""
    n = cd.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = {c: weight_of_root_coords(cd, c) for c in simples}
    current = list(simples)
    while current:
        nxt = []
        for c in current:
            w = roots[c]
            for i in range(n):
                # p = how far the alpha_i-string extends below c
                p = 0
                down = list(c)
                while True:
                    down[i] -= 1
                    t = tuple(down)
                    if min(t) < 0 or t not in roots:
                        break
                    p += 1
                # string length: q = p - <c, alpha_i-check>
                qlen = p - w[i]
                if qlen > 0:
                    up = list(c)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots[t] = weight_of_root_coords(cd, t)
                        nxt.append(t)
        current = nxt
    ordered = sorted(roots, key=lambda c: (sum(c), c))
    positive = tuple((c, roots[c]) for c in ordered)
    theta = positive[-1][1]
    if sum(positive[-1][0]) != max(sum(c) for c, _ in positive):
        raise VerificationFailed(f"{cd}: the last positive root is not the highest")
    rho = tuple(1 for _ in range(n))
    return RootSystem(cd, positive, theta, rho)


def highest_root(cd: CartanDatum) -> tuple:
    return root_system(cd).highest_root


@lru_cache(maxsize=None)
def _weight_gram(cd: CartanDatum):
    """Gram matrix of the fundamental weights: (omega_i, omega_j) = (A^-T D)_ij."""
    n = cd.rank
    a = [[Fraction(cd.cartan[i][j]) for j in range(n)] for i in range(n)]
    ainv = inverse(a)
    g = [[ainv[j][i] * cd.d[j] for j in range(n)] for i in range(n)]
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
        raise VerificationFailed(f"{cd.series}{n}: weight Gram matrix is not symmetric")
    return tuple(tuple(row) for row in g)


def bilinear(cd: CartanDatum, lam, mu) -> Fraction:
    """Invariant form on weights (h-coordinates), with (alpha_i, alpha_i) = 2 d_i."""
    n = cd.rank
    if len(lam) != n or len(mu) != n:
        raise ValueError(f"a weight of {cd.series}{n} has {n} coordinates: {lam}, {mu}")
    g = _weight_gram(cd)
    return sum(g[i][j] * lam[i] * mu[j] for i in range(n) for j in range(n))


def is_dominant(lam) -> bool:
    return all(x >= 0 for x in lam)


def _check_dominant(cd: CartanDatum, lam):
    if len(lam) != cd.rank or not is_dominant(lam) or not all(isinstance(x, int) for x in lam):
        raise NonDominant(f"not a dominant integral weight of {cd.series}{cd.rank}: {lam}")


def weyl_dim(cd: CartanDatum, lam) -> int:
    """Weyl dimension formula, exact: the product over positive roots alpha
    of <lam + rho, alpha-check> / <rho, alpha-check>.  For alpha = sum c_i
    alpha_i the pairing is <mu, alpha-check> = sum c_i d_i mu_i / d_alpha
    with d_alpha = (alpha, alpha)/2; d_alpha cancels in each ratio, so
    every root costs one integer sum of O(rank) terms."""
    _check_dominant(cd, lam)
    num = den = 1
    for coords, _ in root_system(cd).positive_roots:
        weighted = [c * d for c, d in zip(coords, cd.d)]
        num *= sum(x * (m + 1) for x, m in zip(weighted, lam))
        den *= sum(weighted)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise VerificationFailed(f"Weyl dimension of {lam}: {num}/{den}")
    return dim


@lru_cache(maxsize=None)
def weight_multiplicities(cd: CartanDatum, lam: tuple):
    """All weights of the irreducible module with highest weight lam, by
    Freudenthal's recursion.  Returns dict {weight: multiplicity}.

    Every quantity is an integer pairing.  For a root alpha = sum c_i alpha_i,
    (nu, alpha) = sum c_i d_i nu_i.  With delta the simple-root coordinates
    of lam - mu, the Freudenthal denominator is
    |lam + rho|^2 - |mu + rho|^2 = (lam + mu + 2 rho, lam - mu)
                                 = sum delta_i d_i (lam + mu + 2)_i.
    delta is carried down the levels (subtracting alpha_j adds 1 to
    delta_j), so the k-range of each root string is exact without A^-1."""
    _check_dominant(cd, lam)
    n, d = cd.rank, cd.d
    simples = list(enumerate(simple_roots(cd)))
    # per positive root alpha = sum c_i alpha_i: its weight coordinates, the
    # support {i : c_i > 0}, c_i and c_i d_i on the support, and (alpha, alpha)
    roots = []
    for c, w in root_system(cd).positive_roots:
        idx = [i for i in range(n) if c[i]]
        cw = [c[i] * d[i] for i in idx]
        aa = sum(map(mul, cw, map(w.__getitem__, idx)))
        roots.append((w, idx, [c[i] for i in idx], cw, aa))
    mult = {lam: 1}
    level = {lam: (0,) * n}  # weight -> delta
    while level:
        nxt = {}
        for mu, delta in level.items():
            for j, alpha in simples:
                nu = tuple(map(sub, mu, alpha))
                if nu not in nxt:
                    nxt[nu] = delta[:j] + (delta[j] + 1,) + delta[j + 1:]
        new_level = {}
        for mu in sorted(nxt):
            delta = nxt[mu]
            denom = sum(x * di * (a + b + 2) for x, di, a, b in zip(delta, d, lam, mu))
            if denom == 0:
                continue  # cannot be a weight: strict inequality holds below lam
            acc = 0
            for alpha, idx, c, cw, aa in roots:
                # mu + k alpha must stay under lam in the root order
                kmax = min(map(floordiv, map(delta.__getitem__, idx), c))
                if not kmax:
                    continue
                pair = sum(map(mul, cw, map(mu.__getitem__, idx)))  # (mu, alpha)
                nu = mu
                for _ in range(kmax):
                    nu = tuple(map(add, nu, alpha))
                    pair += aa  # (nu, alpha)
                    m = mult.get(nu)
                    if m:
                        acc += m * pair
            m_mu, rem = divmod(2 * acc, denom)
            if rem or m_mu < 0:
                raise VerificationFailed(f"Freudenthal multiplicity of {mu} in V{lam}: "
                                         f"{2 * acc}/{denom}")
            if m_mu:
                mult[mu] = m_mu
                new_level[mu] = delta
        level = new_level
    total = sum(mult.values())
    if total != weyl_dim(cd, lam):
        raise VerificationFailed(f"V{lam}: multiplicities sum to {total}, "
                                 f"not to the Weyl dimension")
    return dict(mult)


def _adjoint_character(cd: CartanDatum) -> dict:
    """The weights of the adjoint module V(theta) with their multiplicities,
    read off the root system: each root once, and 0 rank times."""
    out = {(0,) * cd.rank: cd.rank}
    for _, w in root_system(cd).positive_roots:
        out[w] = out[tuple(-x for x in w)] = 1
    return out


def tensor_multiplicity(cd: CartanDatum, mu, nu, lam) -> int:
    """Multiplicity of V(lam) inside V(mu) (x) V(nu), by the single-target
    Brauer-Klimyk (Racah-Speiser) count: the sum of sign(w) m_nu(beta) over
    the weights beta of V(nu) for which w(mu + beta + rho) = lam + rho, with
    w the Weyl group element that reflects mu + beta + rho into the dominant
    chamber (Klimyk, AMS Transl. 76, 1968; Humphreys, Introduction to Lie
    Algebras, section 24).  A weight on a wall contributes nothing.  Only
    the weights of the smaller factor are needed: read off the root system
    when it is the adjoint (_adjoint_character), by Freudenthal's recursion
    otherwise, and either way checked against the Weyl dimension.  This is
    the one count of the package: tensorcg.highest_weight_space checks its
    kernel against it, and monodromy_on_tensor finds the components of
    V (x) W with it."""
    _check_dominant(cd, mu)
    _check_dominant(cd, nu)
    _check_dominant(cd, lam)
    dim_mu, dim_nu = weyl_dim(cd, mu), weyl_dim(cd, nu)
    if dim_mu < dim_nu:
        mu, nu, dim_nu = nu, mu, dim_mu
    nu = tuple(nu)
    if nu == highest_root(cd):
        char = _adjoint_character(cd)
        if sum(char.values()) != dim_nu:
            raise VerificationFailed(f"{cd}: the roots and the rank do not add up to the "
                                     f"Weyl dimension of the adjoint")
    else:
        char = weight_multiplicities(cd, nu)
    alphas = simple_roots(cd)
    target = [x + 1 for x in lam]
    total = 0
    for beta, m in char.items():
        x = [a + b + 1 for a, b in zip(mu, beta)]
        sign = 1
        while (i := next((j for j, xj in enumerate(x) if xj < 0), -1)) >= 0:
            xi = x[i]
            x = [a - xi * c for a, c in zip(x, alphas[i])]
            sign = -sign
        if x == target:
            total += sign * m
    return total


def cartan_to_json(cd: CartanDatum) -> dict:
    return {"series": cd.series, "rank": cd.rank}
