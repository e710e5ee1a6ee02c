"""Layer spans and scalar-kernel counters, installed on qlie from outside.

`Tracer.install()` replaces the public functions of every qlie layer
module with span-recording wrappers, and the scalar-kernel entry points
(`RatFunc.__init__`, `laurent_gcd`, `_divmod_laurent`) with counters.  A
name bound by `from .x import f` lives in several module namespaces (for
example `tensor_square` in both `tensorcg` and `qliealg`), so every qlie
namespace that holds the original object is patched, not only the module
that defines it.  No file under `src/` is edited.

A trace record is plain JSON: spans `[id, parent, name, start, end]`,
counters, per-call observations and the set of output denominators.
Records of several processes (one per CLI command) merge with `merge`;
`layer_metrics` turns a merged record into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("qring", "linalg", "rootdata", "repbuild", "tensorcg", "classical",
          "qliealg", "monodromy", "cli")

# Helpers called once per matrix entry, root or weight: a span each would
# cost more than the work it measures.
UNSPANNED = {
    "linalg": {"sp_set", "sp_add_to", "sp_matvec", "sp_scale", "rf_mat"},
    "rootdata": {"bilinear", "is_dominant", "weight_of_root_coords"},
}

# Functions whose results are the program's outputs: their scalars feed the
# qring.out_* invariants.
PRODUCERS = {"qliealg.build_generic", "qliealg.build_sln_explicit",
             "qliealg.canonical_normalize", "monodromy.monodromy_on_tensor"}

# Spans reported as `<name>.s` (inclusive, outermost call of each name);
# `qliealg.check_x` is reported as `qliealg.check.x.s`.
TIMED = (
    "linalg.sp_matmul", "linalg.rf_inverse", "linalg.rf_rref", "linalg.rf_nullspace",
    "linalg.rf_solve", "repbuild.build_irrep", "tensorcg.tensor_square",
    "tensorcg.highest_weight_space", "tensorcg.cg_embedding", "tensorcg.verify_embedding",
    "tensorcg.invert_cg", "qliealg.check_gradation", "qliealg.check_q_antisymmetry",
    "qliealg.check_lr_identity", "qliealg.check_classical_limit",
    "qliealg.check_ad_invariance", "qliealg.check_tau_sln", "qliealg.compare_to_explicit",
    "qliealg.build_sln_explicit", "qliealg.canonical_normalize",
    "classical.classical_bracket", "classical.classical_sln_table",
    "monodromy.joint_highest_vectors", "monodromy.verify_ad_submodule",
)
CALLED = ("linalg.sp_matmul", "linalg.rf_inverse", "linalg.rf_rref",
          "repbuild.build_irrep")
SELF_TIMED = ("tensorcg.invert_cg", "qliealg.generic_pipeline",
              "monodromy.monodromy_on_tensor")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.obs = Counter()      # maxima and sums observed on arguments and results
        self.outputs = []         # producer results, scanned by `record`
        self._cyclo = {}          # denominator key -> is v^k * prod Phi_n

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        keep = name in PRODUCERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(self.obs, args, out)
            if keep:
                self.outputs.append(out)
            return out

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every qlie namespace that holds a wrapped name."""
        import qlie
        mods = {layer: importlib.import_module(f"qlie.{layer}") for layer in LAYERS}
        qring = mods["qring"]
        originals = {}
        for layer, mod in mods.items():
            if layer == "qring":
                continue
            skip = UNSPANNED.get(layer, ())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
        for attr, key in (("laurent_gcd", "gcd_calls"), ("_divmod_laurent", "divmod_calls")):
            obj = getattr(qring, attr)
            originals[id(obj)] = (obj, self._counter(key, obj))
        for ns in [qlie, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

        init = qring.RatFunc.__init__
        counts, classify = self.counts, self._classify

        def ratfunc_init(rf, num, den=None):
            init(rf, num, den)
            counts["ratfunc_norm"] += 1
            if not classify(rf.den):
                counts["den_noncyclo"] += 1

        qring.RatFunc.__init__ = ratfunc_init

    def _classify(self, den):
        key = frozenset(den.coeffs.items())
        hit = self._cyclo.get(key)
        if hit is None:
            hit = self._cyclo[key] = is_cyclotomic_product(den.coeffs)
        return hit

    def add_span(self, name, start, end):
        """A span measured outside any wrapper (such as the import)."""
        self.spans.append([len(self.spans), None, name, start, end])

    def record(self) -> dict:
        """The JSON trace record of this process."""
        dens = set()
        deg = bits = 0
        for out in self.outputs:
            for x in _scalars(out):
                for poly in (x.num, x.den):
                    if poly.coeffs:
                        deg = max(deg, max(poly.coeffs) - min(poly.coeffs))
                    for c in poly.coeffs.values():
                        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
                dens.add(";".join(f"{e}:{c}" for e, c in sorted(x.den.coeffs.items())))
        obs = dict(self.obs)
        obs["out_max_degree"] = deg
        obs["out_max_coeff_bits"] = bits
        return {"spans": list(self.spans), "counts": dict(self.counts), "obs": obs,
                "dens": sorted(dens)}


# ---------------------------------------------------------------------------
# observations on arguments and results (no qlie arithmetic here)
# ---------------------------------------------------------------------------

def _matrix_rows(obs, args, out):
    if args and isinstance(args[0], list):
        obs["max_n"] = max(obs["max_n"], len(args[0]))


def _irrep(obs, args, out):
    obs["max_dim"] = max(obs["max_dim"], out.dim)


def _tensor(obs, args, out):
    obs["tensor_nnz"] += sum(len(m) for m in out.dE.values()) + sum(len(m) for m in out.dF.values())


def _table(obs, args, out):
    obs["constants_nnz"] += sum(1 for x in out.constants.values() if not x.is_zero())


def _monodromy(obs, args, out):
    obs["matrix_nnz"] += len(out.matrix)


_OBSERVERS = {
    "linalg.rf_rref": _matrix_rows,
    "linalg.rf_inverse": _matrix_rows,
    "linalg.rf_solve": _matrix_rows,
    "linalg.rf_nullspace": _matrix_rows,
    "repbuild.build_irrep": _irrep,
    "tensorcg.tensor_square": _tensor,
    "qliealg.build_generic": _table,
    "qliealg.build_sln_explicit": _table,
    "qliealg.canonical_normalize": _table,
    "monodromy.monodromy_on_tensor": _monodromy,
}


def _scalars(out):
    if hasattr(out, "constants"):
        return out.constants.values()
    if hasattr(out, "matrix"):
        return out.matrix.values()
    return ()


# ---------------------------------------------------------------------------
# cyclotomic denominators, in plain integer arithmetic
# ---------------------------------------------------------------------------

_PHI = {}
_TOTIENT = [0, 1]


def _totients(limit: int) -> list:
    """Euler's phi of 0..limit (sieve, extended on demand)."""
    if len(_TOTIENT) <= limit:
        phi = list(range(limit + 1))
        for p in range(2, limit + 1):
            if phi[p] == p:
                for k in range(p, limit + 1, p):
                    phi[k] -= phi[k] // p
        _TOTIENT[:] = phi
    return _TOTIENT


def _poly_divmod(a, b):
    """Quotient and remainder of integer coefficient lists (lowest degree
    first) by a monic b; the remainder is [0] when b divides a."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def cyclotomic(n: int) -> list:
    """Phi_n(v) as an integer coefficient list, lowest degree first, from
    Phi_n = prod over d | n of (v^d - 1)^mu(n/d)."""
    if n not in _PHI:
        num, den = [1], [1]
        for d in range(1, n + 1):
            if n % d == 0:
                mu = _mobius(n // d)
                if mu:
                    f = [-1] + [0] * (d - 1) + [1]
                    if mu == 1:
                        num = _poly_mul(num, f)
                    else:
                        den = _poly_mul(den, f)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        _PHI[n], _ = _poly_divmod(num, den)
    return _PHI[n]


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def is_cyclotomic_product(coeffs: dict) -> bool:
    """Whether a nonzero Laurent polynomial {exponent: Fraction} is a
    rational multiple of v^k times a product of cyclotomic polynomials."""
    lo, hi = min(coeffs), max(coeffs)
    lead = Fraction(coeffs[hi])
    poly = [Fraction(coeffs.get(e, 0)) / lead for e in range(lo, hi + 1)]
    if any(c.denominator != 1 for c in poly):
        return False
    poly = [int(c) for c in poly]
    # Phi_1 = v - 1 is antipalindromic and every other Phi_n palindromic
    if poly != poly[::-1] and poly != [-c for c in poly[::-1]]:
        return False
    # phi(n) >= sqrt(n / 2), so only n <= 2 d^2 can have Phi_n of degree <= d
    phi = _totients(2 * (len(poly) - 1) ** 2)
    n = 1
    while len(poly) > 1 and n < len(phi):
        if phi[n] <= len(poly) - 1:
            q, r = _poly_divmod(poly, cyclotomic(n))
            if r == [0]:
                poly = q
                while len(poly) > 1 and poly[-1] == 0:
                    poly.pop()
                continue
        n += 1
    return poly == [1]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def merge(records) -> dict:
    """One record from several; span ids are renumbered and every span
    gains the index of the record (the request) it came from."""
    spans, counts, obs, dens = [], Counter(), Counter(), set()
    imports, mains = [], []
    for trace_id, rec in enumerate(records):
        base = len(spans)
        for sid, parent, name, start, end in rec["spans"]:
            spans.append([base + sid, None if parent is None else base + parent,
                          name, start, end, trace_id])
            if name == "cli.import":
                imports.append(end - start)
            elif name == "cli.main" and parent is None:
                mains.append(end - start)
        counts.update(rec["counts"])
        for key, val in rec["obs"].items():
            if key.startswith("max") or key.startswith("out_max"):
                obs[key] = max(obs[key], val)
            else:
                obs[key] += val
        dens.update(rec["dens"])
    return {"spans": spans, "counts": dict(counts), "obs": dict(obs),
            "dens": sorted(dens), "imports": imports, "mains": mains}


def unit_of(name: str) -> str:
    if name.endswith(("_share", "_ok")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def layer_metrics(rec: dict) -> dict:
    """Per-layer metric values of a merged record."""
    spans = rec["spans"]
    by_id = {s[0]: s for s in spans}
    incl, calls, self_s, child = Counter(), Counter(), Counter(), Counter()
    rootdata_s = 0.0
    for sid, parent, name, start, end, *_ in spans:
        dur = end - start
        calls[name] += 1
        child[parent] += dur if parent is not None else 0.0
        same = layer = False
        p = parent
        while p is not None:
            pname = by_id[p][2]
            same = same or pname == name
            layer = layer or pname.split(".")[0] == "rootdata"
            p = by_id[p][1]
        if not same:
            incl[name] += dur
        if name.startswith("rootdata.") and not layer:
            rootdata_s += dur
    for sid, parent, name, start, end, *_ in spans:
        self_s[name] += (end - start) - child[sid]

    counts, obs = rec["counts"], rec["obs"]
    norms = counts.get("ratfunc_norm", 0)
    m = {
        "qring.ratfunc_norm": norms,
        "qring.gcd_calls": counts.get("gcd_calls", 0),
        "qring.divmod_calls": counts.get("divmod_calls", 0),
        "qring.den_noncyclo_share": counts.get("den_noncyclo", 0) / norms if norms else 0.0,
        "qring.out_max_degree": obs.get("out_max_degree", 0),
        "qring.out_max_coeff_bits": obs.get("out_max_coeff_bits", 0),
        "qring.out_distinct_den": len(rec["dens"]),
        "linalg.max_n": obs.get("max_n", 0),
        "rootdata.s": rootdata_s,
        "repbuild.max_dim": obs.get("max_dim", 0),
        "tensorcg.tensor_nnz": obs.get("tensor_nnz", 0),
        "qliealg.constants_nnz": obs.get("constants_nnz", 0),
        "monodromy.matrix_nnz": obs.get("matrix_nnz", 0),
        "cli.import_s": statistics.median(rec["imports"]) if rec["imports"] else 0.0,
        "cli.main_s": statistics.median(rec["mains"]) if rec["mains"] else 0.0,
    }
    for name in CALLED:
        m[f"{name}.calls"] = calls[name]
    for name in TIMED:
        m[name.replace(".check_", ".check.") + ".s"] = incl[name]
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s[name]
    return m
