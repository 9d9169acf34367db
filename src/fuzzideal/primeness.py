"""Primeness and semiprimeness predicates for fuzzy ideals.

Quantifier discipline: every predicate that ranges over continuous
membership values (or over all fuzzy ideals) is decided on a finite
value grid -- the image of the ideal plus 0, 1 and the midpoints of
consecutive image values.  All predicates compare values only by order
against the image, so any violating assignment retracts to a grid point
without changing a single comparison; randomized off-grid sampling in
the test suite double-checks this.

Internally values are mapped to integer ranks on a common scale so the
hot loops work on small ints / numpy arrays; Fractions only appear at
the boundaries.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import crisp
from .corpus import ideal_chains
from .crisp import (CrispIdeal, completely_prime_witness, enumerate_ideals,
                    is_prime_ideal, is_semiprime_ideal, minimal_primes,
                    prime_witness, semiprime_witness)
from .errors import BackendError, ResourceLimitError, TheoremViolationError
from .fuzzy import (FuzzyIdeal, ZERO, ONE, characteristic, compose, cut,
                    fuzzy_product, generate, singleton, star_ideal, to_set,
                    value_equivalent, zero_type)
from .rings import Ring, np_tables, quotient_ring

DEFAULT_BUDGET = 20_000


# --------------------------------------------------------------------------
# Value grid
# --------------------------------------------------------------------------

def value_grid(P: FuzzyIdeal) -> tuple[Fraction, ...]:
    """image(P) + {0, 1} + midpoints of consecutive members, ascending."""
    base = sorted(set(P.values) | {ZERO, ONE})
    mids = [(a + b) / 2 for a, b in zip(base, base[1:])]
    return tuple(sorted(set(base) | set(mids)))


# --------------------------------------------------------------------------
# Rank context for table rings
# --------------------------------------------------------------------------

def _np_tables(R: Ring):
    """The ring's shared mul array and, derived from it,
    ``xry[x * n + y, r] = (x r) y``."""
    def build():
        mul = np_tables(R).mul
        t = mul[mul]  # t[x, r, y] = (x*r)*y
        xry = np.ascontiguousarray(t.transpose(0, 2, 1)).reshape(
            R.size * R.size, R.size)
        return {"mul": mul, "xry": xry}
    return R.cached("np_tables", build)


def _principal_products(R: Ring):
    """elems of <x><y> = <{ab : a in <x>, b in <y>}> for every pair."""
    def build():
        pp = {}
        prods = {}
        for x in range(R.size):
            px = crisp.principal_ideal(R, x).elems
            for y in range(R.size):
                py = crisp.principal_ideal(R, y).elems
                key = (px, py)
                if key not in prods:
                    prodset = {R.mul(a, b) for a in px for b in py}
                    prods[key] = crisp.ideal_generate(R, prodset).elems
                pp[(x, y)] = prods[key]
        return pp
    return R.cached("principal_products", build)


class _Ctx:
    """Rank-space view of a fuzzy ideal on a table ring."""

    def __init__(self, P: FuzzyIdeal, grid=None):
        R = P.ring
        if not R.is_table:
            raise BackendError("rank context requires a table ring")
        self.P = P
        self.ring = R
        self.grid = tuple(grid) if grid is not None else value_grid(P)
        scale = sorted(set(self.grid) | set(P.values) | {ZERO, ONE})
        self.scale = scale
        self.rank = {v: i for i, v in enumerate(scale)}
        n = R.size
        self.pv = np.array([self.rank[P(x)] for x in range(n)], dtype=np.int64)
        self.grid_ranks = sorted(self.rank[g] for g in self.grid)
        tabs = _np_tables(R)
        self.mul = tabs["mul"]
        # m[x, y] = min over r of P(xry)
        self.m = self.pv[tabs["xry"]].min(axis=1).reshape(n, n)
        self.xry = tabs["xry"]
        self._minrank_cache = {}

    def value(self, r):
        return self.scale[int(r)]

    def min_over(self, elems: frozenset) -> int:
        key = elems
        if key not in self._minrank_cache:
            self._minrank_cache[key] = int(min(self.pv[e] for e in elems))
        return self._minrank_cache[key]

    def elem(self, i):
        return self.ring.label(int(i))


def _ctx(P, grid=None) -> _Ctx:
    return _Ctx(P, grid)


# --------------------------------------------------------------------------
# Prime notions
# --------------------------------------------------------------------------

def prime_new_witness(P: FuzzyIdeal, ctx: _Ctx | None = None):
    """None if Inf P(xRy) = P(x) v P(y) everywhere; else a witness dict."""
    P.require_non_constant()
    if not P.ring.is_table:
        return _cut_witness(P, prime_witness, "prime")
    ctx = ctx or _ctx(P)
    tgt = np.maximum.outer(ctx.pv, ctx.pv)
    bad = np.argwhere(ctx.m != tgt)
    if len(bad) == 0:
        return None
    x, y = (int(v) for v in bad[0])
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "inf_P_xRy": str(ctx.value(ctx.m[x, y])),
            "P(x)_or_P(y)": str(ctx.value(tgt[x, y]))}


def is_prime_new(P: FuzzyIdeal, ctx=None) -> bool:
    return prime_new_witness(P, ctx) is None


def _cut_witness(P, crisp_witness, kind):
    """Check every chain cut above the bottom with a crisp oracle."""
    R = P.ring
    for ideal, value in P.chain[:-1]:
        w = crisp_witness(R, ideal)
        if w is not None:
            return {"cut_value": str(value), "kind": kind,
                    "cut_witness": _label_tuple(R, w)}
    return None


def _label_tuple(R, w):
    if isinstance(w, tuple):
        return [R.label(x) if R.is_table else str(x) for x in w]
    return R.label(w) if R.is_table else str(w)


def D2_witness(P: FuzzyIdeal):
    P.require_non_constant()
    return _cut_witness(P, prime_witness, "prime")


def is_D2(P: FuzzyIdeal) -> bool:
    return D2_witness(P) is None


def D3_witness(P: FuzzyIdeal, ctx=None):
    """D3 via the cut characterization (P_* prime), double-checked against
    the quantified definition on table rings."""
    P.require_non_constant()
    R = P.ring
    star_w = prime_witness(R, star_ideal(P))
    if R.is_table:
        # quantified form: P(xry) = P(0) for all r forces P(x) = P(0) or
        # P(y) = P(0) -- elementwise primeness (not complete primeness,
        # which diverges on noncommutative rings) of the top cut
        ctx = ctx or _ctx(P)
        top = ctx.rank[P.top]
        hyp = ctx.m == top
        concl = (ctx.pv[:, None] == top) | (ctx.pv[None, :] == top)
        quant_bad = np.argwhere(hyp & ~concl)
        if (len(quant_bad) > 0) != (star_w is not None):
            raise TheoremViolationError(
                "D3 quantified form disagrees with P_* primeness",
                details={"star_witness": star_w})
        if len(quant_bad) > 0:
            x, y = (int(v) for v in quant_bad[0])
            return {"x": ctx.elem(x), "y": ctx.elem(y)}
    if star_w is not None:
        return {"cut_value": str(P.top), "cut_witness": _label_tuple(R, star_w)}
    return None


def is_D3(P: FuzzyIdeal, ctx=None) -> bool:
    return D3_witness(P, ctx) is None


def D4_witness(P: FuzzyIdeal, ctx=None):
    P.require_non_constant()
    if not P.ring.is_table:
        return _cut_witness(P, completely_prime_witness, "completely prime")
    ctx = ctx or _ctx(P)
    M = ctx.pv[ctx.mul]
    ok = (M == ctx.pv[:, None]) | (M == ctx.pv[None, :])
    bad = np.argwhere(~ok)
    if len(bad) == 0:
        return None
    x, y = (int(v) for v in bad[0])
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "P(xy)": str(ctx.value(M[x, y])),
            "P(x)": str(ctx.value(ctx.pv[x])), "P(y)": str(ctx.value(ctx.pv[y]))}


def is_D4(P: FuzzyIdeal, ctx=None) -> bool:
    return D4_witness(P, ctx) is None


def D1_witness(P: FuzzyIdeal):
    """Characterization: two-valued, top value exactly 1, prime top cut.
    Also decides D1', D1L, D1R and D0'."""
    P.require_non_constant()
    if len(P.chain) != 2:
        return {"reason": f"{len(P.chain)}-valued, not two-valued"}
    if P.top != ONE:
        return {"reason": f"top value {P.top} != 1"}
    w = prime_witness(P.ring, star_ideal(P))
    if w is not None:
        return {"reason": "top cut not prime",
                "cut_witness": _label_tuple(P.ring, w)}
    return None


def is_D1(P: FuzzyIdeal) -> bool:
    return D1_witness(P) is None


def D0_witness(P: FuzzyIdeal, grid=None, ctx=None):
    """Singleton product x_t y_s = (xy)_{t^s}; quantifiers on the grid."""
    P.require_non_constant()
    if not P.ring.is_table:
        raise BackendError("D0 requires a table ring")
    ctx = ctx or _ctx(P, grid)
    n = ctx.ring.size
    pos = [t for t in ctx.grid_ranks if ctx.scale[t] > ZERO]
    pv, mul = ctx.pv, ctx.mul
    for x in range(n):
        for y in range(n):
            pxy = pv[mul[x, y]]
            for t in pos:
                if pv[x] >= t:
                    continue
                for s in pos:
                    if pv[y] < s and min(t, s) <= pxy:
                        return {"x": ctx.elem(x), "y": ctx.elem(y),
                                "t": str(ctx.value(t)), "s": str(ctx.value(s))}
    return None


def is_D0(P: FuzzyIdeal, grid=None, ctx=None) -> bool:
    return D0_witness(P, grid, ctx) is None


def D0prime_witness(P: FuzzyIdeal, grid=None, ctx=None):
    """<x_t><y_s> is t^s on the product ideal <x><y>; grid-quantified."""
    P.require_non_constant()
    if not P.ring.is_table:
        raise BackendError("D0' requires a table ring")
    ctx = ctx or _ctx(P, grid)
    R = ctx.ring
    pp = _principal_products(R)
    pos = [t for t in ctx.grid_ranks if ctx.scale[t] > ZERO]
    pv = ctx.pv
    for x in range(R.size):
        for y in range(R.size):
            mv = ctx.min_over(pp[(x, y)])
            for t in pos:
                if pv[x] >= t:
                    continue
                for s in pos:
                    if pv[y] < s and min(t, s) <= mv:
                        return {"x": ctx.elem(x), "y": ctx.elem(y),
                                "t": str(ctx.value(t)), "s": str(ctx.value(s))}
    return None


def is_D0prime(P: FuzzyIdeal, grid=None, ctx=None) -> bool:
    return D0prime_witness(P, grid, ctx) is None


def d1_falsify_search(P: FuzzyIdeal, grid=None, budget=DEFAULT_BUDGET):
    """Search fuzzy-ideal pairs (I, J) with IoJ <= P, I !<= P, J !<= P.

    Sound falsifier for D1 used to cross-validate the characterization:
    a witness must never exist when is_D1 holds.  Returns
    (witness-or-None, exhausted_flag).
    """
    from .corpus import enumerate_fuzzy_ideals
    R = P.ring
    if not R.is_table:
        raise BackendError("D1 falsification search requires a table ring")
    if grid is None:
        grid = value_grid(P)
    pvals = to_set(P).table
    cands = []
    not_below = []
    for I in enumerate_fuzzy_ideals(R, grid):
        arr = to_set(I).table
        cands.append((I, arr))
        not_below.append(any(a > p for a, p in zip(arr, pvals)))
    examined = 0
    for i, (I, ai) in enumerate(cands):
        if not not_below[i]:
            continue
        for j, (J, aj) in enumerate(cands):
            if not not_below[j]:
                continue
            examined += 1
            if examined > budget:
                return None, True
            comp = compose(to_set(I), to_set(J))
            if all(c <= p for c, p in zip(comp.table, pvals)):
                from .dsl import format_fuzzy
                return ({"I": format_fuzzy(I), "J": format_fuzzy(J)}, False)
    return None, False


# --------------------------------------------------------------------------
# Semiprime notions
# --------------------------------------------------------------------------

def semiprime_new_witness(P: FuzzyIdeal, ctx=None):
    """None if Inf P(xRx) = P(x) for all x; else witness."""
    P.require_non_constant()
    if not P.ring.is_table:
        return _cut_witness(P, semiprime_witness, "semiprime")
    ctx = ctx or _ctx(P)
    n = ctx.ring.size
    diag = ctx.m[np.arange(n), np.arange(n)]
    bad = np.argwhere(diag != ctx.pv)
    if len(bad) == 0:
        return None
    x = int(bad[0][0])
    return {"x": ctx.elem(x), "inf_P_xRx": str(ctx.value(diag[x])),
            "P(x)": str(ctx.value(ctx.pv[x]))}


def is_semiprime_new(P: FuzzyIdeal, ctx=None) -> bool:
    return semiprime_new_witness(P, ctx) is None


def SD2_witness(P: FuzzyIdeal):
    P.require_non_constant()
    return _cut_witness(P, semiprime_witness, "semiprime")


def is_SD2(P: FuzzyIdeal) -> bool:
    return SD2_witness(P) is None


def SD4_witness(P: FuzzyIdeal, ctx=None):
    P.require_non_constant()
    if not P.ring.is_table:
        # over Z (commutative) D4-semiprimeness = squarefree cuts
        return _cut_witness(P, semiprime_witness, "semiprime")
    ctx = ctx or _ctx(P)
    n = ctx.ring.size
    sq = ctx.pv[ctx.mul[np.arange(n), np.arange(n)]]
    bad = np.argwhere(sq != ctx.pv)
    if len(bad) == 0:
        return None
    x = int(bad[0][0])
    return {"x": ctx.elem(x), "P(x^2)": str(ctx.value(sq[x])),
            "P(x)": str(ctx.value(ctx.pv[x]))}


def is_SD4(P: FuzzyIdeal, ctx=None) -> bool:
    return SD4_witness(P, ctx) is None


def SD0prime_witness(P: FuzzyIdeal, grid=None, ctx=None):
    """<x_t>^2 <= P with x_t !<= P, singletons grid-quantified."""
    P.require_non_constant()
    if not P.ring.is_table:
        raise BackendError("D0'-semiprimeness requires a table ring")
    ctx = ctx or _ctx(P, grid)
    R = ctx.ring
    pp = _principal_products(R)
    for x in range(R.size):
        mv = ctx.min_over(pp[(x, x)])
        if mv > ctx.pv[x]:
            return {"x": ctx.elem(x), "t": str(ctx.value(mv))}
    return None


def is_SD0prime(P: FuzzyIdeal, grid=None, ctx=None) -> bool:
    return SD0prime_witness(P, grid, ctx) is None


def _lattice_minima_index(R: Ring):
    """Each lattice ideal's elements and its products {ab : a, b in J},
    packed for one ``np.minimum.reduceat`` over a rank vector."""
    def build():
        mul = _np_tables(R)["mul"]
        elems, prods = [], []
        for J in enumerate_ideals(R):
            idx = np.array(sorted(J.elems), dtype=np.int64)
            elems.append(idx)
            prods.append(np.unique(mul[np.ix_(idx, idx)]))

        def packed(parts):
            starts = np.cumsum([0] + [len(p) for p in parts[:-1]])
            return np.concatenate(parts), starts
        return {"elems": packed(elems), "prods": packed(prods)}
    return R.cached("lattice_minima_index", build)


def _chain_positions(R: Ring, max_len: int, bound: int | None = None):
    """``ideal_chains(R, max_len, bound)`` grouped by length: for each
    length m, the chains in order and an (N, m) array of their positions
    in ``enumerate_ideals(R, bound)``."""
    def build():
        pos = {J: i for i, J in enumerate(enumerate_ideals(R, bound))}
        by_len = {}
        for chain in ideal_chains(R, max_len, bound):
            by_len.setdefault(len(chain), []).append(chain)
        return {m: (chains, np.array([[pos[J] for J in c] for c in chains],
                                     dtype=np.int64))
                for m, chains in by_len.items()}
    return R.cached(("chain_positions", max_len, bound), build)


# cells of the (chains x value combinations x length) arrays per block
_BLOCK_CELLS = 1 << 16


def SD1_witness(P: FuzzyIdeal, grid=None, budget=DEFAULT_BUDGET, ctx=None):
    """Search for I with I^2 <= P and I !<= P over grid-valued fuzzy ideals.

    Grid-completeness of this reduction is assumed (no characterization
    available); the search is a sound falsifier either way.  Returns
    (witness-or-None, exhausted_flag).

    Candidates are the fuzzy ideals of ``enumerate_fuzzy_ideals(R, grid)``,
    tried in that order; only those with I !<= P count against the budget.
    A candidate with chain C1 < ... < Cm = R and values c1 > ... > cm
    takes the value ck on Ck minus C(k-1), and min(I(a), I(b)) = ck for
    the least k with a, b in Ck.  Hence, exactly,

        I o I <= P  iff  ck <= min{P(ab) : a, b in Ck}  for every k,
        I !<= P     iff  ck >  min{P(x)  : x in Ck}     for some k.

    Both minima are computed once per lattice ideal, and every chain is
    tested against all value combinations at once, in integer ranks on
    grid + image(P).  A given ``ctx`` supplies those ranks and the grid.
    """
    R = P.ring
    if not R.is_table:
        raise BackendError("D1-semiprimeness search requires a table ring")
    ctx = ctx or _ctx(P, grid)
    values = sorted((Fraction(v) for v in set(ctx.grid)), reverse=True)
    value_ranks = np.array([ctx.rank[v] for v in values], dtype=np.int64)
    index = _lattice_minima_index(R)
    floor = np.minimum.reduceat(ctx.pv[index["elems"][0]], index["elems"][1])
    square = np.minimum.reduceat(ctx.pv[index["prods"][0]], index["prods"][1])
    examined = 0
    for m, (chains, positions) in sorted(
            _chain_positions(R, len(values)).items()):
        if m < 2:
            continue
        combos = np.array(list(itertools.combinations(range(len(values)), m)),
                          dtype=np.int64)
        ranks = value_ranks[combos][None, :, :]
        step = max(1, _BLOCK_CELLS // ranks.size)
        for start in range(0, len(positions), step):
            block = positions[start:start + step]
            not_below = (ranks > floor[block][:, None, :]).any(axis=2).ravel()
            square_ok = (ranks <= square[block][:, None, :]).all(axis=2).ravel()
            hits = np.flatnonzero(not_below & square_ok)
            if len(hits):
                h = int(hits[0])
                if examined + np.count_nonzero(not_below[:h + 1]) > budget:
                    return None, True
                chain = chains[start + h // len(combos)]
                combo = (values[k] for k in combos[h % len(combos)])
                from .dsl import format_fuzzy
                return {"I": format_fuzzy(
                    FuzzyIdeal(R, tuple(zip(chain, combo))))}, False
            examined += np.count_nonzero(not_below)
            if examined > budget:
                return None, True
    return None, False


def _semiprime_chains(R: Ring, max_len: int, bound: int | None = None):
    """The chains of ``_chain_positions(R, max_len, bound)`` of length at
    least 2 on which fuzzy ideals are semiprime: for each length m, the
    chains in order, their positions and whether they also carry primes.

    Both flags come from ``is_semiprime_new``/``is_prime_new`` on one
    value assignment per chain, which decides every assignment (L2 in
    :func:`semiprimes_above`).
    """
    def build():
        out = {}
        for m, (chains, positions) in _chain_positions(
                R, max_len, bound).items():
            if m < 2:
                continue
            values = [Fraction(m - 1 - k, m - 1) for k in range(m)]
            keep, prime = [], []
            for i, chain in enumerate(chains):
                Q = FuzzyIdeal(R, tuple(zip(chain, values)))
                ctx = _ctx(Q) if R.is_table else None
                if is_semiprime_new(Q, ctx):
                    keep.append(i)
                    prime.append(is_prime_new(Q, ctx))
            if keep:
                out[m] = ([chains[i] for i in keep], positions[keep],
                          np.array(prime, dtype=bool))
        return out
    return R.cached(("semiprime_chains", max_len, bound), build)


def semiprimes_above(I: FuzzyIdeal, grid, bound: int | None = None):
    """Yield (Q, prime) for every semiprime fuzzy ideal Q >= I among
    ``enumerate_fuzzy_ideals(I.ring, grid, bound)``, in that order;
    ``prime`` tells whether Q is also prime.  Nothing else is built.

    Take a candidate Q with chain C1 < ... < Cm = R and values
    c1 > ... > cm, and set C0 = {} (the empty set).  Two exact facts:

    (L1) Q >= I  iff  ck >= max{v : (C, v) in I.chain, C not inside
         C(k-1)} for every k; for k = 1 this reads c1 >= I(0).  Q takes ck on
         Ck minus C(k-1) and its values decrease, so Q >= I iff ck bounds
         I on the complement of C(k-1); there I's largest value is its
         value at the least chain ideal of I not inside C(k-1).
    (L2) Whether Q is semiprime, and whether it is prime, depends on the
         chain alone, not on its values.  On table rings the Inf-forms
         compare Q's values only by order (min, max and equality), and
         those values are a strictly decreasing image of the level
         index.  Over Z both are decided by the cuts above the bottom,
         which are C1, ..., C(m-1).

    By L2 the chains and their flags are taken once per ring from
    :func:`_semiprime_chains`.  By L1 each lattice ideal gets one
    threshold per call, found with ``CrispIdeal.subset`` (so both
    backends work), and every chain is tested against all value
    combinations at once, in integer ranks on grid + image(I).
    """
    R = I.ring
    values = sorted((Fraction(v) for v in set(grid)), reverse=True)
    rank = {v: i for i, v in enumerate(sorted(set(values) | set(I.values)))}
    value_ranks = np.array([rank[v] for v in values], dtype=np.int64)
    # the L1 threshold above each lattice ideal C, when C is C(k-1);
    # -1 (no bound) for the whole ring, which every chain ideal is inside
    threshold = np.array(
        [next((rank[v] for D, v in I.chain if not D.subset(C)), -1)
         for C in enumerate_ideals(R, bound)], dtype=np.int64)
    top = rank[I.top]
    for m, (chains, positions, prime) in sorted(
            _semiprime_chains(R, len(values), bound).items()):
        combos = np.array(list(itertools.combinations(range(len(values)), m)),
                          dtype=np.int64)
        ranks = value_ranks[combos][None, :, :]
        step = max(1, _BLOCK_CELLS // ranks.size)
        for start in range(0, len(positions), step):
            block = positions[start:start + step]
            need = np.empty_like(block)
            need[:, 0] = top
            need[:, 1:] = threshold[block[:, :-1]]
            above = (ranks >= need[:, None, :]).all(axis=2).ravel()
            for h in np.flatnonzero(above):
                c = start + int(h) // len(combos)
                combo = (values[k] for k in combos[int(h) % len(combos)])
                yield FuzzyIdeal(R, tuple(zip(chains[c], combo))), \
                    bool(prime[c])


def is_SD1(P: FuzzyIdeal, grid=None, budget=DEFAULT_BUDGET) -> bool:
    """Raises ResourceLimitError when the search exhausts its budget."""
    witness, exhausted = SD1_witness(P, grid, budget)
    if exhausted:
        raise ResourceLimitError(
            f"SD1 search exhausted its budget of {budget} candidates")
    return witness is None


# --------------------------------------------------------------------------
# Characterization and structure checks
# --------------------------------------------------------------------------

def charprime_equivalence_check(P: FuzzyIdeal, grid=None) -> dict:
    """Four-way equivalence: Inf-form, prime cuts, prime quotients and the
    grid-quantified fuzzy-ideal test; plus D4 agreement when commutative.

    Raises TheoremViolationError on any disagreement.
    """
    R = P.ring
    if not R.is_table:
        raise BackendError("the equivalence check requires a table ring")
    P.require_non_constant()
    ctx = _ctx(P, grid)

    a = is_prime_new(P, ctx)
    b = D2_witness(P) is None
    c = _quotients_prime(P)
    d = _ideal_test(P, ctx)

    report = {"inf_form": a, "prime_cuts": b, "prime_quotients": c,
              "ideal_test": d}
    if not (a == b == c == d):
        raise TheoremViolationError(
            "characterization equivalence failed", details=report)
    if R.commutative:
        d4 = is_D4(P, ctx)
        report["D4"] = d4
        if d4 != a:
            raise TheoremViolationError(
                "commutative D4 equivalence failed", details=report)
    return report


def _quotients_prime(P: FuzzyIdeal) -> bool:
    R = P.ring
    for ideal, _ in P.chain[:-1]:
        Q = R.cached(("quotient", ideal), lambda i=ideal: quotient_ring(R, i))
        if not is_prime_ideal(Q, crisp.zero_ideal(Q)):
            return False
    return True


def _ideal_test(P: FuzzyIdeal, ctx: _Ctx) -> bool:
    """Condition (d) over the threshold family I_t = max(P, t), t on the grid.

    The family is complete: the textbook counterexample to (d), when the
    Inf-form fails, is exactly such a threshold ideal for a value
    strictly between P(x) v P(y) and Inf P(xRy), and the grid midpoints
    realize every such strict interval.
    """
    n = ctx.ring.size
    for t in ctx.grid_ranks:
        iv = np.maximum(ctx.pv, t)
        hyp = (iv[ctx.xry] <= ctx.pv[ctx.xry]).all(axis=1).reshape(n, n)
        gt = iv > ctx.pv
        if (hyp & gt[:, None] & gt[None, :]).any():
            return False
    return True


def minimal_prime_below(Q: FuzzyIdeal) -> FuzzyIdeal:
    """Two-valued minimal prime fuzzy ideal below a prime fuzzy ideal."""
    if not is_prime_new(Q):
        raise ValueError("input must be a prime fuzzy ideal")
    R = Q.ring
    if R.is_table:
        cands = [P for P in minimal_primes(R) if P.subset(star_ideal(Q))]
        if not cands:
            raise TheoremViolationError(
                "a prime top cut contains a minimal prime")
        P = cands[0]
    else:
        P = crisp.zero_ideal(R)  # the unique minimal prime of Z
    out = FuzzyIdeal(R, ((P, Q.top), (crisp.whole_ideal(R), Q.bottom)))
    if not out.le(Q):
        raise TheoremViolationError("minimal prime below exceeds its input")
    if not is_prime_new(out):
        raise TheoremViolationError("minimal prime below is not prime")
    if not value_equivalent(out, characteristic(P)):
        raise TheoremViolationError(
            "minimal prime below is not value-equivalent to its crisp prime")
    return out


def count_minimal_prime_classes(R: Ring) -> int:
    """One value-equivalence class of minimal prime fuzzy ideals per
    minimal crisp prime."""
    return len(minimal_primes(R))


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

TABLE_NOTIONS = ("D0", "D0'", "D1", "D1L", "D1R", "D2", "D3", "D4",
                 "PRIME_NEW", "SD0'", "SD1", "SD2", "SD4", "SEMIPRIME_NEW")
INT_NOTIONS = ("D0'", "D1", "D1L", "D1R", "D2", "D3", "D4", "PRIME_NEW",
               "SD2", "SD4", "SEMIPRIME_NEW")


def classify(P: FuzzyIdeal, grid=None, budget=DEFAULT_BUDGET):
    """Full truth table of all notions, with witnesses for the false ones.

    SD1 is None (unknown) when its search exhausts ``budget``; its
    witness entry then records the status and the candidates examined.

    Internal cross-assertions (D0' = D1, PRIME_NEW = D2, SD2 agreement,
    commutative D4 agreement) raise TheoremViolationError on failure.
    """
    P.require_non_constant()
    R = P.ring
    notions, witnesses = {}, {}

    def record(name, witness):
        notions[name] = witness is None
        if witness is not None:
            witnesses[name] = witness

    d1_w = D1_witness(P)
    record("D1", d1_w)
    record("D1L", d1_w)
    record("D1R", d1_w)
    record("D2", D2_witness(P))

    if R.is_table:
        ctx = _ctx(P, grid)
        record("PRIME_NEW", prime_new_witness(P, ctx))
        record("D3", D3_witness(P, ctx))
        record("D4", D4_witness(P, ctx))
        record("D0", D0_witness(P, ctx=ctx))
        record("D0'", D0prime_witness(P, ctx=ctx))
        record("SEMIPRIME_NEW", semiprime_new_witness(P, ctx))
        record("SD2", SD2_witness(P))
        record("SD4", SD4_witness(P, ctx))
        record("SD0'", SD0prime_witness(P, ctx=ctx))
        sd1_w, exhausted = SD1_witness(P, grid, budget, ctx)
        if exhausted:
            notions["SD1"] = None
            witnesses["SD1"] = {"status": "unknown", "examined": budget}
        else:
            record("SD1", sd1_w)
    else:
        record("PRIME_NEW", prime_new_witness(P))
        record("D3", D3_witness(P))
        record("D4", D4_witness(P))
        # Zahedi's equivalence D0' = D1 holds over any ring with unity
        record("D0'", d1_w)
        record("SEMIPRIME_NEW", semiprime_new_witness(P))
        record("SD2", SD2_witness(P))
        record("SD4", SD4_witness(P))

    _cross_assert(P, notions)
    return notions, witnesses


def _cross_assert(P, notions):
    checks = [
        ("D0' vs D1", notions["D0'"] == notions["D1"]),
        ("PRIME_NEW vs D2", notions["PRIME_NEW"] == notions["D2"]),
        ("SEMIPRIME_NEW vs SD2", notions["SEMIPRIME_NEW"] == notions["SD2"]),
    ]
    if P.ring.commutative:
        checks.append(("commutative PRIME_NEW vs D4",
                       notions["PRIME_NEW"] == notions["D4"]))
        checks.append(("commutative SEMIPRIME_NEW vs SD4",
                       notions["SEMIPRIME_NEW"] == notions["SD4"]))
    for name, ok in checks:
        if not ok:
            raise TheoremViolationError(f"equivalence failed: {name}",
                                        details=notions)


# --------------------------------------------------------------------------
# Implication diagrams
# --------------------------------------------------------------------------

# (source, target, commutative_only) -- the asserted arrows
PRIME_EDGES = [
    ("D1", "D2", False),
    ("D0", "D0'", False),
    ("D4", "D2", False),
    ("D2", "D3", False),
    ("D2", "D4", True),
    ("D1", "D4", True),
]
SEMIPRIME_EDGES = [
    ("SD1", "SD2", False),
    ("SD4", "SD2", False),
    ("SD2", "SD4", True),
    ("SD4", "SD1", True),
]
# reverse directions for which we collect corpus counterexamples
PROBED_NON_IMPLICATIONS = [
    ("D2", "D1"), ("D3", "D2"), ("D2", "D4"), ("D0'", "D0"),
    ("SD2", "SD1"), ("SD2", "SD4"),
]


def diagram_check(corpus, grid=None, budget=DEFAULT_BUDGET,
                  notions_list=None) -> dict:
    """Verify Figure-style implication diagrams over a corpus.

    Asserted implications raise TheoremViolationError when violated.
    For the probed reverse directions a counterexample (if any exists in
    the corpus) is reported.  The D0 arrows that the source material
    leaves ambiguous on commutative rings are reported, never asserted.
    ``notions_list`` can supply precomputed classify() outputs (e.g. from
    a worker pool); order must match the corpus.  A notion that is
    unknown (None, an exhausted SD1 search) neither proves nor refutes
    an edge.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if notions_list is None:
        notions_list = [classify(P, grid, budget)[0] for P in corpus]
    rows = [(idx, P, notions)
            for idx, (P, notions) in enumerate(zip(corpus, notions_list))]

    edges = []
    commutative = corpus[0].ring.commutative

    def check_edge(src, dst, comm_only):
        if comm_only and not commutative:
            return
        for idx, P, notions in rows:
            if _refutes(notions, src, dst):
                from .dsl import format_fuzzy
                raise TheoremViolationError(
                    f"implication {src} => {dst} violated",
                    details={"fuzzy": format_fuzzy(P), "index": idx})
        edges.append({"edge": f"{src}=>{dst}", "status": "implied"})

    for src, dst, comm_only in PRIME_EDGES + SEMIPRIME_EDGES:
        check_edge(src, dst, comm_only)

    # equivalences asserted per item inside classify(); record them
    edges.append({"edge": "D0'<=>D1", "status": "implied"})
    edges.append({"edge": "PRIME_NEW<=>D2", "status": "implied"})
    edges.append({"edge": "D4<=>completely-prime-cuts", "status": "implied"})
    _d4_cut_assert(rows)

    for src, dst in PROBED_NON_IMPLICATIONS:
        witness = None
        for idx, P, notions in rows:
            if _refutes(notions, src, dst):
                from .dsl import format_fuzzy
                witness = {"fuzzy": format_fuzzy(P), "index": idx}
                break
        if witness is not None:
            edges.append({"edge": f"{src}=>{dst}", "status": "counterexample",
                          "witness": witness})
        else:
            edges.append({"edge": f"{src}=>{dst}", "status": "implied"})

    # reported-only D0 arrow on commutative rings (convention-dependent)
    if commutative:
        flagged = []
        for idx, P, notions in rows:
            if "D0" in notions and notions["D0'"] and not notions["D0"]:
                from .dsl import format_fuzzy
                flagged.append({"fuzzy": format_fuzzy(P), "index": idx})
        edges.append({"edge": "D0'=>D0 (commutative, reported only)",
                      "status": "counterexample" if flagged else "implied",
                      **({"witness": flagged[0]} if flagged else {})})

    return {"corpus_size": len(rows), "diagram": edges}


def _refutes(notions, src, dst) -> bool:
    """src holds and dst fails; absent or unknown (None) notions never do."""
    return notions.get(src) is True and notions.get(dst) is False


def _d4_cut_assert(rows):
    for idx, P, notions in rows:
        if "D4" not in notions:
            continue
        cuts_cp = _cut_witness(P, completely_prime_witness, "cp") is None
        if notions["D4"] != cuts_cp:
            raise TheoremViolationError(
                "D4 disagrees with completely prime cuts", details={"index": idx})
