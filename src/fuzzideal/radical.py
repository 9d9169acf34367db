"""The fuzzy prime radical and its verification pipelines.

FRad(I)(x) = sup{t : x in Rad(I_t)} is computed structurally: radicalize
every chain ideal and merge collapsed levels keeping the larger value
(the sup picks the larger value when two cuts radicalize to the same
ideal).  The intersection characterizations -- FRad = intersection of
all prime (or semiprime) fuzzy ideals above I -- are verified, not
computed, by generating the grid-valued witnesses above the ideal plus
the explicit prime-avoiding construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crisp import (CrispIdeal, avoiding_positions, crisp_radical,
                    enumerate_ideals, factorize, lattice_members,
                    lattice_positions, prime_avoiding, subset_matrix)
from .errors import TheoremViolationError
from .fuzzy import (FuzzyIdeal, cut, intersect, probe_elements, whole_ideal,
                    zero_type)
from .primeness import (is_prime_new, is_semiprime_new, least_members,
                        member_count, value_grid)
from .rings import Ring


DEFAULT_BOUND = 64  # the least default generator bound over Z


@dataclass(frozen=True)
class RadicalReport:
    source: FuzzyIdeal
    radical: FuzzyIdeal
    trace: tuple  # (element label, levels with x in Rad(I_t), sup)
    fixed_point: bool


def frad(I: FuzzyIdeal) -> FuzzyIdeal:
    """The fuzzy prime radical, as a canonical chain."""
    I.require_non_constant()
    R = I.ring
    chain = []
    for ideal, value in I.chain:
        rad = crisp_radical(R, ideal)
        if chain and chain[-1][0] == rad:
            continue  # collapsed level: keep the larger (earlier) value
        chain.append((rad, value))
    out = FuzzyIdeal(R, tuple(chain))
    if not (out.top == I.top and out.bottom == I.bottom):
        raise TheoremViolationError("FRad moved the top or bottom value")
    return out


def radical_report(I: FuzzyIdeal) -> RadicalReport:
    """FRad plus a per-element trace of the defining sup formula."""
    F = frad(I)
    R = I.ring
    trace = []
    for x in probe_elements(I, F):
        levels = [v for c, v in I.chain if crisp_radical(R, c).contains(x)]
        sup = max(levels)
        if sup != F(x):
            raise TheoremViolationError(
                "trace sup disagrees with the radical chain",
                details={"x": R.label(x)})
        trace.append((R.label(x), tuple(str(v) for v in levels), str(sup)))
    return RadicalReport(I, F, tuple(trace),
                         fixed_point=(F.chain == I.chain))


def witness_prime_excluding(I: FuzzyIdeal, x, s) -> FuzzyIdeal:
    """A prime fuzzy ideal P >= I with P(x) = s, via a prime ideal
    containing Rad(I_s) but avoiding x.

    Per element: s is below I(0), x lies outside Rad(I_s), and M is the
    memoized ``prime_avoiding`` ideal.  Per prime, in
    :func:`_prime_above`: P = {(M, I(0)), (R, s)} is prime (decided once
    per ring and P) and above I.  Per element again: P(x) = s.
    :func:`frad_intersection_check` finds the (M, s) of all its elements
    at once in :func:`_witness_pairs`, where P(x) = s is x outside M, and
    builds each distinct P once per item.
    """
    s = Fraction(s)
    R = I.ring
    if not s < I.top:
        raise ValueError("s must be below I(0)")
    base = crisp_radical(R, cut(I, s))
    if base.contains(x):
        raise ValueError("x must lie outside Rad(I_s)")
    P = _prime_above(I, prime_avoiding(R, base, x), s)
    if P(x) != s:
        raise TheoremViolationError(_WITNESS_FAILED,
                                    details={"x": R.label(x)})
    return P


_WITNESS_FAILED = "prime-avoiding witness is not a prime above I with P(x) = s"


def _prime_above(I: FuzzyIdeal, M, s) -> FuzzyIdeal:
    """P = {(M, I(0)), (R, s)}, checked to be a prime fuzzy ideal above I.

    P's primeness is memoized per ring and distinct P, which M and its
    two values determine: the same few witnesses recur across the items
    of a check.  The key holds the values as integer ratios, which hash
    as ints.
    """
    R = I.ring
    P = FuzzyIdeal(R, ((M, I.top), (whole_ideal(R), s)))
    key = ("witness_is_prime_new", M, I.top.as_integer_ratio(),
           s.as_integer_ratio())
    if not (s < I.top and R.cached(key, lambda: is_prime_new(P))
            and I.le(P)):
        raise TheoremViolationError(_WITNESS_FAILED)
    return P


def _first_difference(F: FuzzyIdeal, G: FuzzyIdeal):
    """An element where F and G differ, or None when they are equal."""
    return next((x for x in probe_elements(F, G) if F(x) != G(x)), None)


def _cut_radicals(I: FuzzyIdeal, levels) -> list:
    """Rad(I_s) for every grid rank s from 0 up to I(0)'s, ``levels[0]``,
    indexed by s; ``levels`` holds the grid ranks of I's level values.

    I_s is I's ideal at its last level of rank at least s, so walking the
    ranks upward moves that level up the chain, and the radicals are
    taken once per level.
    """
    R = I.ring
    radicals = [crisp_radical(R, C) for C in I.ideals]
    level = len(levels) - 1
    out = []
    for s in range(levels[0] + 1):
        while levels[level] < s:
            level -= 1
        out.append(radicals[level])
    return out


def _probe_masks(R: Ring, ideals, probes):
    """The (len(ideals), len(probes)) boolean matrix of
    ``probes[p] in ideals[i]``: rows of :func:`lattice_members` on table
    rings, whose probes are all the elements; divisibility over Z."""
    if R.is_table:
        pos = lattice_positions(R)
        return lattice_members(R)[[pos[C] for C in ideals]]
    return np.array([[x % C.gen == 0 if C.gen else x == 0 for x in probes]
                     for C in ideals], dtype=bool)


def _witness_pairs(I: FuzzyIdeal, F: FuzzyIdeal, grid, flevels) -> tuple:
    """The lower-bound witness pair (M, s) of every probe element x with
    F(x) = FRad(I)(x) below the top: ``(below, keys, pairs)``, the
    positions of those x in ``probe_elements(I, F)``, a key for each, and
    a dict from each distinct key, in order of first use, to its pair.

    ``grid`` is ``value_grid(I)``, and ``flevels`` the grid ranks of F's
    level values; s, the least grid value above F(x) with x outside
    Rad(I_s), leaves as a Fraction.  The next image value v of I above
    F(x) has x outside Rad(I_v), and so does the midpoint of F(x) and v,
    so s is below I(0).  The ranks come from one mask over the probes of
    F's chain ideals and of the cut radicals (:func:`_cut_radicals`).  M
    is ``prime_avoiding(R, Rad(I_s), x)``, on table rings read from
    ``crisp.avoiding_positions``.  P = {(M, I(0)), (R, s)} takes the value
    s exactly outside M, so P(x) = s for all x is one mask test.
    """
    R = I.ring
    radicals = _cut_radicals(I, grid.levels)
    width = len(radicals)  # ranks 0, ..., width - 1, that of I(0) = F(0)
    probes = probe_elements(I, F)
    member = _probe_masks(R, [*F.ideals, *radicals], probes)
    frank = np.array(flevels)[member[:len(flevels)].argmax(axis=0)]
    below = np.flatnonzero(frank < width - 1)
    outside = ~member[len(flevels):, below] & (np.arange(width)[:, None]
                                               > frank[below])
    found = outside.any(axis=0)
    if not found.all():
        p = int(below[found.argmin()])
        raise TheoremViolationError(
            "no grid value above FRad(I)(x) leaves x outside the cut radical",
            details={"x": R.label(probes[p]), "frad": str(grid[frank[p]]),
                     "grid": [str(v) for v in grid[:width]]})
    level = outside.argmax(axis=0)

    if R.is_table:
        ideals, masks = enumerate_ideals(R), lattice_members(R)
        avoiding = np.array([avoiding_positions(R, rad)
                             for rad in radicals])
        index = avoiding[level, below]
    else:
        avoid = [prime_avoiding(R, radicals[j], probes[p])
                 for p, j in zip(below.tolist(), level.tolist())]
        ideals = list(dict.fromkeys(avoid))
        pos = {M: i for i, M in enumerate(ideals)}
        index = np.array([pos[M] for M in avoid], dtype=np.intp)
        masks = _probe_masks(R, ideals, probes)
    inside = masks[index, below]
    if inside.any():
        p = int(below[inside.argmax()])
        raise TheoremViolationError(_WITNESS_FAILED,
                                    details={"x": R.label(probes[p])})
    keys = (index * width + level).tolist()
    pairs = {k: (ideals[k // width], grid[k % width])
             for k in dict.fromkeys(keys)}
    return below, keys, pairs


def _ranked(F: FuzzyIdeal, levels) -> tuple:
    """F's cut chain with each value replaced by its rank, ``levels``
    holding the ranks of F's level values."""
    return tuple(zip(F.ideals, levels))


def _meet(R: Ring, bound, positions, index, size) -> tuple:
    """The cut chain, in rank form, of the infimum of the fuzzy ideals
    with lattice positions ``positions[c]`` and increasing indices
    ``index[c]`` into the descending grid of ``size`` values, both
    right-padded (``index`` from ``size`` up).

    As in ``fuzzy.intersect``, its alpha-cut meets the members' alpha-cuts
    (their ideals at their last levels valued at least alpha), for alpha
    up to the least top value; a repeated cut adds no level.  On table
    rings a meet is the last lattice position inside every cut, from one
    "not inside" product of ``subset_matrix`` columns; over Z, position n
    is nZ and the meet is the lcm, a fresh ideal past the bound.
    """
    alphas = np.arange(index[:, 0].max(), size)
    last = (index[:, :, None] <= alphas).sum(axis=1) - 1
    cuts = positions[np.arange(len(positions))[:, None], last]  # (N, A)
    lattice = enumerate_ideals(R, bound)
    if R.is_table:
        used = np.zeros(len(lattice), dtype=bool)
        used[cuts.ravel()] = True
        held = np.zeros((len(alphas), used.sum()), dtype=np.float32)
        held[np.arange(len(alphas)), (np.cumsum(used) - 1)[cuts]] = 1
        # outside[q, a]: the cuts at alphas[a] that lattice[q] is not inside
        outside = (~subset_matrix(R)[:, used]).astype(np.float32) @ held.T
        meets = (len(lattice) - 1
                 - (outside[::-1] == 0).argmax(axis=0)).tolist()
    else:
        meets = [math.lcm(*set(column)) for column in cuts.T.tolist()]
    chain = []
    for q, a in zip(meets, alphas.tolist()):
        if not chain or chain[-1][0] != q:
            chain.append((q, size - 1 - a))
    return tuple((lattice[q] if q < len(lattice) else CrispIdeal(R, gen=q), r)
                 for q, r in chain)


def _family_meets(I: FuzzyIdeal, grid, bound) -> tuple:
    """``(prime_count, semiprime_count, F2, F1)`` for the grid-valued
    semiprimes above I, ``grid`` being ``value_grid(I)``: the numbers of
    primes and of all members, and the meets of the primes (F2) and of
    all members (F1) as cut chains of ranks (None for no member).

    The family is never materialized: each chain gives its least member
    (:func:`least_members`) and number of members (:func:`member_count`).
    A member's alpha-cut is its chain ideal at its last level valued at
    least alpha; the least member's values are at most the member's, so
    its level is no later on the nested chain and its alpha-cut inside
    the member's.  So the family's meet is that of the least members
    (:func:`_meet`), the primes' that over the chains carrying primes.

    Memoized per ring and rank pattern K = (I's chain ideals, the ranks
    ``grid.levels`` of I's values, the grid's length, ``bound``): the
    least members read I through K alone (L1), the chain flags depend on
    the ring and ``bound`` (L2), and ``_meet`` reads value indices only.
    """
    R = I.ring

    def build():
        positions, index, prime = least_members(I, grid, bound)
        size = len(grid)
        counts = [member_count(tuple(i for i in row if i < size))
                  for row in index.tolist()]
        prime_count = sum(itertools.compress(counts, prime.tolist()))
        return (prime_count, sum(counts), *(
            _meet(R, bound, positions[f], index[f], size) if n else None
            for f, n in ((prime, prime_count), (slice(None), len(counts)))))
    return R.cached(("frad_family", _ranked(I, grid.levels), len(grid), bound),
                    build)


def _meet_difference(F: FuzzyIdeal, ranked, meet, grid):
    """The rank-form meet ``meet`` of :func:`_family_meets` as a fuzzy
    ideal G, and an element where F and G differ; (None, None) when F,
    whose chain in rank form is ``ranked``, is the meet."""
    if ranked == meet:
        return None, None
    G = FuzzyIdeal(F.ring, tuple((C, grid[r]) for C, r in meet))
    return G, _first_difference(F, G)


def _z_bound(I: FuzzyIdeal, bound):
    """The generator bound of an intersection check on I over Z, by
    default max(DEFAULT_BOUND, I's generators); table rings keep
    ``bound``.  An explicit bound below a prime factor p of a nonzero
    generator raises ValueError: the lattice {nZ : n <= bound} lacks
    pZ, so its primes above I would meet in less than FRad(I).  The CLI
    never raises it, as its corpora never exceed ``--bound``.
    """
    if I.ring.is_table:
        return bound
    gens = [C.gen for C in I.ideals]
    if bound is None:
        return max(DEFAULT_BOUND, *gens)
    for g in gens:
        p = factorize(g)[-1][0] if g > 1 else 0
        if p > bound:
            raise ValueError(
                f"the generator {g} has the prime factor {p} above the "
                f"bound {bound}; raise the bound to at least {p}")
    return bound


def frad_intersection_check(I: FuzzyIdeal, bound: int | None = None) -> dict:
    """Assert FRad(I) = intersection of the prime fuzzy ideals above I
    valued on ``value_grid(I)`` = same with semiprime witnesses; plus
    explicit prime-avoiding lower-bound witnesses per element.

    The families are generated, not filtered, from one least member per
    chain (:func:`_family_meets`).  The chains' semiprime and prime flags
    come from the crisp cut witnesses, and the Inf-forms confirm every
    kept chain once, so the check does not rest on the cut radicals that
    :func:`frad` uses.

    The work is split by what it depends on:

    - per image of I: the grid and its ranks (``value_grid``), where
      Fractions enter;
    - per rank pattern of I (:func:`_family_meets`): the least members,
      the family's sizes and both meets, memoized per ring;
    - per ring and semiprime ideal: the prime-avoiding ideal of every
      element outside it (``crisp.avoiding_positions``, table rings);
    - per item: FRad(I), compared with both meets in rank form, and each
      element's witness pair (M, s) (:func:`_witness_pairs`);
    - per distinct (M, s) of the item: P = {(M, I(0)), (R, s)} is prime
      (memoized per ring) and above I.

    Fractions leave only in the witnesses, a reported difference and the
    reports.
    """
    I.require_non_constant()
    bound = _z_bound(I, bound)
    R = I.ring
    grid = value_grid(I)
    F3 = frad(I)
    # FRad keeps some of I's levels; a value off the grid ranks None
    flevels = tuple(map(grid.rank.get, F3.values))
    ranked = _ranked(F3, flevels)

    prime_count, semiprime_count, *meets = _family_meets(I, grid, bound)
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above I")
    for name, meet in zip(("F2", "F1"), meets):
        F, bad = _meet_difference(F3, ranked, meet, grid)
        if bad is not None:
            raise TheoremViolationError(
                f"FRad != {name}",
                details={"x": str(bad), "frad": str(F3(bad)),
                         name: str(F(bad))})

    # lower-bound direction: explicit prime witnesses excluding each element
    below, _, pairs = _witness_pairs(I, F3, grid, flevels)
    for M, s in pairs.values():
        _prime_above(I, M, s)
    return {"frad_equals_prime_intersection": True,
            "frad_equals_semiprime_intersection": True,
            "prime_count": prime_count,
            "semiprime_count": semiprime_count,
            "lower_bound_witnesses": len(below)}


def semiprime_intersection_check(P: FuzzyIdeal, bound: int | None = None,
                                 pair_cap: int = 200) -> dict:
    """Theorem-style check: a semiprime fuzzy ideal is the intersection
    of the primes above it valued on ``value_grid(P)``, and finite
    intersections of primes are semiprime.

    The prime meet is read from the rank-pattern memo of
    :func:`_family_meets` and compared in rank form.  The pair loop
    (:func:`_prime_pairs_checked`) is memoized beside it, per ring, rank
    pattern and ``pair_cap``: the pattern fixes the family's first
    primes, and each pair's meet is taken on value indices, so the
    pattern fixes its chain of ideals too, all ``is_semiprime_new``
    reads.
    """
    bound = _z_bound(P, bound)
    if not is_semiprime_new(P):
        raise ValueError("input must be semiprime")
    R = P.ring
    grid = value_grid(P)
    # every prime fuzzy ideal is semiprime, so no prime above P is missed
    prime_count, _, prime_meet, _ = _family_meets(P, grid, bound)
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above P")
    ranked = _ranked(P, grid.levels)
    _, bad = _meet_difference(P, ranked, prime_meet, grid)
    if bad is not None:
        raise TheoremViolationError(
            "semiprime ideal differs from its prime intersection",
            details={"x": str(bad)})
    checked = R.cached(
        ("inter_pairs", ranked, len(grid), bound, pair_cap),
        lambda: _prime_pairs_checked(R, bound, pair_cap, grid,
                                     least_members(P, grid, bound)))
    return {"prime_count": prime_count, "pairs_checked": checked,
            "equals_intersection": True}


def _primes(positions, index, prime):
    """Yield the primes above I from its ``least_members``, as (chain
    positions, value indices) tuples, in ``enumerate_fuzzy_ideals``
    order: by chain, then by combination, every index at most the least
    member's."""
    for chain, bounds in zip(positions[prime].tolist(),
                             index[prime].tolist()):
        m = sum(p >= 0 for p in chain)
        for combo in itertools.combinations(range(bounds[m - 1] + 1), m):
            if all(i <= b for i, b in zip(combo, bounds)):
                yield tuple(chain[:m]), combo


def _prime_pairs_checked(R: Ring, bound, pair_cap, grid, least) -> int:
    """Check that the meets (:func:`_meet`) of the first ``pair_cap``
    pairs of primes above P, from its ``least_members`` ``least`` on
    ``grid``, are semiprime; return the number of pairs checked.

    Each pair's answer is memoized per ring and bound, keyed by the two
    chains' lattice positions and the ranks of their value indices among
    the indices of both: ``_meet`` only compares value indices, so these
    ranks fix the meet's chain of ideals, and ``is_semiprime_new`` of the
    meet depends on that chain alone.
    """
    size = len(grid)
    # the first pair_cap pairs of combinations() need pair_cap + 1 primes
    first = list(itertools.islice(_primes(*least), pair_cap + 1))

    def semiprime_meet(*pair):
        width = max(len(p) for p, _ in pair)
        positions = np.array([p + (-1,) * (width - len(p)) for p, _ in pair])
        index = np.array([i + (size,) * (width - len(i)) for _, i in pair])
        meet = _meet(R, bound, positions, index, size)
        return is_semiprime_new(FuzzyIdeal(
            R, tuple((C, grid[r]) for C, r in meet)))
    pairs = list(itertools.islice(itertools.combinations(first, 2),
                                  pair_cap))
    for (pa, ia), (pb, ib) in pairs:
        rank = {k: r for r, k in enumerate(sorted({*ia, *ib}))}
        key = ("prime_pair_meet", bound, pa, tuple(rank[k] for k in ia),
               pb, tuple(rank[k] for k in ib))
        if not R.cached(key, lambda: semiprime_meet((pa, ia), (pb, ib))):
            raise TheoremViolationError(
                "intersection of primes is not semiprime")
    return len(pairs)


def radical_properties_check(P: FuzzyIdeal, Q: FuzzyIdeal) -> dict:
    """Idempotence, monotonicity, intersection-commutation, endpoints and
    cut equality for the fuzzy prime radical.

    With Q is P, the call ``check-frad`` makes, the outcome is memoized
    per ring and chain ideals ``P.ideals``, and each call returns a copy
    of the dict.  For Q = P, "intersection", "monotone" and "endpoints"
    hold trivially: P meets P in P, P <= P, and :func:`frad` raises
    unless it keeps P's top and bottom.  "idempotent" and "cut_equality"
    read only the chain's ideals: ``frad`` keeps or collapses P's levels
    by their radicals alone and keeps P's values as labels, so FRad(P)'s
    ideals, and its cut at each of P's values, depend on P's ideals in
    their order alone.  Each distinct chain still runs the full check
    once per ring; calls with Q not P always run it.
    """
    if P.ring is not Q.ring:
        raise ValueError("fuzzy ideals over different rings")
    if Q is P:
        return dict(P.ring.cached(("radical_properties", P.ideals),
                                  lambda: _radical_properties(P, P)))
    return _radical_properties(P, Q)


def _radical_properties(P: FuzzyIdeal, Q: FuzzyIdeal) -> dict:
    """The checks of :func:`radical_properties_check`, run directly."""
    R = P.ring
    FP, FQ = frad(P), frad(Q)

    checks = {
        "idempotent": frad(FP).chain == FP.chain,
        "endpoints": FP.top == P.top and FP.bottom == P.bottom,
        "intersection": frad(intersect([P, Q])).chain
                        == intersect([FP, FQ]).chain,
    }
    if P.le(Q):
        checks["monotone"] = FP.le(FQ)
    cut_ok = True
    for _, t in P.chain:
        if t == P.bottom:
            continue
        if cut(FP, t) != crisp_radical(R, cut(P, t)):
            cut_ok = False
    checks["cut_equality"] = cut_ok
    for name, ok in checks.items():
        if not ok:
            raise TheoremViolationError(f"radical property failed: {name}")
    return checks


def ring_radical_experimental(R: Ring) -> dict:
    """Candidate reading of 'Rad(R / FRad(R)) = 0': quotient R by the
    strict support of FRad applied to the characteristic map of {0}."""
    from .crisp import is_semiprime_ideal, zero_ideal as z_ideal
    from .fuzzy import strict_support
    from .rings import quotient_ring
    F = frad(zero_type(R, 1, 0))
    support = strict_support(F)
    Qr = quotient_ring(R, support)
    rad0 = crisp_radical(Qr, z_ideal(Qr))
    return {"support_size": len(support.elems) if R.is_table else support.gen,
            "quotient_size": Qr.size,
            "rad_of_quotient_is_zero": rad0.is_zero}
