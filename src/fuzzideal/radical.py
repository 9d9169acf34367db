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
from dataclasses import dataclass
from fractions import Fraction

from .crisp import crisp_radical, enumerate_ideals, prime_avoiding
from .errors import TheoremViolationError
from .fuzzy import (FuzzyIdeal, cut, intersect, probe_elements, whole_ideal,
                    zero_type)
from .primeness import (family_meet, is_prime_new, is_semiprime_new,
                        semiprime_family, value_grid)
from .rings import Ring


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

    P's primeness is decided once per ring and distinct P (its chain is
    the key): the same few witnesses recur across the elements and the
    items of a check.  ``I <= P`` and ``P(x) = s`` are re-checked on
    every call.
    """
    s = Fraction(s)
    R = I.ring
    if not s < I.top:
        raise ValueError("s must be below I(0)")
    base = crisp_radical(R, cut(I, s))
    if base.contains(x):
        raise ValueError("x must lie outside Rad(I_s)")
    M = prime_avoiding(R, base, x)
    P = FuzzyIdeal(R, ((M, I.top), (whole_ideal(R), s)))
    prime = R.cached(("witness_is_prime_new", P.chain),
                     lambda: is_prime_new(P))
    if not (prime and I.le(P) and P(x) == s):
        raise TheoremViolationError(
            "prime-avoiding witness is not a prime above I with P(x) = s")
    return P


def _first_difference(F: FuzzyIdeal, G: FuzzyIdeal):
    """An element where F and G differ, or None when they are equal."""
    return next((x for x in probe_elements(F, G) if F(x) != G(x)), None)


def _cut_radicals(I: FuzzyIdeal, grid) -> list:
    """(s, Rad(I_s)) for every grid value s up to I(0), ascending.

    I_s is I's ideal at its last level valued at least s, so walking the
    ascending grid moves that level up the chain, and the radicals are
    taken once per level.
    """
    R = I.ring
    radicals = [crisp_radical(R, C) for C, _ in I.chain]
    level = len(I.chain) - 1
    out = []
    for s in sorted(grid):
        if s > I.top:
            break
        while I.chain[level][1] < s:
            level -= 1
        out.append((s, radicals[level]))
    return out


def _excluding_value(radicals, x, w):
    """The least grid value s > w with x outside Rad(I_s), from the
    :func:`_cut_radicals` of I.

    With w = FRad(I)(x) below the top, the next image value of I above w
    is such an s; :func:`witness_prime_excluding` turns it into a prime P
    above I with P(x) = s.
    """
    s = next((v for v, rad in radicals if v > w and not rad.contains(x)),
             None)
    if s is None:
        raise TheoremViolationError(
            "no grid value above FRad(I)(x) leaves x outside the cut radical",
            details={"x": radicals[0][1].ring.label(x), "frad": str(w),
                     "grid": [str(v) for v, _ in radicals]})
    return s


def _meet_difference(F: FuzzyIdeal, chain):
    """The family meet with the cut chain ``chain`` as a fuzzy ideal G,
    and an element where F and G differ (None when they are equal)."""
    G = FuzzyIdeal(F.ring, chain)
    if G.chain == F.chain:
        return G, None
    return G, _first_difference(F, G)


def frad_intersection_check(I: FuzzyIdeal, bound: int | None = None) -> dict:
    """Assert FRad(I) = intersection of the prime fuzzy ideals above I
    valued on ``value_grid(I)`` = same with semiprime witnesses; plus
    explicit prime-avoiding lower-bound witnesses per element.

    The families are generated, not filtered: :func:`semiprime_family`
    gives exactly the grid-valued semiprimes above I as integer arrays,
    deciding primeness with the Inf-forms once per ideal chain, so the
    check does not rest on the cut radicals that :func:`frad` uses.
    Each intersection is one lattice meet per value
    (:func:`family_meet`); fuzzy ideals are built only to report a
    difference.
    """
    I.require_non_constant()
    R = I.ring
    grid = value_grid(I)
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in I.chain))
    F3 = frad(I)

    values, family = semiprime_family(I, grid, bound)
    semiprimes = [(positions, index) for positions, index, _ in family]
    primes = [(positions[prime], index[prime])
              for positions, index, prime in family]
    prime_count = sum(len(positions) for positions, _ in primes)
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above I")
    lattice = enumerate_ideals(R, bound)
    for name, rows in (("F2", primes), ("F1", semiprimes)):
        F, bad = _meet_difference(F3, family_meet(lattice, values, rows))
        if bad is not None:
            raise TheoremViolationError(
                f"FRad != {name}",
                details={"x": str(bad), "frad": str(F3(bad)),
                         name: str(F(bad))})

    # lower-bound direction: explicit prime witnesses excluding each element
    radicals = _cut_radicals(I, grid)
    witnesses = 0
    for x in probe_elements(I, F3):
        w = F3(x)
        if w == F3.top:
            continue
        witness_prime_excluding(I, x, _excluding_value(radicals, x, w))
        witnesses += 1
    return {"frad_equals_prime_intersection": True,
            "frad_equals_semiprime_intersection": True,
            "prime_count": prime_count,
            "semiprime_count": sum(len(p) for p, _ in semiprimes),
            "lower_bound_witnesses": witnesses}


def semiprime_intersection_check(P: FuzzyIdeal, bound: int | None = None,
                                 pair_cap: int = 200) -> dict:
    """Theorem-style check: a semiprime fuzzy ideal is the intersection
    of the primes above it valued on ``value_grid(P)``, and finite
    intersections of primes are semiprime.

    Every meet is taken in rank form as in
    :func:`frad_intersection_check`, the pairwise ones on one-member rows;
    a fuzzy ideal is built only for each pair's meet.
    """
    if not is_semiprime_new(P):
        raise ValueError("input must be semiprime")
    R = P.ring
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in P.chain))
    grid = value_grid(P)
    # every prime fuzzy ideal is semiprime, so no prime above P is missed
    values, family = semiprime_family(P, grid, bound)
    primes = [(positions[prime], index[prime])
              for positions, index, prime in family]
    prime_count = sum(len(positions) for positions, _ in primes)
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above P")
    lattice = enumerate_ideals(R, bound)
    _, bad = _meet_difference(P, family_meet(lattice, values, primes))
    if bad is not None:
        raise TheoremViolationError(
            "semiprime ideal differs from its prime intersection",
            details={"x": str(bad)})
    # the first pair_cap pairs of combinations() lie among the first
    # pair_cap + 1 primes, each a one-member row of family_meet
    first = list(itertools.islice(
        ((positions[i:i + 1], index[i:i + 1])
         for positions, index in primes for i in range(len(positions))),
        pair_cap + 1))
    checked = 0
    for A, B in itertools.combinations(first, 2):
        if checked >= pair_cap:
            break
        checked += 1
        meet = FuzzyIdeal(R, family_meet(lattice, values, [A, B]))
        if not is_semiprime_new(meet):
            raise TheoremViolationError(
                "intersection of primes is not semiprime")
    return {"prime_count": prime_count, "pairs_checked": checked,
            "equals_intersection": True}


def radical_properties_check(P: FuzzyIdeal, Q: FuzzyIdeal) -> dict:
    """Idempotence, monotonicity, intersection-commutation, endpoints and
    cut equality for the fuzzy prime radical."""
    if P.ring is not Q.ring:
        raise ValueError("fuzzy ideals over different rings")
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


def ring_radical_value_equivalence(R: Ring, grid) -> bool:
    """frad of every zero-type ideal is value-equivalent to frad of the
    characteristic of {0} (the 'radical of the ring' reading)."""
    from .fuzzy import value_equivalent
    reference = frad(zero_type(R, 1, 0))
    for t in grid:
        for s in grid:
            if s < t:
                if not value_equivalent(frad(zero_type(R, t, s)), reference):
                    return False
    return True


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
