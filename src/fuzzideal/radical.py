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

from dataclasses import dataclass
from fractions import Fraction

from .crisp import crisp_radical, prime_avoiding
from .errors import TheoremViolationError
from .fuzzy import (FuzzyIdeal, cut, intersect, probe_elements, whole_ideal,
                    zero_type)
from .primeness import (is_prime_new, is_semiprime_new, semiprimes_above,
                        value_grid)
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
    containing Rad(I_s) but avoiding x."""
    s = Fraction(s)
    R = I.ring
    if not s < I.top:
        raise ValueError("s must be below I(0)")
    base = crisp_radical(R, cut(I, s))
    if base.contains(x):
        raise ValueError("x must lie outside Rad(I_s)")
    M = prime_avoiding(R, base, x)
    P = FuzzyIdeal(R, ((M, I.top), (whole_ideal(R), s)))
    if not (is_prime_new(P) and I.le(P) and P(x) == s):
        raise TheoremViolationError(
            "prime-avoiding witness is not a prime above I with P(x) = s")
    return P


def _first_difference(F: FuzzyIdeal, G: FuzzyIdeal):
    """An element where F and G differ, or None when they are equal."""
    return next((x for x in probe_elements(F, G) if F(x) != G(x)), None)


def _excluding_value(I: FuzzyIdeal, x, w, grid):
    """The least grid value s > w with x outside Rad(I_s).

    With w = FRad(I)(x) below the top, the next image value of I above w
    is such an s; :func:`witness_prime_excluding` turns it into a prime P
    above I with P(x) = s.
    """
    R = I.ring
    s = next((v for v in sorted(grid) if v > w
              and not crisp_radical(R, cut(I, v)).contains(x)), None)
    if s is None:
        raise TheoremViolationError(
            "no grid value above FRad(I)(x) leaves x outside the cut radical",
            details={"x": R.label(x), "frad": str(w),
                     "grid": [str(v) for v in sorted(grid)]})
    return s


def frad_intersection_check(I: FuzzyIdeal, bound: int | None = None) -> dict:
    """Assert FRad(I) = intersection of the prime fuzzy ideals above I
    valued on ``value_grid(I)`` = same with semiprime witnesses; plus
    explicit prime-avoiding lower-bound witnesses per element.

    The families are generated, not filtered: :func:`semiprimes_above`
    yields exactly the grid-valued semiprimes above I, deciding primeness
    with the Inf-forms once per ideal chain, so the check does not rest
    on the cut radicals that :func:`frad` uses.
    """
    I.require_non_constant()
    R = I.ring
    grid = value_grid(I)
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in I.chain))
    F3 = frad(I)

    primes, semiprimes = [], []
    for Q, prime in semiprimes_above(I, grid, bound):
        semiprimes.append(Q)
        if prime:
            primes.append(Q)
    if not primes:
        raise TheoremViolationError("no grid-valued prime above I")
    F2 = intersect(primes)
    F1 = intersect(semiprimes)
    for name, F in (("F2", F2), ("F1", F1)):
        bad = _first_difference(F3, F)
        if bad is not None:
            raise TheoremViolationError(
                f"FRad != {name}",
                details={"x": str(bad), "frad": str(F3(bad)),
                         name: str(F(bad))})

    # lower-bound direction: explicit prime witnesses excluding each element
    witnesses = []
    for x in probe_elements(I, F3):
        w = F3(x)
        if w == F3.top:
            continue
        P = witness_prime_excluding(I, x, _excluding_value(I, x, w, grid))
        witnesses.append(P)
    return {"frad_equals_prime_intersection": True,
            "frad_equals_semiprime_intersection": True,
            "prime_count": len(primes), "semiprime_count": len(semiprimes),
            "lower_bound_witnesses": len(witnesses)}


def semiprime_intersection_check(P: FuzzyIdeal, bound: int | None = None,
                                 pair_cap: int = 200) -> dict:
    """Theorem-style check: a semiprime fuzzy ideal is the intersection
    of the primes above it valued on ``value_grid(P)``, and finite
    intersections of primes are semiprime."""
    import itertools
    if not is_semiprime_new(P):
        raise ValueError("input must be semiprime")
    R = P.ring
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in P.chain))
    # every prime fuzzy ideal is semiprime, so no prime above P is missed
    primes = [Q for Q, prime in semiprimes_above(P, value_grid(P), bound)
              if prime]
    if not primes:
        raise TheoremViolationError("no grid-valued prime above P")
    meet = intersect(primes)
    bad = _first_difference(P, meet)
    if bad is not None:
        raise TheoremViolationError(
            "semiprime ideal differs from its prime intersection",
            details={"x": str(bad)})
    checked = 0
    for A, B in itertools.combinations(primes, 2):
        if checked >= pair_cap:
            break
        checked += 1
        if not is_semiprime_new(intersect([A, B])):
            raise TheoremViolationError(
                "intersection of primes is not semiprime")
    return {"prime_count": len(primes), "pairs_checked": checked,
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
