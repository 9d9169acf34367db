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

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .crisp import (crisp_radical, enumerate_ideals, lattice_positions,
                    prime_avoiding)
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

    Per element: s is below I(0), x lies outside Rad(I_s), and M is the
    memoized ``prime_avoiding`` ideal.  Per prime, in
    :func:`_prime_above`: P = {(M, I(0)), (R, s)} is prime (decided once
    per ring and P) and above I.  Per element again: P(x) = s.
    :func:`frad_intersection_check` runs the same steps but builds each
    distinct (M, s) once per item, since the same few witnesses serve
    most of the elements.
    """
    s = Fraction(s)
    R = I.ring
    if not s < I.top:
        raise ValueError("s must be below I(0)")
    base = crisp_radical(R, cut(I, s))
    if base.contains(x):
        raise ValueError("x must lie outside Rad(I_s)")
    P = _prime_above(I, prime_avoiding(R, base, x), s)
    _require_excluded(P, x, s)
    return P


_WITNESS_FAILED = "prime-avoiding witness is not a prime above I with P(x) = s"


def _prime_above(I: FuzzyIdeal, M, s) -> FuzzyIdeal:
    """P = {(M, I(0)), (R, s)}, checked to be a prime fuzzy ideal above I.

    P's primeness is memoized per ring and distinct P (its chain is the
    key): the same few witnesses recur across the items of a check.
    """
    R = I.ring
    P = FuzzyIdeal(R, ((M, I.top), (whole_ideal(R), s)))
    if not (s < I.top
            and R.cached(("witness_is_prime_new", P.chain),
                         lambda: is_prime_new(P))
            and I.le(P)):
        raise TheoremViolationError(_WITNESS_FAILED)
    return P


def _require_excluded(P: FuzzyIdeal, x, s):
    """Raise unless the witness P takes the value s at x."""
    if P(x) != s:
        raise TheoremViolationError(_WITNESS_FAILED,
                                    details={"x": P.ring.label(x)})


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

    With w = FRad(I)(x) below the top, the next image value v of I above
    w has x outside Rad(I_v), and so does the midpoint of w and v, which
    has the same cut; on ``value_grid(I)`` s is therefore below I(0).
    :func:`witness_prime_excluding` turns it into a prime P above I with
    P(x) = s.
    """
    start = bisect.bisect_right(radicals, w, key=itemgetter(0))
    s = next((v for v, rad in radicals[start:] if not rad.contains(x)),
             None)
    if s is None:
        raise TheoremViolationError(
            "no grid value above FRad(I)(x) leaves x outside the cut radical",
            details={"x": radicals[0][1].ring.label(x), "frad": str(w),
                     "grid": [str(v) for v, _ in radicals]})
    return s


def _ranked(F: FuzzyIdeal, rank) -> tuple:
    """F's cut chain with each value replaced by its rank (None off the
    grid)."""
    return tuple((C, rank.get(v)) for C, v in F.chain)


def _family_meets(I: FuzzyIdeal, rank, bound, family=None) -> tuple:
    """``(prime_count, semiprime_count, F2, F1)`` for the family
    ``semiprime_family(I, grid, bound)``, where ``grid = value_grid(I)``
    and ``rank`` maps each grid value, ascending, to its position: the
    family's sizes, and the meets of its primes (F2) and of all its
    members (F1) as cut chains of ranks (None for an empty family).
    ``family`` is that family when the caller has already built it.

    Memoized per ring and rank pattern K = (I's chain ideals, the ranks
    of I's level values, the grid's length, ``bound``).  K determines all
    four.  ``semiprime_family`` reads I only through its L1 thresholds,
    which depend on the chain ideals and the ranks of their values, and
    through its L2 chain flags, which depend on the ring, the grid's
    length and ``bound``; every value it compares is a rank.
    ``family_meet`` reads value indices only and attaches the labels at
    the end, so with the ranks as labels it returns the meet in rank
    form.  The memo holds these tuples, not the family arrays.
    """
    R = I.ring

    def build():
        values, rows = (family if family is not None
                        else semiprime_family(I, tuple(rank), bound))
        semiprimes = [(positions, index) for positions, index, _ in rows]
        primes = [(positions[prime], index[prime])
                  for positions, index, prime in rows]
        lattice = enumerate_ideals(R, bound)
        position = lattice_positions(R, bound)
        ranks = range(len(values) - 1, -1, -1)  # values descend

        def shared(meet):
            # the lattice's own ideal objects, not the meet's fresh copies,
            # which were most of the memo on Zn(360); over Z an lcm can
            # leave the bounded lattice
            return tuple((lattice[position[C]] if C in position else C, r)
                         for C, r in meet)
        counts = [sum(len(p) for p, _ in f) for f in (primes, semiprimes)]
        meets = [shared(family_meet(lattice, ranks, f)) if n else None
                 for n, f in zip(counts, (primes, semiprimes))]
        return (*counts, *meets)
    return R.cached(("frad_family", _ranked(I, rank), len(rank), bound),
                    build)


def _meet_difference(F: FuzzyIdeal, meet, rank):
    """The rank-form meet ``meet`` of :func:`_family_meets` as a fuzzy
    ideal G, and an element where F and G differ; (None, None) when F is
    the meet."""
    if _ranked(F, rank) == meet:
        return None, None
    grid = tuple(rank)
    G = FuzzyIdeal(F.ring, tuple((C, grid[r]) for C, r in meet))
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
    (:func:`family_meet`).

    The work is split by what it depends on:

    - per rank pattern of I (see :func:`_family_meets`, which gives the
      argument that the pattern determines the family): the family, its
      sizes and both meets, memoized per ring;
    - per item: FRad(I), compared with both meets in rank form, and the
      radicals of I's cuts;
    - per element x with FRad(I)(x) below the top: the witness value s
      and the prime-avoiding ideal M (memoized per ring);
    - per distinct (M, s) of the item: P = {(M, I(0)), (R, s)} is prime
      (memoized per ring) and above I;
    - per element again: P(x) = s.

    Fuzzy ideals are built only for the witnesses and to report a
    difference.
    """
    I.require_non_constant()
    R = I.ring
    grid = value_grid(I)
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in I.chain))
    F3 = frad(I)

    rank = {v: r for r, v in enumerate(grid)}
    prime_count, semiprime_count, *meets = _family_meets(I, rank, bound)
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above I")
    for name, meet in zip(("F2", "F1"), meets):
        F, bad = _meet_difference(F3, meet, rank)
        if bad is not None:
            raise TheoremViolationError(
                f"FRad != {name}",
                details={"x": str(bad), "frad": str(F3(bad)),
                         name: str(F(bad))})

    # lower-bound direction: explicit prime witnesses excluding each element
    radicals = _cut_radicals(I, grid)
    radical_at = dict(radicals)
    primes = {}
    witnesses = 0
    for x in probe_elements(I, F3):
        w = F3(x)
        if w == F3.top:
            continue
        s = _excluding_value(radicals, x, w)
        M = prime_avoiding(R, radical_at[s], x)
        P = primes.get((M, s))
        if P is None:
            P = primes[M, s] = _prime_above(I, M, s)
        _require_excluded(P, x, s)
        witnesses += 1
    return {"frad_equals_prime_intersection": True,
            "frad_equals_semiprime_intersection": True,
            "prime_count": prime_count,
            "semiprime_count": semiprime_count,
            "lower_bound_witnesses": witnesses}


def semiprime_intersection_check(P: FuzzyIdeal, bound: int | None = None,
                                 pair_cap: int = 200) -> dict:
    """Theorem-style check: a semiprime fuzzy ideal is the intersection
    of the primes above it valued on ``value_grid(P)``, and finite
    intersections of primes are semiprime.

    The prime meet is read from the rank-pattern memo of
    :func:`frad_intersection_check` (:func:`_family_meets`) and compared
    in rank form; the pairwise meets are taken on one-member rows of
    :func:`family_meet`, and a fuzzy ideal is built only for each pair's
    meet.
    """
    if not is_semiprime_new(P):
        raise ValueError("input must be semiprime")
    R = P.ring
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in P.chain))
    grid = value_grid(P)
    # every prime fuzzy ideal is semiprime, so no prime above P is missed
    values, family = semiprime_family(P, grid, bound)
    rank = {v: r for r, v in enumerate(grid)}
    prime_count, _, prime_meet, _ = _family_meets(P, rank, bound,
                                                  (values, family))
    if not prime_count:
        raise TheoremViolationError("no grid-valued prime above P")
    _, bad = _meet_difference(P, prime_meet, rank)
    if bad is not None:
        raise TheoremViolationError(
            "semiprime ideal differs from its prime intersection",
            details={"x": str(bad)})
    primes = [(positions[prime], index[prime])
              for positions, index, prime in family]
    lattice = enumerate_ideals(R, bound)
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
