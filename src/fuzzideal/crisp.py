"""Crisp two-sided ideals: generation, the lattice, primeness oracles,
the radical and the prime-avoiding construction.

Table rings memoize their principal ideals, full ideal lattice, the
prime and semiprime witnesses and the radical of each ideal on the ring
object (single-writer init, safe for concurrent readers).  Over Z an
ideal is just its nonnegative generator: 0 for {0}, 1 for Z.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

import sympy

from .errors import (NotProperIdealError, ResourceLimitError,
                     TheoremViolationError)
from .rings import Ring


@dataclass(frozen=True)
class CrispIdeal:
    ring: Ring
    elems: frozenset[int] | None = None
    gen: int | None = None
    _key: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.ring.is_table:
            mask = 0
            for x in self.elems:
                mask |= 1 << x
            object.__setattr__(self, "_key", (len(self.elems), mask))
        else:
            object.__setattr__(self, "_key", (self.gen,))

    # -- membership and order ---------------------------------------------

    def contains(self, x) -> bool:
        if self.ring.is_table:
            return x in self.elems
        n = self.gen
        if n == 0:
            return x == 0
        return x % n == 0

    def subset(self, other: "CrispIdeal") -> bool:
        if self.ring.is_table:
            return self.elems <= other.elems
        a, b = self.gen, other.gen
        if b == 0:
            return a == 0
        return a % b == 0

    @property
    def is_whole(self) -> bool:
        if self.ring.is_table:
            return len(self.elems) == self.ring.size
        return self.gen == 1

    @property
    def is_zero(self) -> bool:
        if self.ring.is_table:
            return len(self.elems) == 1
        return self.gen == 0

    def sort_key(self):
        return self._key

    def intersect(self, other: "CrispIdeal") -> "CrispIdeal":
        if self.ring.is_table:
            return CrispIdeal(self.ring, elems=self.elems & other.elems)
        a, b = self.gen, other.gen
        if a == 0 or b == 0:
            return CrispIdeal(self.ring, gen=0)
        return CrispIdeal(self.ring, gen=a * b // gcd(a, b))

    def join(self, other: "CrispIdeal") -> "CrispIdeal":
        if self.ring.is_table:
            R = self.ring
            sums = frozenset(R.add(a, b) for a in self.elems for b in other.elems)
            return CrispIdeal(R, elems=sums)
        return CrispIdeal(self.ring, gen=gcd(self.gen, other.gen))


def zero_ideal(R: Ring) -> CrispIdeal:
    if R.is_table:
        return CrispIdeal(R, elems=frozenset({R.zero}))
    return CrispIdeal(R, gen=0)


def whole_ideal(R: Ring) -> CrispIdeal:
    if R.is_table:
        return CrispIdeal(R, elems=frozenset(range(R.size)))
    return CrispIdeal(R, gen=1)


def is_ideal(R: Ring, subset: frozenset[int]) -> bool:
    """Direct check of the two-sided ideal axioms on a table-ring subset."""
    if R.zero not in subset:
        return False
    for a in subset:
        if R.neg(a) not in subset:
            return False
        for b in subset:
            if R.add(a, b) not in subset:
                return False
        for r in range(R.size):
            if R.mul(r, a) not in subset or R.mul(a, r) not in subset:
                return False
    return True


def ideal_generate(R: Ring, gens) -> CrispIdeal:
    """Least two-sided ideal containing ``gens``."""
    if not R.is_table:
        g = 0
        for x in gens:
            g = gcd(g, abs(x))
        return CrispIdeal(R, gen=g)
    current = {R.zero} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(current)
        for a in snapshot:
            if R.neg(a) not in current:
                current.add(R.neg(a))
                changed = True
            for b in snapshot:
                s = R.add(a, b)
                if s not in current:
                    current.add(s)
                    changed = True
            for r in range(R.size):
                for p in (R.mul(r, a), R.mul(a, r)):
                    if p not in current:
                        current.add(p)
                        changed = True
    return CrispIdeal(R, elems=frozenset(current))


def principal_ideal(R: Ring, x) -> CrispIdeal:
    if not R.is_table:
        return CrispIdeal(R, gen=abs(x))
    table = R.cached("principal",
                     lambda: tuple(ideal_generate(R, {e}) for e in range(R.size)))
    return table[x]


def enumerate_ideals(R: Ring, bound: int | None = None) -> list[CrispIdeal]:
    """All two-sided ideals: full lattice for table rings, nZ for n <= bound over Z.

    Table algorithm: every ideal is a join of principal ideals, so closing
    {0} and the principal ideals under pairwise joins yields the lattice.
    """
    if not R.is_table:
        if bound is None:
            raise ResourceLimitError("ideal enumeration over Z needs a generator bound")
        return [CrispIdeal(R, gen=n) for n in range(bound + 1)]

    def build():
        ideals = {zero_ideal(R), whole_ideal(R)}
        ideals.update(principal_ideal(R, x) for x in range(R.size))
        worklist = True
        while worklist:
            worklist = False
            for a, b in itertools.combinations(list(ideals), 2):
                j = a.join(b)
                if j not in ideals:
                    ideals.add(j)
                    worklist = True
        return sorted(ideals, key=CrispIdeal.sort_key)

    return list(R.cached("lattice", build))


def _require_proper(P: CrispIdeal):
    if P.is_whole:
        raise NotProperIdealError("primeness/semiprimeness requires a proper ideal")


def prime_witness(R: Ring, P: CrispIdeal):
    """None if P is prime; else (x, y) with xRy <= P, x,y not in P.

    Memoized per (table ring, ideal); Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        n = P.gen
        if n == 0 or sympy.isprime(n):
            return None
        # some factorization n = a*b certifies failure
        p = sympy.factorint(n)
        a = min(p)
        return (a, n // a)
    return R.cached(("prime_witness", P), lambda: _table_prime_witness(R, P))


def _table_prime_witness(R: Ring, P: CrispIdeal):
    """The unmemoized table search behind :func:`prime_witness`."""
    outside = [x for x in range(R.size) if not P.contains(x)]
    for x in outside:
        for y in outside:
            if all(P.contains(R.mul(R.mul(x, r), y)) for r in range(R.size)):
                return (x, y)
    return None


def is_prime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return prime_witness(R, P) is None


def completely_prime_witness(R: Ring, P: CrispIdeal):
    """None if P is completely prime; else (x, y) with xy in P, x,y not in P."""
    _require_proper(P)
    if not R.is_table:
        return prime_witness(R, P)  # Z is commutative
    for x in range(R.size):
        if P.contains(x):
            continue
        for y in range(R.size):
            if P.contains(y):
                continue
            if P.contains(R.mul(x, y)):
                return (x, y)
    return None


def is_completely_prime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return completely_prime_witness(R, P) is None


def semiprime_witness(R: Ring, P: CrispIdeal):
    """None if P is semiprime; else x with xRx <= P, x not in P.

    Memoized per (table ring, ideal); Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        n = P.gen
        if n == 0:
            return None
        for p, e in sympy.factorint(n).items():
            if e >= 2:
                return n // p  # n | (n/p)^2 but n does not divide n/p
        return None
    return R.cached(("semiprime_witness", P),
                    lambda: _table_semiprime_witness(R, P))


def _table_semiprime_witness(R: Ring, P: CrispIdeal):
    """The unmemoized table search behind :func:`semiprime_witness`."""
    for x in range(R.size):
        if P.contains(x):
            continue
        if all(P.contains(R.mul(R.mul(x, r), x)) for r in range(R.size)):
            return x
    return None


def is_semiprime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return semiprime_witness(R, P) is None


def _int_radical(n: int) -> int:
    if n in (0, 1):
        return n
    out = 1
    for p in sympy.primefactors(n):
        out *= p
    return out


def crisp_radical(R: Ring, I: CrispIdeal) -> CrispIdeal:
    """Intersection of all prime ideals containing I; Rad(R) = R.

    Memoized per (table ring, ideal).
    """
    if not R.is_table:
        return CrispIdeal(R, gen=_int_radical(I.gen))
    if I.is_whole:
        return I

    def build():
        out = whole_ideal(R)
        for P in enumerate_ideals(R):
            if P.is_whole or not I.subset(P):
                continue
            if is_prime_ideal(R, P):
                out = out.intersect(P)
        return out
    return R.cached(("radical", I), build)


def minimal_primes(R: Ring) -> list[CrispIdeal]:
    """Minimal prime ideals; on finite rings each prime is minimal and maximal."""
    primes = [P for P in enumerate_ideals(R)
              if not P.is_whole and is_prime_ideal(R, P)]
    minimal = []
    for P in primes:
        if not any(Q is not P and Q.subset(P) and Q != P for Q in primes):
            minimal.append(P)
    # finite-ring structure: primes are pairwise incomparable
    for P, Q in itertools.combinations(primes, 2):
        if P.subset(Q) or Q.subset(P):
            raise TheoremViolationError("comparable primes in a finite ring")
    return minimal


def prime_avoiding(R: Ring, P: CrispIdeal, x) -> CrispIdeal:
    """A prime ideal M with P <= M and x not in M (McCoy construction).

    Requires P semiprime and x outside P.  Ties are broken by canonical
    element order so witnesses are deterministic.
    """
    if P.contains(x):
        raise ValueError("x must lie outside P")
    if not is_semiprime_ideal(R, P):
        raise ValueError("P must be semiprime")

    if not R.is_table:
        n = P.gen
        if n == 0:
            p = 2
            while x % p == 0:
                p = sympy.nextprime(p)
            return CrispIdeal(R, gen=p)
        for p in sorted(sympy.primefactors(n)):
            if x % p != 0:
                return CrispIdeal(R, gen=p)
        raise ValueError("no prime divisor of gen(P) avoids x")

    # McCoy sequence x0 = x, x_{i+1} = x_i r_i x_i outside P, r_i minimal
    seq = [x]
    seen = {x}
    while True:
        cur = seq[-1]
        nxt = None
        for r in range(R.size):
            cand = R.mul(R.mul(cur, r), cur)
            if not P.contains(cand):
                nxt = cand
                break
        if nxt is None:
            raise TheoremViolationError(
                "semiprimeness guarantees a continuation")
        if nxt in seen:
            break
        seen.add(nxt)
        seq.append(nxt)

    avoid = frozenset(seen)
    lattice = enumerate_ideals(R)
    M = P
    grown = True
    while grown:
        grown = False
        for cand in lattice:
            if cand is M or not M.subset(cand) or cand == M:
                continue
            if cand.elems & avoid:
                continue
            M = cand
            grown = True
            break

    if not is_prime_ideal(R, M):
        raise TheoremViolationError("maximal avoiding ideal must be prime")
    if not (P.subset(M) and not M.contains(x)):
        raise TheoremViolationError(
            "maximal avoiding ideal must contain P and avoid x")
    return M
