"""Crisp two-sided ideals: generation, the lattice, primeness oracles,
the radical and the prime-avoiding construction.

Table rings memoize their principal ideals, full ideal lattice and the
prime, completely prime and semiprime witnesses of each ideal on the
ring object (single-writer init, safe for concurrent readers); every
ring memoizes the radical of each ideal and its prime-avoiding ideals.
Over Z an ideal is just its nonnegative generator: 0 for {0}, 1 for Z,
and sympy is imported only by the Z branches that factor it.

On table rings, generation, joins and the witness searches index the
ring's integer-array tables (``Ring.tables``) with boolean membership
masks; ideals are still handed out as frozensets of element indices.
numpy is imported inside those functions: importing it at the top of
this module, ahead of ``primeness``, raised the peak RSS of ``import
fuzzideal`` by about 1.8 MB.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .errors import (NotProperIdealError, ResourceLimitError,
                     TheoremViolationError)
from .rings import Ring, row_blocks


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
        """I + J = {a + b}: one gather from the add table."""
        if self.ring.is_table:
            import numpy as np
            R = self.ring
            sums = R.tables.add[np.ix_(_indices(self.elems),
                                       _indices(other.elems))]
            return _from_mask(R, _mask(R.size, sums))
        return CrispIdeal(self.ring, gen=gcd(self.gen, other.gen))


def _indices(elems):
    import numpy as np
    return np.fromiter(elems, dtype=np.intp, count=len(elems))


def _mask(n, members):
    """Boolean membership vector of the element indices in ``members``."""
    import numpy as np
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return mask


def _from_mask(R, mask) -> CrispIdeal:
    import numpy as np
    return CrispIdeal(R, elems=frozenset(np.flatnonzero(mask).tolist()))


def _inside_outside(P: "CrispIdeal"):
    """P's membership mask and the ascending elements outside P."""
    import numpy as np
    inside = _mask(P.ring.size, _indices(P.elems))
    return inside, np.flatnonzero(~inside)


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
    """Least two-sided ideal containing ``gens``.

    In a unital ring, <S> is the additive subgroup generated by
    RSR = {r s t : r, t in R, s in S}: RSR contains S (take r = t = 1),
    is closed under multiplication by R on either side, and so is every
    sum of its members.  On a table ring RSR is one gather from the mul
    table, ``mul[mul[:, S]]``, which is then closed under addition.
    """
    if not R.is_table:
        g = 0
        for x in gens:
            g = gcd(g, abs(x))
        return CrispIdeal(R, gen=g)
    import numpy as np
    gens = sorted(set(gens))
    for x in gens:
        R._check(x)
    mul = R.tables.mul
    n = R.size
    mask = _mask(n, R.zero)
    for cols in row_blocks(len(gens), n):
        left = np.flatnonzero(_mask(n, mul[:, gens[cols]]))  # r s
        for rows in row_blocks(len(left), n):
            mask[mul[left[rows]]] = True  # (r s) t
    return _from_mask(R, _additive_closure(R, mask))


def _additive_closure(R: Ring, mask):
    """The additive subgroup generated by the members of ``mask``.

    Every member is a generator; each round adds every generator to the
    members found in the round before, until none is new.  In a finite
    group closure under addition already gives the subgroup.
    """
    import numpy as np
    add = R.tables.add
    gens = np.flatnonzero(mask)
    frontier = gens
    while frontier.size:
        found = np.zeros(R.size, dtype=bool)
        for rows in row_blocks(len(frontier), len(gens)):
            found[add[np.ix_(frontier[rows], gens)]] = True
        found &= ~mask
        mask |= found
        frontier = np.flatnonzero(found)
    return mask


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
    Both are memoized on the ring, over Z per bound.
    """
    if not R.is_table:
        if bound is None:
            raise ResourceLimitError("ideal enumeration over Z needs a generator bound")
        return list(R.cached(("lattice", bound), lambda: tuple(
            CrispIdeal(R, gen=n) for n in range(bound + 1))))

    def build():
        found = list(dict.fromkeys(
            [zero_ideal(R), whole_ideal(R),
             *(principal_ideal(R, x) for x in range(R.size))]))
        seen = set(found)
        # each ideal is joined once with every ideal found before it
        for i, a in enumerate(found):
            for b in found[:i]:
                j = a.join(b)
                if j not in seen:
                    seen.add(j)
                    found.append(j)
        return sorted(found, key=CrispIdeal.sort_key)

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
        import sympy
        n = P.gen
        if n == 0 or sympy.isprime(n):
            return None
        # some factorization n = a*b certifies failure
        p = sympy.factorint(n)
        a = min(p)
        return (a, n // a)
    return R.cached(("prime_witness", P), lambda: _table_prime_witness(R, P))


def _table_prime_witness(R: Ring, P: CrispIdeal):
    """The table search behind :func:`prime_witness`: the first (x, y),
    row-major over the elements outside P, with (x r) y in P for every r."""
    import numpy as np
    mul = R.tables.mul
    inside, outside = _inside_outside(P)
    for rows in row_blocks(len(outside), R.size * R.size):
        xs = outside[rows]
        # hit[i, y]: (xs[i] r) y in P for every r
        hit = inside[mul[mul[xs]]].all(axis=1) & ~inside
        found = np.flatnonzero(hit)
        if found.size:
            i, y = divmod(int(found[0]), R.size)
            return (int(xs[i]), y)
    return None


def is_prime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return prime_witness(R, P) is None


def completely_prime_witness(R: Ring, P: CrispIdeal):
    """None if P is completely prime; else (x, y) with xy in P, x,y not in P.

    Memoized per (table ring, ideal); Z is commutative, so its answer is
    :func:`prime_witness`.
    """
    _require_proper(P)
    if not R.is_table:
        return prime_witness(R, P)
    return R.cached(("completely_prime_witness", P),
                    lambda: _table_completely_prime_witness(R, P))


def _table_completely_prime_witness(R: Ring, P: CrispIdeal):
    """The table search behind :func:`completely_prime_witness`: the first
    (x, y), row-major over the elements outside P, with xy in P."""
    import numpy as np
    mul = R.tables.mul
    inside, outside = _inside_outside(P)
    for rows in row_blocks(len(outside), len(outside)):
        hit = inside[mul[np.ix_(outside[rows], outside)]]
        found = np.flatnonzero(hit)
        if found.size:
            i, j = divmod(int(found[0]), len(outside))
            return (int(outside[rows][i]), int(outside[j]))
    return None


def is_completely_prime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return completely_prime_witness(R, P) is None


def semiprime_witness(R: Ring, P: CrispIdeal):
    """None if P is semiprime; else x with xRx <= P, x not in P.

    Memoized per (table ring, ideal); Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        import sympy
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
    """The table search behind :func:`semiprime_witness`: the least x
    outside P with (x r) x in P for every r."""
    import numpy as np
    mul = R.tables.mul
    inside, outside = _inside_outside(P)
    for rows in row_blocks(len(outside), R.size):
        xs = outside[rows]
        found = np.flatnonzero(inside[mul[mul[xs], xs[:, None]]].all(axis=1))
        if found.size:
            return int(xs[found[0]])
    return None


def is_semiprime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return semiprime_witness(R, P) is None


def _int_radical(n: int) -> int:
    if n in (0, 1):
        return n
    import sympy
    out = 1
    for p in sympy.primefactors(n):
        out *= p
    return out


def crisp_radical(R: Ring, I: CrispIdeal) -> CrispIdeal:
    """Intersection of all prime ideals containing I; Rad(R) = R.

    Memoized per (ring, ideal).
    """
    if I.is_whole:
        return I

    def build():
        if not R.is_table:
            return CrispIdeal(R, gen=_int_radical(I.gen))
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
    element order so witnesses are deterministic.  Memoized per (ring,
    ideal, x).
    """
    return R.cached(("prime_avoiding", P, x),
                    lambda: _prime_avoiding(R, P, x))


def _prime_avoiding(R: Ring, P: CrispIdeal, x) -> CrispIdeal:
    """The construction behind :func:`prime_avoiding`."""
    if P.contains(x):
        raise ValueError("x must lie outside P")
    if not is_semiprime_ideal(R, P):
        raise ValueError("P must be semiprime")

    if not R.is_table:
        import sympy
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

    R._check(x)
    # McCoy sequence x0 = x, x_{i+1} = x_i r_i x_i outside P, r_i minimal;
    # scalar table reads: a numpy row per step was slower on small rings
    mul = R.tables.mul
    seq = [x]
    seen = {x}
    while True:
        cur = seq[-1]
        nxt = None
        for r in range(R.size):
            cand = int(mul[mul[cur, r], cur])
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
