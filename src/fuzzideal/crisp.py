"""Crisp two-sided ideals: generation, the lattice, primeness oracles,
the radical and the prime-avoiding ideals.

Table rings memoize their principal ideals (one generation per unit
orbit), principal classes, full ideal lattice, its subset matrix, the
prime, completely prime and semiprime witnesses of each ideal and one
mask of the lattice's primes on the ring object (single-writer init,
safe for concurrent readers).  The radical, the minimal primes and the
prime-avoiding ideals are read off that mask: a semiprime ideal is the
intersection of the primes above it.  Every ring memoizes the radical
of each ideal and its prime-avoiding ideals.
Over Z an ideal is just its nonnegative generator: 0 for {0}, 1 for Z,
and the Z branches read its primes from :func:`factorize`.

On table rings, generation, joins and the witness searches index the
ring's integer-array tables (``Ring.tables``) with boolean membership
masks; the prime and semiprime searches run on the k x k table of
principal classes, not on the n elements.  Ideals are still handed out
as frozensets of element indices.
numpy is imported inside those functions: importing it at the top of
this module, ahead of ``primeness``, raised the peak RSS of ``import
fuzzideal`` by about 1.8 MB.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .errors import (NotProperIdealError, ResourceLimitError,
                     TheoremViolationError)
from .rings import Ring, row_blocks


@dataclass(frozen=True)
class CrispIdeal:
    ring: Ring
    elems: frozenset[int] | None = None
    gen: int | None = None

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
    """{0}, memoized per ring."""
    return R.cached("zero_ideal", lambda: (
        CrispIdeal(R, elems=frozenset({R.zero})) if R.is_table
        else CrispIdeal(R, gen=0)))


def whole_ideal(R: Ring) -> CrispIdeal:
    """R itself, memoized per ring: a table ring's is an n-element set."""
    return R.cached("whole_ideal", lambda: (
        CrispIdeal(R, elems=frozenset(range(R.size))) if R.is_table
        else CrispIdeal(R, gen=1)))


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
    return R.cached("principal", lambda: _principal_table(R))[x]


def _principal_table(R: Ring) -> tuple:
    """<x> for every element x, generated once per two-sided unit orbit.

    For units u and v, <u x v> = <x>: u x v lies in <x>, and
    x = u^-1 (u x v) v^-1 lies in <u x v>.  The units are the elements
    whose ``mul`` row holds ``one``; a finite ring is Dedekind-finite,
    so a right inverse is an inverse.  The least element x of each orbit
    {u x v} is generated and its ideal given to every member.  Orbits
    can be finer than principal classes (rank 1 and rank 2 matrices in
    M2(F) generate the same ideal), so equal ideals share one object.
    """
    import numpy as np
    mul = R.tables.mul
    n = R.size
    units = np.flatnonzero((mul == R.one).any(axis=1))
    table = [None] * n
    distinct = {}
    todo = np.ones(n, dtype=bool)
    while todo.any():
        x = int(todo.argmax())
        left = np.flatnonzero(_mask(n, mul[units, x]))  # u x
        orbit = np.zeros(n, dtype=bool)
        for rows in row_blocks(len(left), len(units)):
            orbit[mul[np.ix_(left[rows], units)]] = True  # (u x) v
        I = ideal_generate(R, {x})
        I = distinct.setdefault(I, I)
        for y in np.flatnonzero(orbit).tolist():
            table[y] = I
        todo &= ~orbit
    return tuple(table)


class PrincipalClasses(NamedTuple):
    """The principal classes of a table ring: x and y share a class iff
    <x> = <y>.  Classes are numbered in the order of their least
    elements."""
    cls: object      # (n,) intp: the class of each element
    reps: object     # (k,) intp: the least element of each class, ascending
    members: object  # (L, k) bool: lattice ideal i holds class a
    product: object  # (k, k) intp: lattice position of <reps[a]><reps[b]>


def principal_classes(R: Ring) -> PrincipalClasses:
    """The principal classes of table ring R and their product table,
    memoized on the ring.

    Every ideal is a union of principal classes, so ``members`` (the
    columns of ``lattice_members(R)`` at the representatives) tells
    which elements each lattice ideal holds.  In a unital ring <x><y> is
    the ideal generated by xRy, so it depends only on the classes of x
    and y.  ``product[a, b]`` is the first ideal of ``enumerate_ideals(R)``
    (in size order, so the least) that contains reps[a] R reps[b].  An
    ideal contains that set iff it contains the class of each of its
    elements: one gather of n x k products and one (k, k) x (k, L) count
    per class.
    """
    def build():
        import numpy as np
        mul = R.tables.mul
        ids, reps = {}, []
        cls = np.empty(R.size, dtype=np.intp)
        for x in range(R.size):
            I = principal_ideal(R, x)
            if I not in ids:
                ids[I] = len(reps)
                reps.append(x)
            cls[x] = ids[I]
        reps = np.array(reps, dtype=np.intp)
        k = len(reps)
        members = lattice_members(R)[:, reps]
        # float32 counts are exact below 2**24 and take the BLAS product
        outside = (~members).T.astype(np.float32)
        product = np.empty((k, k), dtype=np.intp)
        for a in range(k):
            met = np.zeros((k, k), dtype=np.float32)  # met[b, c]: c in xRy
            met[np.arange(k), cls[mul[mul[reps[a]][:, None], reps]]] = 1
            product[a] = np.argmax(met @ outside == 0, axis=1)
        return PrincipalClasses(cls, reps, members, product)
    return R.cached("principal_classes", build)


def first_hit(mask):
    """The index tuple of the first True of ``mask`` in row-major order,
    or None: ``argmax`` stops at the first True and, unlike
    ``np.argwhere``, lists no other hit."""
    import numpy as np
    i = int(mask.argmax())
    if not mask.flat[i]:
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


def first_class_hit(mask, reps):
    """The first hit of a mask over principal classes, row-major, as the
    pair (class indices, their least elements ``reps[a]``); or None.

    When the element-level mask depends only on the classes of its
    indices, those elements are its first row-major hit: the first x is
    the least element whose class has a hit in the first axis, which is
    the least element of the first such class (classes are numbered by
    their least elements), and so on along each axis in turn.
    """
    hit = first_hit(mask)
    if hit is None:
        return None
    return hit, tuple(int(reps[a]) for a in hit)


def lattice_members(R: Ring):
    """The (L, n) boolean membership masks of ``enumerate_ideals(R)`` on
    table ring R, memoized on the ring."""
    def build():
        import numpy as np
        lattice = enumerate_ideals(R)
        member = np.zeros((len(lattice), R.size), dtype=bool)
        for i, J in enumerate(lattice):
            member[i, _indices(J.elems)] = True
        return member
    return R.cached("lattice_members", build)


def lattice_positions(R: Ring, bound: int | None = None) -> dict:
    """Each ideal of ``enumerate_ideals(R, bound)`` mapped to its position,
    memoized per ring and bound."""
    return R.cached(("lattice_positions", bound), lambda: {
        J: i for i, J in enumerate(enumerate_ideals(R, bound))})


def subset_matrix(R: Ring):
    """The (L, L) boolean matrix of ``lattice[i] <= lattice[j]`` over
    ``lattice = enumerate_ideals(R)`` on table ring R, memoized on the
    ring: for each pair, a count of the members of lattice[i] outside
    lattice[j] (exact in float32 below 2**24 members)."""
    def build():
        import numpy as np
        member = lattice_members(R).astype(np.float32)
        return member @ (1 - member).T == 0
    return R.cached("subset_matrix", build)


def subset_rows(R: Ring, ideals, bound: int | None = None):
    """The (len(ideals), L) boolean matrix of ``ideals[i] <= lattice[j]``
    over ``lattice = enumerate_ideals(R, bound)``.

    Table rings read the rows of :func:`subset_matrix`.  Over Z, lattice
    position j is jZ, and dZ <= jZ iff j divides d (only 0Z lies inside
    0Z); each generator's row is memoized per bound, generators past the
    bound included.
    """
    import numpy as np
    if R.is_table:
        pos = lattice_positions(R)
        return subset_matrix(R)[[pos[D] for D in ideals]]
    size = len(enumerate_ideals(R, bound))

    def row(d):
        return R.cached(("subset_row", d, bound), lambda: np.array(
            [d % j == 0 if j else d == 0 for j in range(size)]))
    return np.array([row(D.gen) for D in ideals])


def enumerate_ideals(R: Ring, bound: int | None = None) -> list[CrispIdeal]:
    """All two-sided ideals: full lattice for table rings, nZ for n <= bound over Z.

    Table algorithm: every ideal is a join of principal ideals, so closing
    the principal ideals under pairwise joins yields the lattice.
    Both are memoized on the ring, over Z per bound.
    """
    if not R.is_table:
        if bound is None:
            raise ResourceLimitError("ideal enumeration over Z needs a generator bound")
        return list(R.cached(("lattice", bound), lambda: tuple(
            CrispIdeal(R, gen=n) for n in range(bound + 1))))

    def build():
        # {0} = <0> and R = <1> are among them; orbit members share one
        # ideal object, so deduplicating compares no element sets
        found = list(dict.fromkeys(
            principal_ideal(R, x) for x in range(R.size)))
        seen = set(found)
        # each ideal is joined once with every ideal found before it; a
        # join of comparable ideals is the larger one, already found
        for i, a in enumerate(found):
            for b in found[:i]:
                if a.elems <= b.elems or b.elems <= a.elems:
                    continue
                j = a.join(b)
                if j not in seen:
                    seen.add(j)
                    found.append(j)
        # by size, then by the bitmask of the elements
        return sorted(found, key=lambda I: (
            len(I.elems), sum(1 << x for x in I.elems)))

    return list(R.cached("lattice", build))


def _require_proper(P: CrispIdeal):
    if P.is_whole:
        raise NotProperIdealError("primeness/semiprimeness requires a proper ideal")


def prime_witness(R: Ring, P: CrispIdeal):
    """None if P is prime; else (x, y) with xRy <= P, x,y not in P.

    On a table ring the witness is the first such (x, y), row-major over
    the elements outside P, found on the principal classes.  xRy <= P iff
    <x><y> <= P (P is an ideal, and <x><y> is generated by xRy), and
    both that and x in P depend only on the classes of x and y.  So P is
    prime iff no two classes outside P have their product inside P, and
    the first hit of that k x k table gives the first witness
    (:func:`first_class_hit`).

    Memoized per (table ring, ideal); Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        n = P.gen
        if n == 0 or _is_prime(n):
            return None
        # some factorization n = a*b certifies failure
        a = factorize(n)[0][0]
        return (a, n // a)

    def search():
        found = first_class_hit(*_class_products_inside(R, P))
        return None if found is None else found[1]
    return R.cached(("prime_witness", P), search)


def _class_products_inside(R: Ring, P: CrispIdeal):
    """The (k, k) matrix of classes a, b outside P with <reps[a]><reps[b]>
    inside P, and the class representatives."""
    classes = principal_classes(R)
    p = lattice_positions(R)[P]
    out = ~classes.members[p]
    inside = subset_matrix(R)[classes.product, p]
    return inside & out[:, None] & out[None, :], classes.reps


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

    On a table ring the witness is the least such x, found on the
    principal classes as in :func:`prime_witness`: P is semiprime iff no
    class outside P has its square <x><x> inside P.

    Memoized per (table ring, ideal); Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        n = P.gen
        if n == 0:
            return None
        for p, e in factorize(n):
            if e >= 2:
                return n // p  # n | (n/p)^2 but n does not divide n/p
        return None

    def search():
        hits, reps = _class_products_inside(R, P)
        found = first_class_hit(hits.diagonal(), reps)
        return None if found is None else found[1][0]
    return R.cached(("semiprime_witness", P), search)


def is_semiprime_ideal(R: Ring, P: CrispIdeal) -> bool:
    return semiprime_witness(R, P) is None


_TRIAL_LIMIT = 10 ** 6  # the largest divisor factorize tries
# Miller-Rabin with the first 13 prime bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015); the
# first 12, 2 to 37, stop at 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of an integer n >= 1 as (prime, exponent)
    pairs, ascending; () for 1.  Memoized per n.

    Trial division by 2 and the odd numbers up to min(sqrt(n), 10**6).
    A cofactor left above 1 has no divisor up to that point, so it is
    prime when it is below 10**12, the square of the last divisor tried.
    A larger cofactor is prime when it is below 3.3 * 10**24 and passes
    the deterministic Miller-Rabin test of :func:`_miller_rabin`.  Any
    other cofactor (a product of primes above 10**6, or one past that
    bound) is beyond this helper: it raises ResourceLimitError.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = []
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not (n < _MR_LIMIT and _miller_rabin(n)):
            raise ResourceLimitError(
                f"a cofactor {n} has no divisor up to {_TRIAL_LIMIT} and "
                f"is not a prime below {_MR_LIMIT}; factoring it is out "
                f"of range")
        out.append((n, 1))
    return tuple(out)


def _miller_rabin(n: int) -> bool:
    """Whether odd n > 41 is a strong probable prime to every base of
    ``_MR_BASES``; below ``_MR_LIMIT`` that is whether n is prime."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


def _int_radical(n: int) -> int:
    if n in (0, 1):
        return n
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def crisp_radical(R: Ring, I: CrispIdeal) -> CrispIdeal:
    """Intersection of all prime ideals containing I; Rad(R) = R.

    On a table ring, the AND of the membership rows of the primes of
    :func:`prime_mask` above I, handed out as the lattice's own ideal
    object: a fresh set holds fresh ints above 256, which compare by
    value where the lattice's compare by identity.  Memoized per (ring,
    ideal).
    """
    if I.is_whole:
        return I

    def build():
        if not R.is_table:
            return CrispIdeal(R, gen=_int_radical(I.gen))
        pos = lattice_positions(R)
        above = subset_matrix(R)[pos[I]] & prime_mask(R)
        rad = _from_mask(R, lattice_members(R)[above].all(axis=0))
        return enumerate_ideals(R)[pos[rad]]
    return R.cached(("radical", I), build)


def prime_mask(R: Ring):
    """The (L,) boolean mask of the proper prime ideals of
    ``enumerate_ideals(R)`` on table ring R, memoized on the ring."""
    def build():
        import numpy as np
        return np.array([not P.is_whole and is_prime_ideal(R, P)
                         for P in enumerate_ideals(R)], dtype=bool)
    return R.cached("prime_mask", build)


def minimal_primes(R: Ring) -> list[CrispIdeal]:
    """Minimal prime ideals, the primes of :func:`prime_mask`: on finite
    rings each prime is minimal and maximal."""
    import numpy as np
    primes = np.flatnonzero(prime_mask(R))
    # finite-ring structure: primes are pairwise incomparable
    if subset_matrix(R)[np.ix_(primes, primes)].sum() > len(primes):
        raise TheoremViolationError("comparable primes in a finite ring")
    lattice = enumerate_ideals(R)
    return [lattice[i] for i in primes.tolist()]


def avoiding_positions(R: Ring, P: CrispIdeal):
    """For every element x of table ring R, the lattice position of the
    first prime of :func:`prime_mask` that contains P and misses x; -1
    for the x inside P (every x when P = R).  Memoized per (ring, ideal).

    P must be semiprime.  A semiprime ideal is the intersection of the
    primes above it, so for every x outside P one of them misses x; an
    x that none misses raises TheoremViolationError.
    """
    def build():
        import numpy as np
        out = np.full(R.size, -1, dtype=np.intp)
        if P.is_whole:
            return out
        if not is_semiprime_ideal(R, P):
            raise ValueError("P must be semiprime")
        members = lattice_members(R)
        p = lattice_positions(R)[P]
        above = np.flatnonzero(subset_matrix(R)[p] & prime_mask(R))
        misses = ~members[above]
        outside = ~members[p]
        stray = outside & ~misses.any(axis=0)
        if stray.any():
            raise TheoremViolationError(
                "no prime above a semiprime ideal avoids x",
                details={"x": R.label(int(stray.argmax()))})
        out[outside] = above[misses.argmax(axis=0)][outside]
        return out
    return R.cached(("avoiding_positions", P), build)


def prime_avoiding(R: Ring, P: CrispIdeal, x) -> CrispIdeal:
    """A prime ideal M with P <= M and x not in M.

    Requires P semiprime and x outside P.  Table rings read M from
    :func:`avoiding_positions`: the first prime of the lattice above P
    that misses x.  Over Z, M is the least prime factor of gen(P) that
    does not divide x, or the least prime not dividing x when P = 0.
    Memoized per (ring, ideal, x).
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
        n = P.gen
        if n == 0:
            p = 2
            while x % p == 0:
                p += 1
                while not _is_prime(p):
                    p += 1
            return CrispIdeal(R, gen=p)
        for p, _ in factorize(n):
            if x % p != 0:
                return CrispIdeal(R, gen=p)
        raise ValueError("no prime divisor of gen(P) avoids x")

    R._check(x)
    M = enumerate_ideals(R)[int(avoiding_positions(R, P)[x])]
    if not is_prime_ideal(R, M):
        raise TheoremViolationError("prime-avoiding ideal must be prime")
    if not (P.subset(M) and not M.contains(x)):
        raise TheoremViolationError(
            "prime-avoiding ideal must contain P and avoid x")
    return M
