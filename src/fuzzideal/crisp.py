"""Crisp two-sided ideals: generation, the lattice, primeness oracles,
the radical and the prime-avoiding ideals.

Table rings memoize on the ring object (single-writer init, safe for
concurrent readers), each built once per ring:

* the principal ideals, one sum of left ideals over the additive
  generators per two-sided unit orbit, one object per distinct ideal;
* the principal classes and their k x k product table;
* the ideal lattice, its membership masks, positions and subset matrix;
* the first prime and semiprime witness of every lattice ideal, from one
  blocked pass over the class tensor (:func:`class_witnesses`);
* the mask of the lattice's primes.

The radical, the minimal primes and the prime-avoiding ideals are read
off that mask: a semiprime ideal is the intersection of the primes above
it.  Every ring memoizes the radical and the prime-avoiding ideals of
each ideal; table rings also its completely prime witness.
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
import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

from .errors import (NotProperIdealError, ResourceLimitError,
                     TheoremViolationError)
from .rings import Ring, additive_generators, row_blocks


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
            R = self.ring
            sums = R.tables.add[_indices(self.elems)[:, None],
                                _indices(other.elems)]
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
            found[add[frontier[rows, None], gens]] = True
        found &= ~mask
        mask |= found
        frontier = np.flatnonzero(found)
    return mask


def principal_ideal(R: Ring, x) -> CrispIdeal:
    if not R.is_table:
        return CrispIdeal(R, gen=abs(x))
    return _principal_ideals(R)[x]


def _principal_ideals(R: Ring) -> tuple:
    """<x> for every element x of table ring R, memoized on the ring; equal
    ideals are one object."""
    return R.cached("principal", lambda: _principal_table(R))


def _principal_table(R: Ring) -> tuple:
    """<x> for every element x, built once per two-sided unit orbit.

    For units u and v, <u x v> = <x>: u x v lies in <x>, and
    x = u^-1 (u x v) v^-1 lies in <u x v>.  The units are the elements
    whose ``mul`` row holds ``one``; a finite ring is Dedekind-finite,
    so a right inverse is an inverse.  The least element x of each orbit
    {u x v} is built and its ideal given to every member.  Orbits can
    be finer than principal classes (rank 1 and rank 2 matrices in
    M2(F) generate the same ideal), so equal ideals share one object.

    <x> is the sum of the left ideals R(x g) = {r x g : r in R} over the
    additive generators g of R (:func:`rings.additive_generators`):

    * each R(x g) is an additive subgroup, as r x g + s x g = (r + s) x g,
      and lies in <x>, so their sum S lies in <x>;
    * every t in R is a sum of generators, since -g = (ord g - 1) g, so
      r x t is a sum of terms r x g, which puts RxR in S;
    * <x> is the additive subgroup generated by RxR
      (:func:`ideal_generate`), hence <x> <= S, and S = <x>.

    R(x g) is one scatter of the column ``mul[:, mul[x, g]]``, and each
    further generator adds one blocked gather of sums from ``add``, unless
    the sum so far, a left ideal, already holds x g.  A cyclic additive
    group, as in Zn, has one generator.
    """
    import numpy as np
    add, mul = R.tables.add, R.tables.mul
    n = R.size
    gens = additive_generators(R)
    units = np.flatnonzero((mul == R.one).any(axis=1))
    table = [None] * n
    distinct = {}
    todo = np.ones(n, dtype=bool)
    while todo.any():
        x = int(todo.argmax())
        left = np.flatnonzero(_mask(n, mul[units, x]))  # u x
        orbit = np.zeros(n, dtype=bool)
        for rows in row_blocks(len(left), len(units)):
            orbit[mul[left[rows, None], units]] = True  # (u x) v
        xg = mul[x, gens]
        ideal = _mask(n, mul[:, xg[0]])
        for c in xg[1:].tolist():
            if ideal[c]:  # a left ideal holding x g holds R(x g)
                continue
            term = np.flatnonzero(_mask(n, mul[:, c]))  # R(x g)
            have = np.flatnonzero(ideal)
            for rows in row_blocks(len(have), len(term)):
                ideal[add[have[rows, None], term]] = True
        I = _from_mask(R, ideal)
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

    The principal table hands out one object per distinct ideal, so each
    element's class is read off by object identity.  Every ideal is a
    union of principal classes, so ``members`` (the columns of
    ``lattice_members(R)`` at the representatives) tells which elements
    each lattice ideal holds.  In a unital ring <x><y> is the ideal
    generated by xRy, so it depends only on the classes of x and y.
    ``product[a, b]`` is the first ideal of ``enumerate_ideals(R)`` (in
    size order, so the least) that contains reps[a] R reps[b].  An ideal
    contains that set iff it contains the class of each of its elements:
    one gather of n x k products and one (k, k) x (k, L) count per class,
    made for a block of classes at a time.
    """
    def build():
        import numpy as np
        mul = R.tables.mul
        table = _principal_ideals(R)
        first = {}
        for x, I in enumerate(table):
            first.setdefault(id(I), x)
        number = {key: a for a, key in enumerate(first)}
        cls = np.array([number[id(I)] for I in table], dtype=np.intp)
        reps = np.array(list(first.values()), dtype=np.intp)
        k = len(reps)
        members = lattice_members(R)[:, reps]
        # float32 counts are exact below 2**24 and take the BLAS product
        outside = (~members).T.astype(np.float32)
        product = np.empty((k, k), dtype=np.intp)
        for block in row_blocks(k, R.size * k):
            xs = reps[block]
            # met[a, b, c]: class c meets xs[a] R reps[b]
            met = np.zeros((len(xs), k, k), dtype=np.float32)
            met[np.arange(len(xs))[:, None, None], np.arange(k),
                cls[mul[mul[xs][:, :, None], reps]]] = 1
            product[block] = np.argmax(met @ outside == 0, axis=2)
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
    return np.array([row(D.gen) for D in ideals],
                    dtype=bool).reshape(len(ideals), size)


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
        # {0} = <0> and R = <1> are among them; equal principal ideals
        # are one object, so deduplicating compares no element sets
        found = list({id(I): I for I in _principal_ideals(R)}.values())
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
    (:func:`first_class_hit`).  :func:`class_witnesses` finds it for
    every lattice ideal at once; P is read by its lattice position.

    Z answers by its direct formula.
    """
    _require_proper(P)
    if not R.is_table:
        n = P.gen
        if n == 0 or _is_prime(n):
            return None
        # some factorization n = a*b certifies failure
        a = factorize(n)[0][0]
        return (a, n // a)
    return class_witnesses(R).prime[lattice_positions(R)[P]]


class ClassWitnesses(NamedTuple):
    """The first prime and semiprime witness of every ideal of
    ``enumerate_ideals(R)``, by lattice position; None where there is
    none."""
    prime: list      # (x, y) with xRy <= P, x, y not in P
    semiprime: list  # x with xRx <= P, x not in P


def class_witnesses(R: Ring) -> ClassWitnesses:
    """The witnesses of :func:`prime_witness` and :func:`semiprime_witness`
    for every lattice ideal of table ring R, memoized on the ring.

    For lattice ideal P, hit[a, b] says that classes a and b lie outside
    P and their product ``product[a, b]`` inside it: one gather from the
    class tensor ``subset_matrix(R)[product]``, made for a block of ideals
    at a time so that at most BLOCK_CELLS cells (ideals x k^2) exist at
    once.  The first hit of each flattened k x k table, and of its
    diagonal, is an ``argmax``: the same row-major first hit as
    :func:`first_class_hit`, so the same witness elements.  The whole
    ring has no class outside it, so no witness.
    """
    def build():
        import numpy as np
        classes = principal_classes(R)
        reps = classes.reps.tolist()
        k = len(reps)
        outside = ~classes.members
        holds = subset_matrix(R).T  # holds[p, q]: lattice[q] <= lattice[p]
        diagonal = np.arange(k)
        prime, semiprime = [], []
        for block in row_blocks(len(outside), k * k):
            out = outside[block]
            rows = np.arange(len(out))
            hit = (holds[block][:, classes.product]
                   & out[:, :, None] & out[:, None, :])
            flat = hit.reshape(len(out), k * k)
            first = flat.argmax(axis=1)
            for f, found in zip(first.tolist(), flat[rows, first].tolist()):
                prime.append((reps[f // k], reps[f % k]) if found else None)
            square = hit[:, diagonal, diagonal]
            first = square.argmax(axis=1)
            for a, found in zip(first.tolist(), square[rows, first].tolist()):
                semiprime.append(reps[a] if found else None)
        return ClassWitnesses(prime, semiprime)
    return R.cached("class_witnesses", build)


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
    (x, y), row-major over the elements outside P, with xy in P.  P's
    membership row is read from :func:`lattice_members`."""
    import numpy as np
    mul = R.tables.mul
    inside = lattice_members(R)[lattice_positions(R)[P]]
    outside = np.flatnonzero(~inside)
    for rows in row_blocks(len(outside), len(outside)):
        hit = inside[mul[outside[rows, None], outside]]
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
    class outside P has its square <x><x> inside P.  It is read from
    :func:`class_witnesses` by P's lattice position.

    Z answers by its direct formula.
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
    return class_witnesses(R).semiprime[lattice_positions(R)[P]]


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
    pairs, ascending; () for 1.  Memoized per n.  Trial division by 2
    and the odd numbers up to min(sqrt(n), 10**6), then
    :func:`_cofactor_primes` on the cofactor left."""
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
        large = sorted(_cofactor_primes(n, d))
        out.extend((p, large.count(p)) for p in dict.fromkeys(large))
    return tuple(out)


def _cofactor_primes(n: int, least: int) -> list:
    """The prime factors, with repeats, of n > 1, which has no prime
    factor below ``least``: n itself below least**2.  Otherwise a
    Miller-Rabin witness (:func:`_miller_rabin`) proves n composite, and
    its square root or Pollard-Brent rho (:func:`_rho`) splits it; with
    no witness, n is prime below 3.3 * 10**24, where the test is exact,
    and out of range (ResourceLimitError) past it."""
    if n < least * least:
        return [n]
    if _miller_rabin(n):
        if n < _MR_LIMIT:
            return [n]
        raise _out_of_range(n, f"is not a prime below {_MR_LIMIT}")
    root = isqrt(n)
    f = root if root * root == n else _rho(n)
    return _cofactor_primes(f, least) + _cofactor_primes(n // f, least)


def _out_of_range(n, why):
    return ResourceLimitError(
        f"a cofactor {n} has no divisor up to {_TRIAL_LIMIT} and {why}; "
        f"factoring it is out of range")


_RHO_STEPS = 1 << 20  # the most iterations _rho makes on one number


def _rho(n: int) -> int:
    """A proper factor of the odd composite non-square n, by Pollard's rho
    on x -> x*x + c with Brent's cycle finding, for c = 1, 2, ... in
    turn; past ``_RHO_STEPS`` iterations it raises ResourceLimitError."""
    steps = 0
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y  # compare the next r iterates with the 2**k-th
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            steps += r
            r *= 2
            if steps > _RHO_STEPS:
                raise _out_of_range(n, f"no factor in {_RHO_STEPS} rho steps")
        if g != n:
            return g


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
