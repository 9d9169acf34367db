"""Finite-valued fuzzy sets and fuzzy ideals with exact rational values.

The canonical representation of a fuzzy ideal is its cut chain
``[(C1, v1), ..., (Cm, vm)]`` with strictly increasing ideals ending at
the whole ring and strictly decreasing values; evaluation returns the
value of the least cut containing the element.  This makes the cut
criterion structural and works uniformly for table rings and Z.

No floating point anywhere: all membership values are Fractions in [0,1].
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .crisp import (CrispIdeal, enumerate_ideals, factorize, ideal_generate,
                    lattice_positions, whole_ideal, zero_ideal)
from .errors import (BackendError, ConstantIdealError, InvalidFuzzyIdealError,
                     TheoremViolationError)
from .rings import Ring, row_blocks

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_value(v):
    v = Fraction(v)
    if not (ZERO <= v <= ONE):
        raise InvalidFuzzyIdealError(f"membership value {v} outside [0,1]")
    return v


@dataclass(frozen=True)
class FuzzyIdeal:
    ring: Ring
    chain: tuple[tuple[CrispIdeal, Fraction], ...]

    def __call__(self, x) -> Fraction:
        for ideal, value in self.chain:
            if ideal.contains(x):
                return value
        raise AssertionError("chain must end at the whole ring")

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.chain)

    @property
    def ideals(self) -> tuple[CrispIdeal, ...]:
        return tuple(c for c, _ in self.chain)

    @property
    def top(self) -> Fraction:
        """The value at 0, the maximum of the image."""
        return self.chain[0][1]

    @property
    def bottom(self) -> Fraction:
        """The value at 1, the minimum of the image."""
        return self.chain[-1][1]

    @property
    def is_constant(self) -> bool:
        return len(self.chain) == 1

    def require_non_constant(self):
        if self.is_constant:
            raise ConstantIdealError("predicate requires a non-constant fuzzy ideal")

    def to_map(self) -> dict:
        if not self.ring.is_table:
            raise BackendError("total maps require a table ring")
        return {x: self(x) for x in range(self.ring.size)}

    def le(self, other: "FuzzyIdeal") -> bool:
        """Pointwise order F <= G, read from the chains: every level
        (C, v) of F has v <= G(0) and C inside cut(G, v).

        F(0) is F's largest value, and as v descends F's levels, cut(G, v)
        (G's last level valued at least v) moves down G's chain, so one
        merged walk over both chains finds every cut."""
        if self.ring is not other.ring:
            raise ValueError("fuzzy ideals over different rings")
        if self.top > other.top:
            return False
        chain, k = other.chain, 0
        for C, v in self.chain:
            while k + 1 < len(chain) and chain[k + 1][1] >= v:
                k += 1
            if not C.subset(chain[k][0]):
                return False
        return True

    def __repr__(self):
        from .dsl import format_fuzzy
        return f"FuzzyIdeal({format_fuzzy(self)})"


@dataclass(frozen=True)
class FuzzySet:
    """Arbitrary finite-image fuzzy set over a table ring (total array)."""
    ring: Ring
    table: tuple[Fraction, ...]

    def __call__(self, x) -> Fraction:
        return self.table[x]


def probe_elements(*fuzzies):
    """Finite element set distinguishing all value strata of the arguments.

    For a table ring this is every element.  Over Z the value of x only
    depends on which chain ideals nZ contain it, i.e. on gcd(x, L) with
    L the lcm of the nonzero generators, so 0 plus the divisors of L
    realize every membership profile: a tuple memoized per L.
    """
    ring = fuzzies[0].ring
    if ring.is_table:
        return range(ring.size)
    L = 1
    for f in fuzzies:
        for ideal, _ in f.chain:
            if ideal.gen:
                L = L * ideal.gen // gcd(L, ideal.gen)
    return _z_probes(L)


@functools.lru_cache(maxsize=1024)
def _z_probes(L: int) -> tuple[int, ...]:
    """0 and the divisors of L, ascending, from ``crisp.factorize``."""
    divisors = [1]
    for p, e in factorize(L):
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    return (0, *sorted(divisors))


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------

def fuzzy_from_chain(R: Ring, chain) -> FuzzyIdeal:
    """Canonical constructor: validates the chain invariants."""
    if not chain:
        raise InvalidFuzzyIdealError("empty chain")
    cleaned = []
    prev_ideal, prev_value = None, None
    for ideal, value in chain:
        value = _check_value(value)
        if ideal.ring is not R:
            raise InvalidFuzzyIdealError("chain ideal over a different ring")
        if prev_ideal is not None:
            if not (prev_ideal.subset(ideal) and prev_ideal != ideal):
                raise InvalidFuzzyIdealError(
                    "chain ideals must be strictly increasing",
                    witness={"level": len(cleaned)})
            if not value < prev_value:
                raise InvalidFuzzyIdealError(
                    "chain values must be strictly decreasing",
                    witness={"level": len(cleaned)})
        cleaned.append((ideal, value))
        prev_ideal, prev_value = ideal, value
    if not prev_ideal.is_whole:
        raise InvalidFuzzyIdealError("chain must end at the whole ring")
    return FuzzyIdeal(R, tuple(cleaned))


def fuzzy_from_map(R: Ring, assignment) -> FuzzyIdeal:
    """Validate a total value map and convert it to canonical chain form.

    Both the pointwise axioms and the cut criterion are checked; they
    must agree, and axiom failures report a witnessing pair.
    """
    if not R.is_table:
        raise BackendError("fuzzy_from_map requires a table ring")
    table = [_check_value(assignment[x]) for x in range(R.size)]

    witness = _axiom_witness(R, table)
    chain_or_none = _chain_from_table(R, table)
    if witness is not None:
        if chain_or_none is not None:
            raise TheoremViolationError("axiom check and cut criterion disagree")
        x, y, axiom = witness
        raise InvalidFuzzyIdealError(
            f"not a fuzzy ideal: {axiom} fails at "
            f"x={R.label(x)}, y={R.label(y)}",
            witness={"x": R.label(x), "y": R.label(y), "axiom": axiom})
    if chain_or_none is None:
        raise TheoremViolationError("axiom check and cut criterion disagree")
    return FuzzyIdeal(R, chain_or_none)


def _axiom_witness(R, table):
    """The first pair (x, y), row-major, at which a pointwise axiom
    fails, with the subtraction axiom reported first; or None.

    The values are compared as ranks among the distinct values, with
    x - y = add[x, neg[y]] and xy = mul[x, y] read from ``R.tables``
    one block of rows at a time.
    """
    import numpy as np
    rank = {v: i for i, v in enumerate(sorted(set(table)))}
    r = np.array([rank[v] for v in table], dtype=np.intp)
    add, mul, neg = R.tables
    for rows in row_blocks(R.size, R.size):
        rx = r[rows, None]
        bad_sub = r[add[rows][:, neg]] < np.minimum(rx, r)
        bad = bad_sub | (r[mul[rows]] < np.maximum(rx, r))
        i = int(bad.argmax())
        if bad.flat[i]:
            x, y = divmod(i, R.size)
            axiom = ("I(x-y) >= I(x) ^ I(y)" if bad_sub.flat[i]
                     else "I(xy) >= I(x) v I(y)")
            return (rows.start + x, y, axiom)
    return None


def _chain_from_table(R, table):
    """The cut chain of ``table`` in the lattice's own ideal objects, or
    None when a cut is not in ``enumerate_ideals(R)``: every ideal of a
    finite ring is a join of principal ideals, and the lattice is closed
    under joins, so it holds every ideal."""
    lattice, positions = enumerate_ideals(R), lattice_positions(R)
    values = sorted(set(table), reverse=True)
    chain = []
    cut = set()
    for v in values:
        cut |= {x for x in range(R.size) if table[x] == v}
        i = positions.get(CrispIdeal(R, elems=frozenset(cut)))
        if i is None:
            return None
        chain.append((lattice[i], v))
    return tuple(chain)


def zero_type(R: Ring, t, s) -> FuzzyIdeal:
    """Value t at 0 and s elsewhere, s < t."""
    t, s = _check_value(t), _check_value(s)
    if not s < t:
        raise InvalidFuzzyIdealError("zero-type requires s < t")
    return FuzzyIdeal(R, ((zero_ideal(R), t), (whole_ideal(R), s)))


def characteristic(I: CrispIdeal, top=ONE, bottom=ZERO) -> FuzzyIdeal:
    """Two-valued fuzzy ideal: ``top`` on I, ``bottom`` outside."""
    R = I.ring
    if I.is_whole:
        return FuzzyIdeal(R, ((I, _check_value(top)),))
    return fuzzy_from_chain(R, [(I, top), (whole_ideal(R), bottom)])


def constant(R: Ring, v) -> FuzzyIdeal:
    return FuzzyIdeal(R, ((whole_ideal(R), _check_value(v)),))


def singleton(R: Ring, x, t) -> FuzzySet:
    """The fuzzy point x_t (t > 0)."""
    t = _check_value(t)
    if t == ZERO:
        raise InvalidFuzzyIdealError("singleton value must be positive")
    if not R.is_table:
        raise BackendError("singletons as fuzzy sets require a table ring")
    return FuzzySet(R, tuple(t if e == x else ZERO for e in range(R.size)))


def to_set(F: FuzzyIdeal) -> FuzzySet:
    return FuzzySet(F.ring, tuple(F(x) for x in range(F.ring.size)))


# --------------------------------------------------------------------------
# Cuts
# --------------------------------------------------------------------------

def cut(F: FuzzyIdeal, alpha) -> CrispIdeal:
    """The alpha-cut; defined for alpha <= F(0)."""
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    if alpha > F.top:
        raise InvalidFuzzyIdealError(f"cut at {alpha} above the top value is empty")
    out = None
    for ideal, value in F.chain:  # values decrease: keep the last cut >= alpha
        if value < alpha:
            break
        out = ideal
    return out


def star_ideal(F: FuzzyIdeal) -> CrispIdeal:
    """The top cut (at F(0))."""
    return F.chain[0][0]


def strict_support(F: FuzzyIdeal) -> CrispIdeal:
    """{x : F(x) > F(1)}, the largest cut below the whole ring."""
    F.require_non_constant()
    return F.chain[-2][0]


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def compose(A: FuzzySet, B: FuzzySet) -> FuzzySet:
    """(A o B)(x) = sup over x = ab of A(a) ^ B(b).

    With unity every element factors trivially, so the sup is over a
    nonempty set.  The sup is taken in rank form, on the ranks of the
    values among the distinct values of A, B and 0: the rank of
    A(a) ^ B(b) for a block of rows a is one outer minimum, and a max
    scatter onto ab = mul[a, b], one gather from ``R.tables`` per block.
    Unsupported over Z (unbounded factorization search).
    """
    R = A.ring
    if not R.is_table:
        raise BackendError("compose requires a table ring")
    import numpy as np
    values = sorted({ZERO} | set(A.table) | set(B.table))
    rank = {v: i for i, v in enumerate(values)}
    ra, rb = (np.array([rank[v] for v in S.table], dtype=np.intp)
              for S in (A, B))
    out = np.zeros(R.size, dtype=np.intp)  # the rank of 0
    mul = R.tables.mul
    for rows in row_blocks(R.size, R.size):
        np.maximum.at(out, mul[rows], np.minimum(ra[rows, None], rb))
    return FuzzySet(R, tuple(values[r] for r in out.tolist()))


def generate(F: FuzzySet) -> FuzzyIdeal:
    """Least fuzzy ideal above F: value sup{a in im(F) : x in <F_a>}."""
    R = F.ring
    values = sorted(set(F.table), reverse=True)
    chain = []
    prev = None
    for v in values:
        if v == ZERO:
            break
        level = {x for x in range(R.size) if F(x) >= v}
        ideal = ideal_generate(R, level)
        if prev is None or prev != ideal:
            chain.append((ideal, v))
            prev = ideal
    if prev is None or not prev.is_whole:
        chain.append((whole_ideal(R), ZERO))
    return FuzzyIdeal(R, tuple(chain))


def fuzzy_product(I: FuzzyIdeal, J: FuzzyIdeal) -> FuzzyIdeal:
    """IJ = <I o J>, the fuzzy ideal generated by the composite."""
    return generate(compose(to_set(I), to_set(J)))


def intersect(family) -> FuzzyIdeal:
    """Pointwise infimum of a nonempty family, renormalized to a chain.

    The alpha-cut of the infimum is the intersection of the members'
    alpha-cuts.  One pass over the values up to the least top value
    takes, at each value, the distinct member cuts and intersects each
    once; a value whose cut repeats the previous one adds no level.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    R = family[0].ring
    if any(f.ring is not R for f in family):
        raise ValueError("mixed rings in intersection")
    top = min(f.top for f in family)
    # values are keyed by (numerator, denominator): hashing a Fraction
    # costs more than the rest of the pass
    distinct = {(v.numerator, v.denominator): v
                for f in family for _, v in f.chain}
    values = sorted((v for v in distinct.values() if v <= top), reverse=True)
    rank = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
    # cuts[i]: the distinct member cuts at values[i].  A member's level
    # (C, v) is its cut from v down to just above its next value; a value
    # above top starts at index 0.
    cuts = [set() for _ in values]
    for f in family:
        starts = [rank.get((v.numerator, v.denominator), 0)
                  for _, v in f.chain]
        for (ideal, _), start, end in zip(f.chain, starts,
                                          starts[1:] + [len(values)]):
            for i in range(start, end):
                cuts[i].add(ideal)
    return FuzzyIdeal(R, meet_chain(values, cuts))


def meet_chain(values, cuts) -> tuple:
    """The cut chain of a pointwise infimum from its members' cuts: at
    each of the descending ``values``, the intersection of the distinct
    member cuts ``cuts[i]``, each met once.  A value whose cut repeats
    the one before adds no level."""
    chain = []
    for alpha, members in zip(values, cuts):
        c = functools.reduce(CrispIdeal.intersect, members)
        if not chain or chain[-1][0] != c:
            chain.append((c, alpha))
    if not chain[-1][0].is_whole:
        raise TheoremViolationError(
            "intersection chain does not end at the whole ring")
    return tuple(chain)


def value_equivalent(I: FuzzyIdeal, J: FuzzyIdeal) -> bool:
    """Same strict order comparisons everywhere = identical cut sequences."""
    if I.ring is not J.ring:
        raise ValueError("fuzzy ideals over different rings")
    return I.ideals == J.ideals
