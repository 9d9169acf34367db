"""Primeness and semiprimeness predicates for fuzzy ideals.

Quantifier discipline: every predicate that ranges over continuous
membership values (or over all fuzzy ideals) is decided on a finite
value grid -- the image of the ideal plus 0, 1 and the midpoints of
consecutive image values.  All predicates compare values only by order
against the image, so any violating assignment retracts to a grid point
without changing a single comparison; randomized off-grid sampling in
the test suite double-checks this.

Every decider takes P alone.  On table rings a value is its rank, its
position in ``value_grid(P)``, so the hot loops work on small ints /
numpy arrays; Fractions only appear at the boundaries.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from . import crisp
from .corpus import ideal_chains
from .crisp import (completely_prime_witness, is_prime_ideal,
                    minimal_primes, prime_witness, semiprime_witness)
from .errors import BackendError, TheoremViolationError
from .fuzzy import (FuzzyIdeal, ZERO, ONE, characteristic, star_ideal,
                    value_equivalent)
from .rings import Ring, quotient_ring


# --------------------------------------------------------------------------
# Value grid
# --------------------------------------------------------------------------

class ValueGrid(tuple):
    """An ascending value grid, as a tuple, in rank form for the image it
    holds: ``rank`` maps each value to its rank, its grid position, and
    ``levels`` holds the ranks of the image's values, in level order
    (descending)."""


def value_grid(P: FuzzyIdeal) -> ValueGrid:
    """image(P) + {0, 1} + midpoints of consecutive members, ascending.

    The grid is memoized per image in rank form (:class:`ValueGrid`); it
    holds image(P), so a rank is a grid position.  This is where the
    rank paths take P's Fractions: the rank context and check-frad's
    per-item path compare grid ranks from here on, and turn a rank back
    into a Fraction only to build a witness or write a report.
    """
    return _value_grid(P.values)


@functools.lru_cache(maxsize=1024)
def _value_grid(image) -> ValueGrid:
    """The grid of :func:`value_grid`, memoized per image: a check calls
    it once per item, and corpora draw their images from a few values."""
    base = sorted(set(image) | {ZERO, ONE})
    mids = [(a + b) / 2 for a, b in zip(base, base[1:])]
    grid = ValueGrid(sorted(base + mids))
    grid.rank = {v: i for i, v in enumerate(grid)}
    grid.levels = tuple(grid.rank[v] for v in image)
    return grid


# --------------------------------------------------------------------------
# Rank context for table rings
# --------------------------------------------------------------------------

class _Ctx:
    """Rank-space view of a fuzzy ideal P on the principal classes of a
    table ring, a rank being a position in ``scale = value_grid(P)``.

    Every cut of P is an ideal, a union of principal classes, so P is
    constant on each class: ``pk`` is P's rank on each class, one
    assignment per chain level, and ``pk[cls]`` its rank on each element.
    Every Inf-form reads minima of P over sets of elements, and a fuzzy
    ideal P takes its least value on the ideal <S> generated by a set S
    at a member of S: each element of <S> is a sum of terms +-r s t with
    s in S and r, t in R, and P(a + b) >= min(P(a), P(b)), P(-a) = P(a),
    P(r s t) >= P(s).  So min P(S) = min P(<S>), and ``floor``, P's least
    rank on each lattice ideal, gives all of them.  In a unital ring both
    <xRy> and <x><y> are the additive span of R x R y R, so for x in
    class a and y in class b, min P(xRy) = floor[product[a, b]] =
    ``mk[a, b]``.
    """

    def __init__(self, P: FuzzyIdeal):
        R = P.ring
        if not R.is_table:
            raise BackendError("rank context requires a table ring")
        classes = crisp.principal_classes(R)
        self.ring, self.cls, self.reps = R, classes.cls, classes.reps
        self.scale = value_grid(P)
        pos = crisp.lattice_positions(R)
        self.pk = np.empty(len(self.reps), dtype=np.int64)
        for C, r in zip(reversed(P.ideals), reversed(self.scale.levels)):
            self.pk[classes.members[pos[C]]] = r
        self.floor = np.where(classes.members, self.pk,
                              len(self.scale)).min(axis=1)
        self.mk = self.floor[classes.product]

    def value(self, r):
        return self.scale[int(r)]

    def elem(self, i):
        return self.ring.label(int(i))


_held = (None, None)  # the P of the last _ctx call, and its context


def _ctx(P: FuzzyIdeal) -> _Ctx:
    """P's rank context, kept in one slot: classify and the checks ask
    every decider about one P in turn.  The slot is found by identity,
    so no lookup hashes P's chain; it holds P, whose id therefore stays
    unused by any other object while the slot answers for it."""
    global _held
    held, ctx = _held
    if held is not P:
        ctx = _Ctx(P)
        _held = (P, ctx)
    return ctx


# --------------------------------------------------------------------------
# Prime notions
# --------------------------------------------------------------------------

def prime_new_witness(P: FuzzyIdeal):
    """None if Inf P(xRy) = P(x) v P(y) everywhere; else a witness dict."""
    P.require_non_constant()
    if not P.ring.is_table:
        return _cut_witness(P, prime_witness, "prime")
    ctx = _ctx(P)
    tgt = np.maximum.outer(ctx.pk, ctx.pk)
    found = crisp.first_class_hit(ctx.mk != tgt, ctx.reps)
    if found is None:
        return None
    (a, b), (x, y) = found
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "inf_P_xRy": str(ctx.value(ctx.mk[a, b])),
            "P(x)_or_P(y)": str(ctx.value(tgt[a, b]))}


def is_prime_new(P: FuzzyIdeal) -> bool:
    return prime_new_witness(P) is None


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
        return [R.label(x) for x in w]
    return R.label(w)


def D2_witness(P: FuzzyIdeal):
    P.require_non_constant()
    return _cut_witness(P, prime_witness, "prime")


def is_D2(P: FuzzyIdeal) -> bool:
    return D2_witness(P) is None


def D3_witness(P: FuzzyIdeal):
    """D3 by its cut theorem, P_* prime.  ``prime_witness`` gives the first
    row-major (x, y) with P(xRy) = P(0) and P(x), P(y) < P(0): the first
    hit of the quantified form."""
    P.require_non_constant()
    R = P.ring
    w = prime_witness(R, star_ideal(P))
    if w is None:
        return None
    return {"x": R.label(w[0]), "y": R.label(w[1])}


def is_D3(P: FuzzyIdeal) -> bool:
    return D3_witness(P) is None


def D4_witness(P: FuzzyIdeal):
    """D4 (P(xy) is P(x) or P(y)) by its cut theorem: every cut above the
    bottom is completely prime.  As P(xy) >= P(x) v P(y), a pair fails D4
    iff it fails complete primeness of the cut at level P(xy), and a pair
    failing it for any cut fails D4.  So the first failing pair, row-major,
    is the least of the cuts' first pairs (not the first failing cut's)."""
    P.require_non_constant()
    R = P.ring
    pairs = [w for C, _ in P.chain[:-1]
             if (w := completely_prime_witness(R, C)) is not None]
    if not pairs:
        return None
    x, y = min(pairs)
    return {"x": R.label(x), "y": R.label(y), "P(xy)": str(P(R.mul(x, y))),
            "P(x)": str(P(x)), "P(y)": str(P(y))}


def is_D4(P: FuzzyIdeal) -> bool:
    return D4_witness(P) is None


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


def _product_witness(ctx: _Ctx, ranks, prod_row, reps, top_cut_witness):
    """The first (x, y, t, s), x and y row-major and t, s ascending over
    the positive grid ranks, with P(x) < t, P(y) < s and
    min(t, s) <= prod(x, y); or None.  ``ranks`` holds P's rank on the
    classes whose least elements are ``reps`` (single elements for D0,
    principal classes for D0'), ``prod_row(a)`` the product's ranks on
    row a, and ``top_cut_witness()`` returns the first pair outside P's
    top cut whose product lies inside it, or None.

    For given x and y, min(t, s) only grows with t and with s, so if the
    least t above P(x) and the least s above P(y) fail, every pair fails,
    and if they hold they come first.  The least such t is P(x) + 1, and
    there is none when P(x) = 1.  So (x, y) fails iff P(x) < 1,
    P(y) < 1 and prod(x, y) > min(P(x), P(y)).

    prod(x, y) >= max(P(x), P(y)) always holds, as P(xy) >= P(x) v P(y)
    and every x r y has the same bound.  Let x0 be the first x with
    P(x) < 1 (P is not constant, so one exists); no earlier row fails.
    Row x0 fails at every y with P(y) < 1 and P(y) != P(x0), where
    prod >= max > min.  If row x0 holds no failing pair, every y has
    P(y) = 1 or P(y) = P(x0): P is two-valued with top 1, and a pair fails
    iff x and y lie outside the top cut P_* and the product lies inside
    it.  The first such pair is the crisp witness of P_*, memoized per
    ideal.  Either way t and s are the grid ranks just above P(x), P(y).
    """
    below = ranks < len(ctx.scale) - 1
    a = int(below.argmax())
    hit = crisp.first_hit(below & (prod_row(a) > np.minimum(ranks[a], ranks)))
    if hit is not None:
        x, y = int(reps[a]), int(reps[hit[0]])
    else:
        w = top_cut_witness()
        if w is None:
            return None
        x, y = w
    t, s = (ctx.pk[ctx.cls[e]] + 1 for e in (x, y))
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "t": str(ctx.value(t)), "s": str(ctx.value(s))}


def D0_witness(P: FuzzyIdeal):
    """Singleton product x_t y_s = (xy)_{t^s}; quantifiers on the grid.
    P(xy) is no class function on a noncommutative ring, so each element
    is its own class here."""
    P.require_non_constant()
    R = P.ring
    if not R.is_table:
        raise BackendError("D0 requires a table ring")
    ctx = _ctx(P)
    pv = ctx.pk[ctx.cls]
    return _product_witness(
        ctx, pv, lambda a: pv[R.tables.mul[a]], range(R.size),
        lambda: completely_prime_witness(R, star_ideal(P)))


def is_D0(P: FuzzyIdeal) -> bool:
    return D0_witness(P) is None


def D0prime_witness(P: FuzzyIdeal):
    """<x_t><y_s> is t^s on the product ideal <x><y>; grid-quantified."""
    P.require_non_constant()
    if not P.ring.is_table:
        raise BackendError("D0' requires a table ring")
    ctx = _ctx(P)
    return _product_witness(ctx, ctx.pk, lambda a: ctx.mk[a], ctx.reps,
                            lambda: prime_witness(P.ring, star_ideal(P)))


def is_D0prime(P: FuzzyIdeal) -> bool:
    return D0prime_witness(P) is None


# --------------------------------------------------------------------------
# Semiprime notions
# --------------------------------------------------------------------------

def semiprime_new_witness(P: FuzzyIdeal):
    """None if Inf P(xRx) = P(x) for all x; else witness."""
    P.require_non_constant()
    if not P.ring.is_table:
        return _cut_witness(P, semiprime_witness, "semiprime")
    ctx = _ctx(P)
    diag = ctx.mk.diagonal()
    found = crisp.first_class_hit(diag != ctx.pk, ctx.reps)
    if found is None:
        return None
    (a,), (x,) = found
    return {"x": ctx.elem(x), "inf_P_xRx": str(ctx.value(diag[a])),
            "P(x)": str(ctx.value(ctx.pk[a]))}


def is_semiprime_new(P: FuzzyIdeal) -> bool:
    return semiprime_new_witness(P) is None


def SD2_witness(P: FuzzyIdeal):
    P.require_non_constant()
    return _cut_witness(P, semiprime_witness, "semiprime")


def is_SD2(P: FuzzyIdeal) -> bool:
    return SD2_witness(P) is None


def SD4_witness(P: FuzzyIdeal):
    P.require_non_constant()
    if not P.ring.is_table:
        # over Z (commutative) D4-semiprimeness = squarefree cuts
        return _cut_witness(P, semiprime_witness, "semiprime")
    ctx = _ctx(P)
    pv = ctx.pk[ctx.cls]
    sq = pv[P.ring.tables.mul.diagonal()]
    hit = crisp.first_hit(sq != pv)
    if hit is None:
        return None
    x, = hit
    return {"x": ctx.elem(x), "P(x^2)": str(ctx.value(sq[x])),
            "P(x)": str(ctx.value(pv[x]))}


def is_SD4(P: FuzzyIdeal) -> bool:
    return SD4_witness(P) is None


def SD0prime_witness(P: FuzzyIdeal):
    """<x_t>^2 <= P with x_t !<= P: the first x with Inf P(xRx) > P(x),
    which is SEMIPRIME_NEW's, as Inf P(xRx) >= P(x) always."""
    P.require_non_constant()
    if not P.ring.is_table:
        raise BackendError("D0'-semiprimeness requires a table ring")
    w = semiprime_new_witness(P)
    if w is None:
        return None
    return {"x": w["x"], "t": w["inf_P_xRx"]}


def is_SD0prime(P: FuzzyIdeal) -> bool:
    return SD0prime_witness(P) is None


def SD1_witness(P: FuzzyIdeal):
    """SD1 (I o I <= P implies I <= P, for every fuzzy ideal I) by its cut
    theorem: SD1 holds iff every cut C1, ..., C(m-1) of P is semiprime,
    that is, iff SD2 holds.  This holds on every unital ring, commutative
    or not, and on both backends.

    - Cuts semiprime => SD1.  Take I with I o I <= P and I(x) = t > P(x).
      For every r, xrx = x (rx), so P(xrx) >= min(I(x), I(rx)) >= t.
      With r = 0 this gives t <= P(0), so the level set P_t is R or a cut
      Ck, and it is not R since P(x) < t.  Ck is semiprime and contains
      xRx, so it contains x: P(x) >= t, a contradiction.
    - A cut Ck not semiprime => not SD1.  Take x outside Ck with
      xRx inside Ck, and I = {ck: <x>, P(1): <*>}.  <x> is proper, since
      <x><x> lies in Ck.  Every product ab with a, b in <x> lies in
      <x><x>, the additive span of R xRx R, hence in Ck, so
      I o I <= P; and I(x) = ck > P(x).

    The witness is that I for the first (smallest) cut rejected by the
    memoized ``crisp.semiprime_witness``, with the x it returns.  The
    result keeps the ``(witness-or-None, exhausted)`` shape of the
    search this rule replaced, with ``exhausted`` always False:
    ``perfbench/tracing.py`` wraps this function by name and reads it.
    """
    P.require_non_constant()
    R = P.ring
    for ideal, value in P.chain[:-1]:
        x = semiprime_witness(R, ideal)
        if x is not None:
            from .dsl import format_fuzzy
            I = FuzzyIdeal(R, ((crisp.principal_ideal(R, x), value),
                               (crisp.whole_ideal(R), P.bottom)))
            return {"I": format_fuzzy(I)}, False
    return None, False


def is_SD1(P: FuzzyIdeal) -> bool:
    return SD1_witness(P)[0] is None


def _semiprime_chains(R: Ring, max_len: int, bound: int | None = None):
    """The chains C1 < ... < Cm = R, m >= 2, on which fuzzy ideals are
    semiprime, in ``ideal_chains`` order: ``(positions, prime)``, their
    positions in ``enumerate_ideals(R, bound)`` right-padded with -1, and
    which also carry primes.  One array per ring and bound, holding every
    chain up to the longest ``max_len`` asked for so far, as a chain
    longer than a grid has no member on it.

    A fuzzy ideal Q with chain C1 < ... < Cm = R and values c1 > ... > cm
    is semiprime (Inf Q(xRx) = Q(x) for every x) iff C1, ..., C(m-1) are
    semiprime, and prime (Inf Q(xRy) = Q(x) v Q(y)) iff they are prime,
    whatever the values, on both backends.  Q(xry) >= Q(x) v Q(y) for
    every r, so Inf Q(xRy) >= Q(x) v Q(y), the infimum being a least
    value as Q takes finitely many.  If Inf Q(xRy) = t > Q(x) v Q(y),
    then t > cm, and the level set of t is a cut Ck, k < m, that holds
    xRy but neither x nor y: Ck is not prime.  Conversely, x and y
    outside Ck with xRy inside it give Inf Q(xRy) >= ck > Q(x) v Q(y).
    The semiprime case is x = y.

    So the walk lists only the chains of semiprime proper ideals, with R
    on top, and reads both flags from the crisp witnesses.  Each kept
    chain is decided once more by the Inf-forms, on the values
    (m-1-k)/(m-1); a disagreement raises TheoremViolationError.
    """
    memo = R.cached(("semiprime_chains", bound), dict)
    depth, chains = memo.get("walked", (0, None))
    if depth >= max_len:
        return chains
    lattice = crisp.enumerate_ideals(R, bound)
    semiprimes = [J for J in lattice
                  if not J.is_whole and semiprime_witness(R, J) is None]
    primes = {J for J in semiprimes if prime_witness(R, J) is None}
    pos = crisp.lattice_positions(R, bound)
    rows = []
    for chain in ideal_chains(R, max_len, bound, among=semiprimes)[1:]:
        m = len(chain)
        prime = primes.issuperset(chain[:-1])
        Q = FuzzyIdeal(R, tuple(
            zip(chain, (Fraction(m - 1 - k, m - 1) for k in range(m)))))
        if not is_semiprime_new(Q) or is_prime_new(Q) != prime:
            from .dsl import format_fuzzy
            raise TheoremViolationError(
                "the Inf-forms disagree with the crisp cut flags",
                details={"fuzzy": format_fuzzy(Q), "prime_cuts": prime})
        rows.append(([pos[J] for J in chain], prime))
    width = len(rows[-1][0]) if rows else 2
    chains = (np.array([c + [-1] * (width - len(c)) for c, _ in rows],
                       dtype=np.int64).reshape(-1, width),
              np.array([p for _, p in rows], dtype=bool))
    memo["walked"] = (max_len, chains)
    return chains


def least_members(I: FuzzyIdeal, grid, bound: int | None = None):
    """The pointwise least grid-valued semiprime Q >= I on each chain of
    :func:`_semiprime_chains` that carries one, ``grid`` being
    ``value_grid(I)``: ``(positions, index, prime)``, those chains' rows
    and flags, and the least members' values as indices into the
    descending grid, right-padded with indices from ``len(grid)`` up.

    Take Q with chain C1 < ... < Cm = R and values c1 > ... > cm, and
    set C0 = {}.  (L1) Q >= I iff ck >= need_k for every k, need_k being
    I's largest value off C(k-1), at its least chain ideal not inside
    C(k-1): Q takes ck on Ck minus C(k-1), and its values decrease.  (L2)
    Q is semiprime, or prime, iff its chain's flag says so.  In indices
    i1 < ... < im, L1 reads ik <= lim_k, the last index of rank at least
    need_k, and tightens to ik <= idx_k = min over j >= k of
    lim_j - (j - k), one reversed ``np.minimum.accumulate``.  So the
    chain has members iff idx_1 >= 0, and idx is then the least one.
    """
    R = I.ring
    positions, prime = _semiprime_chains(R, len(grid), bound)
    level_rank = np.array(grid.levels, dtype=np.int64)
    # the L1 need above each lattice ideal C, when C is C(k-1): the rank
    # of I's first level D not inside C; 0 (no bound) for the whole ring,
    # which every chain ideal is inside
    outside = ~crisp.subset_rows(R, [D for D, _ in I.chain], bound)
    threshold = np.where(outside.any(axis=0),
                         level_rank[outside.argmax(axis=0)], 0)
    need = np.empty_like(positions)
    need[:, 0] = level_rank[0]
    need[:, 1:] = threshold[positions[:, :-1]]
    # the grid holds image(I), so rank r is the descending index size-1-r
    size = len(grid)
    level = np.arange(positions.shape[1])
    slack = np.where(positions >= 0, size - 1 - need - level, size)
    index = np.minimum.accumulate(slack[:, ::-1], axis=1)[:, ::-1] + level
    kept = index[:, 0] >= 0
    return positions[kept], index[kept], prime[kept]


@functools.lru_cache(maxsize=4096)
def member_count(bounds: tuple) -> int:
    """The number of members of a chain of :func:`least_members` whose
    least member has the indices ``bounds``: the sequences i1 < ... < im
    with 0 <= ik <= ``bounds[k]``, by a dynamic program over the grid."""
    ways = [1] * (bounds[0] + 1)  # ways[v]: the prefixes ending at v
    for bound in bounds[1:]:
        below = list(itertools.accumulate(ways, initial=0))
        ways = below[:bound + 1] + below[-1:] * (bound + 1 - len(below))
    return sum(ways)


# --------------------------------------------------------------------------
# Characterization and structure checks
# --------------------------------------------------------------------------

def charprime_equivalence_check(P: FuzzyIdeal) -> dict:
    """Four-way equivalence: Inf-form, prime cuts, prime quotients and the
    grid-quantified fuzzy-ideal test; plus D4 agreement when commutative.

    Raises TheoremViolationError on any disagreement.
    """
    R = P.ring
    if not R.is_table:
        raise BackendError("the equivalence check requires a table ring")
    P.require_non_constant()

    a = is_prime_new(P)
    b = D2_witness(P) is None
    c = _quotients_prime(P)
    d = _ideal_test(_ctx(P))

    report = {"inf_form": a, "prime_cuts": b, "prime_quotients": c,
              "ideal_test": d}
    if not (a == b == c == d):
        raise TheoremViolationError(
            "characterization equivalence failed", details=report)
    if R.commutative:
        d4 = is_D4(P)
        report["D4"] = d4
        if d4 != a:
            raise TheoremViolationError(
                "commutative D4 equivalence failed", details=report)
    return report


def _quotients_prime(P: FuzzyIdeal) -> bool:
    """Whether R/C has a prime zero ideal for every proper cut C of P.

    R/{0} has R's tables (``proj`` is the identity), so on the {0} cut
    the quotient leg and the prime-cuts leg coincide: it is decided by
    ``is_prime_ideal(R, {0})``, with no second copy of R.  Above {0}
    each quotient is built, as the independent leg, and only its answer
    is memoized on R, under ``("quotient_prime", C)``.
    """
    R = P.ring

    def quotient_prime(ideal):
        Q = quotient_ring(R, ideal)
        return is_prime_ideal(Q, crisp.zero_ideal(Q))
    for ideal, _ in P.chain[:-1]:
        if ideal.is_zero:
            prime = is_prime_ideal(R, ideal)
        else:
            prime = R.cached(("quotient_prime", ideal),
                             lambda i=ideal: quotient_prime(i))
        if not prime:
            return False
    return True


def _ideal_test(ctx: _Ctx) -> bool:
    """Condition (d) over the threshold family I_t = max(P, t), t on the grid.

    The family is complete: the textbook counterexample to (d), when the
    Inf-form fails, is exactly such a threshold ideal for a value
    strictly between P(x) v P(y) and Inf P(xRy), and the grid midpoints
    realize every such strict interval.
    """
    for t in range(len(ctx.scale)):
        # I_t <= P on xRy (t <= mk) while I_t > P at x and at y
        low = ctx.pk < t
        if ((ctx.mk >= t) & low[:, None] & low[None, :]).any():
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

def classify(P: FuzzyIdeal):
    """Full truth table of all notions, with witnesses for the false ones.
    Quantifiers range over ``value_grid(P)``; ℤ lacks D0 and SD0'.

    Internal cross-assertions (D0' = D1, PRIME_NEW = D2,
    SEMIPRIME_NEW = SD2 and, on commutative rings, PRIME_NEW = D4 and
    SEMIPRIME_NEW = SD4) raise TheoremViolationError on failure.
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
    # D1's characterization (two-valued, top 1, prime top cut) decides
    # the left and right versions too, so they copy its answer
    record("D1L", d1_w)
    record("D1R", d1_w)
    record("D2", D2_witness(P))
    record("SD2", SD2_witness(P))
    record("SD1", SD1_witness(P)[0])
    record("PRIME_NEW", prime_new_witness(P))
    record("D3", D3_witness(P))
    record("D4", D4_witness(P))
    record("SEMIPRIME_NEW", semiprime_new_witness(P))
    record("SD4", SD4_witness(P))
    if R.is_table:
        record("D0", D0_witness(P))
        record("D0'", D0prime_witness(P))
        record("SD0'", SD0prime_witness(P))
    else:
        # Zahedi's equivalence D0' = D1 holds over any ring with unity
        record("D0'", d1_w)

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
    ("SD2", "SD4"),
]


def diagram_check(corpus, notions_list=None) -> dict:
    """Verify Figure-style implication diagrams over a corpus.

    Asserted implications raise TheoremViolationError when violated.
    For the probed reverse directions a counterexample (if any exists in
    the corpus) is reported.  The D0 arrows that the source material
    leaves ambiguous on commutative rings are reported, never asserted.
    ``notions_list`` can supply precomputed classify() outputs in corpus
    order.  A notion absent from an item (D0 and SD0' over ℤ) neither
    proves nor refutes an edge.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if notions_list is None:
        notions_list = [classify(P)[0] for P in corpus]
    rows = [(idx, P, notions)
            for idx, (P, notions) in enumerate(zip(corpus, notions_list))]

    commutative = corpus[0].ring.commutative

    @functools.cache
    def refutation(src, dst):
        """The witness of the first item refuting src => dst, or None."""
        from .dsl import format_fuzzy
        return next(({"fuzzy": format_fuzzy(P), "index": idx}
                     for idx, P, notions in rows
                     if _refutes(notions, src, dst)), None)

    def reported(edge, witness):
        if witness is None:
            return {"edge": edge, "status": "implied"}
        return {"edge": edge, "status": "counterexample", "witness": witness}

    edges = []
    for src, dst, comm_only in PRIME_EDGES + SEMIPRIME_EDGES:
        if comm_only and not commutative:
            continue
        witness = refutation(src, dst)
        if witness is not None:
            raise TheoremViolationError(
                f"implication {src} => {dst} violated", details=witness)
        edges.append({"edge": f"{src}=>{dst}", "status": "implied"})

    # equivalences asserted per item inside classify(), or decided there
    # from the cuts (SD1<=>SD2, D4<=>completely-prime-cuts); record them
    edges.append({"edge": "D0'<=>D1", "status": "implied"})
    edges.append({"edge": "PRIME_NEW<=>D2", "status": "implied"})
    edges.append({"edge": "SD1<=>SD2", "status": "implied"})
    edges.append({"edge": "D4<=>completely-prime-cuts", "status": "implied"})

    for src, dst in PROBED_NON_IMPLICATIONS:
        edges.append(reported(f"{src}=>{dst}", refutation(src, dst)))
    # reported-only D0 arrow on commutative rings, the D0' => D0 probe again
    if commutative:
        edges.append(reported("D0'=>D0 (commutative, reported only)",
                              refutation("D0'", "D0")))

    return {"corpus_size": len(rows), "diagram": edges}


def _refutes(notions, src, dst) -> bool:
    """src holds and dst fails; absent notions never do."""
    return notions.get(src) is True and notions.get(dst) is False
