"""Unital rings: finite table-backed constructions plus the integers.

Table rings are built from a small spec AST (Zn, Mat, Tri, Prod, Quot)
with a fixed canonical element enumeration so that every downstream
report is byte-stable:

* ``Zn(n)``      -- residues 0..n-1 ascending;
* ``Mat/Tri``    -- row-major lexicographic order of the entries;
* ``Prod``      -- lexicographic tuples of the factors' elements;
* ``Quot``      -- cosets ordered by their minimal representative.

All rings are immutable after construction; the per-ring cache dict is
initialised under a lock by whichever reader gets there first.

A table ring holds one copy of its tables, the integer arrays of
``Ring.tables``: the vectorized kernels index them directly, and the
checked ``add``/``mul``/``neg`` methods read single entries.  Table-ring
constructors compute the arrays from the base rings' arrays.  numpy is
imported inside functions here, as in ``crisp``: imported at the top of
either module, ahead of ``primeness``, it raised the peak RSS of
``import fuzzideal`` by 1.8 MB.
"""
from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import RingConstructionError, ResourceLimitError

DEFAULT_MAX_SIZE = 4096
EXHAUSTIVE_AXIOM_LIMIT = 64
AXIOM_SAMPLES = 10_000
# cells per numpy gather in the blocked table kernels (keeps temporaries small)
BLOCK_CELLS = 1 << 15


class Backend(Enum):
    TABLE = "table"
    INTEGERS = "integers"


# --------------------------------------------------------------------------
# Ring spec AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RingSpec:
    pass


@dataclass(frozen=True)
class SpecZ(RingSpec):
    pass


@dataclass(frozen=True)
class SpecZn(RingSpec):
    n: int


@dataclass(frozen=True)
class SpecMat(RingSpec):
    k: int
    base: RingSpec


@dataclass(frozen=True)
class SpecTri(RingSpec):
    k: int
    base: RingSpec


@dataclass(frozen=True)
class SpecProd(RingSpec):
    factors: tuple[RingSpec, ...]


@dataclass(frozen=True)
class SpecQuot(RingSpec):
    base: RingSpec
    # generator element literals (ints / nested tuples), resolved at build time
    gens: tuple


def spec_size(spec: RingSpec) -> int | None:
    """Element count the spec will produce, or None for Z / quotients."""
    if isinstance(spec, SpecZ):
        return None
    if isinstance(spec, SpecZn):
        return spec.n
    if isinstance(spec, SpecMat):
        base = spec_size(spec.base)
        return None if base is None else base ** (spec.k * spec.k)
    if isinstance(spec, SpecTri):
        base = spec_size(spec.base)
        return None if base is None else base ** (spec.k * (spec.k + 1) // 2)
    if isinstance(spec, SpecProd):
        sizes = [spec_size(f) for f in spec.factors]
        if any(s is None for s in sizes):
            return None
        total = 1
        for s in sizes:
            total *= s
        return total
    if isinstance(spec, SpecQuot):
        return None  # depends on the ideal
    raise TypeError(f"unknown spec {spec!r}")


# --------------------------------------------------------------------------
# Ring objects
# --------------------------------------------------------------------------

class Ring:
    """A unital ring, either table-backed or the symbolic integers.

    Table rings hold their :class:`Tables` over the element indices in
    ``range(size)``, read-only; ``size`` is the length of ``neg``.
    Identity of Ring objects is object identity; use :meth:`same_tables`
    for structural comparison.
    """

    def __init__(self, backend, spec, *, tables=None, zero=None, one=None,
                 labels=None, elems=None, base_ring=None, factor_rings=None,
                 parent=None, proj=None, proj_mod=None):
        self.backend = backend
        self.spec = spec
        self.tables = tables
        self.size = None if tables is None else len(tables.neg)
        self.zero = zero if zero is not None else 0
        self.one = one if one is not None else 1
        self.labels = labels
        self.elems = elems
        self.base_ring = base_ring
        self.factor_rings = factor_rings
        self.parent = parent
        self.proj = proj          # table parent index -> quotient index
        self.proj_mod = proj_mod  # modulus when the parent is Z
        self._cache = {}
        # reentrant: cache builders may build other cached artifacts
        self._lock = threading.RLock()
        if backend is Backend.TABLE:
            for table in tables:
                table.flags.writeable = False
            self.commutative = bool((tables.mul == tables.mul.T).all())
        else:
            self.commutative = True

    # -- arithmetic --------------------------------------------------------

    @property
    def is_table(self):
        return self.backend is Backend.TABLE

    def _check(self, x):
        if self.is_table:
            if not (isinstance(x, int) and 0 <= x < self.size):
                raise IndexError(f"element index {x!r} out of range for {self}")
        elif not isinstance(x, int):
            raise IndexError(f"integer expected, got {x!r}")

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return int(self.tables.add[a, b]) if self.is_table else a + b

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return int(self.tables.mul[a, b]) if self.is_table else a * b

    def neg(self, a):
        self._check(a)
        return int(self.tables.neg[a]) if self.is_table else -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def label(self, x):
        if self.is_table:
            return self.labels[x]
        return str(x)

    def project(self, parent_elem):
        """Natural projection for quotient rings."""
        if self.proj is not None:
            return self.proj[parent_elem]
        if self.proj_mod is not None:
            return parent_elem % self.proj_mod
        raise RingConstructionError("not a quotient ring")

    def same_tables(self, other: "Ring") -> bool:
        if self.backend is not other.backend:
            return False
        if not self.is_table:
            return True
        import numpy as np
        return (all(map(np.array_equal, self.tables, other.tables))
                and self.zero == other.zero and self.one == other.one)

    def cached(self, key, builder):
        """Memoize ``builder()`` under ``key`` (single-writer init)."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._cache:
                self._cache[key] = builder()
            return self._cache[key]

    def __repr__(self):
        from .dsl import format_ring_spec
        return f"Ring({format_ring_spec(self.spec)})"


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

class Tables(NamedTuple):
    """A table ring's integer-array tables: ``add[a, b]``, ``mul[a, b]``
    and ``neg[a]``, all element indices of dtype ``intp``."""
    add: object
    mul: object
    neg: object


def row_blocks(n: int, cells_per_row: int):
    """Slices of ``range(n)`` whose rows hold at most BLOCK_CELLS cells."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _pair_table(n, fill):
    """An (n, n) index table, filled block by block: ``fill(rows)`` returns
    the rows' part, broadcastable to (rows, n)."""
    import numpy as np
    out = np.empty((n, n), dtype=np.intp)
    for rows in row_blocks(n, n):
        out[rows] = fill(rows)
    return out


def _table_ring(spec, elems, add, mul, neg, zero, one, labels, **extra):
    """A verified table ring from its index-valued array tables."""
    ring = Ring(Backend.TABLE, spec, tables=Tables(add, mul, neg),
                zero=int(zero), one=int(one), labels=tuple(labels),
                elems=tuple(elems), **extra)
    _verify(ring)
    return ring


def _zn_tables(m):
    import numpy as np
    a = np.arange(m, dtype=np.intp)
    return (a[:, None] + a) % m, (a[:, None] * a) % m, (-a) % m


_ELEMENT_AXIOMS = ("zero is not an additive identity", "neg table wrong",
                   "one is not a two-sided unit")
_TRIPLE_AXIOMS = ("addition not associative", "multiplication not associative",
                  "left distributivity fails", "right distributivity fails")


def _verify(ring, seed=0):
    """Check the eight ring axioms on the array tables.

    Per element a, ascending: additive identity, negation, two-sided
    unit, then commutative addition against every b.  Then the
    associativities and distributivities: exactly, by the certificate of
    ``_axiom_certificate``, up to EXHAUSTIVE_AXIOM_LIMIT elements, and on
    AXIOM_SAMPLES triples above it: the rows of one (AXIOM_SAMPLES, 3)
    array of little-endian 64-bit words from ``random.Random(seed)``,
    each reduced mod n.  (``numpy.random`` would add 6 MB to the peak
    RSS of a run that builds one ring above the limit.)
    The error names the first failure in exactly that order, every triple
    in row-major order on the exact path, so it is the message a loop over
    the same checks would raise.

    The certificate is exact.  Let G be the additive generators of
    ``_additive_generators``: every element is z or a left-nested sum
    ((h1 + h2) + h3) + ... with every h_i in G.  It checks

    1. (x + g) + y = x + (g + y) for all x, y in R and g in G.  The middle
       elements m with (x + m) + y = x + (m + y) for all x, y are closed
       under + (Light's associativity test): for such m and m',
       (x + (m + m')) + y = ((x + m) + m') + y = (x + m) + (m' + y)
       = x + (m + (m' + y)) = x + ((m + m') + y).  They hold z and G, so
       + is associative, and (R, +) is an abelian group: every element,
       z too, is then a sum of members of G.
    2. a(b + g) = ab + ag and (b + g)a = ba + ga for all a, b in R and g in
       G.  For f = left or right multiplication by a, the c with
       f(b + c) = f(b) + f(c) for all b are closed under + by step 1:
       f(b + (c + d)) = f((b + c) + d) = (f(b) + f(c)) + f(d)
       = f(b) + f(c + d).  They hold G, hence every sum of its members.
    3. (gh)k = g(hk) on G x G x G.  With both distributive laws the
       associator (ab)c - a(bc) is additive in each argument, so it
       vanishes on R once it vanishes on G.

    For a ring each check is an instance of an axiom, so the certificate
    fails exactly when some triple breaks one, and only then does the
    blocked triple scan run, to name the first failing triple.  The work
    is O(n^2 |G|), and |G| <= log2 n, since in an abelian group each new
    generator at least doubles the subgroup reached so far.
    """
    import numpy as np
    n = ring.size
    if n < 2:
        raise RingConstructionError("ring with unity requires 0 != 1")
    add, mul, neg = ring.tables
    z, u = ring.zero, ring.one
    elems = np.arange(n)
    element_bad = ((add[:, z] != elems) | (add[z] != elems),
                   add[elems, neg] != z,
                   (mul[:, u] != elems) | (mul[u] != elems))
    noncommuting = add != add.T
    hits = np.flatnonzero(np.logical_or.reduce(element_bad)
                          | noncommuting.any(axis=1))
    if hits.size:
        a = int(hits[0])
        for message, bad in zip(_ELEMENT_AXIOMS, element_bad):
            if bad[a]:
                raise RingConstructionError(f"{message} at {a}")
        b = int(np.argmax(noncommuting[a]))
        raise RingConstructionError(f"addition not commutative at {a},{b}")
    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        if not _axiom_certificate(add, mul, additive_generators(ring)):
            for rows in row_blocks(n, n * n):
                _check_triples(add, mul, elems[rows, None, None],
                               elems[None, :, None], elems[None, None, :])
    else:
        words = random.Random(seed).randbytes(3 * 8 * AXIOM_SAMPLES)
        draws = np.frombuffer(words, dtype="<u8") % n
        draws = draws.astype(np.intp).reshape(AXIOM_SAMPLES, 3)
        _check_triples(add, mul, draws[:, 0], draws[:, 1], draws[:, 2])


def _additive_generators(add, z):
    """Greedy additive generators: the least element not yet reached,
    until the elements reached from z by steps r -> r + g, g a generator,
    are all of them."""
    import numpy as np
    reached = {z}
    gens, steps = [], []
    for g in range(len(add)):
        if g in reached:
            continue
        gens.append(g)
        steps.append(add[:, g].tolist())    # r -> r + g
        stack = [steps[-1][r] for r in reached]
        while stack:
            r = stack.pop()
            if r not in reached:
                reached.add(r)
                stack.extend(step[r] for step in steps)
    return np.array(gens, dtype=np.intp)


def additive_generators(ring):
    """``_additive_generators`` of a table ring, memoized on the ring."""
    return ring.cached("additive_generators", lambda: _additive_generators(
        ring.tables.add, ring.zero))


def _axiom_certificate(add, mul, g):
    """Whether both associativities and both distributivities hold, read
    off the additive generators g (the proof is in ``_verify``)."""
    x_g = add[:, g]                       # [x, g] -> x + g
    if not (add[x_g] == add[:, add[g]]).all():
        return False
    if not (mul[:, x_g] == add[mul[:, :, None], mul[:, g][:, None]]).all():
        return False
    if not (mul[x_g] == add[mul[:, None], mul[g][None]]).all():
        return False
    gg = mul[g[:, None], g]
    return bool((mul[gg][..., g] == mul[g[:, None, None], gg]).all())


def _check_triples(add, mul, a, b, c):
    """Raise for the first (a, b, c), in broadcast row-major order, that
    breaks an associativity or a distributivity.  Up to
    EXHAUSTIVE_AXIOM_LIMIT elements it runs only on a table that failed
    the certificate, to name the failure."""
    import numpy as np
    bad = (add[add[a, b], c] != add[a, add[b, c]],
           mul[mul[a, b], c] != mul[a, mul[b, c]],
           mul[a, add[b, c]] != add[mul[a, b], mul[a, c]],
           mul[add[a, b], c] != add[mul[a, c], mul[b, c]])
    hits = np.flatnonzero(np.logical_or.reduce(bad))
    if not hits.size:
        return
    at = np.unravel_index(hits[0], bad[0].shape)
    triple = ",".join(str(int(np.broadcast_to(v, bad[0].shape)[at]))
                      for v in (a, b, c))
    for message, failed in zip(_TRIPLE_AXIOMS, bad):
        if failed[at]:
            raise RingConstructionError(f"{message} at {triple}")


def build_ring(spec: RingSpec, max_size: int = DEFAULT_MAX_SIZE) -> Ring:
    """Instantiate a ring from its spec.  Deterministic element order."""
    if isinstance(spec, SpecZ):
        return Ring(Backend.INTEGERS, spec)

    if isinstance(spec, SpecQuot):
        return _build_quotient(spec, max_size)

    n = spec_size(spec)
    if n is None:
        raise RingConstructionError(
            f"{spec!r} requires a finite (table) base ring")
    if n > max_size:
        raise ResourceLimitError(f"ring size {n} exceeds limit {max_size}")

    if isinstance(spec, SpecZn):
        if spec.n < 2:
            raise RingConstructionError("Zn requires n >= 2")
        m = spec.n
        return _table_ring(spec, range(m), *_zn_tables(m), 0, 1,
                           map(str, range(m)))

    if isinstance(spec, (SpecMat, SpecTri)):
        if spec.k < 1:
            raise RingConstructionError("Mat/Tri require k >= 1")
        base = build_ring(spec.base, max_size)
        if not base.is_table:
            raise RingConstructionError("Mat/Tri over the integers is not supported")
        return _build_matrix(spec, base, upper=isinstance(spec, SpecTri))

    if isinstance(spec, SpecProd):
        if len(spec.factors) < 2:
            raise RingConstructionError("Prod requires at least two factors")
        factors = [build_ring(f, max_size) for f in spec.factors]
        if any(not f.is_table for f in factors):
            raise RingConstructionError("Prod over the integers is not supported")
        return _build_product(spec, factors)

    raise RingConstructionError(f"unknown ring spec {spec!r}")


def _digits(n, sizes):
    """Mixed-radix digits of 0..n-1, most significant first, with weights."""
    import numpy as np
    idx = np.arange(n, dtype=np.intp)
    weights = [1] * len(sizes)
    for t in range(len(sizes) - 2, -1, -1):
        weights[t] = weights[t + 1] * sizes[t + 1]
    return [(idx // w) % s for w, s in zip(weights, sizes)], weights


def _build_product(spec, factors):
    """Componentwise operations; elements are lexicographic index tuples."""
    sizes = [f.size for f in factors]
    n = spec_size(spec)
    digits, weights = _digits(n, sizes)
    tabs = [f.tables for f in factors]
    parts = list(zip(tabs, digits, weights))

    def table(op):
        return _pair_table(n, lambda rows: sum(
            w * getattr(t, op)[d[rows, None], d[None, :]] for t, d, w in parts))

    elems = list(itertools.product(*[range(s) for s in sizes]))
    return _table_ring(
        spec, elems, table("add"), table("mul"),
        sum(w * t.neg[d] for t, d, w in parts),
        sum(w * f.zero for f, w in zip(factors, weights)),
        sum(w * f.one for f, w in zip(factors, weights)),
        ("(" + ", ".join(f.label(x) for f, x in zip(factors, e)) + ")"
         for e in elems),
        factor_rings=tuple(factors))


def _build_matrix(spec, base, upper):
    """k x k matrices (upper triangular when ``upper``) over a table ring.

    Elements are the free entries in row-major order, each a base-ring
    index, enumerated lexicographically; the tables are computed entrywise
    from the base ring's arrays.
    """
    import numpy as np
    k = spec.k
    positions = [(i, j) for i in range(k) for j in range(k)]
    free = [(i, j) for (i, j) in positions if not (upper and i > j)]
    zero = base.zero
    n = spec_size(spec)
    digit_list, weight_list = _digits(n, [base.size] * len(free))
    digit = dict(zip(free, digit_list))
    weight = dict(zip(free, weight_list))
    badd, bmul, bneg = base.tables

    elems = []
    for combo in itertools.product(range(base.size), repeat=len(free)):
        entry = {p: v for p, v in zip(free, combo)}
        elems.append(tuple(entry.get(p, zero) for p in positions))

    def madd(rows):
        return sum(w * badd[digit[p][rows, None], digit[p][None, :]]
                   for p, w in weight.items())

    # A row or a column is an index among the b**k tuples of k entries;
    # dot[r, c] sums row r times column c over l ascending.  The base ring
    # is verified, so zero + p = p starts each sum.
    tuple_digits, tuple_weights = _digits(base.size ** k, [base.size] * k)
    dot = bmul if k == 1 else bmul[tuple_digits[0][:, None], tuple_digits[0]]
    for l in range(1, k):
        dot = badd[dot, bmul[tuple_digits[l][:, None], tuple_digits[l]]]

    def entry(p):
        # an entry outside the free positions is zero in every element
        return digit[p] if p in digit else zero

    row = [sum(w * entry((i, l)) for l, w in enumerate(tuple_weights))
           for i in range(k)]
    col = [sum(w * entry((l, j)) for l, w in enumerate(tuple_weights))
           for j in range(k)]

    def mmul(rows):
        return sum(w * dot[row[i][rows, None], col[j][None, :]]
                   for (i, j), w in weight.items())

    mneg = sum(w * bneg[digit[p]] for p, w in weight.items())
    zmat = sum(w * zero for w in weight.values())
    imat = sum(w * (base.one if i == j else zero) for (i, j), w in weight.items())

    def mlabel(a):
        rows = []
        for i in range(k):
            rows.append("[" + ",".join(base.label(a[i * k + j])
                                       for j in range(k)) + "]")
        return "[" + ",".join(rows) + "]"

    return _table_ring(spec, elems, _pair_table(n, madd), _pair_table(n, mmul),
                       mneg, zmat, imat, map(mlabel, elems), base_ring=base)


def _build_quotient(spec: SpecQuot, max_size):
    from .crisp import ideal_generate, whole_ideal
    from .dsl import resolve_element_literal
    base = build_ring(spec.base, max_size)
    if spec.gens == ("*",):
        ideal = whole_ideal(base)
    else:
        gens = {resolve_element_literal(base, g) for g in spec.gens}
        ideal = ideal_generate(base, gens)
    return quotient_ring(base, ideal, max_size=max_size)


def quotient_ring(R: Ring, ideal, max_size: int = DEFAULT_MAX_SIZE) -> Ring:
    """R/I as a table ring; representatives are coset minima."""
    if not R.is_table:
        n = ideal.gen
        if n == 0:
            raise RingConstructionError("Z/0Z is infinite")
        if n == 1:
            raise RingConstructionError("quotient by the whole ring is the zero ring")
        if n > max_size:
            raise ResourceLimitError(f"quotient size {n} exceeds limit {max_size}")
        spec = SpecQuot(R.spec, (n,))
        return _table_ring(spec, range(n), *_zn_tables(n), 0, 1,
                           map(str, range(n)), parent=R, proj_mod=n)

    if ideal.is_whole:
        raise RingConstructionError("quotient by the whole ring is the zero ring")

    import numpy as np
    add, mul, neg = R.tables
    members = np.array(sorted(ideal.elems), dtype=np.intp)
    # the coset x + I is represented by its least element
    least = np.empty(R.size, dtype=np.intp)
    for rows in row_blocks(R.size, len(members)):
        least[rows] = add[rows][:, members].min(axis=1)
    is_rep = least == np.arange(R.size)
    reps = np.flatnonzero(is_rep)
    proj = (np.cumsum(is_rep) - 1)[least]

    spec = SpecQuot(R.spec, tuple(_elem_literal(R, g)
                                  for g in _canonical_generators(R, ideal)))
    reps_list = reps.tolist()
    return _table_ring(spec, [R.elems[r] if R.elems else r for r in reps_list],
                       proj[add[np.ix_(reps, reps)]],
                       proj[mul[np.ix_(reps, reps)]], proj[neg[reps]],
                       proj[R.zero], proj[R.one],
                       [R.label(r) for r in reps_list], parent=R,
                       proj=tuple(proj.tolist()))


def _canonical_generators(R, ideal):
    """Greedy minimal generator list, in canonical element order,
    memoized per (ring, ideal).

    Each new generator's cached principal ideal is joined onto the ideal
    generated so far: <g1, ..., gk, x> = <g1, ..., gk> + <x>.
    """
    from .crisp import principal_ideal, zero_ideal

    def build():
        gens = []
        current = zero_ideal(R)
        for x in sorted(ideal.elems):
            if x in current.elems:
                continue
            gens.append(x)
            current = current.join(principal_ideal(R, x))
            if current == ideal:
                break
        return tuple(gens)
    return list(R.cached(("canonical_generators", ideal), build))


def _elem_literal(R, x):
    """Structured literal (int / nested row tuples) for an element.

    The shape matches what the DSL parser produces for element text, so
    quotient specs round-trip through ``format``/``parse``.
    """
    spec = R.spec
    if not R.is_table:
        return x
    if isinstance(spec, SpecZn):
        return x
    if isinstance(spec, (SpecMat, SpecTri)):
        k = spec.k
        entries = R.elems[x]
        base = R.base_ring
        return tuple(tuple(_elem_literal(base, entries[i * k + j])
                           for j in range(k)) for i in range(k))
    if isinstance(spec, SpecProd):
        return tuple(_elem_literal(f, c)
                     for f, c in zip(R.factor_rings, R.elems[x]))
    if isinstance(spec, SpecQuot):
        # representative literal in the parent ring
        parent = R.parent
        rep = R.elems[x] if parent.is_table else x
        if parent.is_table:
            # elems stores the parent's structured value; recover its index
            rep = parent.elems.index(R.elems[x]) if parent.elems else R.elems[x]
        return _elem_literal(parent, rep) if parent.is_table else x
    raise RingConstructionError(f"cannot form literal for {spec!r}")
