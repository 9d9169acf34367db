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
"""
from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass
from enum import Enum

from .errors import RingConstructionError, ResourceLimitError

DEFAULT_MAX_SIZE = 4096
EXHAUSTIVE_AXIOM_LIMIT = 64
AXIOM_SAMPLES = 10_000


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

    Table rings expose ``add``/``mul``/``neg`` tables over element
    indices in ``range(size)``.  Identity of Ring objects is object
    identity; use :meth:`same_tables` for structural comparison.
    """

    def __init__(self, backend, spec, *, size=None, add=None, mul=None,
                 neg=None, zero=None, one=None, labels=None, elems=None,
                 base_ring=None, factor_rings=None, parent=None, proj=None,
                 proj_mod=None):
        self.backend = backend
        self.spec = spec
        self.size = size
        self._add = add
        self._mul = mul
        self._neg = neg
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
            self.commutative = all(
                self._mul[a][b] == self._mul[b][a]
                for a in range(size) for b in range(size))
        else:
            self.commutative = True

    # -- arithmetic --------------------------------------------------------

    @property
    def is_table(self):
        return self.backend is Backend.TABLE

    def elements(self):
        if not self.is_table:
            raise BackendErrorFor("element enumeration", self)
        return range(self.size)

    def _check(self, x):
        if self.is_table:
            if not (isinstance(x, int) and 0 <= x < self.size):
                raise IndexError(f"element index {x!r} out of range for {self}")
        elif not isinstance(x, int):
            raise IndexError(f"integer expected, got {x!r}")

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return self._add[a][b] if self.is_table else a + b

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return self._mul[a][b] if self.is_table else a * b

    def neg(self, a):
        self._check(a)
        return self._neg[a] if self.is_table else -a

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
        return (self.size == other.size and self._add == other._add
                and self._mul == other._mul and self._neg == other._neg
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


def BackendErrorFor(what, ring):
    from .errors import BackendError
    return BackendError(f"{what} is not supported over {ring!r}")


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------

def _table_ring(spec, elems, add_fn, mul_fn, neg_fn, zero_val, one_val,
                label_fn, **extra):
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    add = tuple(tuple(index[add_fn(a, b)] for b in elems) for a in elems)
    mul = tuple(tuple(index[mul_fn(a, b)] for b in elems) for a in elems)
    neg = tuple(index[neg_fn(a)] for a in elems)
    ring = Ring(Backend.TABLE, spec, size=n, add=add, mul=mul, neg=neg,
                zero=index[zero_val], one=index[one_val],
                labels=tuple(label_fn(e) for e in elems),
                elems=tuple(elems), **extra)
    _verify(ring)
    return ring


def _verify(ring, seed=0):
    """Check the eight ring axioms; exhaustive up to 64 elements, sampled above."""
    n = ring.size
    add, mul, neg = ring._add, ring._mul, ring._neg
    z, u = ring.zero, ring.one
    if n < 2:
        raise RingConstructionError("ring with unity requires 0 != 1")
    for a in range(n):
        if add[a][z] != a or add[z][a] != a:
            raise RingConstructionError(f"zero is not an additive identity at {a}")
        if add[a][neg[a]] != z:
            raise RingConstructionError(f"neg table wrong at {a}")
        if mul[a][u] != a or mul[u][a] != a:
            raise RingConstructionError(f"one is not a two-sided unit at {a}")
        for b in range(n):
            if add[a][b] != add[b][a]:
                raise RingConstructionError(f"addition not commutative at {a},{b}")
    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(AXIOM_SAMPLES))
    for a, b, c in triples:
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise RingConstructionError(f"addition not associative at {a},{b},{c}")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise RingConstructionError(f"multiplication not associative at {a},{b},{c}")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise RingConstructionError(f"left distributivity fails at {a},{b},{c}")
        if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
            raise RingConstructionError(f"right distributivity fails at {a},{b},{c}")


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
        return _table_ring(spec, list(range(m)),
                           lambda a, b: (a + b) % m,
                           lambda a, b: (a * b) % m,
                           lambda a: (-a) % m, 0, 1, str)

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
        elems = list(itertools.product(*[range(f.size) for f in factors]))
        return _table_ring(
            spec, elems,
            lambda a, b: tuple(f.add(x, y) for f, x, y in zip(factors, a, b)),
            lambda a, b: tuple(f.mul(x, y) for f, x, y in zip(factors, a, b)),
            lambda a: tuple(f.neg(x) for f, x in zip(factors, a)),
            tuple(f.zero for f in factors), tuple(f.one for f in factors),
            lambda a: "(" + ", ".join(f.label(x) for f, x in zip(factors, a)) + ")",
            factor_rings=tuple(factors))

    raise RingConstructionError(f"unknown ring spec {spec!r}")


def _build_matrix(spec, base, upper):
    k = spec.k
    positions = [(i, j) for i in range(k) for j in range(k)]
    free = [(i, j) for (i, j) in positions if not (upper and i > j)]
    zero = base.zero

    elems = []
    for combo in itertools.product(range(base.size), repeat=len(free)):
        entry = {p: v for p, v in zip(free, combo)}
        elems.append(tuple(entry.get(p, zero) for p in positions))

    def at(m, i, j):
        return m[i * k + j]

    def madd(a, b):
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def mneg(a):
        return tuple(base.neg(x) for x in a)

    def mmul(a, b):
        out = []
        for i in range(k):
            for j in range(k):
                acc = zero
                for l in range(k):
                    acc = base.add(acc, base.mul(at(a, i, l), at(b, l, j)))
                out.append(acc)
        return tuple(out)

    zmat = tuple(zero for _ in positions)
    imat = tuple(base.one if i == j else zero for (i, j) in positions)

    def mlabel(a):
        rows = []
        for i in range(k):
            rows.append("[" + ",".join(base.label(at(a, i, j)) for j in range(k)) + "]")
        return "[" + ",".join(rows) + "]"

    return _table_ring(spec, elems, madd, mmul, mneg, zmat, imat, mlabel,
                       base_ring=base)


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
    from .crisp import CrispIdeal
    from .dsl import format_element

    if not R.is_table:
        n = ideal.gen
        if n == 0:
            raise RingConstructionError("Z/0Z is infinite")
        if n == 1:
            raise RingConstructionError("quotient by the whole ring is the zero ring")
        if n > max_size:
            raise ResourceLimitError(f"quotient size {n} exceeds limit {max_size}")
        spec = SpecQuot(R.spec, (n,))
        m = n
        ring = _table_ring(spec, list(range(m)),
                           lambda a, b: (a + b) % m,
                           lambda a, b: (a * b) % m,
                           lambda a: (-a) % m, 0, 1, str,
                           parent=R, proj_mod=m)
        return ring

    if ideal.is_whole:
        raise RingConstructionError("quotient by the whole ring is the zero ring")

    members = ideal.elems
    seen = {}
    reps = []
    for x in range(R.size):
        if x in seen:
            continue
        coset = sorted(R.add(x, i) for i in members)
        rep = coset[0]
        reps.append(rep)
        for y in coset:
            seen[y] = rep
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    proj = tuple(rep_index[seen[x]] for x in range(R.size))

    spec = SpecQuot(R.spec, tuple(_elem_literal(R, g)
                                  for g in _canonical_generators(R, ideal)))
    add = tuple(tuple(proj[R.add(a, b)] for b in reps) for a in reps)
    mul = tuple(tuple(proj[R.mul(a, b)] for b in reps) for a in reps)
    neg = tuple(proj[R.neg(a)] for a in reps)
    ring = Ring(Backend.TABLE, spec, size=len(reps), add=add, mul=mul, neg=neg,
                zero=proj[R.zero], one=proj[R.one],
                labels=tuple(R.label(r) for r in reps),
                elems=tuple(R.elems[r] if R.elems else r for r in reps),
                parent=R, proj=proj)
    _verify(ring)
    return ring


def _canonical_generators(R, ideal):
    """Greedy minimal generator list, in canonical element order."""
    from .crisp import ideal_generate
    gens = []
    current = ideal_generate(R, set())
    for x in sorted(ideal.elems):
        if x in current.elems:
            continue
        gens.append(x)
        current = ideal_generate(R, set(gens))
        if current == ideal:
            break
    return gens


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
