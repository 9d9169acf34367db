"""Ring construction: canonical element order, axiom checks, quotients."""
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SMALL_RING, TABLE_SPECS, small_ring
from fuzzideal import (RingConstructionError, build_ring, parse_ring,
                       quotient_ring, rings)
from fuzzideal.crisp import ideal_generate
from fuzzideal.dsl import parse_ring_spec
from fuzzideal.rings import (AXIOM_SAMPLES, EXHAUSTIVE_AXIOM_LIMIT, Backend,
                             Ring, SpecMat, SpecProd, SpecTri, SpecZn, Tables,
                             _canonical_generators, _verify)


def _verify_loop(ring, seed=0):
    """The element-by-element axiom check, kept as the reference for the
    array check in ``rings._verify``: same triples, order and messages."""
    n = ring.size
    add, mul, neg = (t.tolist() for t in ring.tables)
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
        words = random.Random(seed).randbytes(3 * 8 * AXIOM_SAMPLES)
        draws = (np.frombuffer(words, dtype="<u8") % n).tolist()
        triples = zip(draws[0::3], draws[1::3], draws[2::3])
    for a, b, c in triples:
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise RingConstructionError(f"addition not associative at {a},{b},{c}")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise RingConstructionError(f"multiplication not associative at {a},{b},{c}")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise RingConstructionError(f"left distributivity fails at {a},{b},{c}")
        if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
            raise RingConstructionError(f"right distributivity fails at {a},{b},{c}")


def _reference_tables(R):
    """(add, mul, neg) of a Zn/Mat/Tri/Prod ring recomputed the way the
    element-function constructor did: one operation on element values per
    pair, then a lookup of the result's index."""
    spec = R.spec
    if isinstance(spec, SpecZn):
        m = spec.n
        ops = (lambda a, b: (a + b) % m, lambda a, b: (a * b) % m,
               lambda a: (-a) % m)
    elif isinstance(spec, (SpecMat, SpecTri)):
        base, k = R.base_ring, spec.k
        # the base ring's operations as nested lists: the checked methods
        # would make the 729-element Tri(3, Zn(3)) take a minute
        badd, bmul = (t.tolist() for t in base.tables[:2])

        def mmul(a, b):
            out = []
            for i in range(k):
                for j in range(k):
                    acc = base.zero
                    for l in range(k):
                        acc = badd[acc][bmul[a[i * k + l]][b[l * k + j]]]
                    out.append(acc)
            return tuple(out)
        ops = (lambda a, b: tuple(badd[x][y] for x, y in zip(a, b)), mmul,
               lambda a: tuple(map(base.neg, a)))
    elif isinstance(spec, SpecProd):
        fs = R.factor_rings
        ops = (lambda a, b: tuple(f.add(x, y) for f, x, y in zip(fs, a, b)),
               lambda a, b: tuple(f.mul(x, y) for f, x, y in zip(fs, a, b)),
               lambda a: tuple(f.neg(x) for f, x in zip(fs, a)))
    else:
        raise TypeError(spec)
    elems = R.elems
    index = {e: i for i, e in enumerate(elems)}
    add_fn, mul_fn, neg_fn = ops
    return (tuple(tuple(index[add_fn(a, b)] for b in elems) for a in elems),
            tuple(tuple(index[mul_fn(a, b)] for b in elems) for a in elems),
            tuple(index[neg_fn(a)] for a in elems))


def _reference_quotient(R, ideal):
    """(proj, add, mul, neg) of R/I by the coset loop over R's checked
    operations, representatives being coset minima."""
    seen, reps = {}, []
    for x in range(R.size):
        if x in seen:
            continue
        coset = sorted(R.add(x, i) for i in ideal.elems)
        reps.append(coset[0])
        for y in coset:
            seen[y] = coset[0]
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    proj = tuple(rep_index[seen[x]] for x in range(R.size))
    return (proj,
            tuple(tuple(proj[R.add(a, b)] for b in reps) for a in reps),
            tuple(tuple(proj[R.mul(a, b)] for b in reps) for a in reps),
            tuple(proj[R.neg(a)] for a in reps))


def test_zn_canonical_order():
    R = parse_ring("Zn(6)")
    assert R.size == 6
    assert list(R.labels) == [str(i) for i in range(6)]
    assert R.zero == 0 and R.one == 1
    assert R.add(4, 5) == 3 and R.mul(4, 5) == 2 and R.neg(2) == 4


def test_mat_row_major_order():
    R = parse_ring("Mat(2, Zn(2))")
    assert R.size == 16
    # first element all zeros, last all ones, row-major lexicographic
    assert R.labels[0] == "[[0,0],[0,0]]"
    assert R.labels[-1] == "[[1,1],[1,1]]"
    assert R.labels[R.one] == "[[1,0],[0,1]]"


def test_tri_upper_triangular():
    R = parse_ring("Tri(2, Zn(2))")
    assert R.size == 8
    # below-diagonal entry is forced to zero in every element
    for lab in R.labels:
        rows = lab  # "[[a,b],[c,d]]"
        assert lab[8] == "0", lab  # the (1,0) entry


def test_prod_componentwise():
    R = parse_ring("Prod(Zn(2), Zn(3))")
    assert R.size == 6
    assert R.commutative
    one = R.one
    assert R.labels[one] == "(1, 1)"


@pytest.mark.parametrize("n", range(2, 25))
def test_quotient_of_z_matches_zn(n):
    Q = parse_ring(f"Quot(Z, <{n}>)")
    Zn = parse_ring(f"Zn({n})")
    assert Q.same_tables(Zn)
    assert Q.project(n + 3) == 3 % n


def test_mat_commutative_iff_k1():
    assert parse_ring("Mat(1, Zn(4))").commutative
    assert not parse_ring("Mat(2, Zn(2))").commutative
    assert not parse_ring("Tri(2, Zn(2))").commutative


def _table_ring(add, mul, neg, zero=0, one=1):
    n = len(neg)
    tables = Tables(*(np.array(t, dtype=np.intp) for t in (add, mul, neg)))
    return Ring(Backend.TABLE, SpecZn(n), tables=tables, zero=zero, one=one,
                labels=tuple(map(str, range(n))), elems=tuple(range(n)))


def _corrupted_zn4(changes):
    """Zn(4)'s tables with entries overwritten: {(table, a, b): value} for
    "add"/"mul", {("neg", a): value} for the negation."""
    R = parse_ring("Zn(4)")
    tables = dict(zip(("add", "mul", "neg"),
                      (t.tolist() for t in R.tables)))
    for (name, *at), value in changes.items():
        if name == "neg":
            tables["neg"][at[0]] = value
        else:
            tables[name][at[0]][at[1]] = value
    return (tuple(map(tuple, tables["add"])), tuple(map(tuple, tables["mul"])),
            tuple(tables["neg"]), R.zero, R.one)


def _times_zn(tables, m):
    """Componentwise product of a (possibly broken) table structure with
    Zn(m); element (s, t) has index s * m + t."""
    add, mul, neg, zero, one = tables
    n = len(neg)
    pairs = [(s, t) for s in range(n) for t in range(m)]

    def table(op, mod_op):
        return tuple(tuple(op[s][s2] * m + mod_op(t, t2) % m
                           for s2, t2 in pairs) for s, t in pairs)
    return (table(add, lambda a, b: a + b), table(mul, lambda a, b: a * b),
            tuple(neg[s] * m + (-t) % m for s, t in pairs),
            zero * m, one * m + 1)


# One corruption of Zn(4) per axiom; each is that axiom's first failure.
# The messages were recorded from the element-by-element check, on Zn(4)
# itself (exhaustive, <= 64 elements) and on its product with Zn(17)
# (68 elements: AXIOM_SAMPLES seeded triples, where the first sampled
# failure of a distributivity case may break another axiom).
AXIOM_CASES = [
    ({("add", 0, 3): 0, ("add", 3, 0): 0},
     "zero is not an additive identity at 3",
     "zero is not an additive identity at 51"),
    ({("neg", 3): 0}, "neg table wrong at 3", "neg table wrong at 51"),
    ({("mul", 1, 3): 0, ("mul", 3, 1): 0},
     "one is not a two-sided unit at 3", "one is not a two-sided unit at 51"),
    ({("add", 2, 3): 0}, "addition not commutative at 2,3",
     "addition not commutative at 34,51"),
    ({("add", 1, 1): 0}, "addition not associative at 1,1,2",
     "addition not associative at 31,51,50"),
    ({("mul", 0, 3): 1, ("mul", 3, 0): 1},
     "multiplication not associative at 0,0,3",
     "multiplication not associative at 61,8,49"),
    # at 0,0,0 both distributivities fail: the left one is reported
    ({("mul", 0, 0): 1, ("mul", 0, 2): 1},
     "left distributivity fails at 0,0,0",
     "multiplication not associative at 61,8,49"),
    ({("mul", 3, 3): 0}, "right distributivity fails at 1,2,3",
     "left distributivity fails at 67,34,61"),
    # two broken axioms: the first element, then the first triple, wins
    ({("add", 2, 3): 0, ("neg", 3): 0}, "addition not commutative at 2,3",
     "addition not commutative at 34,51"),
    ({("mul", 3, 3): 0, ("mul", 0, 3): 1, ("mul", 3, 0): 1},
     "multiplication not associative at 0,0,3",
     "multiplication not associative at 61,8,49"),
]


def test_axiom_verification_rejects_broken_table():
    """The array check raises the loop's message, naming the same first
    failure, on the exhaustive and on the sampled path, for every case."""
    R = parse_ring("Zn(6)")
    bad_mul = R.tables.mul.copy()
    bad_mul[2, 3] = 5  # breaks associativity/distributivity
    broken = Ring(Backend.TABLE, SpecZn(6),
                  tables=R.tables._replace(mul=bad_mul),
                  zero=0, one=1, labels=R.labels, elems=R.elems)
    with pytest.raises(RingConstructionError,
                       match="^right distributivity fails at 1,1,3$"):
        _verify(broken)
    for changes, exhaustive, sampled in AXIOM_CASES:
        small = _corrupted_zn4(changes)
        large = _times_zn(small, 17)
        assert len(large[2]) > EXHAUSTIVE_AXIOM_LIMIT
        for tables, expected in ((small, exhaustive), (large, sampled)):
            broken = _table_ring(*tables)
            with pytest.raises(RingConstructionError) as exc:
                _verify(broken)
            assert str(exc.value) == expected
            with pytest.raises(RingConstructionError) as ref:
                _verify_loop(broken)
            assert str(ref.value) == expected


def _outcome(check, ring):
    """The message ``check`` raises for the ring, or None if it passes."""
    try:
        check(ring)
    except RingConstructionError as exc:
        return str(exc)
    return None


@given(text=SMALL_RING, data=st.data())
def test_certificate_matches_the_triple_loop(text, data):
    """On small rings with one to three table entries overwritten, the
    generator certificate with its fallback scan and the triple loop pass
    together or raise the same message.  An ``add`` entry is written at
    (a, b) and (b, a), so that addition stays commutative and the
    certificate, not the element checks, decides."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    assert R.size <= EXHAUSTIVE_AXIOM_LIMIT
    add, mul = R.tables.add.copy(), R.tables.mul.copy()
    index = st.integers(0, R.size - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b, value = data.draw(index), data.draw(index), data.draw(index)
        if data.draw(st.booleans()):
            add[a, b] = add[b, a] = value
        else:
            mul[a, b] = value
    broken = Ring(Backend.TABLE, R.spec,
                  tables=R.tables._replace(add=add, mul=mul), zero=R.zero,
                  one=R.one, labels=R.labels, elems=R.elems)
    assert _outcome(_verify, broken) == _outcome(_verify_loop, broken)


def _nonassociative_algebra():
    """The unital algebra over Zn(2) with basis 1, x, y and x*x = y,
    x*y = y*y = 0, y*x = x; element c0 + 2 c1 + 4 c2 is c0 + c1 x + c2 y.
    It is bilinear, so both distributive laws hold, but
    (x*x)*x = x and x*(x*x) = 0."""
    basis = {(1, b): b for b in (1, 2, 4)} | {(b, 1): b for b in (1, 2, 4)}
    basis |= {(2, 2): 4, (2, 4): 0, (4, 2): 2, (4, 4): 0}

    def times(a, b):
        out = 0
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                if a & i and b & j:
                    out ^= basis[i, j]
        return out
    return ([[a ^ b for b in range(8)] for a in range(8)],
            [[times(a, b) for b in range(8)] for a in range(8)], range(8))


def _function_near_ring(opposite):
    """The 27 maps Z3 -> Z3 under pointwise addition and composition
    a*b = a(b(x)), or b(a(x)) when ``opposite``: map f has index
    9 f(0) + 3 f(1) + f(2), the identity map is 5.  Composition is
    associative and distributes over + on one side only."""
    maps = list(itertools.product(range(3), repeat=3))
    index = {f: i for i, f in enumerate(maps)}

    def compose(a, b):
        return index[tuple(a[x] for x in b)]
    return ([[index[tuple((x + y) % 3 for x, y in zip(a, b))] for b in maps]
             for a in maps],
            [[compose(b, a) if opposite else compose(a, b) for b in maps]
             for a in maps],
            [index[tuple(-x % 3 for x in a)] for a in maps])


@pytest.mark.parametrize("tables,one,axiom", [
    (_nonassociative_algebra(), 1, "multiplication not associative"),
    (_function_near_ring(False), 5, "left distributivity fails"),
    (_function_near_ring(True), 5, "right distributivity fails")],
    ids=("nonassociative-algebra", "near-ring", "opposite-near-ring"))
def test_certificate_rejects_a_single_broken_law(tables, one, axiom):
    """Tables that break one multiplicative law and keep the others, so
    that no other step of the certificate can stand in for the missing
    one; the first needs more than one generator to show."""
    broken = _table_ring(*tables, one=one)
    message = _outcome(_verify_loop, broken)
    assert message.startswith(axiom + " at ")
    assert _outcome(_verify, broken) == message


# Every table ring of at most EXHAUSTIVE_AXIOM_LIMIT elements that the
# tests and the benchmark's ring ladder build, besides Zn(2) to Zn(64).
GUARD_SPECS = (
    *TABLE_SPECS, "Mat(1, Zn(4))", "Tri(2, Zn(3))",
    "Tri(3, Zn(2))", "Prod(Zn(2), Zn(2))", "Prod(Zn(4), Zn(2))",
    "Prod(Zn(4), Zn(4))", "Prod(Zn(2), Zn(9))", "Prod(Zn(4), Zn(6))",
    "Prod(Zn(4), Zn(9))", "Prod(Zn(6), Zn(6))", "Prod(Zn(5), Zn(7))",
    "Prod(Zn(2), Zn(2), Zn(2))", "Prod(Zn(2), Zn(3), Zn(2))",
    "Prod(Zn(3), Zn(3), Zn(3))", "Prod(Zn(2), Zn(3), Zn(5))",
    "Prod(Zn(4), Zn(3), Zn(5))", "Prod(Mat(2, Zn(2)), Zn(2))",
    "Prod(Tri(2, Zn(2)), Zn(2))", "Prod(Tri(2, Zn(2)), Zn(3))",
    "Quot(Z, <10>)", "Quot(Zn(12), <4>)",
    "Quot(Tri(2, Zn(2)), <[[0,1],[0,0]]>)",
    "Quot(Tri(2, Zn(3)), <[[0,1],[0,0]]>)",
    "Quot(Prod(Zn(4), Zn(6)), <(2, 0)>)")


def _scan_reached(*args):
    raise AssertionError("the triple scan ran on a valid ring")


def test_valid_rings_never_reach_the_triple_scan():
    """The certificate accepts every valid ring up to the exhaustive
    limit by itself: the row-major triple scan only names failures."""
    with mock.patch.object(rings, "_check_triples", _scan_reached):
        for text in (*(f"Zn({n})" for n in range(2, 65)), *GUARD_SPECS):
            assert parse_ring(text).size <= EXHAUSTIVE_AXIOM_LIMIT, text


@given(text=SMALL_RING)
def test_small_rings_never_reach_the_triple_scan(text):
    """The same on random small Zn/Prod/Tri/Mat/Quot rings."""
    with mock.patch.object(rings, "_check_triples", _scan_reached):
        try:
            parse_ring(text)
        except RingConstructionError:  # a quotient by the whole ring
            pass


@pytest.mark.parametrize("spec", ["Zn(6)", "Zn(65)", "Mat(2, Zn(2))",
                                  "Mat(2, Zn(3))", "Mat(2, Zn(4))",
                                  "Tri(2, Zn(3))", "Tri(3, Zn(2))",
                                  "Tri(3, Zn(3))", "Prod(Zn(2), Zn(3))",
                                  "Prod(Mat(2, Zn(2)), Zn(2))",
                                  "Prod(Zn(4), Zn(3), Zn(5))"])
def test_array_built_tables_match_element_construction(spec):
    """Tables computed from the base rings' arrays equal those built one
    element operation at a time, and the ring passes both axiom checks."""
    R = parse_ring(spec)
    reference = [np.array(t) for t in _reference_tables(R)]
    assert all(map(np.array_equal, R.tables, reference))
    _verify_loop(R)
    assert R.commutative == np.array_equal(reference[1], reference[1].T)


@pytest.mark.parametrize("spec,gens", [
    ("Zn(12)", {4}), ("Zn(12)", {6}), ("Mat(2, Zn(2))", {0}),
    ("Tri(2, Zn(2))", {2}), ("Tri(2, Zn(3))", {3}),
    ("Prod(Zn(4), Zn(6))", {2, 12})])
def test_quotient_tables_match_coset_loop(spec, gens):
    R = parse_ring(spec)
    I = ideal_generate(R, gens)
    Q = quotient_ring(R, I)
    proj, *tables = _reference_quotient(R, I)
    assert Q.proj == proj
    assert all(map(np.array_equal, Q.tables, tables))
    assert (Q.zero, Q.one) == (Q.proj[R.zero], Q.proj[R.one])


@pytest.mark.parametrize("spec", ["Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(3))",
                                  "Prod(Zn(2), Zn(2), Zn(2))"])
def test_canonical_generators_match_regeneration(spec):
    """Joining cached principal ideals gives the generator list that
    regenerating the ideal from scratch for every new generator gave."""
    from fuzzideal import enumerate_ideals
    R = parse_ring(spec)
    for ideal in enumerate_ideals(R):
        gens, current = [], ideal_generate(R, set())
        for x in sorted(ideal.elems):
            if x in current.elems:
                continue
            gens.append(x)
            current = ideal_generate(R, set(gens))
            if current == ideal:
                break
        got = _canonical_generators(R, ideal)
        assert got == gens
        got.append(R.zero)  # the memoized list is not the caller's
        assert _canonical_generators(R, ideal) == gens


def test_invalid_specs():
    with pytest.raises(RingConstructionError):
        build_ring(parse_ring_spec("Mat(2, Z)"))
    with pytest.raises(RingConstructionError):
        build_ring(parse_ring_spec("Quot(Z, <0>)"))  # Z/0Z infinite
    with pytest.raises(RingConstructionError):
        build_ring(parse_ring_spec("Quot(Zn(6), <*>)"))  # zero ring


def test_quotient_projection_is_homomorphism():
    R = parse_ring("Zn(12)")
    I = ideal_generate(R, {4})
    Q = quotient_ring(R, I)
    assert Q.size == 4
    for a in range(R.size):
        for b in range(R.size):
            assert Q.project(R.add(a, b)) == Q.add(Q.project(a), Q.project(b))
            assert Q.project(R.mul(a, b)) == Q.mul(Q.project(a), Q.project(b))


def test_quotient_of_matrix_ring():
    R = parse_ring("Mat(2, Zn(2))")
    Q = quotient_ring(R, ideal_generate(R, {R.zero}))
    assert Q.size == R.size  # quotient by {0} is a copy
    assert Q.project(5) == 5


def test_ring_holds_one_table_copy():
    """A built ring keeps its tables once, as the arrays of ``tables``:
    Zn(1024)'s two 1024 x 1024 intp tables take 16 MiB."""
    import tracemalloc
    tracemalloc.start()
    try:
        R = parse_ring("Zn(1024)")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert R.tables.mul.nbytes + R.tables.add.nbytes == 16 << 20
    assert kept <= 20 << 20
