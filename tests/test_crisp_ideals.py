"""Crisp ideal lattice, primeness oracles, radical, prime-avoiding."""
import itertools
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import SMALL_RING, Z_BOUND, is_ideal, small_ring
from fuzzideal import crisp
from fuzzideal import (CrispIdeal, RingConstructionError, characteristic,
                       crisp_radical, enumerate_ideals,
                       frad_intersection_check, ideal_generate,
                       is_completely_prime_ideal, is_prime_ideal,
                       is_semiprime_ideal, minimal_primes, parse_element,
                       parse_ring, prime_avoiding, whole_ideal, zero_ideal)
from fuzzideal.crisp import (_table_completely_prime_witness,
                             completely_prime_witness, principal_classes,
                             principal_ideal, prime_witness, semiprime_witness,
                             subset_matrix, subset_rows)
from fuzzideal.corpus import ideal_chains
from fuzzideal.errors import (NotProperIdealError, ResourceLimitError,
                              TheoremViolationError)
from fuzzideal.rings import row_blocks

TABLE_SPECS = ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
               "Prod(Zn(2), Zn(3))")


# --------------------------------------------------------------------------
# References: the element-by-element forms of the table kernels in crisp
# --------------------------------------------------------------------------

def _fixpoint_generate(R, gens):
    """Elements of the least ideal containing ``gens``: close {0} and the
    generators under negation, addition and multiplication by R on both
    sides until nothing changes."""
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
    return frozenset(current)


def _inside_outside(P):
    """P's membership mask and the ascending elements outside P."""
    inside = np.zeros(P.ring.size, dtype=bool)
    inside[list(P.elems)] = True
    return inside, np.flatnonzero(~inside)


def _principal_table_reference(R):
    """<x> for every element x as ``principal_ideal`` built it before the
    additive-generator sums: ``ideal_generate(R, {x})`` once per two-sided
    unit orbit, one object per distinct ideal."""
    mul = R.tables.mul
    n = R.size
    units = np.flatnonzero((mul == R.one).any(axis=1))
    table = [None] * n
    distinct = {}
    todo = np.ones(n, dtype=bool)
    while todo.any():
        x = int(todo.argmax())
        orbit = np.zeros(n, dtype=bool)
        orbit[mul[np.ix_(mul[units, x], units)]] = True  # u x v
        I = ideal_generate(R, {x})
        I = distinct.setdefault(I, I)
        for y in np.flatnonzero(orbit).tolist():
            table[y] = I
        todo &= ~orbit
    return table


def _assert_principal_table(R):
    """The principal ideals equal the reference's as element sets, and
    two elements share an ideal object iff their ideals are equal."""
    ref = _principal_table_reference(R)
    table = [principal_ideal(R, x) for x in range(R.size)]
    assert [I.elems for I in table] == [I.elems for I in ref]
    first = {}
    for x, I in enumerate(ref):
        first.setdefault(I, x)
    assert [table[x] is table[first[I]] for x, I in enumerate(ref)] == \
        [True] * R.size
    assert len({id(I) for I in table}) == len(first)


def _prime_witness_loop(R, P):
    outside = [x for x in range(R.size) if not P.contains(x)]
    for x in outside:
        for y in outside:
            if all(P.contains(R.mul(R.mul(x, r), y)) for r in range(R.size)):
                return (x, y)
    return None


def _completely_prime_witness_loop(R, P):
    for x in range(R.size):
        if P.contains(x):
            continue
        for y in range(R.size):
            if P.contains(y):
                continue
            if P.contains(R.mul(x, y)):
                return (x, y)
    return None


def _semiprime_witness_loop(R, P):
    for x in range(R.size):
        if P.contains(x):
            continue
        if all(P.contains(R.mul(R.mul(x, r), x)) for r in range(R.size)):
            return x
    return None


def _table_prime_witness(R, P):
    """The blocked element search that ``prime_witness`` made before it
    ran on the principal classes: the first (x, y), row-major over the
    elements outside P, with (x r) y in P for every r."""
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


def _table_semiprime_witness(R, P):
    """The blocked element search that ``semiprime_witness`` made before
    it ran on the principal classes: the least x outside P with
    (x r) x in P for every r."""
    mul = R.tables.mul
    inside, outside = _inside_outside(P)
    for rows in row_blocks(len(outside), R.size):
        xs = outside[rows]
        found = np.flatnonzero(inside[mul[mul[xs], xs[:, None]]].all(axis=1))
        if found.size:
            return int(xs[found[0]])
    return None


def _mccoy_reference(R, P, x):
    """The McCoy construction that ``prime_avoiding`` made on table rings
    before it read the prime mask: the sequence x0 = x, x_{i+1} =
    x_i r_i x_i outside P with r_i least, until it repeats; then P grown,
    one step at a time to the first larger lattice ideal that holds no
    member of the sequence, until none is left."""
    seq, seen = [x], {x}
    while True:
        cur = seq[-1]
        nxt = next((c for c in (R.mul(R.mul(cur, r), cur)
                                for r in range(R.size))
                    if not P.contains(c)), None)
        assert nxt is not None, "semiprimeness guarantees a continuation"
        if nxt in seen:
            break
        seen.add(nxt)
        seq.append(nxt)
    avoid = frozenset(seen)
    M = P
    grown = True
    while grown:
        grown = False
        for cand in enumerate_ideals(R):
            if cand == M or not M.subset(cand) or cand.elems & avoid:
                continue
            M = cand
            grown = True
            break
    return M


def _radical_loop(R, I):
    """The intersection of the primes above I, one lattice ideal at a
    time: ``crisp_radical`` on table rings before the prime mask."""
    out = whole_ideal(R)
    for P in enumerate_ideals(R):
        if not P.is_whole and I.subset(P) and is_prime_ideal(R, P):
            out = out.intersect(P)
    return out


def _minimal_primes_loop(R):
    """The primes with no smaller prime below them: ``minimal_primes``
    before the prime mask."""
    primes = [P for P in enumerate_ideals(R)
              if not P.is_whole and is_prime_ideal(R, P)]
    return [P for P in primes
            if not any(Q != P and Q.subset(P) for Q in primes)]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_generation_matches_fixpoint(spec, rings):
    """On every generator set of size <= 2 and on random larger sets."""
    R = rings[spec]
    sets = [set(c) for k in range(3)
            for c in itertools.combinations(range(R.size), k)]
    rng = random.Random(spec)
    sets += [set(rng.sample(range(R.size), rng.randint(3, R.size)))
             for _ in range(40)]
    for gens in sets:
        assert ideal_generate(R, gens).elems == _fixpoint_generate(R, gens), \
            (spec, gens)


@given(text=SMALL_RING, data=st.data())
def test_generation_is_the_least_ideal(text, data):
    """ideal_generate equals the fixpoint and passes the ideal axioms on
    random small rings and generator sets."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    gens = data.draw(st.sets(st.integers(0, R.size - 1), max_size=4))
    I = ideal_generate(R, gens)
    assert I.elems == _fixpoint_generate(R, gens)
    assert is_ideal(R, I.elems)


@pytest.mark.parametrize("spec", TABLE_SPECS + (
    "Prod(Zn(2), Zn(2))", "Mat(2, Zn(4))", "Tri(3, Zn(3))"))
def test_principal_table_matches_the_reference(spec):
    """Among them rings with two to six additive generators, where every
    generator's left ideal R(x g) is needed."""
    _assert_principal_table(parse_ring(spec))


@given(text=SMALL_RING)
def test_principal_table_matches_the_reference_on_random_rings(text):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    _assert_principal_table(R)


@pytest.mark.parametrize("spec", TABLE_SPECS + (
    "Zn(36)", "Tri(2, Zn(3))", "Prod(Zn(2), Zn(2), Zn(2))", "Tri(3, Zn(2))",
    "Mat(2, Zn(4))"))
def test_class_witnesses_match_the_element_searches_per_ring(spec):
    """The witnesses of the per-ring pass, by lattice position, are the
    blocked element searches' on every proper lattice ideal, and None on
    the whole ring."""
    R = parse_ring(spec)  # fresh caches
    witnesses = crisp.class_witnesses(R)
    lattice = enumerate_ideals(R)
    assert len(witnesses.prime) == len(witnesses.semiprime) == len(lattice)
    for P, prime, semiprime in zip(lattice, *witnesses):
        if P.is_whole:
            assert prime is semiprime is None
            continue
        assert prime == _table_prime_witness(R, P), (spec, P)
        assert semiprime == _table_semiprime_witness(R, P), (spec, P)


@given(text=SMALL_RING)
def test_principal_classes_match_generation(text):
    """The principal ideals, generated once per unit orbit, equal
    ``ideal_generate(R, {x})`` for every x; the classes group exactly the
    elements with equal ideals, led by their least elements; ``members``
    tells which lattice ideals hold each representative; and each class
    product is the ideal generated by reps[a] R reps[b]."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    ideals = [ideal_generate(R, {x}) for x in range(R.size)]
    assert [principal_ideal(R, x) for x in range(R.size)] == ideals
    classes = principal_classes(R)
    first = {}
    for x, I in enumerate(ideals):
        first.setdefault(I, x)
    assert classes.reps.tolist() == list(first.values())
    assert [classes.reps[c] for c in classes.cls] == \
        [first[I] for I in ideals]
    lattice = enumerate_ideals(R)
    assert classes.members.tolist() == [
        [J.contains(x) for x in classes.reps.tolist()] for J in lattice]
    for a, x in enumerate(classes.reps.tolist()):
        for b, y in enumerate(classes.reps.tolist()):
            xry = {R.mul(R.mul(x, r), y) for r in range(R.size)}
            assert lattice[classes.product[a, b]] == ideal_generate(R, xry)


@given(text=SMALL_RING)
def test_class_witnesses_match_the_element_searches(text):
    """The class-table prime and semiprime witnesses equal the element
    searches' on every proper lattice ideal, and re-validate from the
    tables: x, y outside P with (x r) y in P for every r, and x outside P
    with (x r) x in P for every r."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    mul = R.tables.mul
    for P in enumerate_ideals(R):
        if P.is_whole:
            continue
        w = prime_witness(R, P)
        assert w == _table_prime_witness(R, P), (text, P)
        if w is not None:
            x, y = w
            assert not P.contains(x) and not P.contains(y)
            assert all(P.contains(v) for v in mul[mul[x], y].tolist())
        x = semiprime_witness(R, P)
        assert x == _table_semiprime_witness(R, P), (text, P)
        if x is not None:
            assert not P.contains(x)
            assert all(P.contains(v) for v in mul[mul[x], x].tolist())


@pytest.mark.parametrize("spec", TABLE_SPECS + ("Z",))
def test_subset_rows_are_the_subset_order(spec, rings):
    """Over Z the rows also cover generators past the bound."""
    R = rings[spec]
    bound = None if R.is_table else Z_BOUND
    lattice = enumerate_ideals(R, bound)
    ideals = lattice if R.is_table else [CrispIdeal(R, gen=g)
                                         for g in range(3 * Z_BOUND)]
    assert subset_rows(R, ideals, bound).tolist() == \
        [[I.subset(J) for J in lattice] for I in ideals]
    if R.is_table:
        assert (subset_matrix(R) == subset_rows(R, lattice)).all()


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_join_is_the_set_of_sums(spec, rings):
    R = rings[spec]
    lattice = enumerate_ideals(R)
    for I, J in itertools.product(lattice, repeat=2):
        assert I.join(J).elems == frozenset(
            R.add(a, b) for a in I.elems for b in J.elems)


def test_generation_rejects_elements_outside_the_ring(rings):
    R = rings["Zn(6)"]
    for bad in (-1, 6):
        with pytest.raises(IndexError):
            ideal_generate(R, {bad})


@pytest.mark.parametrize("spec", ["Zn(6)", "Zn(8)", "Tri(2, Zn(2))",
                                  "Prod(Zn(2), Zn(3))"])
def test_lattice_matches_subset_oracle(spec, rings):
    """Every subset of a ring of size <= 8 that passes the axiom check is
    in the enumerated lattice, and vice versa."""
    R = rings.get(spec) or parse_ring(spec)
    assert R.size <= 8
    oracle = set()
    for r in range(1, R.size + 1):
        for combo in itertools.combinations(range(R.size), r):
            subset = frozenset(combo)
            if is_ideal(R, subset):
                oracle.add(subset)
    enumerated = {I.elems for I in enumerate_ideals(R)}
    assert enumerated == oracle


def test_zn6_lattice(rings):
    R = rings["Zn(6)"]
    ideals = enumerate_ideals(R)
    assert [sorted(I.elems) for I in ideals] == \
        [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]


def test_z_ideal_arithmetic(rings):
    Z = rings["Z"]
    a = CrispIdeal(Z, gen=4)
    b = CrispIdeal(Z, gen=6)
    assert a.intersect(b).gen == 12  # lcm
    assert a.join(b).gen == 2        # gcd
    assert CrispIdeal(Z, gen=8).subset(a)
    assert not a.subset(CrispIdeal(Z, gen=8))
    assert zero_ideal(Z).subset(a)
    assert ideal_generate(Z, {6, -4}).gen == 2
    assert ideal_generate(Z, set()).gen == 0


@pytest.mark.parametrize("n", range(2, 60))
def test_z_primeness_oracles(rings, n):
    Z = rings["Z"]
    I = CrispIdeal(Z, gen=n)
    assert is_prime_ideal(Z, I) == sympy.isprime(n)
    assert is_completely_prime_ideal(Z, I) == sympy.isprime(n)
    squarefree = all(e == 1 for e in sympy.factorint(n).values())
    assert is_semiprime_ideal(Z, I) == squarefree
    w = semiprime_witness(Z, I)
    if w is not None:
        assert (w * w) % n == 0 and w % n != 0
    assert crisp_radical(Z, I).gen == sympy.prod(sympy.primefactors(n))


def _sympy_factorization(n):
    return tuple(sorted(sympy.factorint(n).items()))


def test_factorize_matches_sympy():
    """The trial-division helper against sympy: every n up to 5,000,
    lcm(1, ..., 64), and large values with a prime cofactor inside the
    limit."""
    lcm64 = 1
    for k in range(1, 65):
        lcm64 = lcm64 * k // sympy.gcd(lcm64, k)
    large = [lcm64, 2 ** 40, 3 ** 25 * 7, 999_999_999_989,
             2 * 999_983 * 999_979, 10 ** 12 + 39, 97 * (10 ** 12 + 39)]
    for n in [*range(1, 5001), *large]:
        assert crisp.factorize(n) == _sympy_factorization(n), n


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


@pytest.mark.parametrize("n", [
    1_000_003 * 1_000_033, 2 ** 61 - 1, 10 ** 13 + 37, 3 * (2 ** 61 - 1),
    (2 ** 61 - 1) ** 2, PSI_12, PSI_13, 2 ** 89 - 1])
def test_factorize_past_its_limit_raises(n):
    """A cofactor above 10**12 with no divisor up to 10**6 is factored
    when the Miller-Rabin test proves it prime below its bound, or
    composite (PSI_12 fools the bases up to 37, not 41), checked with
    sympy; a probable prime past the bound (PSI_13, 2**89 - 1) is out of
    range."""
    if n in (PSI_13, 2 ** 89 - 1):
        with pytest.raises(ResourceLimitError, match="out of range"):
            crisp.factorize(n)
    else:
        assert crisp.factorize(n) == _sympy_factorization(n)


def _primes_above(start, count):
    out = [sympy.nextprime(start)]
    while len(out) < count:
        out.append(sympy.nextprime(out[-1]))
    return out


@pytest.mark.parametrize("n", [
    *(p * q for p, q in itertools.combinations(_primes_above(10 ** 6, 3), 2)),
    sympy.nextprime(10 ** 8) * sympy.nextprime(10 ** 9),
    sympy.nextprime(10 ** 11) * sympy.nextprime(2 * 10 ** 11),
    2 ** 5 * 3 * sympy.nextprime(10 ** 7) * sympy.nextprime(10 ** 10),
    sympy.nextprime(10 ** 6) ** 2 * sympy.nextprime(10 ** 8),
    sympy.nextprime(10 ** 6) * sympy.nextprime(10 ** 7)
    * sympy.nextprime(10 ** 8),
    6 * sympy.prevprime(10 ** 12), sympy.prevprime(10 ** 12) ** 2])
def test_factorize_splits_large_composites(n):
    """Products of primes above 10**6 split by Pollard-Brent rho, and the
    prime cofactor just below 10**12, match sympy.factorint."""
    assert crisp.factorize(n) == _sympy_factorization(n)


def test_factorize_gives_up_past_the_rho_steps(monkeypatch):
    """A composite cofactor whose least prime factor rho does not reach
    within ``_RHO_STEPS`` iterations is out of range."""
    monkeypatch.setattr(crisp, "_RHO_STEPS", 1 << 10)
    n = sympy.nextprime(10 ** 12) * sympy.nextprime(2 * 10 ** 12)
    with pytest.raises(ResourceLimitError, match="rho steps"):
        crisp._cofactor_primes(n, 10 ** 6)


def test_z_witnesses_match_the_sympy_formulas():
    """The Z witnesses read from the helper are those of the sympy
    formulas they replace."""
    Z = parse_ring("Z")  # its own memo, not the session ring's
    for n in range(2, 2000):
        I = CrispIdeal(Z, gen=n)
        factors = sympy.factorint(n)
        p = min(factors)
        assert prime_witness(Z, I) == (None if sympy.isprime(n)
                                       else (p, n // p)), n
        square = next((q for q, e in factors.items() if e >= 2), None)
        assert semiprime_witness(Z, I) == (
            None if square is None else n // square), n
        if square is None:
            for x in range(1, 25):
                if x % n:
                    avoid = next(q for q in sorted(sympy.primefactors(n))
                                 if x % q)
                    assert prime_avoiding(Z, I, x).gen == avoid, (n, x)
    zero = zero_ideal(Z)
    for x in range(1, 3000):
        q = 2
        while x % q == 0:
            q = sympy.nextprime(q)
        assert prime_avoiding(Z, zero, x).gen == q, x


def test_zero_ideal_of_z_is_prime(rings):
    Z = rings["Z"]
    assert is_prime_ideal(Z, zero_ideal(Z))
    assert is_semiprime_ideal(Z, zero_ideal(Z))


def test_zero_and_whole_ideal_are_memoized(rings):
    """One object per ring, equal to a freshly built one."""
    for R in rings.values():
        zero, whole = zero_ideal(R), whole_ideal(R)
        assert zero_ideal(R) is zero and whole_ideal(R) is whole
        if R.is_table:
            assert zero == CrispIdeal(R, elems=frozenset({R.zero}))
            assert whole == CrispIdeal(R, elems=frozenset(range(R.size)))
        else:
            assert zero == CrispIdeal(R, gen=0)
            assert whole == CrispIdeal(R, gen=1)
        assert zero.is_zero and whole.is_whole


def test_matrix_zero_ideal_prime_not_completely_prime(rings):
    """The zero ideal of a full matrix ring is prime, but E12^2 = 0
    certifies it is not completely prime."""
    R = rings["Mat(2, Zn(2))"]
    zero = zero_ideal(R)
    assert is_prime_ideal(R, zero)
    assert not is_completely_prime_ideal(R, zero)
    e12 = parse_element(R, "[[0,1],[0,0]]")
    assert R.mul(e12, e12) == R.zero
    x, y = completely_prime_witness(R, zero)
    assert R.mul(x, y) == R.zero and x != R.zero and y != R.zero


def test_completely_prime_implies_prime(rings):
    for spec, R in rings.items():
        if not R.is_table:
            continue
        for I in enumerate_ideals(R):
            if I.is_whole:
                continue
            if is_completely_prime_ideal(R, I):
                assert is_prime_ideal(R, I), spec


def test_prime_iff_no_ideal_product_inside(rings):
    """(*) ideal-product primeness agrees with (***) elementwise primeness."""
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
                 "Prod(Zn(2), Zn(3))"):
        R = rings[spec]
        lattice = enumerate_ideals(R)
        for P in lattice:
            if P.is_whole:
                continue
            product_form = True
            for I, J in itertools.product(lattice, repeat=2):
                if I.subset(P) or J.subset(P):
                    continue
                prod = ideal_generate(
                    R, {R.mul(a, b) for a in I.elems for b in J.elems})
                if prod.subset(P):
                    product_form = False
                    break
            assert product_form == is_prime_ideal(R, P), (spec, P)


def test_radical_is_smallest_semiprime_above(rings):
    for spec in ("Zn(6)", "Zn(12)", "Tri(2, Zn(2))"):
        R = rings[spec]
        lattice = enumerate_ideals(R)
        for I in lattice:
            if I.is_whole:
                continue
            rad = crisp_radical(R, I)
            assert I.subset(rad) and is_semiprime_ideal(R, rad)
            for J in lattice:
                if J.is_whole or not I.subset(J):
                    continue
                if is_semiprime_ideal(R, J):
                    assert rad.subset(J)


def test_memoized_crisp_answers_match_the_searches():
    """Memoized prime, completely prime and semiprime witnesses and
    radicals equal the element-by-element searches, first witness
    included, on every lattice ideal, when filling and when reading."""
    for spec in TABLE_SPECS + ("Zn(36)", "Tri(2, Zn(3))",
                               "Prod(Zn(2), Zn(2), Zn(2))", "Tri(3, Zn(2))"):
        R = parse_ring(spec)  # fresh caches
        lattice = enumerate_ideals(R)
        proper = [P for P in lattice if not P.is_whole]
        for _ in range(2):
            for I in lattice:
                rad = whole_ideal(R)
                for P in proper:
                    if I.subset(P) and _prime_witness_loop(R, P) is None:
                        rad = rad.intersect(P)
                assert crisp_radical(R, I) == rad, (spec, I)
            for P in proper:
                expected = _prime_witness_loop(R, P)
                assert prime_witness(R, P) == expected, (spec, P)
                assert _table_prime_witness(R, P) == expected
                expected = _semiprime_witness_loop(R, P)
                assert semiprime_witness(R, P) == expected, (spec, P)
                assert _table_semiprime_witness(R, P) == expected
                expected = _completely_prime_witness_loop(R, P)
                assert completely_prime_witness(R, P) == expected, (spec, P)
                assert _table_completely_prime_witness(R, P) == expected


def test_z_radical_factors_each_generator_once(monkeypatch):
    """Over Z the radical is memoized per ideal, so each generator is
    factored once however often its radical is asked for."""
    Z = parse_ring("Z")  # fresh caches
    calls = []
    factorize = crisp.factorize
    monkeypatch.setattr(crisp, "factorize",
                        lambda n: calls.append(n) or factorize(n))
    for _ in range(3):
        for n in range(64):
            assert crisp_radical(Z, CrispIdeal(Z, gen=n)).gen == \
                (sympy.prod(sympy.primefactors(n)) if n else 0)
    assert calls == list(range(2, 64))


def test_whole_ring_rejected():
    R = parse_ring("Zn(6)")
    with pytest.raises(NotProperIdealError):
        is_prime_ideal(R, whole_ideal(R))
    assert crisp_radical(R, whole_ideal(R)).is_whole


def test_minimal_primes_zn6(rings):
    R = rings["Zn(6)"]
    gens = sorted(min(P.elems - {0}) for P in minimal_primes(R))
    assert gens == [2, 3]


def _check_prime_mask_readers(R):
    """On every lattice ideal, ``crisp_radical`` is the parent loop's; on
    every semiprime P and x outside P, ``prime_avoiding`` gives the first
    prime of the lattice, found by the element search, that contains P
    and misses x, and the McCoy reference gives a prime with the same
    postconditions; ``minimal_primes`` is the parent loop's."""
    lattice = enumerate_ideals(R)
    primes = [Q for Q in lattice
              if not Q.is_whole and _prime_witness_loop(R, Q) is None]
    for P in lattice:
        assert crisp_radical(R, P) == _radical_loop(R, P), P
        if P.is_whole or _semiprime_witness_loop(R, P) is not None:
            continue
        for x in range(R.size):
            if P.contains(x):
                continue
            M = prime_avoiding(R, P, x)
            assert M == next(Q for Q in primes
                             if P.subset(Q) and not Q.contains(x)), (P, x)
            ref = _mccoy_reference(R, P, x)
            assert ref in primes and P.subset(ref) and not ref.contains(x)
    assert minimal_primes(R) == _minimal_primes_loop(R)


def test_prime_avoiding_postconditions(rings):
    for spec in TABLE_SPECS:
        _check_prime_mask_readers(rings[spec])


@given(text=SMALL_RING)
def test_prime_mask_readers_match_the_references(text):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    _check_prime_mask_readers(R)


@pytest.mark.parametrize("mask, x, match", [
    ([True, True, True, False], 1, "must be prime"),   # {0} is not prime
    ([False, True, False, False], 3, "no prime above")])  # <2> dropped
def test_a_lying_prime_mask_raises(monkeypatch, mask, x, match):
    """Zn(6) has the lattice {0}, <3>, <2>, R and the primes <3>, <2>.
    Marking {0} prime makes it the prime-avoiding ideal of 1, which fails
    the postcondition; dropping <2> leaves 3 with no prime above {0} that
    misses it.  check-frad, reading the same mask, fails too."""
    assert crisp.prime_mask(parse_ring("Zn(6)")).tolist() == \
        [False, True, True, False]
    lie = np.array(mask)
    monkeypatch.setattr(crisp, "prime_mask", lambda R: lie)
    R = parse_ring("Zn(6)")  # fresh caches
    with pytest.raises(TheoremViolationError, match=match):
        prime_avoiding(R, zero_ideal(R), x)
    R = parse_ring("Zn(6)")
    with pytest.raises(TheoremViolationError):
        frad_intersection_check(characteristic(zero_ideal(R)))


def test_prime_avoiding_over_z(rings):
    Z = rings["Z"]
    M = prime_avoiding(Z, CrispIdeal(Z, gen=6), 4)
    assert M.gen == 3  # smallest prime factor of 6 not dividing 4
    M0 = prime_avoiding(Z, zero_ideal(Z), 6)
    assert M0.gen == 5  # smallest prime not dividing 6


def test_z_enumeration_requires_bound(rings):
    with pytest.raises(ResourceLimitError):
        enumerate_ideals(rings["Z"])
    assert [I.gen for I in enumerate_ideals(rings["Z"], 5)] == [0, 1, 2, 3, 4, 5]


def test_ideal_chains_need_the_whole_ring(rings):
    """Over Z at bound 0 the lattice is {0} alone: no chain can end at Z."""
    with pytest.raises(TheoremViolationError) as exc:
        ideal_chains(rings["Z"], 3, bound=0)
    assert exc.value.details["bound"] == 0


def _ideal_chains_pairwise(R, max_len, bound=None, among=None):
    """The walk that ideal_chains replaced: ``below`` from one
    ``CrispIdeal.subset`` per pair of ideals."""
    lattice = enumerate_ideals(R, bound)
    whole = next(i for i in reversed(lattice) if i.is_whole)
    if among is not None:
        among = set(among)
        lattice = [i for i in lattice if i in among]
    below = {i: [j for j in lattice if j != i and j.subset(i)]
             for i in (*lattice, whole)}
    chains = frontier = [[whole]]
    for _ in range(max_len - 1):
        frontier = [[j] + chain for chain in frontier
                    for j in below[chain[0]]]
        if not frontier:
            break
        chains = chains + frontier
    return [tuple(c) for c in chains]


@pytest.mark.parametrize("spec, bound", [(spec, None) for spec in TABLE_SPECS]
                         + [("Z", 8), ("Z", 12)])
def test_ideal_chains_match_the_pairwise_walk(rings, monkeypatch, spec,
                                              bound):
    """ideal_chains reads ``below`` off the subset rows: the same chains in
    the same order as the pairwise walk, with and without ``among`` (the
    semiprimes, a seeded sample of the lattice, and none of it), and no
    ``CrispIdeal.subset`` call."""
    R = rings[spec]
    lattice = enumerate_ideals(R, bound)
    semiprimes = [J for J in lattice
                  if not J.is_whole and is_semiprime_ideal(R, J)]
    sample = random.Random(24).sample(lattice, len(lattice) // 2)
    cases = (None, semiprimes, sample, [])
    expected = [_ideal_chains_pairwise(R, 5, bound, among) for among in cases]

    def fail(*args):
        raise AssertionError("pairwise subset test in ideal_chains")
    monkeypatch.setattr(CrispIdeal, "subset", fail)
    assert [ideal_chains(R, 5, bound, among) for among in cases] == expected


def test_prime_witness_revalidates(rings):
    R = rings["Zn(12)"]
    I = ideal_generate(R, {4})
    w = prime_witness(R, I)
    assert w is not None
    x, y = w
    assert not I.contains(x) and not I.contains(y)
    assert all(I.contains(R.mul(R.mul(x, r), y)) for r in range(R.size))


def test_theorem_checks_survive_optimize():
    """Theorem checks raise TheoremViolationError even under python -O."""
    import os
    import pathlib
    import subprocess
    import sys
    code = (
        "import sys\n"
        "assert sys.flags.optimize == 1\n"
        "from fuzzideal import crisp, parse_ring, TheoremViolationError\n"
        "crisp.is_prime_ideal = lambda R, P: True  # makes {0} < <2> 'prime'\n"
        "try:\n"
        "    crisp.minimal_primes(parse_ring('Zn(4)'))\n"
        "except TheoremViolationError:\n"
        "    sys.exit(7)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 7, proc.stderr
