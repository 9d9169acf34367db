"""Acceptance gate: one test (= one pass/fail line under pytest -v) per
criterion.  All equalities are exact; corpora come from the shared
session fixtures."""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import is_ideal
from fuzzideal import (characteristic, classify, compose, crisp_radical,
                       charprime_equivalence_check,
                       count_minimal_prime_classes, enumerate_ideals,
                       format_fuzzy, frad, frad_intersection_check, generate,
                       intersect, is_completely_prime_ideal, is_prime_ideal,
                       minimal_prime_below, parse_element, parse_fuzzy_spec,
                       parse_ring_spec, radical_properties_check,
                       semiprime_intersection_check, singleton, to_set,
                       value_equivalent, zero_type)
from fuzzideal.crisp import completely_prime_witness, zero_ideal
from fuzzideal.dsl import format_ring_spec
from fuzzideal.fuzzy import cut, fuzzy_product, star_ideal
from fuzzideal.primeness import (_cut_witness, is_D2, is_D4, is_prime_new,
                                 is_semiprime_new)

F = Fraction
TABLE_SPECS = ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
               "Prod(Zn(2), Zn(3))")


def test_01_matrix_zero_ideal_prime_not_completely_prime(rings):
    """Criterion 1: {0} in Mat(2,Z2) is prime but not completely prime,
    certified by E12 * E12 = 0."""
    R = rings["Mat(2, Zn(2))"]
    zero = zero_ideal(R)
    assert is_prime_ideal(R, zero)
    assert not is_completely_prime_ideal(R, zero)
    e12 = parse_element(R, "[[0,1],[0,0]]")
    assert R.mul(e12, e12) == R.zero and e12 != R.zero
    x, y = completely_prime_witness(R, zero)
    assert R.mul(x, y) == R.zero and not zero.contains(x) and not zero.contains(y)


def test_02_chi0_prime_but_not_d4(rings):
    """Criterion 2: chi_{0} on Mat(2,Z2): PRIME_NEW = D2 = D1 = true, D4 = false."""
    R = rings["Mat(2, Zn(2))"]
    n, _ = classify(characteristic(zero_ideal(R)))
    assert n["PRIME_NEW"] and n["D2"] and n["D1"] and not n["D4"]


def test_03_zero_type_half_d2_not_d1(rings):
    """Criterion 3: zero_type(Mat(2,Z2), 1/2, 0) is D2 but not D1."""
    n, _ = classify(zero_type(rings["Mat(2, Zn(2))"], F(1, 2), 0))
    assert n["D2"] and not n["D1"]


def test_04_z_examples(rings):
    """Criterion 4: the three-valued ideal over Z is D2 not D1; the <4>
    variant is D3 not D2."""
    Z = rings["Z"]
    kumar = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    nk, _ = classify(kumar)
    nd, _ = classify(d3v)
    assert nk["D2"] and not nk["D1"]
    assert nd["D3"] and not nd["D2"]


def test_05_singleton_composition_split(rings):
    """Criterion 5: x1 o x1 = chi_{0} and <x1> = chi_R for x = E12, so the
    classify report shows D0 false / D1 true for chi_{0}."""
    R = rings["Mat(2, Zn(2))"]
    e12 = parse_element(R, "[[0,1],[0,0]]")
    s = singleton(R, e12, 1)
    chi0 = characteristic(zero_ideal(R))
    assert compose(s, s).table == to_set(chi0).table
    gen = generate(s)
    assert gen.is_constant and gen.top == 1  # <x_1> = chi_R
    n, w = classify(chi0)
    assert not n["D0"] and n["D1"]
    # the reported D0 witness re-validates
    x, y = parse_element(R, w["D0"]["x"]), parse_element(R, w["D0"]["y"])
    from fuzzideal.dsl import parse_value
    t, s_val = parse_value(w["D0"]["t"]), parse_value(w["D0"]["s"])
    assert chi0(x) < t and chi0(y) < s_val
    assert min(t, s_val) <= chi0(R.mul(x, y))


def test_06_charprime_four_way_equivalence(rings, corpora):
    """Criterion 6: (a)-(d) equivalent over every exhaustive corpus; D4
    agreement on the commutative rings."""
    for spec in TABLE_SPECS:
        R = rings[spec]
        for P in corpora[spec]:
            rep = charprime_equivalence_check(P)
            vals = {rep["inf_form"], rep["prime_cuts"],
                    rep["prime_quotients"], rep["ideal_test"]}
            assert len(vals) == 1, (spec, P)
            if R.commutative:
                assert rep["D4"] == rep["inf_form"]


def test_07_d4_implies_d2_and_cut_characterization(rings, corpora, z_corpus):
    """Criterion 7: D4 => D2 and D4 <=> completely prime cuts, no violations."""
    for spec in TABLE_SPECS:
        R = rings[spec]
        for P in corpora[spec]:
            d4 = is_D4(P)
            if d4:
                assert is_D2(P), (spec, P)
            cuts_cp = _cut_witness(
                P, lambda r, c: completely_prime_witness(r, c), "cp") is None
            assert d4 == cuts_cp, (spec, P)
    for P in z_corpus:
        if is_D4(P):
            assert is_D2(P)


def test_08_semiprime_intersection_theorem(rings, corpora):
    """Criterion 8: semiprime = intersection of primes, both directions."""
    rng = random.Random(8)
    for spec in TABLE_SPECS:
        primes = [P for P in corpora[spec] if is_prime_new(P)]
        for P in corpora[spec]:
            if is_semiprime_new(P):
                semiprime_intersection_check(P, pair_cap=20)
        for _ in range(30):  # converse on arbitrary finite prime families
            fam = rng.sample(primes, min(3, len(primes)))
            assert is_semiprime_new(intersect(fam)), spec


def test_09_frad_corollary(rings, corpora, z_corpus):
    """Criterion 9: F3 = F2(grid) = F1(grid); endpoints; cut equality."""
    for spec in TABLE_SPECS:
        R = rings[spec]
        for P in corpora[spec]:
            frad_intersection_check(P)
            FP = frad(P)
            assert FP.top == P.top and FP.bottom == P.bottom
            for _, t in P.chain:
                if t > P.bottom:
                    assert cut(FP, t) == crisp_radical(R, cut(P, t))
    rng = random.Random(9)
    Z = rings["Z"]
    for P in rng.sample(z_corpus, 25):
        frad_intersection_check(P, bound=12)
        FP = frad(P)
        assert FP.top == P.top and FP.bottom == P.bottom
        for _, t in P.chain:
            if t > P.bottom:
                assert cut(FP, t) == crisp_radical(Z, cut(P, t))


def test_10_radical_properties(rings, corpora, z_corpus):
    """Criterion 10: idempotence, monotonicity, intersection-commutation
    over capped seeded corpus pairs."""
    rng = random.Random(10)
    cap = 10_000
    checked = 0
    for spec in TABLE_SPECS + ("Z",):
        items = corpora[spec] if spec != "Z" else z_corpus
        n_pairs = min(len(items) ** 2, 400)
        for _ in range(n_pairs):
            if checked >= cap:
                break
            P, Q = rng.choice(items), rng.choice(items)
            radical_properties_check(P, Q)
            checked += 1
    assert checked > 0


def test_11_frad_of_d3_variant_is_kumar(rings):
    """Criterion 11: FRad of the <4> variant equals the Kumar ideal exactly."""
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    kumar = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    assert frad(d3v).chain == kumar.chain


def test_12_minimal_primes(rings, corpora, z_corpus):
    """Criterion 12: minimal_prime_below is prime, below the input, and
    value-equivalent to a minimal crisp prime's characteristic map."""
    assert count_minimal_prime_classes(rings["Zn(6)"]) == 2
    for spec in TABLE_SPECS + ("Z",):
        items = corpora[spec] if spec != "Z" else z_corpus
        for P in items:
            if not is_prime_new(P):
                continue
            below = minimal_prime_below(P)
            assert is_prime_new(below)
            assert below.le(P)
            assert value_equivalent(below, characteristic(star_ideal(below)))


def test_13_prime_new_two_valued(corpora):
    """Criterion 13: every PRIME_NEW corpus ideal on a table ring has
    exactly two values."""
    for spec, items in corpora.items():
        for P in items:
            if is_prime_new(P):
                assert len(P.chain) == 2, (spec, P)


def test_14_oracle_equivalences(rings, corpora):
    """Criterion 14: product formula triple agreement and the subset-scan
    ideal oracle, on rings of size <= 8."""
    small = ("Zn(6)", "Tri(2, Zn(2))", "Prod(Zn(2), Zn(3))")
    rng = random.Random(14)
    for spec in small:
        R = rings[spec]
        assert R.size <= 8
        # ideal lattice vs 2^n subset oracle
        oracle = set()
        for r in range(1, R.size + 1):
            for combo in itertools.combinations(range(R.size), r):
                if is_ideal(R, frozenset(combo)):
                    oracle.add(frozenset(combo))
        assert {I.elems for I in enumerate_ideals(R)} == oracle
        # fuzzy product triple agreement
        items = corpora[spec]
        for _ in range(15):
            I, J = rng.choice(items), rng.choice(items)
            prod = fuzzy_product(I, J)
            assert prod.chain == generate(compose(to_set(I), to_set(J))).chain
            oracle_vals = _sum_of_products(I, J)
            assert all(prod(x) == oracle_vals[x] for x in range(R.size))


def _sum_of_products(I, J):
    R = I.ring
    best = {x: F(0) for x in range(R.size)}
    for a in range(R.size):
        for b in range(R.size):
            v = min(I(a), J(b))
            if v > best[R.mul(a, b)]:
                best[R.mul(a, b)] = v
    changed = True
    while changed:
        changed = False
        snap = dict(best)
        for x in range(R.size):
            for y in range(R.size):
                v = min(snap[x], snap[y])
                if v > best[R.add(x, y)]:
                    best[R.add(x, y)] = v
                    changed = True
    return best


def test_15_parser_round_trip_and_spans(rings, corpora, z_corpus):
    """Criterion 15: 100% round-trip identity; grammar violations produce
    ParseErrors with in-bounds spans."""
    from fuzzideal import ParseError, parse_fuzzy_spec as pfs
    for spec in TABLE_SPECS:
        R = rings[spec]
        canon = format_ring_spec(parse_ring_spec(spec))
        assert parse_ring_spec(canon) == parse_ring_spec(spec)
        for P in corpora[spec]:
            assert pfs(R, format_fuzzy(P)).chain == P.chain
    Z = rings["Z"]
    for P in z_corpus:
        assert pfs(Z, format_fuzzy(P)).chain == P.chain
    fixtures = ["Mat(0, Zn(2))", "Zn()", "Prod(Zn(2))", "Zn(2))",
                "{1 <0>}", "{1: 0>}", "{2: <0>, 0: <*>}"]
    for bad in fixtures:
        with pytest.raises(ParseError) as exc:
            if bad.startswith("{"):
                pfs(Z, bad)
            else:
                parse_ring_spec(bad)
        start, end = exc.value.span
        assert 0 <= start <= end <= len(bad), bad
        assert exc.value.expected
