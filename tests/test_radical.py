"""Fuzzy prime radical: computation and theorem verifications."""
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzideal import (FuzzyIdeal, TheoremViolationError, build_corpus,
                       characteristic, classify, enumerate_fuzzy_ideals,
                       frad, frad_intersection_check, intersect,
                       parse_fuzzy_spec, parse_ring, radical_properties_check,
                       radical_report, semiprime_intersection_check,
                       value_equivalent, value_grid, witness_prime_excluding,
                       zero_type)
from fuzzideal.corpus import ideal_chains
from fuzzideal.crisp import crisp_radical, ideal_generate, zero_ideal
from fuzzideal.fuzzy import cut
from fuzzideal.primeness import (is_prime_new, is_semiprime_new,
                                 semiprimes_above)
from fuzzideal.radical import (_excluding_value, ring_radical_experimental,
                               ring_radical_value_equivalence)

F = Fraction


def test_frad_d3_variant_is_kumar(rings):
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    kumar = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    assert frad(d3v).chain == kumar.chain


def test_frad_zn12_chi4(rings):
    R = rings["Zn(12)"]
    P = characteristic(ideal_generate(R, {4}))
    expected = characteristic(ideal_generate(R, {2}))
    assert frad(P).chain == expected.chain


def test_fixed_point_iff_semiprime(rings, corpora):
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))"):
        for P in corpora[spec]:
            assert (frad(P).chain == P.chain) == is_semiprime_new(P), (spec, P)


def test_frad_extensive_idempotent_monotone(rings, corpora, z_corpus):
    rng = random.Random(3)
    for spec in ("Zn(12)", "Tri(2, Zn(2))"):
        items = corpora[spec]
        for P in items:
            FP = frad(P)
            assert P.le(FP)
            assert frad(FP).chain == FP.chain
        for _ in range(50):
            P, Q = rng.choice(items), rng.choice(items)
            if P.le(Q):
                assert frad(P).le(frad(Q))
    for P in rng.sample(z_corpus, 40):
        FP = frad(P)
        assert P.le(FP) and frad(FP).chain == FP.chain


def test_radical_report_trace(rings):
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    rep = radical_report(d3v)
    assert not rep.fixed_point
    assert rep.radical.top == F(1) and rep.radical.bottom == F(3, 5)
    sups = {x: sup for x, _, sup in rep.trace}
    assert sups["2"] == "4/5" and sups["1"] == "3/5" and sups["0"] == "1"


def test_witness_prime_excluding_zn12(rings):
    R = rings["Zn(12)"]
    I = characteristic(ideal_generate(R, {4}))
    P = witness_prime_excluding(I, 3, F(1, 2))
    assert P.chain[0][0].elems == frozenset({0, 2, 4, 6, 8, 10})
    assert P.values == (F(1), F(1, 2))
    assert is_prime_new(P) and I.le(P) and P(3) == F(1, 2)


def test_witness_prime_excluding_z(rings):
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    P = witness_prime_excluding(d3v, 3, F(7, 10))
    assert P.chain[0][0].gen == 2
    assert P.values == (F(1), F(7, 10))
    with pytest.raises(ValueError):
        witness_prime_excluding(d3v, 4, F(7, 10))  # 4 in Rad(<4>) = <2>


def test_frad_intersection_check_examples(rings):
    R = rings["Zn(12)"]
    rep = frad_intersection_check(characteristic(ideal_generate(R, {4})))
    assert rep["frad_equals_prime_intersection"]
    rep = frad_intersection_check(zero_type(rings["Zn(6)"], 1, 0))
    assert rep["frad_equals_semiprime_intersection"]
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    rep = frad_intersection_check(d3v, bound=12)
    assert rep["frad_equals_prime_intersection"]


def test_semiprime_intersection_examples(rings):
    R6 = rings["Zn(6)"]
    chi0 = characteristic(zero_ideal(R6))
    rep = semiprime_intersection_check(chi0)
    assert rep["equals_intersection"]
    a = characteristic(ideal_generate(R6, {2}))
    b = characteristic(ideal_generate(R6, {3}))
    meet = intersect([a, b])
    assert meet.chain == chi0.chain and is_semiprime_new(meet)
    RM = rings["Mat(2, Zn(2))"]
    rep = semiprime_intersection_check(characteristic(zero_ideal(RM)))
    assert rep["equals_intersection"]


def test_radical_properties_check(rings):
    R = rings["Zn(12)"]
    P = characteristic(ideal_generate(R, {4}))
    Q = characteristic(ideal_generate(R, {2}))
    rep = radical_properties_check(P, Q)
    assert all(rep.values())
    assert frad(P).chain == frad(Q).chain
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    assert all(radical_properties_check(d3v, d3v).values())


def test_cut_equality_sup_property(rings, corpora):
    for spec in ("Zn(12)", "Tri(2, Zn(2))"):
        R = rings[spec]
        for P in corpora[spec]:
            FP = frad(P)
            for _, t in P.chain:
                if t == P.bottom:
                    continue
                assert cut(FP, t) == crisp_radical(R, cut(P, t))


def test_ring_radical_remark(rings):
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))"):
        assert ring_radical_value_equivalence(rings[spec], grid), spec


def test_ring_radical_experimental(rings):
    rep = ring_radical_experimental(rings["Zn(12)"])
    assert rep["quotient_size"] == 6  # Zn(12)/Rad({0}) = Zn(12)/<6>
    assert rep["rad_of_quotient_is_zero"]


# -- the generated families of frad_intersection_check -----------------------

def _above_reference(I, grid, bound):
    """The definition-level families: every grid-valued fuzzy ideal,
    filtered by the pointwise order and the Inf-forms."""
    R = I.ring
    primes, semiprimes = [], []
    for Q in enumerate_fuzzy_ideals(R, grid, bound):
        if not I.le(Q):
            continue
        if is_semiprime_new(Q):
            semiprimes.append(Q)
            if is_prime_new(Q):
                primes.append(Q)
    return primes, semiprimes


def _generated(I, grid, bound):
    primes, semiprimes = [], []
    for Q, prime in semiprimes_above(I, grid, bound):
        semiprimes.append(Q)
        if prime:
            primes.append(Q)
    return primes, semiprimes


@pytest.mark.parametrize("spec", ["Zn(6)", "Zn(12)", "Mat(2, Zn(2))",
                                  "Tri(2, Zn(2))", "Prod(Zn(2), Zn(3))",
                                  "Z@6", "Z@8"])
def test_generated_families_match_reference(rings, corpora, spec):
    """Same prime and semiprime families, in the same order, as filtering
    every grid-valued fuzzy ideal."""
    if spec.startswith("Z@"):
        bound = int(spec[2:])
        items = build_corpus(rings["Z"], bound=bound)
    else:
        bound, items = None, corpora[spec]
    for P in items:
        grid = value_grid(P)
        assert _generated(P, grid, bound) == _above_reference(P, grid, bound), P


def test_generated_families_explicit_grid(rings, corpora, z_corpus):
    """A grid without the image of I: ranks cover grid + image(I)."""
    grid = (F(0), F(1, 3), F(3, 4), F(1))
    for P in corpora["Tri(2, Zn(2))"] + z_corpus[:40]:
        bound = None if P.ring.is_table else 8
        assert _generated(P, grid, bound) == _above_reference(P, grid, bound), P


SMALL_SPECS = ("Zn(2)", "Zn(4)", "Zn(6)", "Zn(8)", "Zn(12)",
               "Prod(Zn(2), Zn(2))", "Prod(Zn(2), Zn(3))",
               "Prod(Zn(4), Zn(2))", "Tri(2, Zn(2))", "Tri(2, Zn(3))")


@functools.cache
def _small_ring_chains(spec):
    R = parse_ring(spec)
    return R, [c for c in ideal_chains(R, 5) if len(c) >= 2]


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_primeness_depends_on_the_chain_alone(spec, data):
    """L2: any strictly decreasing values on a chain, not only grid values,
    give the same Inf-form answers as the representative values."""
    R, chains = _small_ring_chains(spec)
    chain = data.draw(st.sampled_from(chains))
    m = len(chain)
    values = sorted(data.draw(st.lists(st.fractions(0, 1), min_size=m,
                                       max_size=m, unique=True)),
                    reverse=True)
    Q = FuzzyIdeal(R, tuple(zip(chain, values)))
    rep = FuzzyIdeal(R, tuple(zip(chain, (F(m - 1 - k, m - 1)
                                          for k in range(m)))))
    assert is_prime_new(Q) == is_prime_new(rep)
    assert is_semiprime_new(Q) == is_semiprime_new(rep)


def test_lower_bound_search_without_a_value_raises(rings):
    """FRad(chi<4>)(2) = 1 in Zn(12); searched from 0, no grid value above
    leaves 2 outside Rad(<4>) = <2>, and the search says so."""
    R = rings["Zn(12)"]
    I = characteristic(ideal_generate(R, {4}))
    with pytest.raises(TheoremViolationError) as exc:
        _excluding_value(I, 2, F(0), (F(0), F(1, 2), F(1)))
    assert exc.value.details["x"] == "2"
    assert _excluding_value(I, 3, F(0), (F(0), F(1, 2), F(1))) == F(1, 2)
