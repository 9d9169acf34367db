"""Primeness/semiprimeness predicates, characterizations and diagrams."""
import functools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SMALL_RING, TABLE_SPECS, small_ring
from fuzzideal import (ConstantIdealError, CrispIdeal,
                       RingConstructionError, build_corpus, characteristic,
                       classify, compose, constant,
                       count_minimal_prime_classes, cut,
                       enumerate_fuzzy_ideals, format_fuzzy, ideal_generate,
                       is_completely_prime_ideal, is_prime_ideal, is_SD1,
                       is_SD2, is_semiprime_ideal, minimal_prime_below,
                       minimal_primes, parse_element, parse_fuzzy_spec,
                       parse_ring, principal_ideal, to_set, value_equivalent,
                       value_grid, zero_type)
from fuzzideal.corpus import ideal_chains
from fuzzideal.crisp import zero_ideal
from fuzzideal.fuzzy import fuzzy_from_chain, star_ideal, whole_ideal
from fuzzideal.primeness import (D0_witness, D0prime_witness, D3_witness,
                                 SD0prime_witness, SD1_witness, _Ctx,
                                 _ideal_test, is_D0, is_D0prime, is_D1, is_D2,
                                 is_D4, is_prime_new, is_semiprime_new,
                                 prime_new_witness, semiprime_new_witness)
from fuzzideal.rings import np_tables

F = Fraction


def test_value_grid():
    Z = parse_ring("Z")
    P = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    assert value_grid(P) == (F(0), F(3, 10), F(3, 5), F(7, 10), F(4, 5),
                             F(9, 10), F(1))


def test_classify_chi0_matrix(rings):
    R = rings["Mat(2, Zn(2))"]
    P = parse_fuzzy_spec(R, "{1: <[[0,0],[0,0]]>, 0: <*>}")
    n, w = classify(P)
    assert n["PRIME_NEW"] and n["D2"] and n["D1"] and n["D3"]
    assert not n["D4"] and not n["D0"]
    assert n["D0'"] and n["SD1"] and n["SD2"] and not n["SD4"]
    # the D4 witness re-validates: P(xy) differs from both P(x) and P(y)
    x = parse_element(R, w["D4"]["x"])
    y = parse_element(R, w["D4"]["y"])
    assert P(R.mul(x, y)) not in (P(x), P(y))


def test_classify_zero_type_remark(rings):
    R = rings["Mat(2, Zn(2))"]
    n, _ = classify(zero_type(R, F(1, 2), 0))
    assert n["D2"] and not n["D1"]  # top value 1/2 != 1


def test_classify_z_examples(rings):
    Z = rings["Z"]
    kumar = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    nk, _ = classify(kumar)
    nd, _ = classify(d3v)
    assert nk["D2"] and nk["PRIME_NEW"] and not nk["D1"]  # three-valued
    assert nd["D3"] and not nd["D2"] and not nd["PRIME_NEW"]


def test_constant_rejected(rings):
    with pytest.raises(ConstantIdealError):
        classify(constant(rings["Zn(6)"], F(1, 2)))


def test_d1_characterization(rings):
    from fuzzideal import ideal_generate
    R = rings["Zn(6)"]
    two = characteristic(ideal_generate(R, {2}))
    assert is_D1(two)  # two-valued, top 1, <2> prime
    assert not is_D1(zero_type(R, F(1, 2), 0))  # top != 1
    assert not is_D1(characteristic(zero_ideal(R)))  # {0} not prime in Zn(6)


def test_d1_falsifier_cross_check(rings, corpora):
    """The fuzzy-ideal-pair search never contradicts the D1 characterization."""
    for spec in ("Zn(6)", "Mat(2, Zn(2))"):
        for P in corpora[spec]:
            if is_D1(P):
                witness = d1_falsify_search(P)
                assert witness is None, (spec, P, witness)


def test_sd1_implies_sd2(rings, corpora):
    for spec in ("Zn(6)", "Mat(2, Zn(2))", "Tri(2, Zn(2))"):
        for P in corpora[spec]:
            n, _ = classify(P)
            if n["SD1"]:
                assert n["SD2"], (spec, P)


# --------------------------------------------------------------------------
# Definition-level searches for D1 and SD1 over grid-valued fuzzy ideals
# --------------------------------------------------------------------------

@functools.cache
def _square(I):
    """The table of I o I, by the definition (one compose)."""
    return compose(to_set(I), to_set(I)).table


def _not_below(I, pvals):
    return any(a > p for a, p in zip(to_set(I).table, pvals))


def d1_falsify_search(P, grid=None):
    """A pair (I, J) of grid-valued fuzzy ideals with I o J <= P, I !<= P
    and J !<= P, or None.  A sound falsifier for D1: a witness never
    exists when is_D1 holds."""
    R = P.ring
    if grid is None:
        grid = value_grid(P)
    pvals = to_set(P).table
    cands = [I for I in enumerate_fuzzy_ideals(R, grid)
             if _not_below(I, pvals)]
    for I in cands:
        for J in cands:
            comp = compose(to_set(I), to_set(J))
            if all(c <= p for c, p in zip(comp.table, pvals)):
                return {"I": format_fuzzy(I), "J": format_fuzzy(J)}
    return None


def _sd1_reference(P, grid=None):
    """The first grid-valued fuzzy ideal I with I o I <= P and I !<= P,
    in ``enumerate_fuzzy_ideals`` order, or None: SD1 by its definition."""
    if grid is None:
        grid = value_grid(P)
    pvals = to_set(P).table
    for I in enumerate_fuzzy_ideals(P.ring, grid):
        if I.is_constant or not _not_below(I, pvals):
            continue
        if all(c <= p for c, p in zip(_square(I), pvals)):
            return {"I": format_fuzzy(I)}
    return None


def _assert_sd1_matches_reference(P):
    """SD1 holds iff the definition-level search finds nothing, and an SD1
    witness I re-validates through compose: I o I <= P, I !<= P."""
    witness, exhausted = SD1_witness(P)
    assert not exhausted
    assert (witness is None) == (_sd1_reference(P) is None), P
    if witness is not None:
        I = parse_fuzzy_spec(P.ring, witness["I"])
        pvals = to_set(P).table
        assert all(c <= p for c, p in zip(_square(I), pvals)), (P, I)
        assert _not_below(I, pvals), (P, I)


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_sd1_search_matches_reference(corpora, spec):
    """SD1 by the cut theorem agrees with the definition-level search."""
    for P in corpora[spec]:
        _assert_sd1_matches_reference(P)


@given(text=SMALL_RING, data=st.data())
def test_sd1_matches_reference_on_random_rings(text, data):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    chains = [c for c in ideal_chains(R, 3) if len(c) > 1]
    if not chains:  # the zero ring
        return
    chain = data.draw(st.sampled_from(chains))
    values = sorted(data.draw(st.lists(st.integers(0, 2), min_size=len(chain),
                                       max_size=len(chain), unique=True)),
                    reverse=True)
    _assert_sd1_matches_reference(
        fuzzy_from_chain(R, [(C, F(v, 2)) for C, v in zip(chain, values)]))


def test_sd1_is_never_unknown():
    """On every item of the exhaustive Tri(3, Zn(2)) corpus SD1 is decided
    and equals SD2."""
    for P in build_corpus(parse_ring("Tri(3, Zn(2))")):
        notions, _ = classify(P)
        assert notions["SD1"] in (True, False), P
        assert notions["SD1"] == notions["SD2"], P


def test_sd1_over_z(z_corpus):
    """Over Z, SD1 equals SD2, and a witness {c: <x>, b: <*>} has x outside
    the cut of P at c and x^2 inside it."""
    for P in z_corpus:
        witness, _ = SD1_witness(P)
        assert is_SD1(P) == is_SD2(P) == (witness is None), P
        if witness is not None:
            I = parse_fuzzy_spec(P.ring, witness["I"])
            (gen, c), (_, b) = I.chain
            x = gen.gen
            assert b == P.bottom
            assert not cut(P, c).contains(x), (P, I)
            assert cut(P, c).contains(x * x), (P, I)


def test_zero_type_bridge(rings):
    """Fuzzy notions on zero-type ideals reduce to crisp properties of {0}."""
    pairs = [(F(1), F(0)), (F(1, 2), F(0)), (F(3, 4), F(1, 4))]
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
                 "Prod(Zn(2), Zn(3))"):
        R = rings[spec]
        z = zero_ideal(R)
        for t, s in pairs:
            n, _ = classify(zero_type(R, t, s))
            assert n["D2"] == is_prime_ideal(R, z)
            assert n["D4"] == is_completely_prime_ideal(R, z)
            assert n["SD2"] == is_semiprime_ideal(R, z)
            assert n["D1"] == (is_prime_ideal(R, z) and t == 1)


def test_off_grid_sampling_soundness(rings):
    """Randomly sampled off-grid singleton values never reveal a D0/D0'
    violation that the grid search missed (grid-completeness check)."""
    rng = random.Random(0)
    for spec in ("Zn(12)", "Mat(2, Zn(2))"):
        R = rings[spec]
        pp = _principal_products(R)
        items = [zero_type(R, F(2, 3), F(1, 3))]
        items += [characteristic(Q) for Q in minimal_primes(R)]
        for P in items:
            ctx = _Ctx(P)
            # P's least value on the product x_t y_s, resp. <x_t><y_s>
            products = {
                "D0": (is_D0(P, ctx=ctx), lambda x, y: P(R.mul(x, y))),
                "D0'": (is_D0prime(P, ctx=ctx),
                        lambda x, y: min(P(e) for e in pp[(x, y)]))}
            for name, (grid_holds, least) in products.items():
                found = False
                for _ in range(1000):
                    x = rng.randrange(R.size)
                    y = rng.randrange(R.size)
                    t = F(rng.randrange(1, 997), 997)
                    s = F(rng.randrange(1, 997), 997)
                    if P(x) < t and P(y) < s and min(t, s) <= least(x, y):
                        found = True
                        break
                assert not (found and grid_holds), (spec, P, name)


def test_minimal_primes_and_classes(rings, corpora):
    assert count_minimal_prime_classes(rings["Zn(6)"]) == 2
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))"):
        R = rings[spec]
        for P in corpora[spec]:
            if not is_prime_new(P):
                continue
            below = minimal_prime_below(P)
            assert is_prime_new(below) and below.le(P)
            assert value_equivalent(below, characteristic(star_ideal(below)))


def test_prime_new_two_valued_on_tables(rings, corpora):
    for spec, items in corpora.items():
        for P in items:
            if is_prime_new(P):
                assert len(P.chain) == 2, (spec, P)


def test_semiprime_matches_cut_semiprimeness(rings, corpora):
    for spec in ("Zn(6)", "Tri(2, Zn(2))"):
        R = rings[spec]
        for P in corpora[spec]:
            cuts_ok = all(is_semiprime_ideal(R, c)
                          for c, v in P.chain[:-1])
            assert is_semiprime_new(P) == cuts_ok


def test_d4_zero_type_on_z(rings):
    Z = rings["Z"]
    P = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    assert is_D4(P)  # Z commutative: prime cuts are completely prime


# --------------------------------------------------------------------------
# References: the element-wise Inf-forms that the lattice kernel replaced
# --------------------------------------------------------------------------

def _xry(R):
    """xry[x * n + y, r] = (x r) y, gathered from the mul table."""
    mul = np_tables(R).mul
    return np.ascontiguousarray(mul[mul].transpose(0, 2, 1)).reshape(
        R.size * R.size, R.size)


@functools.cache
def _principal_products(R):
    """elems of <x><y> = <{ab : a in <x>, b in <y>}> for every pair."""
    pp, prods = {}, {}
    for x in range(R.size):
        px = principal_ideal(R, x).elems
        for y in range(R.size):
            py = principal_ideal(R, y).elems
            if (px, py) not in prods:
                prods[(px, py)] = ideal_generate(
                    R, {R.mul(a, b) for a in px for b in py}).elems
            pp[(x, y)] = prods[(px, py)]
    return pp


def _reference_ctx(P, grid=None):
    """A rank context whose m is gathered over xRy element by element."""
    ctx = _Ctx(P, grid)
    n = P.ring.size
    ctx.m = ctx.pv[_xry(P.ring)].min(axis=1).reshape(n, n)
    return ctx


def _ideal_test_reference(ctx):
    xry = _xry(ctx.ring)
    n = ctx.ring.size
    for t in ctx.grid_ranks:
        iv = np.maximum(ctx.pv, t)
        hyp = (iv[xry] <= ctx.pv[xry]).all(axis=1).reshape(n, n)
        gt = iv > ctx.pv
        if (hyp & gt[:, None] & gt[None, :]).any():
            return False
    return True


def _grid_loop(ctx, least):
    """The D0/D0' grid loop; ``least(x, y)`` is the product's rank."""
    pos = [t for t in ctx.grid_ranks if ctx.scale[t] > 0]
    pv = ctx.pv
    for x in range(ctx.ring.size):
        for y in range(ctx.ring.size):
            pxy = least(x, y)
            for t in pos:
                if pv[x] >= t:
                    continue
                for s in pos:
                    if pv[y] < s and min(t, s) <= pxy:
                        return {"x": ctx.elem(x), "y": ctx.elem(y),
                                "t": str(ctx.value(t)), "s": str(ctx.value(s))}
    return None


def _sd0prime_loop(ctx, pp):
    for x in range(ctx.ring.size):
        mv = min(ctx.pv[e] for e in pp[(x, x)])
        if mv > ctx.pv[x]:
            return {"x": ctx.elem(x), "t": str(ctx.value(mv))}
    return None


def _assert_matches_references(P, grid=None):
    ctx, ref = _Ctx(P, grid), _reference_ctx(P, grid)
    assert (ctx.m == ref.m).all(), P
    assert _ideal_test(P, ctx) == _ideal_test_reference(ref), P
    for decide in (prime_new_witness, D3_witness, semiprime_new_witness):
        assert decide(P, ctx) == decide(P, ref), (decide.__name__, P)
    pp = _principal_products(P.ring)
    assert D0_witness(P, ctx=ctx) == _grid_loop(
        ref, lambda x, y: ref.pv[ref.mul[x, y]]), P
    assert D0prime_witness(P, ctx=ctx) == _grid_loop(
        ref, lambda x, y: min(ref.pv[e] for e in pp[(x, y)])), P
    assert SD0prime_witness(P, ctx=ctx) == _sd0prime_loop(ref, pp), P


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_inf_forms_match_references(corpora, spec):
    """m, the ideal test and the Inf-form witnesses match the element-wise
    forms on every corpus item, on its own grid and on a coarse one."""
    for P in corpora[spec]:
        _assert_matches_references(P)
        _assert_matches_references(P, (F(1), F(1, 3), F(0)))


@given(text=SMALL_RING, data=st.data())
def test_inf_forms_match_references_on_random_rings(text, data):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    chains = [c for c in ideal_chains(R, 4) if len(c) > 1]
    if not chains:  # the zero ring
        return
    chain = data.draw(st.sampled_from(chains))
    values = sorted(data.draw(st.lists(st.integers(0, 8), min_size=len(chain),
                                       max_size=len(chain), unique=True)),
                    reverse=True)
    P = fuzzy_from_chain(R, [(C, F(v, 8)) for C, v in zip(chain, values)])
    grid = data.draw(st.none() | st.sets(st.integers(0, 8), min_size=1).map(
        lambda ks: tuple(F(k, 8) for k in sorted(ks))))
    _assert_matches_references(P, grid)


def test_classify_memory_is_quadratic():
    """Once a ring's lattice index is built, classifying one more item on
    Zn(360) allocates O(n^2), not an n^2 x n array (373 MB)."""
    R = parse_ring("Zn(360)")
    classify(parse_fuzzy_spec(R, "{1: <0>, 1/2: <6>, 0: <*>}"))
    P = parse_fuzzy_spec(R, "{1: <12>, 1/4: <*>}")
    tracemalloc.start()
    try:
        classify(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
