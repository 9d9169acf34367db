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
                       charprime_equivalence_check, classify, compose, constant,
                       count_minimal_prime_classes, cut,
                       enumerate_fuzzy_ideals, format_fuzzy, ideal_generate,
                       is_completely_prime_ideal, is_prime_ideal, is_SD1,
                       is_SD2, is_semiprime_ideal, minimal_prime_below,
                       minimal_primes, parse_element, parse_fuzzy_spec,
                       parse_ring, principal_ideal, to_set, value_equivalent,
                       value_grid, zero_type)
from fuzzideal import dsl, primeness, radical
from fuzzideal.corpus import ideal_chains
from fuzzideal.crisp import zero_ideal
from fuzzideal.fuzzy import (fuzzy_from_chain, probe_elements, star_ideal,
                             whole_ideal)
from fuzzideal.rings import Ring
from fuzzideal.primeness import (D0_witness, D0prime_witness, D3_witness,
                                 D4_witness, SD0prime_witness, SD1_witness,
                                 _Ctx, _ideal_test, is_D0, is_D0prime, is_D1,
                                 is_D4, is_prime_new, is_SD4,
                                 is_semiprime_new, prime_new_witness,
                                 semiprime_new_witness)

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


TAKE_CTX = ("prime_new_witness", "is_prime_new", "D3_witness", "is_D3",
            "D4_witness", "is_D4", "D0_witness", "is_D0", "D0prime_witness",
            "is_D0prime", "semiprime_new_witness", "is_semiprime_new",
            "SD4_witness", "is_SD4", "SD0prime_witness", "is_SD0prime")
TAKE_GRID = ("D0_witness", "is_D0", "D0prime_witness", "is_D0prime",
             "SD0prime_witness", "is_SD0prime", "charprime_equivalence_check",
             "radical.frad_intersection_check",
             "radical.semiprime_intersection_check")


def test_value_grid_carries_its_ranks():
    """The memoized grid holds the ranks of its values and of P's levels,
    and is the same object for every P with P's image."""
    Z = parse_ring("Z")
    P = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <2>, 3/5: <*>}")
    grid = value_grid(P)
    assert grid.rank == {v: i for i, v in enumerate(grid)}
    assert grid.levels == (6, 4, 2)
    assert [grid.rank[v] for v in grid] == list(range(len(grid)))
    Q = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <3>, 3/5: <*>}")
    assert value_grid(Q) is grid


def test_one_rank_context_per_classify(rings, monkeypatch):
    """The rank context is kept for P by identity: one ``classify`` builds
    one ``_Ctx``, and an equal but distinct P builds its own and gets the
    same report."""
    R = rings["Zn(12)"]
    built = []

    class Counted(_Ctx):
        def __init__(self, P):
            built.append(P)
            super().__init__(P)
    monkeypatch.setattr(primeness, "_Ctx", Counted)
    P = parse_fuzzy_spec(R, "{1: <0>, 1/2: <6>, 1/4: <2>, 0: <*>}")
    Q = parse_fuzzy_spec(R, "{1: <0>, 1/2: <6>, 1/4: <2>, 0: <*>}")
    assert P == Q and P is not Q
    expected = classify(P)
    assert [b is P for b in built] == [True]
    assert classify(Q) == expected
    assert [b is Q for b in built] == [False, True]


def test_deciders_take_p_alone(rings):
    """No decider takes a grid or a rank context: a coarse grid gave false
    answers (D0 and D0' held on the Zn(6) item below, whose D1 fails)."""
    R = rings["Zn(6)"]
    P = parse_fuzzy_spec(R, "{1: <0>, 1/2: <2>, 0: <*>}")
    for name, kwargs in ([(n, {"ctx": _Ctx(P)}) for n in TAKE_CTX]
                         + [(n, {"grid": (F(1, 2),)}) for n in TAKE_GRID]):
        module, _, attr = name.rpartition(".")
        fn = getattr(radical if module else primeness, attr)
        with pytest.raises(TypeError):
            fn(P, **kwargs)
    assert is_D0prime(P) is is_D0(P) is is_D1(P) is False
    assert charprime_equivalence_check(P)["inf_form"] is False
    # the grid (1, 0) made both checks fail on these Zn(12) items
    R = rings["Zn(12)"]
    radical.semiprime_intersection_check(
        parse_fuzzy_spec(R, "{1: <6>, 1/2: <2>, 0: <*>}"))
    radical.frad_intersection_check(
        parse_fuzzy_spec(R, "{1: <0>, 1/2: <6>, 0: <*>}"))


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


def _draw_fuzzy(text, data, max_len, denominator):
    """A fuzzy ideal on the ring ``text``: a drawn chain of at most
    ``max_len`` ideals with distinct drawn values k / ``denominator``;
    None when the ring has no such chain."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return None
    chains = [c for c in ideal_chains(R, max_len) if len(c) > 1]
    if not chains:  # the zero ring
        return None
    chain = data.draw(st.sampled_from(chains))
    values = sorted(data.draw(st.lists(st.integers(0, denominator),
                                       min_size=len(chain),
                                       max_size=len(chain), unique=True)),
                    reverse=True)
    return fuzzy_from_chain(
        R, [(C, F(v, denominator)) for C, v in zip(chain, values)])


@given(text=SMALL_RING, data=st.data())
def test_sd1_matches_reference_on_random_rings(text, data):
    P = _draw_fuzzy(text, data, 3, 2)
    if P is not None:
        _assert_sd1_matches_reference(P)


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
            # P's least value on the product x_t y_s, resp. <x_t><y_s>
            products = {
                "D0": (is_D0(P), lambda x, y: P(R.mul(x, y))),
                "D0'": (is_D0prime(P),
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


def test_d3_d4_witnesses_over_z(z_corpus):
    """Over Z, D3 and D4 agree with a search over the probe elements, which
    realize every value profile of P, and every witness re-validates: x and
    y lie outside the cut (P_* for D3, the cut at P(xy) for D4) and xy
    inside it; for D4, P(xy) is neither P(x) nor P(y)."""
    for P in z_corpus:
        probes = probe_elements(P)
        pairs = [(x, y) for x in probes for y in probes]
        top = P.top
        d3 = D3_witness(P)
        assert (d3 is None) == all(
            P(x * y) < top or top in (P(x), P(y)) for x, y in pairs), P
        if d3 is not None:
            x, y = int(d3["x"]), int(d3["y"])
            assert P(x) < top and P(y) < top and P(x * y) == top, (P, d3)
        d4 = D4_witness(P)
        assert (d4 is None) == all(
            P(x * y) in (P(x), P(y)) for x, y in pairs), P
        if d4 is not None:
            x, y = int(d4["x"]), int(d4["y"])
            C = cut(P, P(x * y))
            assert not C.contains(x) and not C.contains(y), (P, d4)
            assert C.contains(x * y), (P, d4)
            assert P(x * y) not in (P(x), P(y)), (P, d4)
            assert d4 == {"x": str(x), "y": str(y), "P(xy)": str(P(x * y)),
                          "P(x)": str(P(x)), "P(y)": str(P(y))}, (P, d4)


# --------------------------------------------------------------------------
# References: the element-wise Inf-forms that the class kernel replaced
# --------------------------------------------------------------------------

def _xry(R):
    """xry[x * n + y, r] = (x r) y, gathered from the mul table."""
    mul = R.tables.mul
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


class _ReferenceCtx:
    """An element-level rank view: P's rank ``pv`` on each element, read
    from P(x), and m[x, y] = min P(xRy) gathered over xRy element by
    element."""

    def __init__(self, P):
        R = P.ring
        self.ring, self.mul = R, R.tables.mul
        self.scale = value_grid(P)
        self.pv = np.array([self.scale.index(P(x)) for x in range(R.size)])
        n = R.size
        self.m = self.pv[_xry(R)].min(axis=1).reshape(n, n)

    def value(self, r):
        return self.scale[int(r)]

    def elem(self, i):
        return self.ring.label(int(i))


def _prime_new_reference(ctx):
    """PRIME_NEW on the n x n forms: Inf P(xRy) = P(x) v P(y)."""
    tgt = np.maximum.outer(ctx.pv, ctx.pv)
    hit = _first_pair(ctx.m != tgt)
    if hit is None:
        return None
    x, y = hit
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "inf_P_xRy": str(ctx.value(ctx.m[x, y])),
            "P(x)_or_P(y)": str(ctx.value(tgt[x, y]))}


def _semiprime_new_reference(ctx):
    """SEMIPRIME_NEW on the n-long diagonal: Inf P(xRx) = P(x)."""
    diag = np.diagonal(ctx.m)
    hit = _first_pair(diag != ctx.pv)
    if hit is None:
        return None
    x, = hit
    return {"x": ctx.elem(x), "inf_P_xRx": str(ctx.value(diag[x])),
            "P(x)": str(ctx.value(ctx.pv[x]))}


def _ideal_test_reference(ctx):
    xry = _xry(ctx.ring)
    n = ctx.ring.size
    for t in range(len(ctx.scale)):
        iv = np.maximum(ctx.pv, t)
        hyp = (iv[xry] <= ctx.pv[xry]).all(axis=1).reshape(n, n)
        gt = iv > ctx.pv
        if (hyp & gt[:, None] & gt[None, :]).any():
            return False
    return True


def _grid_loop(ctx, least):
    """The D0/D0' grid loop; ``least(x, y)`` is the product's rank."""
    pos = [t for t in range(len(ctx.scale)) if ctx.scale[t] > 0]
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


def _grid_reference(ctx, ranks, prod, reps):
    """The D0/D0' grid search as one vectorized mask: the first (x, y),
    row-major, with P(x) + 1 and P(y) + 1 both on the grid and
    min(P(x), P(y)) + 1 <= prod[x, y].  ``ranks`` and ``prod`` are P's
    ranks and the product's on the classes whose least elements are
    ``reps``; ``ctx`` is a :class:`_Ctx`."""
    end = len(ctx.scale)
    above = ranks + 1
    t, s = above[:, None], above[None, :]
    hit = _first_pair((np.maximum(t, s) < end) & (np.minimum(t, s) <= prod))
    if hit is None:
        return None
    a, b = hit
    return {"x": ctx.elem(reps[a]), "y": ctx.elem(reps[b]),
            "t": str(ctx.value(above[a])), "s": str(ctx.value(above[b]))}


def _sd0prime_loop(ctx, pp):
    for x in range(ctx.ring.size):
        mv = min(ctx.pv[e] for e in pp[(x, x)])
        if mv > ctx.pv[x]:
            return {"x": ctx.elem(x), "t": str(ctx.value(mv))}
    return None


def _first_pair(mask):
    hits = np.argwhere(mask)
    return tuple(hits[0]) if len(hits) else None


def _d3_reference(ctx, top):
    """D3's quantified form: P(x r y) = P(0) for every r, while P(x) and
    P(y) are below P(0); ``top`` is the rank of P(0)."""
    hyp = ctx.m == top
    concl = (ctx.pv[:, None] == top) | (ctx.pv[None, :] == top)
    hit = _first_pair(hyp & ~concl)
    if hit is None:
        return None
    x, y = hit
    return {"x": ctx.elem(x), "y": ctx.elem(y)}


def _d4_reference(ctx):
    """D4 element by element: P(xy) is P(x) or P(y)."""
    M = ctx.pv[ctx.mul]
    ok = (M == ctx.pv[:, None]) | (M == ctx.pv[None, :])
    hit = _first_pair(~ok)
    if hit is None:
        return None
    x, y = hit
    return {"x": ctx.elem(x), "y": ctx.elem(y),
            "P(xy)": str(ctx.value(M[x, y])),
            "P(x)": str(ctx.value(ctx.pv[x])), "P(y)": str(ctx.value(ctx.pv[y]))}


def _assert_matches_references(P):
    ctx, ref = _Ctx(P), _ReferenceCtx(P)
    assert ctx.pk[ctx.cls].tolist() == ref.pv.tolist(), P
    assert (ctx.mk[np.ix_(ctx.cls, ctx.cls)] == ref.m).all(), P
    assert _ideal_test(ctx) == _ideal_test_reference(ref), P
    assert prime_new_witness(P) == _prime_new_reference(ref), P
    assert semiprime_new_witness(P) == _semiprime_new_reference(ref), P
    assert D3_witness(P) == _d3_reference(ref, ref.scale.index(P.top)), P
    assert D4_witness(P) == _d4_reference(ref), P
    pp = _principal_products(P.ring)
    assert D0_witness(P) == _grid_loop(
        ref, lambda x, y: ref.pv[ref.mul[x, y]]), P
    assert D0prime_witness(P) == _grid_loop(
        ref, lambda x, y: min(ref.pv[e] for e in pp[(x, y)])), P
    assert SD0prime_witness(P) == _sd0prime_loop(ref, pp), P


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_inf_forms_match_references(corpora, spec):
    """The class ranks and the class table, read at each element, the
    ideal test and the PRIME_NEW/SEMIPRIME_NEW/D0/D0'/D3/D4/SD0'
    witnesses match the element-wise forms on every corpus item."""
    for P in corpora[spec]:
        _assert_matches_references(P)


@given(text=SMALL_RING, data=st.data())
def test_inf_forms_match_references_on_random_rings(text, data):
    P = _draw_fuzzy(text, data, 4, 8)
    if P is not None:
        _assert_matches_references(P)


@given(text=SMALL_RING, data=st.data())
def test_cut_theorems_for_d0_and_sd4(text, data):
    """D0 holds iff P is two-valued with top 1 and a completely prime top
    cut; SD4 holds iff every cut above the bottom is completely semiprime
    (x^2 in C implies x in C)."""
    P = _draw_fuzzy(text, data, 3, 2)
    if P is None:
        return
    R = P.ring
    assert is_D0(P) == (len(P.chain) == 2 and P.top == 1
                        and is_completely_prime_ideal(R, star_ideal(P))), P
    assert is_SD4(P) == all(
        C.contains(x) or not C.contains(R.mul(x, x))
        for C, _ in P.chain[:-1] for x in range(R.size)), P


@pytest.mark.parametrize("spec, cap", [("Zn(360)", 400), ("Zn(1024)", 40)])
def test_d0_closed_form_matches_grid_reference(spec, cap):
    """D0 and D0' by the closed form agree with the vectorized grid search
    on random corpora of rings too large for the four-deep grid loop."""
    R = parse_ring(spec)
    for P in build_corpus(R, mode="random", seed=1, cap=cap):
        ctx = _Ctx(P)
        pv = ctx.pk[ctx.cls]
        assert D0_witness(P) == _grid_reference(
            ctx, pv, pv[R.tables.mul], range(R.size)), P
        assert D0prime_witness(P) == _grid_reference(
            ctx, ctx.pk, ctx.mk, ctx.reps), P


def test_classify_memory_is_quadratic():
    """Once a ring's principal classes are built, classifying more items
    on Zn(1024) allocates less than one n x n boolean array (1 MiB): no
    decider builds a table over element pairs, and no rank view is kept
    per item."""
    R = parse_ring("Zn(1024)")
    classify(parse_fuzzy_spec(R, "{1: <0>, 1/2: <4>, 0: <*>}"))
    items = build_corpus(R, mode="random", seed=1, cap=20)
    tracemalloc.start()
    try:
        for P in items:
            classify(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_reported_d0_arrow_formats_only_its_first_hit(monkeypatch):
    """D0' implies D0 on a commutative ring, so the reported-only arrow is
    fed notions with D0 cleared on every D0' item of Zn(6).  It reports
    the first of them, and format_fuzzy runs once per distinct witness
    object, not once per flagged item."""
    corpus = build_corpus(parse_ring("Zn(6)"))
    notions_list = [dict(classify(P)[0]) for P in corpus]
    flagged = [i for i, notions in enumerate(notions_list) if notions["D0'"]]
    assert len(flagged) > 1
    for i in flagged:
        notions_list[i]["D0"] = False
    calls = []
    monkeypatch.setattr(dsl, "format_fuzzy",
                        lambda P: calls.append(P) or format_fuzzy(P))
    report = primeness.diagram_check(corpus, notions_list)
    edge = report["diagram"][-1]
    assert list(edge.items()) == [
        ("edge", "D0'=>D0 (commutative, reported only)"),
        ("status", "counterexample"),
        ("witness", {"fuzzy": format_fuzzy(corpus[flagged[0]]),
                     "index": flagged[0]})]
    # the reported arrow reuses the probe's witness of ("D0'", "D0")
    witnesses = {id(e["witness"]) for e in report["diagram"] if "witness" in e}
    assert len(calls) == len(witnesses)


def test_charprime_keeps_no_ring_in_the_cache(monkeypatch):
    """The quotient leg of check-charprime decides the {0} cut on R itself,
    since R/{0} has R's tables, and builds R/C once for every other cut C,
    memoizing only the answer: after the check over a corpus, no Ring
    object is left among R's cached values.  Mat(2, Zn(2)) is simple, so
    it builds no quotient at all."""
    built = []

    def recording(R, ideal, **kwargs):
        built.append(ideal)
        return quotient_ring(R, ideal, **kwargs)
    quotient_ring = primeness.quotient_ring
    monkeypatch.setattr(primeness, "quotient_ring", recording)
    for spec, quotients in (("Zn(12)", 4), ("Tri(2, Zn(2))", 3),
                            ("Mat(2, Zn(2))", 0)):
        R = parse_ring(spec)  # fresh caches
        built.clear()
        for P in build_corpus(R):
            charprime_equivalence_check(P)
        assert not any(C.is_zero for C in built), spec
        assert len(built) == len(set(built)) == quotients, spec
        assert not any(isinstance(v, Ring) for v in R._cache.values()), spec
