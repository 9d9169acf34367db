"""Fuzzy sets and fuzzy ideals: constructors, cuts, operations, oracles."""
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import SMALL_RING, TABLE_SPECS, is_ideal, small_ring
from fuzzideal import (BackendError, CrispIdeal, FuzzyIdeal, FuzzySet,
                       InvalidFuzzyIdealError, characteristic, compose,
                       constant, cut, fuzzy_from_chain, fuzzy_from_map,
                       fuzzy_product, generate, intersect, parse_fuzzy_spec,
                       parse_ring, singleton, star_ideal, strict_support,
                       to_set, value_equivalent, zero_type)
from fuzzideal import fuzzy
from fuzzideal.crisp import (enumerate_ideals, ideal_generate,
                             lattice_positions, whole_ideal, zero_ideal)
from fuzzideal.errors import RingConstructionError, TheoremViolationError
from fuzzideal.fuzzy import _axiom_witness, probe_elements

F = Fraction


def kumar(Z):
    return fuzzy_from_chain(Z, [(zero_ideal(Z), 1), (CrispIdeal(Z, gen=2), F(4, 5)),
                                (whole_ideal(Z), F(3, 5))])


def d3_variant(Z):
    return fuzzy_from_chain(Z, [(zero_ideal(Z), 1), (CrispIdeal(Z, gen=4), F(4, 5)),
                                (whole_ideal(Z), F(3, 5))])


# -- constructors -----------------------------------------------------------

def test_from_map_char_zero(rings):
    R = rings["Mat(2, Zn(2))"]
    P = fuzzy_from_map(R, {x: F(1) if x == R.zero else F(0)
                           for x in range(R.size)})
    assert P.chain == ((zero_ideal(R), F(1)), (whole_ideal(R), F(0)))


def test_from_map_zn6_chain(rings):
    R = rings["Zn(6)"]
    P = fuzzy_from_map(R, {0: F(1), 3: F(1), 1: F(1, 2), 2: F(1, 2),
                           4: F(1, 2), 5: F(1, 2)})
    assert P.ideals[0].elems == frozenset({0, 3})
    assert P.values == (F(1), F(1, 2))


def test_from_map_rejects_non_ideal_with_witness(rings):
    R = rings["Zn(6)"]
    with pytest.raises(InvalidFuzzyIdealError) as exc:
        fuzzy_from_map(R, {0: F(1), 1: F(1), 2: F(0), 3: F(0), 4: F(0),
                           5: F(0)})
    assert exc.value.witness is not None


def _axiom_witness_loop(R, table):
    """The pair loop that ``_axiom_witness`` replaced, through the checked
    ``Ring.sub``/``Ring.mul``: the reference for its row-major order."""
    for x in range(R.size):
        for y in range(R.size):
            if table[R.sub(x, y)] < min(table[x], table[y]):
                return (x, y, "I(x-y) >= I(x) ^ I(y)")
            if table[R.mul(x, y)] < max(table[x], table[y]):
                return (x, y, "I(xy) >= I(x) v I(y)")
    return None


def test_axiom_witness_matches_loop(rings, corpora):
    """No witness on any corpus map, the loop's witness on broken maps:
    one per axiom, and seeded random maps."""
    for spec in ("Zn(6)", "Zn(12)", "Tri(2, Zn(2))"):
        R = rings[spec]
        for P in corpora[spec]:
            table = [P(x) for x in range(R.size)]
            assert _axiom_witness(R, table) is None
            assert _axiom_witness_loop(R, table) is None
    R = rings["Zn(6)"]
    table = [F(1), F(1), F(0), F(0), F(0), F(0)]  # 0 - 1 = 5 drops to 0
    assert _axiom_witness(R, table) == _axiom_witness_loop(R, table) == (
        0, 1, "I(x-y) >= I(x) ^ I(y)")
    R = rings["Tri(2, Zn(2))"]
    table = [F(1) if x in (R.zero, 1) else F(0) for x in range(R.size)]
    assert _axiom_witness(R, table) == _axiom_witness_loop(R, table) == (
        2, 1, "I(xy) >= I(x) v I(y)")
    rng = random.Random(11)
    for spec in ("Zn(12)", "Tri(2, Zn(2))", "Mat(2, Zn(2))"):
        R = rings[spec]
        for _ in range(50):
            table = [rng.choice((F(0), F(1, 2), F(1))) for _ in range(R.size)]
            assert _axiom_witness(R, table) == _axiom_witness_loop(R, table)


def _chain_from_table_scalar(R, table):
    """The scalar cut criterion that the lattice lookup replaced: every
    cut passes the ideal axioms of ``is_ideal``."""
    chain = []
    cut = set()
    for v in sorted(set(table), reverse=True):
        cut |= {x for x in range(R.size) if table[x] == v}
        if not is_ideal(R, frozenset(cut)):
            return None
        chain.append((CrispIdeal(R, elems=frozenset(cut)), v))
    return tuple(chain)


def test_from_map_matches_the_scalar_cut_criterion(rings, corpora):
    """fuzzy_from_map on every corpus map and on perturbed maps, against
    the scalar cut criterion and the axiom loop: the same chain, of the
    lattice's own ideals, or the same InvalidFuzzyIdealError witness."""
    rng = random.Random(24)
    values = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for spec in TABLE_SPECS:
        R = rings[spec]
        lattice = enumerate_ideals(R)
        invalid = 0
        for P in corpora[spec]:
            table = [P(x) for x in range(R.size)]
            assert _chain_from_table_scalar(R, table) == P.chain
            chain = fuzzy_from_map(R, dict(enumerate(table))).chain
            assert chain == P.chain
            assert all(lattice[lattice_positions(R)[C]] is C
                       for C, _ in chain)
            table[rng.randrange(R.size)] = rng.choice(values)
            expected = _chain_from_table_scalar(R, table)
            if expected is not None:
                assert fuzzy_from_map(R, dict(enumerate(table))).chain \
                    == expected
                continue
            invalid += 1
            x, y, axiom = _axiom_witness_loop(R, table)
            with pytest.raises(InvalidFuzzyIdealError) as exc:
                fuzzy_from_map(R, dict(enumerate(table)))
            assert exc.value.witness == {"x": R.label(x), "y": R.label(y),
                                         "axiom": axiom}
        assert invalid, spec


def test_from_map_lying_lattice_is_a_theorem_violation(rings, monkeypatch):
    """With one ideal dropped from the lattice lookup, the cut criterion
    rejects a map the axiom scan accepts, and the two must agree."""
    R = rings["Zn(6)"]
    P = characteristic(ideal_generate(R, {3}))
    positions = dict(lattice_positions(R))
    del positions[P.chain[0][0]]
    monkeypatch.setattr(fuzzy, "lattice_positions", lambda _: positions)
    with pytest.raises(TheoremViolationError,
                       match="axiom check and cut criterion disagree"):
        fuzzy_from_map(R, P.to_map())


def test_from_chain_invariants(rings):
    Z = rings["Z"]
    P = kumar(Z)
    assert P(0) == 1 and P(6) == F(4, 5) and P(3) == F(3, 5)
    with pytest.raises(InvalidFuzzyIdealError):
        fuzzy_from_chain(Z, [(CrispIdeal(Z, gen=2), 1),
                             (CrispIdeal(Z, gen=4), F(1, 2)),
                             (whole_ideal(Z), 0)])  # not increasing
    with pytest.raises(InvalidFuzzyIdealError):
        fuzzy_from_chain(Z, [(zero_ideal(Z), F(1, 2)),
                             (CrispIdeal(Z, gen=2), F(1, 2)),
                             (whole_ideal(Z), 0)])  # values not decreasing
    with pytest.raises(InvalidFuzzyIdealError):
        fuzzy_from_chain(Z, [(zero_ideal(Z), 1), (CrispIdeal(Z, gen=2), 0)])
    with pytest.raises(InvalidFuzzyIdealError):
        fuzzy_from_chain(Z, [(zero_ideal(Z), 2), (whole_ideal(Z), 0)])


def test_zero_type_and_constant(rings):
    R = rings["Mat(2, Zn(2))"]
    zt = zero_type(R, F(1, 2), 0)
    assert zt(R.zero) == F(1, 2) and zt(R.one) == 0
    with pytest.raises(InvalidFuzzyIdealError):
        zero_type(R, F(1, 2), F(1, 2))
    c = constant(R, F(1, 3))
    assert c.is_constant and c(5) == F(1, 3)
    with pytest.raises(InvalidFuzzyIdealError):
        singleton(R, R.zero, 0)


# -- cuts -------------------------------------------------------------------

def test_kumar_cuts(rings):
    Z = rings["Z"]
    P = kumar(Z)
    assert cut(P, F(4, 5)).gen == 2
    assert cut(P, 1).gen == 0
    assert cut(P, F(3, 5)).is_whole
    assert cut(P, F(9, 10)).gen == 0   # between 4/5 and 1
    assert cut(P, F(7, 10)).gen == 2   # between 3/5 and 4/5
    assert star_ideal(P).gen == 0
    assert strict_support(P).gen == 2
    with pytest.raises(InvalidFuzzyIdealError):
        cut(P, F(11, 10))


def test_strict_support_examples(rings):
    R = rings["Mat(2, Zn(2))"]
    assert strict_support(zero_type(R, 1, 0)).elems == frozenset({R.zero})


# -- compose / generate / product -------------------------------------------

def test_compose_singleton_e12(rings):
    R = rings["Mat(2, Zn(2))"]
    from fuzzideal import parse_element
    e12 = parse_element(R, "[[0,1],[0,0]]")
    s = singleton(R, e12, 1)
    comp = compose(s, s)
    expected = tuple(F(1) if x == R.zero else F(0) for x in range(R.size))
    assert comp.table == expected  # x1 o x1 = chi_{0}


def test_compose_characteristics_zn6(rings):
    R = rings["Zn(6)"]
    a = to_set(characteristic(ideal_generate(R, {2})))
    b = to_set(characteristic(ideal_generate(R, {3})))
    comp = compose(a, b)
    assert comp.table == tuple(F(1) if x == 0 else F(0) for x in range(6))


def _compose_reference(A, B):
    """The definition's pair loop: every (a, b) through ``Ring.mul``."""
    R = A.ring
    out = [F(0)] * R.size
    for a in range(R.size):
        for b in range(R.size):
            v = min(A(a), B(b))
            x = R.mul(a, b)
            if v > out[x]:
                out[x] = v
    return FuzzySet(R, tuple(out))


def test_compose_matches_the_pair_loop(rings, corpora):
    """On every table ring, the composites of fuzzy-ideal pairs and of
    fuzzy points equal the pair loop's."""
    rng = random.Random(5)
    for spec in TABLE_SPECS:
        R = rings[spec]
        sets = [to_set(P) for P in rng.sample(corpora[spec], 6)]
        sets += [singleton(R, x, F(1, 2)) for x in range(0, R.size, 3)]
        for A, B in itertools.product(sets, repeat=2):
            assert compose(A, B) == _compose_reference(A, B), spec


@given(text=SMALL_RING, data=st.data())
def test_compose_matches_the_pair_loop_on_small_rings(text, data):
    """Random fuzzy sets on random small rings, values drawn from a few
    fractions with repeats."""
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(5, 7), F(1)])
    A, B = (FuzzySet(R, tuple(data.draw(st.lists(
        value, min_size=R.size, max_size=R.size)))) for _ in range(2))
    assert compose(A, B) == _compose_reference(A, B)


def test_compose_unsupported_over_z(rings):
    with pytest.raises(BackendError):
        compose(FuzzySet(rings["Z"], (F(1),)), FuzzySet(rings["Z"], (F(1),)))


def test_generate_singleton_e12_is_whole(rings):
    R = rings["Mat(2, Zn(2))"]
    from fuzzideal import parse_element
    e12 = parse_element(R, "[[0,1],[0,0]]")
    G = generate(singleton(R, e12, 1))
    assert G.is_constant and G.top == 1  # <x_1> = chi_R


def test_generate_singleton_zn6(rings):
    R = rings["Zn(6)"]
    G = generate(singleton(R, 2, F(1, 2)))
    assert G(2) == F(1, 2) and G(4) == F(1, 2) and G(0) == F(1, 2)
    assert G(1) == 0 and G(3) == 0


def test_generate_properties(rings, corpora):
    rng = random.Random(0)
    R = rings["Zn(6)"]
    palette = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    sets = [FuzzySet(R, tuple(rng.choice(palette) for _ in range(R.size)))
            for _ in range(40)]
    for A in sets:
        G = generate(A)
        assert all(A(x) <= G(x) for x in range(R.size))       # extensive
        G2 = generate(to_set(G))
        assert G2.chain == G.chain                            # idempotent
    for A, B in zip(sets, sets[1:]):
        if all(A(x) <= B(x) for x in range(R.size)):
            GA, GB = generate(A), generate(B)
            assert GA.le(GB)                                  # monotone
    for P in corpora["Zn(6)"]:
        assert generate(to_set(P)).chain == P.chain


def _sum_of_products_oracle(I, J):
    """Best value of x as a sum of products, by fixpoint closure."""
    R = I.ring
    best = {x: F(0) for x in range(R.size)}
    for a in range(R.size):
        for b in range(R.size):
            v = min(I(a), J(b))
            x = R.mul(a, b)
            if v > best[x]:
                best[x] = v
    changed = True
    while changed:
        changed = False
        snapshot = dict(best)
        for x in range(R.size):
            for y in range(R.size):
                v = min(snapshot[x], snapshot[y])
                z = R.add(x, y)
                if v > best[z]:
                    best[z] = v
                    changed = True
    return best


@pytest.mark.parametrize("spec", ["Zn(6)", "Tri(2, Zn(2))",
                                  "Prod(Zn(2), Zn(3))"])
def test_fuzzy_product_triple_agreement(spec, rings, corpora):
    R = rings[spec]
    assert R.size <= 8
    rng = random.Random(1)
    items = corpora[spec]
    for _ in range(25):
        I, J = rng.choice(items), rng.choice(items)
        prod = fuzzy_product(I, J)
        gen_form = generate(compose(to_set(I), to_set(J)))
        oracle = _sum_of_products_oracle(I, J)
        assert prod.chain == gen_form.chain
        assert all(prod(x) == oracle[x] for x in range(R.size)), (spec, I, J)


def test_product_examples(rings):
    R = rings["Zn(6)"]
    a = characteristic(ideal_generate(R, {2}))
    b = characteristic(ideal_generate(R, {3}))
    prod = fuzzy_product(a, b)
    assert prod.chain == characteristic(zero_ideal(R)).chain
    # unity absorbs: chi_R * F = F  when F is an ideal
    whole = constant(R, F(1))
    P = characteristic(ideal_generate(R, {2}), top=1, bottom=0)
    assert fuzzy_product(whole, P).chain == P.chain


# -- intersection -----------------------------------------------------------

def test_intersect_examples(rings):
    R = rings["Zn(6)"]
    a = characteristic(ideal_generate(R, {2}))
    b = characteristic(ideal_generate(R, {3}))
    meet = intersect([a, b])
    assert meet.chain == characteristic(zero_ideal(R)).chain
    P = zero_type(R, 1, 0)
    assert intersect([P, P]).chain == P.chain


def test_intersect_over_z_oracle(rings):
    Z = rings["Z"]
    A = kumar(Z)
    B = fuzzy_from_chain(Z, [(zero_ideal(Z), 1), (CrispIdeal(Z, gen=3), F(9, 10)),
                             (whole_ideal(Z), F(1, 2))])
    meet = intersect([A, B])
    for x in list(range(-36, 37)):
        assert meet(x) == min(A(x), B(x)), x


def test_intersect_random_pairs_pointwise(rings, corpora):
    rng = random.Random(2)
    for spec in ("Zn(12)", "Mat(2, Zn(2))"):
        R = rings[spec]
        items = corpora[spec]
        for _ in range(20):
            A, B = rng.choice(items), rng.choice(items)
            meet = intersect([A, B])
            assert all(meet(x) == min(A(x), B(x)) for x in range(R.size))


def _intersect2(F, G):
    """The pairwise meet that ``intersect`` once folded a family with."""
    R = F.ring
    top = min(F.top, G.top)
    candidates = sorted({v for v in F.values + G.values if v <= top},
                        reverse=True)
    chain = []
    prev = None
    for alpha in candidates:
        c = cut(F, alpha).intersect(cut(G, alpha))
        if prev is None or prev != c:
            chain.append((c, alpha))
            prev = c
    assert prev.is_whole
    return FuzzyIdeal(R, tuple(chain))


def test_intersect_matches_pairwise_fold(rings, corpora, z_corpus):
    """The one-pass meet equals folding the family pair by pair."""
    rng = random.Random(12)
    for spec, items in [*corpora.items(), ("Z", z_corpus)]:
        for _ in range(400):
            family = rng.sample(items, rng.randint(1, min(12, len(items))))
            expected = functools.reduce(_intersect2, family)
            assert intersect(family).chain == expected.chain, (spec, family)


# -- misc -------------------------------------------------------------------

def test_value_equivalence(rings):
    R = rings["Mat(2, Zn(2))"]
    assert value_equivalent(characteristic(zero_ideal(R)),
                            zero_type(R, F(1, 2), 0))
    Z = rings["Z"]
    assert not value_equivalent(kumar(Z), d3_variant(Z))
    assert value_equivalent(kumar(Z), kumar(Z))


def _le_pointwise(A, B):
    """The pointwise order by its definition, on the probe elements."""
    return all(A(x) <= B(x) for x in probe_elements(A, B))


def test_le_matches_pointwise(rings, corpora, z_corpus):
    """The order read from the chains equals the pointwise order, on all
    pairs of the Zn(6) corpus and on sampled pairs of four more corpora,
    constants included."""
    rng = random.Random(5)
    for spec in ("Zn(6)", "Zn(12)", "Tri(2, Zn(2))", "Mat(2, Zn(2))", "Z"):
        R = rings[spec]
        items = z_corpus if spec == "Z" else corpora[spec]
        items = items + [constant(R, v) for v in (F(0), F(1, 2), F(1))]
        if spec == "Zn(6)":
            pairs = itertools.product(items, repeat=2)
        else:
            pairs = ((rng.choice(items), rng.choice(items))
                     for _ in range(3000))
        for A, B in pairs:
            assert A.le(B) == _le_pointwise(A, B), (spec, A, B)


def test_probe_elements_over_z(rings):
    Z = rings["Z"]
    P = kumar(Z)
    probes = list(probe_elements(P))
    assert 0 in probes and 1 in probes and 2 in probes
    # probes distinguish all value strata
    assert {P(x) for x in probes} == set(P.values)


def test_round_trip_map(rings, corpora):
    for spec in ("Zn(6)", "Tri(2, Zn(2))"):
        R = rings[spec]
        for P in corpora[spec]:
            assert fuzzy_from_map(R, P.to_map()).chain == P.chain
