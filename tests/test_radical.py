"""Fuzzy prime radical: computation and theorem verifications."""
import bisect
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzideal import (FuzzyIdeal, RingConstructionError,
                       TheoremViolationError, build_corpus,
                       characteristic, classify, enumerate_fuzzy_ideals,
                       frad, frad_intersection_check, intersect,
                       parse_fuzzy_spec, parse_ring, radical_properties_check,
                       radical_report, semiprime_intersection_check,
                       value_equivalent, value_grid, witness_prime_excluding,
                       zero_type)
from conftest import SMALL_RING, TABLE_SPECS, Z_BOUND, small_ring
from fuzzideal import primeness, radical
from fuzzideal.corpus import ideal_chains
from fuzzideal.crisp import (crisp_radical, enumerate_ideals, ideal_generate,
                             lattice_positions, prime_avoiding, zero_ideal)
from fuzzideal.fuzzy import cut, meet_chain, probe_elements
from fuzzideal.primeness import (ValueGrid, _semiprime_chains, is_prime_new,
                                 is_semiprime_new, least_members)
from fuzzideal.radical import (_cut_radicals, _family_meets,
                               _first_difference, _meet, _primes,
                               _witness_pairs, ring_radical_experimental)

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
    # a chain ideal past the bound still gets its thresholds
    past = parse_fuzzy_spec(Z, "{1: <9>, 1/2: <*>}")
    assert frad_intersection_check(past, bound=4) == \
        _frad_check_reference(past, bound=4)
    # bounds at the largest prime factor of a generator hold every prime
    for spec, bound in (("{1: <30>, 0: <*>}", 5), ("{1: <49>, 0: <*>}", 7)):
        I = parse_fuzzy_spec(Z, spec)
        assert frad_intersection_check(I, bound=bound) == \
            _frad_check_reference(I, bound=bound)
    I = parse_fuzzy_spec(Z, "{1: <30>, 0: <*>}")
    assert semiprime_intersection_check(I, bound=5)["equals_intersection"]


@pytest.mark.parametrize("check", [frad_intersection_check,
                                   semiprime_intersection_check])
@pytest.mark.parametrize("spec, bound, gen, prime", [
    ("{1: <15>, 0: <*>}", 4, 15, 5),
    ("{1: <49>, 0: <*>}", 6, 49, 7),
    ("{1: <0>, 1/2: <6>, 1/4: <3>, 0: <*>}", 2, 6, 3)])
def test_z_bound_below_a_prime_factor_is_rejected(rings, check, spec, bound,
                                                  gen, prime):
    """The lattice {nZ : n <= bound} lacks the prime pZ above I, so both
    checks raise ValueError naming the generator, the prime and the
    bound, not a false TheoremViolationError."""
    I = parse_fuzzy_spec(rings["Z"], spec)
    with pytest.raises(ValueError, match=(
            f"generator {gen} has the prime factor {prime} above the "
            f"bound {bound}")):
        check(I, bound=bound)


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


def ring_radical_value_equivalence(R, grid) -> bool:
    """frad of every zero-type ideal is value-equivalent to frad of the
    characteristic of {0} (the 'radical of the ring' reading)."""
    reference = frad(zero_type(R, 1, 0))
    for t in grid:
        for s in grid:
            if s < t:
                if not value_equivalent(frad(zero_type(R, t, s)), reference):
                    return False
    return True


def test_ring_radical_remark(rings):
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for spec in ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))"):
        assert ring_radical_value_equivalence(rings[spec], grid), spec


def test_ring_radical_experimental(rings):
    rep = ring_radical_experimental(rings["Zn(12)"])
    assert rep["quotient_size"] == 6  # Zn(12)/Rad({0}) = Zn(12)/<6>
    assert rep["rad_of_quotient_is_zero"]


# -- the materializing family, the reference of the least members -----------

# cells of the (chains x value combinations x length) arrays per block
_BLOCK_CELLS = 1 << 16


@functools.cache
def _combinations(k: int, m: int):
    """The m-subsets of range(k) in ``itertools.combinations`` order, as a
    read-only (C(k, m), m) array."""
    out = np.array(list(itertools.combinations(range(k), m)), dtype=np.int64)
    out.flags.writeable = False
    return out


def _chains_by_length(R, bound, max_len):
    """The chains of ``_semiprime_chains(R, max_len, bound)`` of length at
    most ``max_len`` grouped by length: {m: ((N, m) positions, (N,)
    prime)}."""
    positions, prime = _semiprime_chains(R, max_len, bound)
    lengths = (positions >= 0).sum(axis=1)
    return {m: (positions[lengths == m, :m], prime[lengths == m])
            for m in sorted(set(lengths.tolist())) if m <= max_len}


def semiprime_family(I, grid, bound=None):
    """The semiprime fuzzy ideals Q >= I among
    ``enumerate_fuzzy_ideals(I.ring, grid, bound)``, in rank form: every
    member materialized, as the check built them before the least
    members.

    Returns ``(values, rows)``.  ``values`` is the grid, descending.
    ``rows`` holds one ``(positions, value_index, prime)`` triple per
    chain length m, ascending: the members' chains as an (N, m) array of
    lattice positions, their values as an (N, m) array of indices into
    ``values``, and an (N,) array telling which members are also prime.
    Members keep the order of ``enumerate_fuzzy_ideals``.  Every chain is
    tested against all value combinations at once against its L1
    thresholds (see ``least_members``), in integer ranks on
    grid + image(I); a grid other than ``value_grid(I)`` is ranked with
    image(I) first.
    """
    R = I.ring
    if not isinstance(grid, ValueGrid):
        values = sorted(Fraction(v) for v in set(grid))
        grid = ValueGrid(values)
        grid.rank = {v: i for i, v in enumerate(sorted({*values,
                                                         *I.values}))}
        grid.levels = tuple(grid.rank[v] for v in I.values)
    values = grid[::-1]
    value_ranks = np.array([grid.rank[v] for v in values])
    level_rank = np.array(grid.levels, dtype=np.int64)
    outside = ~primeness.crisp.subset_rows(R, [D for D, _ in I.chain], bound)
    threshold = np.where(outside.any(axis=0),
                         level_rank[outside.argmax(axis=0)], -1)
    top = level_rank[0]
    rows = []
    for m, (positions, prime) in _chains_by_length(R, bound,
                                                   len(values)).items():
        combos = _combinations(len(values), m)
        ranks = value_ranks[combos][None, :, :]
        step = max(1, _BLOCK_CELLS // ranks.size)
        hits = []
        for start in range(0, len(positions), step):
            block = positions[start:start + step]
            need = np.empty_like(block)
            need[:, 0] = top
            need[:, 1:] = threshold[block[:, :-1]]
            above = (ranks >= need[:, None, :]).all(axis=2).ravel()
            hits.append(start * len(combos) + np.flatnonzero(above))
        hit = np.concatenate(hits)
        c = hit // len(combos)
        rows.append((positions[c], combos[hit % len(combos)], prime[c]))
    return values, rows


def family_meet(lattice, values, rows) -> tuple:
    """The canonical cut chain of the pointwise infimum of a nonempty
    family of fuzzy ideals in rank form, met as ``CrispIdeal``s.
    ``rows`` holds (positions, value_index) pairs of (N, m) arrays, one
    pair per chain length, as in :func:`semiprime_family`: positions in
    ``lattice`` and indices into the descending ``values``.

    At each member value alpha up to the least top value, the distinct
    member alpha-cuts are met once by ``fuzzy.meet_chain``; a member's
    alpha-cut is its ideal at its last level valued at least alpha.
    """
    rows = [(p, i) for p, i in rows if len(p)]
    if not rows:
        raise ValueError("empty family")
    least_top = max(int(index[:, 0].max()) for _, index in rows)
    used = np.zeros(len(values), dtype=bool)
    for _, index in rows:
        used[index.ravel()] = True
    alphas = np.flatnonzero(used)
    alphas = alphas[alphas >= least_top]
    # keys a * n + p: member cut p at values[alphas[a]], one array per length
    n = len(lattice)
    keys = set()
    for positions, index in rows:
        last = (index[:, :, None] <= alphas).sum(axis=1) - 1
        at = positions[np.arange(len(positions))[:, None], last]
        keys.update((at + n * np.arange(len(alphas))).ravel().tolist())
    cuts = [[] for _ in alphas]
    for key in keys:
        cuts[key // n].append(lattice[key % n])
    return meet_chain([values[a] for a in alphas.tolist()], cuts)


def _family_meets_reference(I, bound=None):
    """``_family_meets`` on the materialized family: its sizes, and the
    meets of its primes and of all its members in rank form."""
    values, rows = semiprime_family(I, value_grid(I), bound)
    families = ([(p[f], i[f]) for p, i, f in rows],
                [(p, i) for p, i, _ in rows])
    counts = [sum(len(p) for p, _ in f) for f in families]
    lattice = enumerate_ideals(I.ring, bound)
    ranks = range(len(values) - 1, -1, -1)  # values descend
    return (*counts, *(family_meet(lattice, ranks, f) if n else None
                       for n, f in zip(counts, families)))


def _primes_reference(I, bound=None):
    """The primes of the materialized family, in order, as (chain
    positions, value indices) tuples."""
    _, rows = semiprime_family(I, value_grid(I), bound)
    return [(tuple(p), tuple(i)) for positions, index, prime in rows
            for p, i in zip(positions[prime].tolist(),
                            index[prime].tolist())]


def _assert_least_members_match(I, bound=None, pair_cap=200):
    """The counts and both meets from the least members are those of the
    materialized family, and the lazy check-inter primes its first
    ``pair_cap + 1`` primes, in order."""
    grid = value_grid(I)
    assert _family_meets(I, grid, bound) == _family_meets_reference(
        I, bound), I
    lazy = itertools.islice(_primes(*least_members(I, grid, bound)),
                            pair_cap + 1)
    assert list(lazy) == _primes_reference(I, bound)[:pair_cap + 1], I


@pytest.mark.parametrize("spec", [*TABLE_SPECS, "Z@8", "Z@12", "Z@16"])
def test_least_members_match_the_materialized_family(rings, corpora, spec):
    """Counts, both meets and the first check-inter primes, on every item
    of every table corpus and of Z at bounds 8, 12 and 16."""
    bound = int(spec[2:]) if spec.startswith("Z@") else None
    items = (build_corpus(rings["Z"], bound=bound) if bound
             else corpora[spec])
    for I in items:
        _assert_least_members_match(I, bound, pair_cap=20)


@given(text=SMALL_RING, data=st.data())
def test_least_members_match_on_random_rings(text, data):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    chains = [c for c in ideal_chains(R, len(GRID)) if len(c) >= 2]
    chain = data.draw(st.sampled_from(chains))
    values = data.draw(st.sampled_from(list(itertools.combinations(
        sorted(GRID, reverse=True), len(chain)))))
    _assert_least_members_match(FuzzyIdeal(R, tuple(zip(chain, values))),
                                pair_cap=data.draw(st.integers(0, 30)))


def test_least_members_are_pointwise_least():
    """{1: <0>, 1/2: <6>, 0: <*>} in Z at bound 12, on the grid 1 > 3/4 >
    1/2 > 1/4 > 0: on the chain <0> < <6> < <2> < <1>, the least member
    takes I(0) = 1 on <0> and I(6) = 1/2 on <6>, the bounds of L1, and
    then the least values left, 1/4 on <2> and 0 on <1>."""
    R = parse_ring("Z")
    I = parse_fuzzy_spec(R, "{1: <0>, 1/2: <6>, 0: <*>}")
    grid = value_grid(I)
    positions, index, _ = least_members(I, grid, 12)
    rows = {tuple(p for p in row if p >= 0): tuple(i for i in idx
                                                   if i < len(grid))
            for row, idx in zip(positions.tolist(), index.tolist())}
    values = grid[::-1]
    assert [values[i] for i in rows[(0, 6, 2, 1)]] == [
        F(1), F(1, 2), F(1, 4), F(0)]


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


def semiprimes_above(I, grid, bound=None):
    """Yield (Q, prime) for every member Q of
    ``semiprime_family(I, grid, bound)``, in order, built as a
    ``FuzzyIdeal``; ``prime`` tells whether Q is also prime."""
    R = I.ring
    lattice = enumerate_ideals(R, bound)
    values, rows = semiprime_family(I, grid, bound)
    for positions, value_index, prime in rows:
        for chain, index, p in zip(positions.tolist(), value_index.tolist(),
                                   prime.tolist()):
            yield FuzzyIdeal(R, tuple((lattice[i], values[k])
                                      for i, k in zip(chain, index))), p


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


def _semiprime_chains_reference(R, max_len, bound=None):
    """Every chain of the lattice, kept when the Inf-forms call its
    representative semiprime: {m: [(positions, prime), ...]}."""
    pos = lattice_positions(R, bound)
    by_len = {}
    for chain in ideal_chains(R, max_len, bound):
        m = len(chain)
        if m < 2:
            continue
        Q = FuzzyIdeal(R, tuple(zip(chain, (F(m - 1 - k, m - 1)
                                            for k in range(m)))))
        if is_semiprime_new(Q):
            by_len.setdefault(m, []).append(
                ([pos[J] for J in chain], is_prime_new(Q)))
    return by_len


def _assert_chains_match_reference(R, max_len, bound=None):
    """The chains up to length ``max_len``, and all of them, are those of
    the reference walk, in order, with its flags."""
    lattice_size = len(enumerate_ideals(R, bound))
    for top in (max_len, lattice_size):
        got = _chains_by_length(R, bound, top)
        want = _semiprime_chains_reference(R, top, bound)
        assert sorted(got) == sorted(want), (R, top, bound)
        for m, rows in want.items():
            positions, prime = got[m]
            assert positions.tolist() == [c for c, _ in rows], (R, top, m)
            assert prime.tolist() == [p for _, p in rows], (R, top, m)


@pytest.mark.parametrize("spec", [*TABLE_SPECS, "Z@8", "Z@12"])
def test_semiprime_chains_match_the_per_chain_walk(rings, spec):
    """The chains of semiprime ideals with their crisp flags are the
    chains, order and flags of the Inf-form walk over every chain."""
    R, bound = ((rings["Z"], int(spec[2:])) if spec.startswith("Z@")
                else (rings[spec], None))
    for max_len in range(3, 10):
        _assert_chains_match_reference(R, max_len, bound)


@given(text=SMALL_RING, max_len=st.integers(2, 6))
def test_semiprime_chains_match_the_walk_on_random_rings(text, max_len):
    try:
        R = parse_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    _assert_chains_match_reference(R, max_len)


@pytest.mark.parametrize("lie", ["prime", "semiprime"])
def test_semiprime_chains_catch_a_lying_crisp_witness(monkeypatch, lie):
    """A crisp witness that calls <6> prime, or <4> semiprime, in Zn(12)
    keeps a chain whose Inf-form answers disagree with its flags."""
    R = parse_ring("Zn(12)")
    name, liar = {"prime": ("prime_witness", ideal_generate(R, {6})),
                  "semiprime": ("semiprime_witness",
                                ideal_generate(R, {4}))}[lie]
    honest = getattr(primeness, name)
    monkeypatch.setattr(primeness, name, lambda R, J: (
        None if J == liar else honest(R, J)))
    with pytest.raises(TheoremViolationError,
                       match="Inf-forms disagree with the crisp cut flags"):
        _semiprime_chains(R, 5)


def test_semiprime_chains_decide_only_the_kept_chains(monkeypatch):
    """On Prod(Zn(16), Zn(16)) the walk over every chain up to length 9
    builds and decides 5,135 fuzzy ideals; the chains of semiprime ideals
    number 5, and each is built and decided once."""
    calls = {"built": 0, "decided": 0}

    def counting(key, f):
        def wrapped(*args):
            calls[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(primeness, "FuzzyIdeal",
                        counting("built", primeness.FuzzyIdeal))
    monkeypatch.setattr(primeness, "is_semiprime_new",
                        counting("decided", primeness.is_semiprime_new))
    _, prime = _semiprime_chains(parse_ring("Prod(Zn(16), Zn(16))"), 9)
    kept = len(prime)
    assert kept == 5
    assert calls == {"built": kept, "decided": kept}


def test_semiprime_chains_walk_as_deep_as_asked():
    """One array per ring and bound: a deeper request extends the walk,
    and a shallower one reads the deeper walk."""
    R = parse_ring("Prod(Zn(2), Zn(2), Zn(2), Zn(2))")
    shallow = _semiprime_chains(R, 3)
    assert (shallow[0] >= 0).sum(axis=1).max() == 3
    deep = _semiprime_chains(R, 9)
    assert (deep[0] >= 0).sum(axis=1).max() == 5  # the lattice's height
    assert deep[0][:len(shallow[0]), :3].tolist() == shallow[0].tolist()
    assert _semiprime_chains(R, 3) is deep


def _cut_radicals_reference(I, grid) -> list:
    """(s, Rad(I_s)) for every grid value s up to I(0), ascending, walked
    on the Fractions: the reference for the rank walk of
    ``_cut_radicals``."""
    R = I.ring
    radicals = [crisp_radical(R, C) for C, _ in I.chain]
    level = len(I.chain) - 1
    out = []
    for s in sorted(grid):
        if s > I.top:
            break
        while I.chain[level][1] < s:
            level -= 1
        out.append((s, radicals[level]))
    return out


def _family_ranks_reference(I, grid):
    """The Fraction-keyed rank set-up of ``least_members``: ``grid``
    descending, and the ranks on grid + image(I) of its values and of
    I's level values."""
    values = sorted((Fraction(v) for v in set(grid)), reverse=True)
    rank = {v: i for i, v in enumerate(sorted(set(values) | set(I.values)))}
    return (values, [rank[v] for v in values], [rank[v] for v in I.values])


def _flevels(I, F):
    """The ranks of F's level values in ``value_grid(I)``."""
    return tuple(map(value_grid(I).rank.get, F.values))


def _excluding_value(radicals, x, w):
    """The least grid value s > w with x outside Rad(I_s), from the
    ``_cut_radicals_reference`` of I: the per-element reference for the
    witness values of ``_witness_pairs``."""
    start = bisect.bisect_right(radicals, w, key=itemgetter(0))
    s = next((v for v, rad in radicals[start:] if not rad.contains(x)),
             None)
    if s is None:
        raise TheoremViolationError(
            "no grid value above FRad(I)(x) leaves x outside the cut radical",
            details={"x": radicals[0][1].ring.label(x), "frad": str(w),
                     "grid": [str(v) for v, _ in radicals]})
    return s


def _witness_pairs_reference(I, F, grid):
    """(x, M, s) for every probe element x with F(x) below the top, one
    element at a time."""
    R = I.ring
    radicals = _cut_radicals_reference(I, grid)
    radical_at = dict(radicals)
    out = []
    for x in probe_elements(I, F):
        w = F(x)
        if w == F.top:
            continue
        s = _excluding_value(radicals, x, w)
        out.append((x, prime_avoiding(R, radical_at[s], x), s))
    return out


def test_lower_bound_search_without_a_value_raises(rings):
    """FRad(chi<4>)(2) = 1 in Zn(12); taken as 0, no grid value above
    leaves 2 outside Rad(<4>) = <2>, and both the array search and the
    per-element reference say so with the same details."""
    R = rings["Zn(12)"]
    I = characteristic(ideal_generate(R, {4}))
    grid = value_grid(I)
    assert grid == (F(0), F(1, 2), F(1))
    with pytest.raises(TheoremViolationError) as exc:
        # I in place of FRad(I): I(2) = 0
        _witness_pairs(I, I, grid, grid.levels)
    radicals = _cut_radicals_reference(I, grid)
    with pytest.raises(TheoremViolationError) as ref:
        _excluding_value(radicals, 2, F(0))
    assert exc.value.details == ref.value.details == {
        "x": "2", "frad": "0", "grid": ["0", "1/2", "1"]}
    assert _excluding_value(radicals, 3, F(0)) == F(1, 2)


def test_witness_pairs_match_the_per_element_reference(rings, corpora,
                                                       z_corpus):
    """Every element's (M, s), and the witness count, are those of the
    per-element reference."""
    items = [P for spec in TABLE_SPECS for P in corpora[spec]]
    for I in items + z_corpus[:40]:
        F3, grid = frad(I), value_grid(I)
        probes = probe_elements(I, F3)
        below, keys, pairs = _witness_pairs(I, F3, grid, _flevels(I, F3))
        got = [(probes[p], *pairs[k]) for p, k in zip(below.tolist(), keys)]
        assert got == _witness_pairs_reference(I, F3, grid), I
        assert len(set(pairs.values())) == len(pairs), I
        bound = None if I.ring.is_table else Z_BOUND
        assert (frad_intersection_check(I, bound=bound)
                ["lower_bound_witnesses"] == len(got)), I


def _rank_path_items(rings, corpora, spec):
    """The items of a ``TABLE_SPECS`` corpus, or of Z at bound 8 or 12
    (``Z@8``, ``Z@12``)."""
    if spec.startswith("Z@"):
        return build_corpus(rings["Z"], bound=int(spec[2:]))
    return corpora[spec]


RANK_PATH_SPECS = (*TABLE_SPECS, "Z@8", "Z@12")


def test_cut_radicals_walk_the_chain(rings, corpora):
    """One radical per grid rank up to I(0)'s, each that of I's cut, as
    the Fraction walk of the reference finds them, on every corpus."""
    for P in (P for spec in RANK_PATH_SPECS
              for P in _rank_path_items(rings, corpora, spec)):
        grid = value_grid(P)
        radicals = _cut_radicals(P, grid.levels)
        assert list(zip(grid, radicals)) == _cut_radicals_reference(P, grid)
        assert radicals == [crisp_radical(P.ring, cut(P, s))
                            for s in grid if s <= P.top], P


@pytest.mark.parametrize("spec", RANK_PATH_SPECS)
def test_family_ranks_match_the_fraction_set_up(rings, corpora, spec):
    """``least_members`` reads its ranks from ``value_grid(I)``'s memo,
    where a rank is a grid position: the same values and ranks as
    ranking grid + image(I) afresh."""
    for P in _rank_path_items(rings, corpora, spec):
        grid = value_grid(P)
        ref_values, ref_value_ranks, ref_levels = \
            _family_ranks_reference(P, grid)
        assert list(grid[::-1]) == ref_values, P
        assert [grid.rank[v] for v in grid[::-1]] == ref_value_ranks, P
        assert list(grid.levels) == ref_levels, P


# -- the rank-space checks against their Fuzzy-ideal references ---------------

def _frad_check_reference(I, bound=None):
    """frad_intersection_check on materialized families: ``intersect`` of
    the members and ``_first_difference`` against FRad, then one
    prime-avoiding witness per element, each cut radical taken afresh."""
    I.require_non_constant()
    R = I.ring
    grid = value_grid(I)
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in I.chain))
    F3 = frad(I)
    primes, semiprimes = _generated(I, grid, bound)
    if not primes:
        raise TheoremViolationError("no grid-valued prime above I")
    F2 = intersect(primes)
    F1 = intersect(semiprimes)
    for name, G in (("F2", F2), ("F1", F1)):
        bad = _first_difference(F3, G)
        if bad is not None:
            raise TheoremViolationError(
                f"FRad != {name}",
                details={"x": str(bad), "frad": str(F3(bad)),
                         name: str(G(bad))})
    witnesses = []
    for x in probe_elements(I, F3):
        w = F3(x)
        if w == F3.top:
            continue
        s = next((v for v in sorted(grid) if v > w
                  and not crisp_radical(R, cut(I, v)).contains(x)), None)
        if s is None:
            raise TheoremViolationError(
                "no grid value above FRad(I)(x) leaves x outside the cut "
                "radical")
        witnesses.append(witness_prime_excluding(I, x, s))
    return {"frad_equals_prime_intersection": True,
            "frad_equals_semiprime_intersection": True,
            "prime_count": len(primes), "semiprime_count": len(semiprimes),
            "lower_bound_witnesses": len(witnesses)}


def _inter_check_reference(P, bound=None, pair_cap=200):
    """semiprime_intersection_check on the materialized primes above P."""
    if not is_semiprime_new(P):
        raise ValueError("input must be semiprime")
    R = P.ring
    if bound is None and not R.is_table:
        bound = max(64, *(c.gen for c, _ in P.chain))
    primes, _ = _generated(P, value_grid(P), bound)
    if not primes:
        raise TheoremViolationError("no grid-valued prime above P")
    bad = _first_difference(P, intersect(primes))
    if bad is not None:
        raise TheoremViolationError(
            "semiprime ideal differs from its prime intersection",
            details={"x": str(bad)})
    checked = 0
    for A, B in itertools.combinations(primes, 2):
        if checked >= pair_cap:
            break
        checked += 1
        if not is_semiprime_new(intersect([A, B])):
            raise TheoremViolationError(
                "intersection of primes is not semiprime")
    return {"prime_count": len(primes), "pairs_checked": checked,
            "equals_intersection": True}


@pytest.mark.parametrize("spec", ["Zn(6)", "Zn(12)", "Mat(2, Zn(2))",
                                  "Tri(2, Zn(2))", "Prod(Zn(2), Zn(3))",
                                  "Z@6", "Z@8"])
def test_checks_match_references(rings, corpora, spec):
    """Both rank-space checks return the references' dicts on every item."""
    if spec.startswith("Z@"):
        bound = int(spec[2:])
        items = build_corpus(rings["Z"], bound=bound)
    else:
        bound, items = None, corpora[spec]
    for P in items:
        assert (frad_intersection_check(P, bound=bound)
                == _frad_check_reference(P, bound=bound)), P
        if is_semiprime_new(P):
            assert (semiprime_intersection_check(P, bound=bound, pair_cap=20)
                    == _inter_check_reference(P, bound=bound, pair_cap=20)), P


def test_frad_check_catches_a_wrong_radical(monkeypatch):
    """With FRad(I) replaced by I, the meets disagree with it; and a
    semiprime P is not the meet of the primes above another ideal."""
    R = parse_ring("Zn(12)")
    I = characteristic(ideal_generate(R, {4}))
    monkeypatch.setattr(radical, "frad", lambda J: J)
    with pytest.raises(TheoremViolationError) as exc:
        frad_intersection_check(I)
    assert exc.value.details.keys() == {"x", "frad", "F2"}
    # check-inter, given the primes above another ideal
    P = parse_fuzzy_spec(R, "{1: <6>, 1/2: <2>, 0: <*>}")
    other = characteristic(ideal_generate(R, {3}))
    least = radical.least_members
    monkeypatch.setattr(radical, "least_members",
                        lambda J, grid, bound=None: least(other, grid, bound))
    with pytest.raises(TheoremViolationError) as exc:
        semiprime_intersection_check(P)
    assert exc.value.details.keys() == {"x"}


def test_witness_recheck_catches_a_non_prime(monkeypatch):
    """The memoized witness primeness is still decided by is_prime_new:
    on a fresh ring, a patched answer reaches the re-check."""
    R = parse_ring("Zn(12)")
    I = characteristic(ideal_generate(R, {4}))
    monkeypatch.setattr(radical, "is_prime_new", lambda P: False)
    with pytest.raises(TheoremViolationError,
                       match="prime-avoiding witness is not a prime"):
        frad_intersection_check(I)


def _family_memo_size(R):
    return sum(1 for key in R._cache
               if isinstance(key, tuple) and key[0] == "frad_family")


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_frad_check_depends_on_the_rank_pattern(spec, data):
    """Remapping I's values by an order-preserving bijection of [0, 1]
    keeps its rank pattern: the check returns the same dict and finds
    the family meets in the memo."""
    R, chains = _small_ring_chains(spec)
    chain = data.draw(st.sampled_from(chains))
    values = data.draw(st.sampled_from(list(itertools.combinations(
        sorted(GRID, reverse=True), len(chain)))))
    inner = [v for v in values if 0 < v < 1]
    moved = sorted(data.draw(st.lists(
        st.fractions(0, 1).filter(lambda v: 0 < v < 1),
        min_size=len(inner), max_size=len(inner), unique=True)),
        reverse=True)
    remap = dict(zip(inner, moved))
    I = FuzzyIdeal(R, tuple(zip(chain, values)))
    J = FuzzyIdeal(R, tuple((C, remap.get(v, v))
                            for C, v in zip(chain, values)))
    expected = frad_intersection_check(I)
    size = _family_memo_size(R)
    assert frad_intersection_check(J) == expected
    assert _family_memo_size(R) == size


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_rank_path_depends_on_the_value_order(spec, data):
    """Random images: remapping I's values by an order-preserving
    bijection of [0, 1] keeps the level ranks of ``value_grid`` and
    every check dict, check-inter's included."""
    R, chains = _small_ring_chains(spec)
    chain = data.draw(st.sampled_from(chains))

    def image():
        return sorted(data.draw(st.lists(
            st.fractions(0, 1), min_size=len(chain), max_size=len(chain),
            unique=True)), reverse=True)
    values = image()
    inner = [v for v in values if 0 < v < 1]
    moved = sorted(data.draw(st.lists(
        st.fractions(0, 1).filter(lambda v: 0 < v < 1),
        min_size=len(inner), max_size=len(inner), unique=True)),
        reverse=True)
    remap = dict(zip(inner, moved))
    I = FuzzyIdeal(R, tuple(zip(chain, values)))
    J = FuzzyIdeal(R, tuple((C, remap.get(v, v))
                            for C, v in zip(chain, values)))
    assert value_grid(J).levels == value_grid(I).levels
    assert len(value_grid(J)) == len(value_grid(I))
    assert frad_intersection_check(J) == frad_intersection_check(I)
    if is_semiprime_new(I):
        assert (semiprime_intersection_check(J, pair_cap=20)
                == semiprime_intersection_check(I, pair_cap=20))


def test_warm_frad_pass_halves_the_fraction_work(monkeypatch):
    """check-frad's item path reads ranks: a warm second pass over Z at
    bound 8 (231 items, both calls of ``check-frad``) hashes and orders
    Fractions less than half as often as the Fraction-keyed path, which
    made 6,742 ``__hash__`` and 5,989 ``_richcmp`` calls."""
    R = parse_ring("Z")
    items = build_corpus(R, bound=8)
    assert len(items) == 231

    def check_frad():
        for P in items:
            frad_intersection_check(P, bound=8)
            radical_properties_check(P, P)
    check_frad()
    counts = {"__hash__": 0, "_richcmp": 0}

    def counting(name):
        original = getattr(Fraction, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted
    for name in counts:
        monkeypatch.setattr(Fraction, name, counting(name))
    check_frad()
    monkeypatch.undo()
    assert counts["__hash__"] < 6742 // 2, counts
    assert counts["_richcmp"] < 5989 // 2, counts


def _memo_size(R, name):
    return sum(1 for key in R._cache
               if isinstance(key, tuple) and key[0] == name)


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_radical_properties_depend_on_the_chain_ideals(spec, data):
    """Remapping P's values by an order-preserving bijection of [0, 1]
    keeps its chain ideals: the check returns the same dict, that of the
    direct path, and finds it in the memo."""
    R, chains = _small_ring_chains(spec)
    chain = data.draw(st.sampled_from(chains))

    def values():
        return sorted(data.draw(st.lists(
            st.fractions(0, 1), min_size=len(chain), max_size=len(chain),
            unique=True)), reverse=True)
    P = FuzzyIdeal(R, tuple(zip(chain, values())))
    J = FuzzyIdeal(R, tuple(zip(chain, values())))
    expected = radical_properties_check(P, P)
    size = _memo_size(R, "radical_properties")
    assert radical_properties_check(J, J) == expected
    assert _memo_size(R, "radical_properties") == size
    assert expected == radical._radical_properties(J, J)
    expected.clear()  # each call hands out its own copy
    assert radical_properties_check(P, P) == radical._radical_properties(P, P)


def test_radical_properties_catch_a_wrong_radical(monkeypatch):
    """With FRad replaced by the identity on a fresh ring, cut equality
    fails: chi<4> in Zn(12) has Rad(<4>) = <2>."""
    R = parse_ring("Zn(12)")
    I = characteristic(ideal_generate(R, {4}))
    monkeypatch.setattr(radical, "frad", lambda J: J)
    with pytest.raises(TheoremViolationError,
                       match="radical property failed: cut_equality"):
        radical_properties_check(I, I)


def test_radical_properties_memo_only_when_q_is_p(monkeypatch):
    """An equal Q that is not P takes the direct path: with FRad replaced
    by the identity after P's check, P's memo entry still answers, and
    the direct check of (P, Q) fails and adds no entry."""
    R = parse_ring("Zn(12)")
    I = characteristic(ideal_generate(R, {4}))
    J = FuzzyIdeal(R, I.chain)
    expected = radical_properties_check(I, I)
    size = _memo_size(R, "radical_properties")
    monkeypatch.setattr(radical, "frad", lambda K: K)
    assert radical_properties_check(I, I) == expected
    with pytest.raises(TheoremViolationError, match="cut_equality"):
        radical_properties_check(I, J)
    assert _memo_size(R, "radical_properties") == size


def test_inter_pair_loop_is_memoized_per_rank_pattern(monkeypatch):
    """{1: <0>, 1/2: R} and {1: <0>, 1/3: R} in Zn(6) share a rank
    pattern: the second check reads the pair loop's outcome from the
    memo, and another pair_cap runs the loop again."""
    R = parse_ring("Zn(6)")
    P, Q = zero_type(R, 1, F(1, 2)), zero_type(R, 1, F(1, 3))
    expected = semiprime_intersection_check(P)
    assert expected["pairs_checked"] > 1
    size = _memo_size(R, "inter_pairs")

    def boom(*args):
        raise RuntimeError("pair loop ran")
    monkeypatch.setattr(radical, "_prime_pairs_checked", boom)
    assert semiprime_intersection_check(Q) == expected
    assert _memo_size(R, "inter_pairs") == size
    with pytest.raises(RuntimeError, match="pair loop ran"):
        semiprime_intersection_check(Q, pair_cap=1)


def test_inter_pair_loop_catches_a_non_semiprime_meet(monkeypatch):
    """On a fresh ring, the memoized pair answers still come from
    is_semiprime_new: with every meet other than P reported not
    semiprime, the loop fails."""
    R = parse_ring("Zn(6)")
    P = characteristic(zero_ideal(R))
    monkeypatch.setattr(radical, "is_semiprime_new",
                        lambda Q: Q.chain == P.chain)
    with pytest.raises(TheoremViolationError,
                       match="intersection of primes is not semiprime"):
        semiprime_intersection_check(P)


def test_family_memo_holds_the_lattice_ideals():
    """The memoized meets point at the lattice's ideal objects, so the
    memo adds no ideal copies."""
    R = parse_ring("Zn(12)")
    for P in build_corpus(R):
        frad_intersection_check(P)
    lattice = {id(J) for J in enumerate_ideals(R)}
    meets = [meet for key, value in R._cache.items()
             if isinstance(key, tuple) and key[0] == "frad_family"
             for meet in value[2:]]
    assert meets and all(id(C) in lattice for meet in meets
                         for C, _ in meet)


def test_frad_check_catches_a_wrong_radical_on_a_memo_hit(monkeypatch):
    """The memoized meets are compared with each item's own FRad."""
    R = parse_ring("Zn(12)")
    I = characteristic(ideal_generate(R, {4}))
    frad_intersection_check(I)
    size = _family_memo_size(R)
    monkeypatch.setattr(radical, "frad", lambda J: J)
    with pytest.raises(TheoremViolationError, match="FRad != F2") as exc:
        frad_intersection_check(I)
    assert exc.value.details.keys() == {"x", "frad", "F2"}
    assert _family_memo_size(R) == size


def test_witness_primes_are_built_once_per_prime(monkeypatch):
    """chi{0} in Zn(6): five elements below the top share two witness
    primes, (<3>, 1/2) for 1, 2, 4, 5 and (<2>, 1/2) for 3."""
    R = parse_ring("Zn(6)")
    I = characteristic(zero_ideal(R))
    built = []
    prime_above = radical._prime_above
    monkeypatch.setattr(radical, "_prime_above",
                        lambda J, M, s: built.append((M, s))
                        or prime_above(J, M, s))
    assert frad_intersection_check(I)["lower_bound_witnesses"] == 5
    assert sorted((sorted(M.elems), s) for M, s in built) == [
        ([0, 2, 4], F(1, 2)), ([0, 3], F(1, 2))]


def test_witness_group_rechecks_every_element(monkeypatch):
    """A prime-avoiding ideal that contains its element fails for that
    element, though 3 built and passed the same witness prime: element 4
    takes element 3's prime in the per-ideal array."""
    R = parse_ring("Zn(6)")
    I = characteristic(zero_ideal(R))
    positions = radical.avoiding_positions

    def lying(R, P):
        out = positions(R, P).copy()
        out[4] = out[3]
        return out
    monkeypatch.setattr(radical, "avoiding_positions", lying)
    with pytest.raises(TheoremViolationError,
                       match="prime-avoiding witness is not a prime") as exc:
        frad_intersection_check(I)
    assert exc.value.details == {"x": "4"}


def _rank_form(R, members, grid):
    """Members (chains with grid values) as family_meet rows by length."""
    pos = {J: i for i, J in enumerate(enumerate_ideals(R))}
    values = sorted(grid, reverse=True)
    index = {v: i for i, v in enumerate(values)}
    by_len = {}
    for chain, combo in members:
        by_len.setdefault(len(chain), []).append(
            ([pos[J] for J in chain], [index[v] for v in combo]))
    rows = [(np.array([c for c, _ in r]), np.array([v for _, v in r]))
            for _, r in sorted(by_len.items())]
    return values, rows


GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def _padded(members, size):
    """(positions, value indices) members as the right-padded arrays of
    ``radical._meet`` on a grid of ``size`` values."""
    width = max(len(p) for p, _ in members)
    return (np.array([[*p] + [-1] * (width - len(p)) for p, _ in members]),
            np.array([[*i] + [size] * (width - len(i)) for _, i in members]))


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_family_meet_is_the_intersection(spec, data):
    """The per-value lattice meet of random chains with random grid
    values, as ``CrispIdeal``s and on lattice positions, is ``intersect``
    of the materialized members."""
    R, chains = _small_ring_chains(spec)
    members = []
    for _ in range(data.draw(st.integers(1, 6))):
        chain = data.draw(st.sampled_from(chains))
        combo = data.draw(st.sampled_from(
            list(itertools.combinations(sorted(GRID, reverse=True),
                                        len(chain)))))
        members.append((chain, combo))
    values, rows = _rank_form(R, members, GRID)
    expected = intersect([FuzzyIdeal(R, tuple(zip(c, v))) for c, v in members])
    assert family_meet(enumerate_ideals(R), values, rows) == expected.chain
    # the positional meet of the check, each member its own least member
    positions, index = _padded(
        [(p, i) for ps, ix in rows for p, i in zip(ps.tolist(), ix.tolist())],
        len(values))
    assert tuple((C, values[-1 - r]) for C, r in _meet(
        R, None, positions, index, len(values))) == expected.chain


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_pair_meet_chain_depends_on_the_value_order(spec, data):
    """The key of check-inter's pair memo: the meet of two chains, taken
    on value indices, has the same chain of ideals when the indices are
    replaced by their ranks among those of both chains."""
    R, chains = _small_ring_chains(spec)
    lattice = enumerate_ideals(R)
    pos = {J: i for i, J in enumerate(lattice)}
    values = sorted(GRID, reverse=True)
    rows = []
    for _ in range(2):
        chain = data.draw(st.sampled_from(chains))
        index = sorted(data.draw(st.lists(
            st.integers(0, len(values) - 1), min_size=len(chain),
            max_size=len(chain), unique=True)))
        rows.append(([pos[J] for J in chain], index))
    rank = {k: r for r, k in enumerate(sorted({*rows[0][1], *rows[1][1]}))}

    def meet_ideals(rows):
        return [C for C, _ in _meet(R, None, *_padded(rows, len(values)),
                                    len(values))]
    assert meet_ideals(rows) == meet_ideals(
        [(p, [rank[k] for k in i]) for p, i in rows])


@given(spec=st.sampled_from(SMALL_SPECS), data=st.data())
def test_frad_idempotent_and_monotone(spec, data):
    """FRad(FRad(I)) = FRad(I), and I <= J gives FRad(I) <= FRad(J)."""
    R, chains = _small_ring_chains(spec)

    def fuzzy():
        chain = data.draw(st.sampled_from(chains))
        combo = data.draw(st.sampled_from(
            list(itertools.combinations(sorted(GRID, reverse=True),
                                        len(chain)))))
        return FuzzyIdeal(R, tuple(zip(chain, combo)))

    I, J = fuzzy(), fuzzy()
    FI = frad(I)
    assert frad(FI).chain == FI.chain
    meet = intersect([I, J])  # below J, so the order always applies
    assert meet.le(J)
    assert frad(meet).le(frad(J))
    if I.le(J):
        assert FI.le(frad(J))


# sha1 of the JSON list of per-item check dicts (check-frad's
# frad_intersection_check, and check-inter's semiprime_intersection_check
# on the semiprime items), recorded while the families were still
# materialized member by member: the CLI reports print no counts
CHECK_DICTS_SHA1 = (
    ("Zn(12)", {}, "64f038690b54bf5ca8c303b289f1684f069e5268",
     "c9d75eee46e2c621468ab115861e131a7a59029a"),
    ("Tri(2, Zn(2))", {}, "f111bce610b7e3b5c4f24d47494dce43be13f7d1",
     "c9d75eee46e2c621468ab115861e131a7a59029a"),
    ("Mat(2, Zn(2))", {}, "bfcdc0e636e3080534b0a6546f05ca62f55e0480",
     "a1c250cbc130c139cec50d82ce059c4b4b38a90b"),
    ("Zn(360)", {"mode": "random", "seed": 1, "cap": 100},
     "d90d3007d2cc86866daba43cd65223eb8cece14c",
     "490126a91121fb07bd5f7b8b5b79779ac4ca8a2d"),
    ("Z", {"bound": 16}, "ec00a3b696fdc237063d39e79e1cae25318a80a5",
     "dc5ab3a24341a2917329c009609ae0c490845d70"),
)


@pytest.mark.parametrize("spec, corpus, frad_sha1, inter_sha1",
                         CHECK_DICTS_SHA1)
def test_check_dicts_are_byte_stable(spec, corpus, frad_sha1, inter_sha1):
    R = parse_ring(spec)
    bound = corpus.get("bound")
    items = build_corpus(R, **corpus)
    frad_dicts = [frad_intersection_check(P, bound=bound) for P in items]
    inter_dicts = [semiprime_intersection_check(P, bound=bound)
                   for P in items if is_semiprime_new(P)]

    def sha1(dicts):
        return hashlib.sha1(json.dumps(dicts, sort_keys=True).encode()
                            ).hexdigest()
    assert (sha1(frad_dicts), sha1(inter_dicts)) == (frad_sha1, inter_sha1)
