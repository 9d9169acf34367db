import functools

import pytest
from hypothesis import settings, strategies as st

from fuzzideal import build_corpus, parse_ring

# Property tests replay the same examples on every run (derandomized, no
# example database) and stay within a bounded number of examples.
settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("tier1")

TABLE_SPECS = ("Zn(6)", "Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
               "Prod(Zn(2), Zn(3))")
Z_BOUND = 12


@pytest.fixture(scope="session")
def rings():
    """Session-shared ring objects (their internal caches are the point)."""
    out = {spec: parse_ring(spec) for spec in TABLE_SPECS}
    out["Z"] = parse_ring("Z")
    return out


@pytest.fixture(scope="session")
def corpora(rings):
    """Exhaustive default-palette corpora over every table ring."""
    return {spec: build_corpus(rings[spec]) for spec in TABLE_SPECS}


@pytest.fixture(scope="session")
def z_corpus(rings):
    return build_corpus(rings["Z"], bound=Z_BOUND)


def is_ideal(R, subset) -> bool:
    """Direct check of the two-sided ideal axioms on a table-ring subset,
    through the checked ``Ring.neg``/``Ring.add``/``Ring.mul``: the
    oracle of the 2^n subset scans and of the cut criterion."""
    if R.zero not in subset:
        return False
    for a in subset:
        if R.neg(a) not in subset:
            return False
        for b in subset:
            if R.add(a, b) not in subset:
                return False
        for r in range(R.size):
            if R.mul(r, a) not in subset or R.mul(a, r) not in subset:
                return False
    return True


@functools.cache
def small_ring(text):
    return parse_ring(text)


# specs of small random table rings for property tests; a Quot spec may
# name the whole ring, which parse_ring rejects with RingConstructionError
SMALL_RING = st.one_of(
    st.integers(2, 16).map(lambda n: f"Zn({n})"),
    st.tuples(st.integers(2, 5), st.integers(2, 5)).map(
        lambda ab: f"Prod(Zn({ab[0]}), Zn({ab[1]}))"),
    st.sampled_from(["Tri(2, Zn(2))", "Tri(2, Zn(3))", "Mat(2, Zn(2))",
                     "Prod(Zn(2), Zn(2), Zn(2))", "Prod(Tri(2, Zn(2)), Zn(2))"]),
    st.tuples(st.integers(4, 24), st.integers(2, 12)).map(
        lambda nd: f"Quot(Zn({nd[0]}), <{nd[1]}>)"),
    st.sampled_from(["Quot(Tri(2, Zn(2)), <[[0,1],[0,0]]>)",
                     "Quot(Tri(2, Zn(3)), <[[0,1],[0,0]]>)",
                     "Quot(Prod(Zn(4), Zn(6)), <(2, 0)>)"]))
