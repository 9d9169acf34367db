import pytest
from hypothesis import settings

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
