"""Corpus generation: exhaustive (or seeded random) enumeration of the
fuzzy ideals over a ring whose values come from a fixed palette.

A corpus item is a strict ideal chain ending at the whole ring combined
with a strictly decreasing value assignment from the palette.  Items are
emitted chain-length ascending and otherwise in canonical lattice/value
order, so capped prefixes are stable and reports are byte-identical
across runs.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .crisp import enumerate_ideals, lattice_positions, subset_rows
from .errors import ResourceLimitError, TheoremViolationError
from .fuzzy import FuzzyIdeal
from .rings import DEFAULT_MAX_SIZE, Ring

DEFAULT_PALETTE = (Fraction(1), Fraction(3, 4), Fraction(1, 2),
                   Fraction(1, 4), Fraction(0))
DEFAULT_CAP = 100_000


def ideal_chains(R: Ring, max_len: int, bound: int | None = None,
                 among=None):
    """All strict chains C1 < ... < Cm = R, ordered by length then lattice
    position; includes the length-1 chain (R,).

    ``among``, a collection of ideals of the lattice, keeps only the chains
    whose C1, ..., C(m-1) all lie in it.  Every suffix of such a chain is
    one too, so the walk yields exactly those chains of the full walk, in
    its order."""
    lattice = enumerate_ideals(R, bound)
    whole = next((i for i in reversed(lattice) if i.is_whole), None)
    if whole is None:
        raise TheoremViolationError(
            "the ideal lattice lacks the whole ring",
            details={"ring": repr(R), "bound": bound})
    if among is not None:
        among = set(among)
        lattice = [i for i in lattice if i in among]
    # below[i]: the kept ideals strictly inside i, from their subset rows
    heads = (*lattice, whole)
    pos = lattice_positions(R, bound)
    inside = subset_rows(R, lattice, bound)[:, [pos[i] for i in heads]]
    below = {i: [j for j, le in zip(lattice, column) if le and j != i]
             for i, column in zip(heads, inside.T.tolist())}

    chains = [[whole]]
    frontier = [[whole]]
    for _ in range(max_len - 1):
        nxt = []
        for chain in frontier:
            for j in below[chain[0]]:
                nxt.append([j] + chain)
        if not nxt:
            break
        chains.extend(nxt)
        frontier = nxt
    return [tuple(c) for c in chains]


def enumerate_fuzzy_ideals(R: Ring, palette=DEFAULT_PALETTE,
                           bound: int | None = None,
                           non_constant: bool = True):
    """Yield every palette-valued fuzzy ideal over R (canonical order)."""
    values = sorted((Fraction(v) for v in set(palette)), reverse=True)
    for chain in ideal_chains(R, len(values), bound):
        m = len(chain)
        if non_constant and m < 2:
            continue
        for combo in itertools.combinations(values, m):
            yield FuzzyIdeal(R, tuple(zip(chain, combo)))


def build_corpus(R: Ring, palette=DEFAULT_PALETTE, mode: str = "exhaustive",
           seed: int | None = None, cap: int = DEFAULT_CAP,
           bound: int | None = None):
    """Materialized corpus list.

    Exhaustive mode errors out (never truncates) past the cap; random
    mode reservoir-samples ``cap`` items with the given seed.  Over Z,
    both fail before the walk: exhaustive mode when the length-2 chains
    alone (bound * C(|palette|, 2) items) exceed the cap, random mode
    when the lattice (bound + 1 ideals) exceeds the ring size limit.
    """
    if not R.is_table and bound is not None:
        pairs = bound * math.comb(len(set(map(Fraction, palette))), 2)
        if mode == "exhaustive" and pairs > cap:
            raise ResourceLimitError(
                f"the {pairs} length-2 chain items at bound {bound} exceed "
                f"cap {cap}; lower --bound, raise --cap or use random mode")
        if mode == "random" and bound >= DEFAULT_MAX_SIZE:
            raise ResourceLimitError(
                f"the ideal lattice at bound {bound} has {bound + 1} ideals, "
                f"above the size limit {DEFAULT_MAX_SIZE}; lower --bound")
    gen = enumerate_fuzzy_ideals(R, palette, bound)
    if mode == "exhaustive":
        out = []
        for item in gen:
            out.append(item)
            if len(out) > cap:
                raise ResourceLimitError(
                    f"corpus exceeds cap {cap}; raise --cap or use random mode")
        return out
    if mode == "random":
        if seed is None:
            raise ValueError("random corpus mode requires a seed")
        rng = random.Random(seed)
        reservoir = []
        for i, item in enumerate(gen):
            if len(reservoir) < cap:
                reservoir.append(item)
            else:
                j = rng.randrange(i + 1)
                if j < cap:
                    reservoir[j] = item
        return reservoir
    raise ValueError(f"unknown corpus mode {mode!r}")
