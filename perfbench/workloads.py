"""The benchmark's four workloads.

Each workload is a function of the seed that does everything before the
first item and returns its groups.  A group is a list of items (each a call into a public
entry point, the same one its CLI command uses), an optional report made
after the group's items, and the checks that the benchmark applies after
the timed phase.  The program only ever sees the generated inputs.

Every corpus is exhaustive; the seed fixes the order in which its items
are sent.  A seeded sample would make the work differ from seed to seed:
on the Z corpus at bound 16 a 1-in-10 sample moved items_per_s by about
6 % and the tail by about 15 % between seeds (simulated from measured
per-item costs), more than the machine's own noise.
"""
from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Group:
    calls: list                       # zero-argument callables, one per item
    check: Callable                   # check(index, output) -> None or raise
    report: Callable | None = None    # report(outputs), timed after the items
    check_report: Callable | None = None  # check_report(report, outputs)
    name: str = ""


# --------------------------------------------------------------------------
# diagram
# --------------------------------------------------------------------------

DIAGRAM_RINGS = ("Tri(2,Zn(2))", "Zn(12)")


def _diagram_group(spec, rng):
    from fuzzideal import corpus, dsl, primeness
    R = dsl.parse_ring(spec)
    items = corpus.build_corpus(R)
    rng.shuffle(items)
    table = functools.cache(lambda: checks.Table(R))  # built after timing

    def answered(outputs):
        """Items that did not raise, and their notion tables."""
        kept = [(P, out[0]) for P, out in zip(items, outputs)
                if isinstance(out, tuple)]
        return [P for P, _ in kept], [notions for _, notions in kept]

    def report(outputs):
        done, notions_list = answered(outputs)
        return primeness.diagram_check(done, notions_list=notions_list)

    def check(i, output):
        notions, witnesses = output
        checks.check_classify(table(), items[i], notions, witnesses)

    def check_report(rep, outputs):
        checks.check_diagram_report(rep, answered(outputs)[1],
                                    table().commutative)

    return Group(calls=[lambda P=P: primeness.classify(P) for P in items],
                 check=check, report=report, check_report=check_report,
                 name=spec)


def diagram(seed):
    """classify() per item, then diagram_check(items, notions_list=...)
    per ring: one noncommutative and one commutative ring."""
    rng = random.Random(seed)
    return [_diagram_group(spec, rng) for spec in DIAGRAM_RINGS]


# --------------------------------------------------------------------------
# frad_table and frad_z
# --------------------------------------------------------------------------

FRAD_TABLE_RINGS = ("Zn(12)", "Tri(2,Zn(2))")
FRAD_Z_BOUND = 8


def _frad_group(spec, bound, rng):
    from fuzzideal import corpus, dsl, radical
    R = dsl.parse_ring(spec)
    items = corpus.build_corpus(R, bound=bound)
    rng.shuffle(items)
    table = functools.cache(lambda: checks.Table(R) if R.is_table else None)

    def run(P):
        return (radical.frad_intersection_check(P, bound=bound),
                radical.radical_properties_check(P, P))

    def check(i, output):
        P = items[i]
        F = radical.frad(P)
        checks.check_frad(P, F, radical.frad(F), *output, table())

    return Group(calls=[lambda P=P: run(P) for P in items], check=check,
                 name=spec)


def frad_table(seed):
    """frad_intersection_check + radical_properties_check per item over
    exhaustive table-ring corpora (the `check-frad` loop)."""
    rng = random.Random(seed)
    return [_frad_group(spec, None, rng) for spec in FRAD_TABLE_RINGS]


def frad_z(seed):
    """The same two calls over the exhaustive Z corpus at a small
    generator bound (`check-frad --ring Z --bound 8`)."""
    return [_frad_group("Z", FRAD_Z_BOUND, random.Random(seed))]


# --------------------------------------------------------------------------
# lattice
# --------------------------------------------------------------------------

def _zn(n):
    return ("Zn", n)


# Ring kinds whose ideal and prime counts ring theory gives (see
# checks.expected_counts), from 8 to 81 elements.  Forty rings, so that the
# 75th percentile has ten items beyond it.
LATTICE_LADDER = (
    *(_zn(n) for n in (8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26,
                       27, 28, 30, 32, 33, 36, 40, 48, 64)),
    ("Prod", _zn(2), _zn(3)), ("Prod", _zn(2), _zn(2), _zn(2)),
    ("Prod", _zn(4), _zn(4)), ("Prod", _zn(2), _zn(9)),
    ("Prod", _zn(3), _zn(3), _zn(3)), ("Prod", _zn(4), _zn(9)),
    ("Prod", _zn(2), _zn(3), _zn(5)), ("Prod", _zn(6), _zn(6)),
    ("Prod", _zn(4), _zn(3), _zn(5)), ("Prod", _zn(5), _zn(7)),
    ("Prod", ("Mat", 2, _zn(2)), _zn(2)), ("Prod", ("Tri", 2, _zn(2)), _zn(3)),
    ("Mat", 2, _zn(2)), ("Mat", 2, _zn(3)),
    ("Tri", 2, _zn(2)), ("Tri", 2, _zn(3)), ("Tri", 3, _zn(2)),
)


def ring_text(spec) -> str:
    if spec[0] == "Zn":
        return f"Zn({spec[1]})"
    if spec[0] == "Prod":
        return "Prod(" + ", ".join(ring_text(f) for f in spec[1:]) + ")"
    return f"{spec[0]}({spec[1]}, {ring_text(spec[2])})"


def lattice(seed):
    """`fuzzideal ideals --ring ...` through cli.main, one ring per item."""
    from fuzzideal import cli, dsl
    ladder = list(LATTICE_LADDER)
    random.Random(seed).shuffle(ladder)

    def run(text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["ideals", "--ring", text])
        return code, out.getvalue()

    def check(i, output):
        R = dsl.parse_ring(ring_text(ladder[i]))
        text_of = {dsl.format_element(R, x): x for x in range(R.size)}
        checks.check_ideals_report(checks.Table(R), text_of, ladder[i], *output)

    return [Group(calls=[lambda t=ring_text(s): run(t) for s in ladder],
                  check=check, name="ladder")]


WORKLOADS = {"diagram": diagram, "frad_table": frad_table, "frad_z": frad_z,
             "lattice": lattice}
