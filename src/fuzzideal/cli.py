"""Command-line frontend.

Commands: ideals, primes, classify, radical, diagram, check-charprime,
check-inter, check-frad.  Exit codes: 0 ok, 2 parse error or bad
arguments (--bound, --cap or --jobs below 1, --corpus random without
--seed), 3 resource limit, 4 invalid fuzzy ideal, 5 constant ideal, 6
theorem-assertion failure.  Reports are byte-identical for identical inputs (including
seeds and job counts).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import corpus as corpus_mod
from . import crisp, primeness, radical as radical_mod
from .dsl import (ParseError, format_element, format_fuzzy, format_ring_spec,
                  parse_fuzzy_spec, parse_ring, parse_value, to_json)
from .errors import (ConstantIdealError, InvalidFuzzyIdealError,
                     NotProperIdealError, ResourceLimitError,
                     RingConstructionError, TheoremViolationError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCES = 3
EXIT_INVALID_FUZZY = 4
EXIT_CONSTANT = 5
EXIT_THEOREM = 6

DEFAULT_BOUND = 64


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser():
    """The parser, built once, and its ``--cap`` actions, whose default
    :func:`main` sets from FUZZIDEAL_CAP on every call."""
    ap = argparse.ArgumentParser(
        prog="fuzzideal",
        description="Decide fuzzy-ideal primeness notions, compute the "
                    "fuzzy prime radical, verify implication diagrams.")
    sub = ap.add_subparsers(dest="command", required=True)
    caps = []

    def common(p, fuzzy=False):
        p.add_argument("--ring", required=True, help="ring spec, e.g. 'Mat(2, Zn(2))'")
        if fuzzy:
            p.add_argument("--fuzzy", required=True,
                           help="fuzzy ideal spec, e.g. '{1: <0>, 3/5: <*>}'")
        p.add_argument("--bound", type=_positive_int, default=DEFAULT_BOUND,
                       help="generator bound for ideals over Z (default 64)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "dot", "text"),
                       default="json")

    def corpus_opts(p):
        p.add_argument("--palette", default="1,3/4,1/2,1/4,0",
                       help="comma-separated membership values")
        p.add_argument("--corpus", choices=("exhaustive", "random"),
                       default="exhaustive")
        p.add_argument("--seed", type=int, help="seed for random corpus mode")
        caps.append(p.add_argument("--cap", type=_positive_int))
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for corpus classification")

    common(sub.add_parser("ideals", help="enumerate crisp ideals"))
    common(sub.add_parser("primes", help="enumerate prime crisp ideals"))
    common(sub.add_parser("classify", help="classification report"), fuzzy=True)
    pr = sub.add_parser("radical", help="fuzzy prime radical report")
    common(pr, fuzzy=True)
    pr.add_argument("--experimental", action="store_true",
                    help="include the speculative ring-radical reading")
    for name in ("diagram", "check-charprime", "check-inter", "check-frad"):
        p = sub.add_parser(name)
        common(p)
        corpus_opts(p)
    return ap, caps


def _emit(report: dict, args, dot_text=None):
    """Write the report; ``dot_text`` is called for ``--format dot`` only."""
    if args.format == "dot" and dot_text is not None:
        payload = dot_text()
    elif args.format == "text":
        payload = _as_text(report)
    else:
        payload = to_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _as_text(report, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(report, dict):
        for k in sorted(report):
            v = report[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)):
                lines.append(_as_text(v, indent))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{report}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _ideal_name(R, I):
    if not R.is_table:
        return f"<{I.gen}>"
    from .rings import _canonical_generators
    if I.is_whole:
        return "<*>"
    gens = _canonical_generators(R, I) or [R.zero]
    return "<" + ", ".join(format_element(R, g) for g in gens) + ">"


def cmd_ideals(args, primes_only=False):
    R = parse_ring(args.ring)
    bound = args.bound if not R.is_table else None
    ideals = crisp.enumerate_ideals(R, bound)
    names = {I: _ideal_name(R, I) for I in ideals}
    rows = []
    for I in ideals:
        if I.is_whole:
            flags = {"prime": None, "completely_prime": None, "semiprime": None}
        else:
            flags = {"prime": crisp.is_prime_ideal(R, I),
                     "completely_prime": crisp.is_completely_prime_ideal(R, I),
                     "semiprime": crisp.is_semiprime_ideal(R, I)}
        if primes_only and not flags["prime"]:
            continue
        rows.append({"ideal": names[I],
                     "size": len(I.elems) if R.is_table else None, **flags})
    report = {"ring": format_ring_spec(R.spec), "count": len(rows),
              "ideals": rows}
    _emit(report, args, dot_text=(lambda: _lattice_dot(ideals, names))
          if R.is_table else None)
    return EXIT_OK


def _lattice_dot(ideals, names):
    lines = ["digraph lattice {", '  rankdir="BT";']
    for I in ideals:
        lines.append(f'  "{names[I]}";')
    for I in ideals:
        for J in ideals:
            if I == J or not I.subset(J):
                continue
            # cover edge: nothing strictly between
            if any(K != I and K != J and I.subset(K) and K.subset(J)
                   for K in ideals):
                continue
            lines.append(f'  "{names[I]}" -> "{names[J]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_classify(args):
    R = parse_ring(args.ring)
    P = parse_fuzzy_spec(R, args.fuzzy)
    notions, witnesses = primeness.classify(P)
    report = {"ring": format_ring_spec(R.spec), "fuzzy": format_fuzzy(P),
              "commutative": R.commutative,
              "notions": dict(sorted(notions.items())),
              "witnesses": dict(sorted(witnesses.items()))}
    _emit(report, args)
    return EXIT_OK


def cmd_radical(args):
    R = parse_ring(args.ring)
    P = parse_fuzzy_spec(R, args.fuzzy)
    rep = radical_mod.radical_report(P)
    report = {"ring": format_ring_spec(R.spec), "fuzzy": format_fuzzy(P),
              "frad": format_fuzzy(rep.radical),
              "fixed_point": rep.fixed_point,
              "trace": [{"x": x, "levels": list(levels), "sup": sup}
                        for x, levels, sup in rep.trace]}
    if getattr(args, "experimental", False):
        if R.is_table:
            report["experimental_ring_radical"] = \
                radical_mod.ring_radical_experimental(R)
        else:
            report["experimental_ring_radical"] = "table rings only"
    _emit(report, args)
    return EXIT_OK


def _parse_values(text):
    return tuple(parse_value(part.strip()) for part in text.split(","))


def _make_corpus(args, R):
    palette = _parse_values(args.palette)
    bound = args.bound if not R.is_table else None
    return corpus_mod.build_corpus(R, palette, mode=args.corpus,
                                   seed=args.seed, cap=args.cap, bound=bound)


_WORKER_RINGS = {}


def _worker_classify(task):
    ring_text, fuzzy_text = task
    R = _WORKER_RINGS.get(ring_text)
    if R is None:
        R = _WORKER_RINGS[ring_text] = parse_ring(ring_text)
    P = parse_fuzzy_spec(R, fuzzy_text)
    return primeness.classify(P)[0]


def cmd_diagram(args):
    R = parse_ring(args.ring)
    items = _make_corpus(args, R)
    notions_list = None
    if args.jobs > 1:
        tasks = [(args.ring, format_fuzzy(P)) for P in items]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            notions_list = list(pool.map(_worker_classify, tasks, chunksize=16))
    report = primeness.diagram_check(items, notions_list=notions_list)
    report["ring"] = format_ring_spec(R.spec)
    _emit(report, args)
    return EXIT_OK


def cmd_check_charprime(args):
    R = parse_ring(args.ring)
    items = _make_corpus(args, R)
    checked = 0
    for P in items:
        primeness.charprime_equivalence_check(P)
        checked += 1
    report = {"ring": format_ring_spec(R.spec), "checked": checked,
              "equivalences_hold": True}
    _emit(report, args)
    return EXIT_OK


def cmd_check_inter(args):
    R = parse_ring(args.ring)
    items = _make_corpus(args, R)
    bound = args.bound if not R.is_table else None
    checked = 0
    for P in items:
        if not primeness.is_semiprime_new(P):
            continue
        radical_mod.semiprime_intersection_check(P, bound=bound)
        checked += 1
    report = {"ring": format_ring_spec(R.spec), "semiprime_checked": checked,
              "intersections_hold": True}
    _emit(report, args)
    return EXIT_OK


def cmd_check_frad(args):
    R = parse_ring(args.ring)
    items = _make_corpus(args, R)
    bound = args.bound if not R.is_table else None
    checked = 0
    for P in items:
        radical_mod.frad_intersection_check(P, bound=bound)
        radical_mod.radical_properties_check(P, P)
        checked += 1
    report = {"ring": format_ring_spec(R.spec), "checked": checked,
              "radical_corollary_holds": True}
    _emit(report, args)
    return EXIT_OK


COMMANDS = {
    "ideals": cmd_ideals,
    "primes": lambda args: cmd_ideals(args, primes_only=True),
    "classify": cmd_classify,
    "radical": cmd_radical,
    "diagram": cmd_diagram,
    "check-charprime": cmd_check_charprime,
    "check-inter": cmd_check_inter,
    "check-frad": cmd_check_frad,
}


def main(argv=None) -> int:
    parser, caps = _build_parser()
    # a string default goes through _positive_int like a given value
    cap = os.environ.get("FUZZIDEAL_CAP", str(corpus_mod.DEFAULT_CAP))
    for action in caps:
        action.default = cap
    args = parser.parse_args(argv)
    if getattr(args, "corpus", None) == "random" and args.seed is None:
        parser.error("--corpus random requires --seed")
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RingConstructionError as exc:
        print(f"invalid ring: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except InvalidFuzzyIdealError as exc:
        print(f"invalid fuzzy ideal: {exc}", file=sys.stderr)
        if exc.witness:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return EXIT_INVALID_FUZZY
    except ConstantIdealError as exc:
        print(f"constant fuzzy ideal: {exc}", file=sys.stderr)
        return EXIT_CONSTANT
    except (TheoremViolationError, NotProperIdealError) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        details = getattr(exc, "details", None)
        if details:
            print(f"details: {details}", file=sys.stderr)
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
