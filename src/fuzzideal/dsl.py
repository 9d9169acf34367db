"""Textual formats: ring specs, elements, fuzzy ideals and JSON reports.

This module is the single owner of every serialization.  Parsers are
plain recursive descent over the raw text with byte-offset spans in
errors; formatters emit the canonical form that round-trips through the
parsers bit-exactly.

Grammar (EBNF):
    ringspec  := "Z" | "Zn(" nat ")" | "Mat(" nat "," ringspec ")"
               | "Tri(" nat "," ringspec ")"
               | "Prod(" ringspec ("," ringspec)+ ")"
               | "Quot(" ringspec "," idealspec ")"
    idealspec := "<" (elem ("," elem)*)? ">" | "<*>"
    fuzzyspec := "{" value ":" idealspec ("," value ":" idealspec)* "}"
    value     := nat | nat "/" nat | nat "." digits(<=6)
    elem      := int | "[" elem ("," elem)* "]" | "(" elem ("," elem)* ")"
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import FuzzidealError, RingConstructionError
from .rings import (Ring, RingSpec, SpecMat, SpecProd, SpecQuot, SpecTri,
                    SpecZ, SpecZn, build_ring)

MAX_DECIMAL_DIGITS = 6


class ParseError(FuzzidealError):
    """Syntax or shape error, with a byte-offset span into the input."""

    def __init__(self, message, span, expected):
        super().__init__(f"{message} at {span[0]}..{span[1]}")
        self.message = message
        self.span = span
        self.expected = frozenset(expected)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- primitives --------------------------------------------------------

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message, expected, start=None):
        start = self.pos if start is None else start
        end = min(start + 1, len(self.text))
        raise ParseError(message, (start, max(start, end)), expected)

    def literal(self, s):
        self.ws()
        if not self.text.startswith(s, self.pos):
            self.fail(f"expected {s!r}", {s})
        self.pos += len(s)

    def try_literal(self, s):
        self.ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def nat(self):
        self.ws()
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a natural number", {"digit"})
        return int(self.text[start:self.pos]), start

    def int_(self):
        self.ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            self.fail("expected an integer", {"digit", "-"})
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def name(self):
        self.ws()
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a name", {"Z", "Zn", "Mat", "Tri", "Prod", "Quot"})
        return self.text[start:self.pos], start

    def end(self):
        self.ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input", {"end of input"})

    # -- grammar -----------------------------------------------------------

    def ringspec(self) -> RingSpec:
        word, start = self.name()
        if word == "Z":
            return SpecZ()
        if word == "Zn":
            self.literal("(")
            n, nstart = self.nat()
            if n < 2:
                self.fail("Zn requires n >= 2", {"nat >= 2"}, nstart)
            self.literal(")")
            return SpecZn(n)
        if word in ("Mat", "Tri"):
            self.literal("(")
            k, kstart = self.nat()
            if k < 1:
                self.fail(f"{word} requires k >= 1", {"nat >= 1"}, kstart)
            self.literal(",")
            base = self.ringspec()
            self.literal(")")
            return (SpecMat if word == "Mat" else SpecTri)(k, base)
        if word == "Prod":
            self.literal("(")
            factors = [self.ringspec()]
            self.literal(",")
            factors.append(self.ringspec())
            while self.try_literal(","):
                factors.append(self.ringspec())
            self.literal(")")
            return SpecProd(tuple(factors))
        if word == "Quot":
            self.literal("(")
            base = self.ringspec()
            self.literal(",")
            gens = self.idealspec()
            self.literal(")")
            return SpecQuot(base, gens)
        self.fail(f"unknown ring constructor {word!r}",
                  {"Z", "Zn", "Mat", "Tri", "Prod", "Quot"}, start)

    def idealspec(self):
        """Generator literal list; ("*",) stands for the whole ring."""
        self.literal("<")
        if self.try_literal("*"):
            self.literal(">")
            return ("*",)
        if self.try_literal(">"):
            return ()
        gens = [self.elem_literal()]
        while self.try_literal(","):
            gens.append(self.elem_literal())
        self.literal(">")
        return tuple(gens)

    def elem_literal(self):
        self.ws()
        c = self.peek()
        if c == "[":
            self.literal("[")
            items = [self.elem_literal()]
            while self.try_literal(","):
                items.append(self.elem_literal())
            self.literal("]")
            return tuple(items)
        if c == "(":
            self.literal("(")
            items = [self.elem_literal()]
            while self.try_literal(","):
                items.append(self.elem_literal())
            self.literal(")")
            return tuple(items)
        return self.int_()

    def value(self) -> Fraction:
        self.ws()
        start = self.pos
        p, _ = self.nat()
        if self.try_literal("/"):
            q, qstart = self.nat()
            if q == 0:
                self.fail("zero denominator", {"nat >= 1"}, qstart)
            v = Fraction(p, q)
        elif self.pos < len(self.text) and self.peek() == ".":
            self.pos += 1
            dstart = self.pos
            while self.peek().isdigit():
                self.pos += 1
            digits = self.text[dstart:self.pos]
            if not digits:
                self.fail("expected decimal digits", {"digit"})
            if len(digits) > MAX_DECIMAL_DIGITS:
                self.fail(f"more than {MAX_DECIMAL_DIGITS} decimal digits",
                          {"<= 6 digits"}, dstart)
            v = Fraction(p) + Fraction(int(digits), 10 ** len(digits))
        else:
            v = Fraction(p)
        if not (0 <= v <= 1):
            self.fail(f"membership value {v} outside [0,1]", {"value in [0,1]"},
                      start)
        return v

    def fuzzyspec(self):
        self.literal("{")
        levels = [(self._level())]
        while self.try_literal(","):
            levels.append(self._level())
        self.literal("}")
        return levels

    def _level(self):
        self.ws()
        vstart = self.pos
        v = self.value()
        self.literal(":")
        self.ws()
        gstart = self.pos
        gens = self.idealspec()
        return (v, gens, (vstart, self.pos), gstart)


# --------------------------------------------------------------------------
# Element resolution
# --------------------------------------------------------------------------

def resolve_element_literal(R: Ring, lit):
    """Map a parsed literal (int / nested tuples) to an element of R."""
    spec = R.spec
    if not R.is_table:
        if not isinstance(lit, int):
            raise RingConstructionError(f"integer literal expected, got {lit!r}")
        return lit
    if isinstance(spec, SpecZn):
        if not isinstance(lit, int):
            raise RingConstructionError(f"integer literal expected, got {lit!r}")
        return lit % spec.n
    if isinstance(spec, (SpecMat, SpecTri)):
        k = spec.k
        base = R.base_ring
        if not (isinstance(lit, tuple) and len(lit) == k
                and all(isinstance(row, tuple) and len(row) == k for row in lit)):
            raise RingConstructionError(f"{k}x{k} matrix literal expected")
        entries = tuple(resolve_element_literal(base, lit[i][j])
                        for i in range(k) for j in range(k))
        if isinstance(spec, SpecTri):
            for i in range(k):
                for j in range(i):
                    if entries[i * k + j] != base.zero:
                        raise RingConstructionError(
                            "below-diagonal entry must be zero in Tri")
        return _elem_index(R)[entries]
    if isinstance(spec, SpecProd):
        if not (isinstance(lit, tuple) and len(lit) == len(R.factor_rings)):
            raise RingConstructionError(
                f"{len(R.factor_rings)}-tuple literal expected")
        entry = tuple(resolve_element_literal(f, c)
                      for f, c in zip(R.factor_rings, lit))
        return _elem_index(R)[entry]
    if isinstance(spec, SpecQuot):
        return R.project(resolve_element_literal(R.parent, lit))
    raise RingConstructionError(f"cannot resolve literal for {spec!r}")


def _elem_index(R: Ring):
    return R.cached("elem_index",
                    lambda: {e: i for i, e in enumerate(R.elems)})


# --------------------------------------------------------------------------
# Public parse API
# --------------------------------------------------------------------------

def parse_ring_spec(text: str) -> RingSpec:
    p = _Parser(text)
    spec = p.ringspec()
    p.end()
    return spec


def parse_ring(text: str) -> Ring:
    return build_ring(parse_ring_spec(text))


def parse_element(R: Ring, text: str):
    p = _Parser(text)
    lit = p.elem_literal()
    p.end()
    try:
        return resolve_element_literal(R, lit)
    except (RingConstructionError, KeyError) as exc:
        raise ParseError(str(exc), (0, len(text)), {"element of the ring"})


def parse_fuzzy_spec(R: Ring, text: str):
    from .crisp import ideal_generate, whole_ideal
    from .fuzzy import fuzzy_from_chain
    from .errors import InvalidFuzzyIdealError
    p = _Parser(text)
    levels = p.fuzzyspec()
    p.end()
    chain = []
    acc = set()
    for v, gens, span, gstart in levels:
        if gens == ("*",):
            ideal = whole_ideal(R)
        else:
            try:
                acc.update(resolve_element_literal(R, g) for g in gens)
            except (RingConstructionError, KeyError) as exc:
                raise ParseError(str(exc), (gstart, span[1]),
                                 {"element of the ring"})
            ideal = ideal_generate(R, acc)
        chain.append((ideal, v))
    try:
        return fuzzy_from_chain(R, chain)
    except InvalidFuzzyIdealError as exc:
        raise InvalidFuzzyIdealError(
            f"invalid fuzzy spec: {exc}", witness=exc.witness)


def parse_value(text: str) -> Fraction:
    p = _Parser(text)
    v = p.value()
    p.end()
    return v


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

def format_value(v: Fraction) -> str:
    return str(Fraction(v))


def format_ring_spec(spec: RingSpec) -> str:
    if isinstance(spec, SpecZ):
        return "Z"
    if isinstance(spec, SpecZn):
        return f"Zn({spec.n})"
    if isinstance(spec, SpecMat):
        return f"Mat({spec.k}, {format_ring_spec(spec.base)})"
    if isinstance(spec, SpecTri):
        return f"Tri({spec.k}, {format_ring_spec(spec.base)})"
    if isinstance(spec, SpecProd):
        inner = ", ".join(format_ring_spec(f) for f in spec.factors)
        return f"Prod({inner})"
    if isinstance(spec, SpecQuot):
        gens = ", ".join(_literal_text(spec.base, g) for g in spec.gens) \
            if spec.gens != ("*",) else "*"
        return f"Quot({format_ring_spec(spec.base)}, <{gens}>)"
    raise TypeError(f"unknown spec {spec!r}")


def _literal_text(spec, lit) -> str:
    if isinstance(lit, int):
        return str(lit)
    if isinstance(spec, (SpecMat, SpecTri)):
        rows = ("[" + ",".join(_literal_text(spec.base, e) for e in row) + "]"
                for row in lit)
        return "[" + ",".join(rows) + "]"
    if isinstance(spec, SpecProd):
        return ("(" + ", ".join(_literal_text(f, c)
                                for f, c in zip(spec.factors, lit)) + ")")
    if isinstance(spec, SpecQuot):
        return _literal_text(spec.base, lit)
    raise TypeError(f"cannot format literal {lit!r} for {spec!r}")


def format_element(R: Ring, x) -> str:
    """The element's text, which the ring constructors build as its label."""
    return R.label(x)


def format_fuzzy(F) -> str:
    from .rings import _canonical_generators
    R = F.ring
    parts = []
    for ideal, value in F.chain:
        if ideal.is_whole:
            gens_text = "*"
        elif not R.is_table:
            gens_text = str(ideal.gen)
        else:
            gens = _canonical_generators(R, ideal) or [R.zero]
            gens_text = ", ".join(format_element(R, g) for g in gens)
        parts.append(f"{format_value(value)}: <{gens_text}>")
    return "{" + ", ".join(parts) + "}"


def _jsonable(obj):
    # plain leaves first: they are most of a report, and need no import
    if isinstance(obj, (str, int)) or obj is None:  # bool is an int
        return obj
    from .fuzzy import FuzzyIdeal
    from .crisp import CrispIdeal
    if isinstance(obj, Fraction):
        return format_value(obj)
    if isinstance(obj, FuzzyIdeal):
        return format_fuzzy(obj)
    if isinstance(obj, CrispIdeal):
        R = obj.ring
        if not R.is_table:
            return f"<{obj.gen}>"
        return sorted(R.label(x) for x in obj.elems)
    if isinstance(obj, RingSpec):
        return format_ring_spec(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def to_json(obj) -> str:
    """Canonical JSON: sorted keys, rationals as "p/q" strings."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def format(value) -> str:  # noqa: A001 - module-level name mirrors the API
    from .fuzzy import FuzzyIdeal
    if isinstance(value, RingSpec):
        return format_ring_spec(value)
    if isinstance(value, FuzzyIdeal):
        return format_fuzzy(value)
    return to_json(value)
