"""Output checks made apart from the program under test.

Nothing here calls a fuzzideal decision procedure.  Arithmetic is read once
from the ring's public ``add``/``mul``/``neg`` into plain tables, and every
ideal property is decided by brute force over those tables; over the
integers by trial division.  A check that fails raises ``CheckFailure``;
the benchmark counts the item as failed.
"""
from __future__ import annotations

import json
import re
from math import gcd


class CheckFailure(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# --------------------------------------------------------------------------
# Brute force on a finite ring's tables
# --------------------------------------------------------------------------

class Table:
    """A finite ring as plain tables, with brute-force ideal predicates."""

    def __init__(self, R):
        n = R.size
        self.n = n
        self.zero = R.zero
        self.add = [[R.add(a, b) for b in range(n)] for a in range(n)]
        self.mul = [[R.mul(a, b) for b in range(n)] for a in range(n)]
        self.neg = [R.neg(a) for a in range(n)]
        self.commutative = all(self.mul[a][b] == self.mul[b][a]
                               for a in range(n) for b in range(n))
        self.by_label = {R.label(x): x for x in range(n)}
        self._memo = {}

    def _cached(self, kind, S, fn):
        key = (kind, S)
        if key not in self._memo:
            self._memo[key] = fn(S)
        return self._memo[key]

    def is_prime(self, S) -> bool:
        """xRy inside S forces x or y inside S (S proper)."""
        def decide(S):
            mul, out = self.mul, [x for x in range(self.n) if x not in S]
            return not any(all(mul[mul[x][r]][y] in S for r in range(self.n))
                           for x in out for y in out)
        return self._cached("prime", S, decide)

    def is_completely_prime(self, S) -> bool:
        def decide(S):
            out = [x for x in range(self.n) if x not in S]
            return not any(self.mul[x][y] in S for x in out for y in out)
        return self._cached("cprime", S, decide)

    def is_semiprime(self, S) -> bool:
        def decide(S):
            mul = self.mul
            return not any(all(mul[mul[x][r]][x] in S for r in range(self.n))
                           for x in range(self.n) if x not in S)
        return self._cached("semiprime", S, decide)

    def is_ideal(self, S) -> bool:
        """Closed under +, - and multiplication by any ring element on
        either side."""
        if self.zero not in S:
            return False
        return all(self.neg[a] in S
                   and all(self.add[a][b] in S for b in S)
                   and all(self.mul[r][a] in S and self.mul[a][r] in S
                           for r in range(self.n))
                   for a in S)

    def generated(self, gens) -> frozenset:
        """Least subset holding ``gens`` and 0 that is closed as an ideal."""
        todo = [self.zero, *gens]
        S = set()
        while todo:
            a = todo.pop()
            if a in S:
                continue
            S.add(a)
            todo.append(self.neg[a])
            todo.extend(self.add[a][b] for b in list(S))
            todo.extend(self.mul[r][a] for r in range(self.n))
            todo.extend(self.mul[a][r] for r in range(self.n))
        return frozenset(S)

    def lattice(self) -> list:
        """Every ideal: joins of principal ideals, closed under joins."""
        def decide(_):
            ideals = {self.generated([x]) for x in range(self.n)}
            grown = True
            while grown:
                grown = False
                for A in list(ideals):
                    for B in list(ideals):
                        J = self.generated(A | B)
                        if J not in ideals:
                            ideals.add(J)
                            grown = True
            return sorted(ideals, key=len)
        return self._cached("lattice", None, decide)

    def radical(self, S) -> frozenset:
        """Intersection of the prime ideals containing S (the whole ring
        when S is the whole ring)."""
        out = frozenset(range(self.n))
        for P in self.lattice():
            if len(P) < self.n and S <= P and self.is_prime(P):
                out &= P
        return out


# --------------------------------------------------------------------------
# Integers
# --------------------------------------------------------------------------

def prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_kernel(n: int) -> int:
    """Generator of Rad(nZ): the product of n's distinct primes (0 -> 0)."""
    out = 1 if n else 0
    for p in prime_factors(n) if n else ():
        out *= p
    return out


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


# --------------------------------------------------------------------------
# Fuzzy ideals read from their chains
# --------------------------------------------------------------------------

def members(ideal, table_ring: bool):
    """Element set (table ring) or generator (Z) of a crisp ideal."""
    return ideal.elems if table_ring else ideal.gen


def contains(m, x, table_ring: bool) -> bool:
    if table_ring:
        return x in m
    return x == 0 if m == 0 else x % m == 0


def value(F, x, table_ring: bool):
    """F(x): the value of the least chain ideal holding x."""
    for ideal, v in F.chain:
        if contains(members(ideal, table_ring), x, table_ring):
            return v
    raise CheckFailure("chain does not end at the whole ring")


def probe_z(fuzzies):
    """Integers on which fuzzy ideals over Z can differ: 0 and the divisors
    of the lcm of every nonzero generator."""
    L = 1
    for F in fuzzies:
        for ideal, _ in F.chain:
            if ideal.gen:
                L = L * ideal.gen // gcd(L, ideal.gen)
    return [0, *divisors(L)]


def merge_levels(levels):
    """Drop a level whose ideal repeats the previous one (the earlier,
    larger value is kept)."""
    out = []
    for m, v in levels:
        if out and out[-1][0] == m:
            continue
        out.append((m, v))
    return out


# --------------------------------------------------------------------------
# diagram: one classify() result
# --------------------------------------------------------------------------

# The implications the paper proves: (source, target, commutative rings only).
ASSERTED_EDGES = (
    ("D1", "D2", False), ("D0", "D0'", False), ("D4", "D2", False),
    ("D2", "D3", False), ("D2", "D4", True), ("D1", "D4", True),
    ("SD1", "SD2", False), ("SD4", "SD2", False), ("SD2", "SD4", True),
    ("SD4", "SD1", True),
)
EQUIVALENCES = (("D0'", "D1"), ("PRIME_NEW", "D2"), ("SEMIPRIME_NEW", "SD2"))


def violates(notions, src, dst) -> bool:
    return notions.get(src) is True and notions.get(dst) is False


def check_classify(T: Table, P, notions, witnesses):
    """Cut characterizations by brute force, false witnesses re-checked
    from their definitions, and every proved edge on this item."""
    cuts = [c.elems for c, _ in P.chain[:-1]]
    cut_prime = all(T.is_prime(c) for c in cuts)
    cut_semiprime = all(T.is_semiprime(c) for c in cuts)
    cut_cprime = all(T.is_completely_prime(c) for c in cuts)
    for name, expect in (("PRIME_NEW", cut_prime), ("D2", cut_prime),
                         ("SEMIPRIME_NEW", cut_semiprime),
                         ("SD2", cut_semiprime), ("D4", cut_cprime)):
        require(notions.get(name) is expect,
                f"{name} is {notions.get(name)}, brute force says {expect}")

    def val(x):
        return value(P, x, True)

    def elem(label):
        require(label in T.by_label, f"witness names no element: {label!r}")
        return T.by_label[label]

    mul, rng = T.mul, range(T.n)
    w = witnesses.get("PRIME_NEW")
    if w is not None:
        x, y = elem(w["x"]), elem(w["y"])
        inf = min(val(mul[mul[x][r]][y]) for r in rng)
        require(inf != max(val(x), val(y)) and str(inf) == w["inf_P_xRy"]
                and str(max(val(x), val(y))) == w["P(x)_or_P(y)"],
                f"PRIME_NEW witness does not refute: {w}")
    w = witnesses.get("D4")
    if w is not None:
        x, y = elem(w["x"]), elem(w["y"])
        vxy = val(mul[x][y])
        require(vxy not in (val(x), val(y)) and str(vxy) == w["P(xy)"],
                f"D4 witness does not refute: {w}")
    w = witnesses.get("SEMIPRIME_NEW")
    if w is not None:
        x = elem(w["x"])
        inf = min(val(mul[mul[x][r]][x]) for r in rng)
        require(inf != val(x) and str(inf) == w["inf_P_xRx"],
                f"SEMIPRIME_NEW witness does not refute: {w}")
    w = witnesses.get("SD4")
    if w is not None:
        x = elem(w["x"])
        require(val(mul[x][x]) != val(x) and str(val(mul[x][x])) == w["P(x^2)"],
                f"SD4 witness does not refute: {w}")

    for src, dst, comm_only in ASSERTED_EDGES:
        if comm_only and not T.commutative:
            continue
        require(not violates(notions, src, dst), f"edge {src}=>{dst} violated")
    for a, b in EQUIVALENCES:
        require(notions.get(a) == notions.get(b), f"{a} differs from {b}")
    if T.commutative:
        require(notions.get("SD1") == notions.get("SD2"),
                "SD1 differs from SD2 on a commutative ring")


def check_diagram_report(report, notions_list, commutative):
    """diagram_check's edges agree with the per-item notion tables."""
    require(report.get("corpus_size") == len(notions_list),
            "diagram report has the wrong corpus size")
    statuses = {e["edge"]: e for e in report["diagram"]}
    for src, dst, comm_only in ASSERTED_EDGES:
        if comm_only and not commutative:
            continue
        require(statuses.get(f"{src}=>{dst}", {}).get("status") == "implied",
                f"asserted edge {src}=>{dst} not reported as implied")
    for edge, entry in statuses.items():
        match = re.fullmatch(r"([A-Z0-9_']+)(<?=>)([A-Z0-9_']+)", edge)
        if match is None:
            continue  # reported-only or non-notion entries
        src, arrow, dst = match.groups()
        if src not in notions_list[0] or dst not in notions_list[0]:
            continue
        if arrow == "<=>":
            require(all(n[src] == n[dst] for n in notions_list),
                    f"{edge} reported but fails on an item")
            continue
        bad = [i for i, n in enumerate(notions_list) if violates(n, src, dst)]
        if entry["status"] == "implied":
            require(not bad, f"{edge} reported implied, item {bad[:1]} refutes")
        else:
            require(entry["witness"]["index"] in bad,
                    f"{edge} counterexample index does not refute")


# --------------------------------------------------------------------------
# frad_table / frad_z: one item
# --------------------------------------------------------------------------

def check_frad(I, F, FF, inter, props, T: Table | None):
    """FRad(I) = F against the definition; FF = FRad(F); inter and props
    are the two theorem checks' reports.  T is None over Z."""
    table = T is not None
    require(inter.get("frad_equals_prime_intersection") is True
            and inter.get("frad_equals_semiprime_intersection") is True,
            f"intersection check report: {inter}")
    require(inter.get("prime_count", 0) >= 1
            and inter.get("semiprime_count", 0) >= inter["prime_count"],
            f"intersection counts: {inter}")
    require(props and all(v is True for v in props.values()),
            f"radical properties report: {props}")

    require(F.top == I.top and F.bottom == I.bottom, "FRad moved an endpoint")
    require(FF.chain == F.chain, "FRad is not idempotent")
    elems = range(T.n) if table else probe_z([I, F])
    require(all(value(F, x, table) >= value(I, x, table) for x in elems),
            "FRad(I) is not above I")
    for ideal, _ in F.chain[:-1]:
        m = members(ideal, table)
        ok = T.is_semiprime(m) if table else (
            m == 0 or all(m % (p * p) for p in prime_factors(m)))
        require(ok, "a cut of FRad(I) is not semiprime")

    if table:
        expect = merge_levels([(T.radical(c.elems), v) for c, v in I.chain])
    else:
        expect = merge_levels([(squarefree_kernel(c.gen), v) for c, v in I.chain])
    got = [(members(c, table), v) for c, v in F.chain]
    require(got == expect, "FRad(I) differs from the radicalized chain")


# --------------------------------------------------------------------------
# lattice: one `ideals` report
# --------------------------------------------------------------------------

def _catalan(k: int) -> int:
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def expected_counts(spec) -> tuple:
    """(ideal count, prime count) from ring theory.

    spec is a tuple: ("Zn", n), ("Prod", spec, ...), ("Mat", k, spec) or
    ("Tri", k, ("Zn", p)) with p prime.
    """
    kind = spec[0]
    if kind == "Zn":
        return len(divisors(spec[1])), len(prime_factors(spec[1]))
    if kind == "Prod":
        ideals, primes = 1, 0
        for factor in spec[1:]:
            i, p = expected_counts(factor)
            ideals, primes = ideals * i, primes + p
        return ideals, primes
    if kind == "Mat":  # ideals of M_k(R) are M_k(I): same lattice as R
        return expected_counts(spec[2])
    if kind == "Tri":  # over a field: Catalan(k+1) ideals, k maximal = prime
        require(spec[2][0] == "Zn" and prime_factors(spec[2][1]) == [spec[2][1]],
                "Tri counts are known over prime fields only")
        return _catalan(spec[1] + 1), spec[1]
    raise ValueError(f"unknown ring kind {kind!r}")


def split_generators(name: str) -> list:
    """'<(1, 2), (0, 3)>' -> ['(1, 2)', '(0, 3)'] (top-level commas only)."""
    require(name.startswith("<") and name.endswith(">"), f"ideal name {name!r}")
    parts, depth, cur = [], 0, ""
    for ch in name[1:-1]:
        depth += ch in "(["
        depth -= ch in ")]"
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    parts.append(cur.strip())
    return parts


def check_ideals_report(T: Table, text_of, spec, exit_code, stdout):
    """`ideals` output: counts from ring theory; every listed ideal rebuilt
    from its generators, closed, of the listed size; flags by brute force.

    ``text_of`` maps an element's printed form to its index.
    """
    require(exit_code == 0, f"exit code {exit_code}")
    report = json.loads(stdout)
    rows = report["ideals"]
    n_ideals, n_primes = expected_counts(spec)
    require(report["count"] == len(rows) == n_ideals,
            f"{len(rows)} ideals listed, ring theory gives {n_ideals}")
    seen = set()
    primes = 0
    for row in rows:
        if row["ideal"] == "<*>":
            S = frozenset(range(T.n))
        else:
            gens = []
            for text in split_generators(row["ideal"]):
                require(text in text_of, f"unknown element {text!r}")
                gens.append(text_of[text])
            S = T.generated(gens)
        require(T.is_ideal(S), f"{row['ideal']} is not closed")
        require(row["size"] == len(S), f"{row['ideal']} has the wrong size")
        require(S not in seen, f"{row['ideal']} listed twice")
        seen.add(S)
        if len(S) == T.n:
            flags = (None, None, None)
        else:
            flags = (T.is_prime(S), T.is_completely_prime(S), T.is_semiprime(S))
        require((row["prime"], row["completely_prime"], row["semiprime"])
                == flags, f"{row['ideal']} flags differ from brute force")
        primes += row["prime"] is True
    require(primes == n_primes,
            f"{primes} primes flagged, ring theory gives {n_primes}")
