"""Span tracing of fuzzideal's public functions, installed from outside.

Every traced function is replaced by a wrapper that records one span per
call: the function, its start and end (``time.perf_counter``), the span
that was open when it was called, and the benchmark item being worked on.
Spans stay in memory (column arrays) until :meth:`Tracer.save` writes them
out when the round ends.

A name bound by ``from .x import f`` is a separate reference to ``f``, so
:meth:`Tracer.install` rebinds every module attribute that *is* the
original function, not only the one in the defining module; otherwise
calls made inside the package would go unseen.  Scalar hot paths such as
``Ring.mul`` stay unwrapped: a span there would cost more than the call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# (module, qualified name) of every traced function, grouped by layer.
TRACED = (
    ("rings", "build_ring"),
    ("crisp", "principal_ideal"),
    ("crisp", "ideal_generate"),
    ("crisp", "enumerate_ideals"),
    ("crisp", "prime_witness"),
    ("crisp", "completely_prime_witness"),
    ("crisp", "semiprime_witness"),
    ("crisp", "crisp_radical"),
    ("crisp", "prime_avoiding"),
    ("corpus", "build_corpus"),
    ("corpus", "enumerate_fuzzy_ideals"),
    ("fuzzy", "compose"),
    ("fuzzy", "FuzzyIdeal.le"),
    ("fuzzy", "probe_elements"),
    ("fuzzy", "intersect"),
    ("primeness", "classify"),
    ("primeness", "SD1_witness"),
    ("primeness", "D0_witness"),
    ("primeness", "D0prime_witness"),
    ("primeness", "D3_witness"),
    ("primeness", "is_prime_new"),
    ("primeness", "is_semiprime_new"),
    ("primeness", "value_grid"),
    ("primeness", "diagram_check"),
    ("radical", "frad"),
    ("radical", "frad_intersection_check"),
    ("radical", "radical_properties_check"),
    ("radical", "witness_prime_excluding"),
    ("dsl", "parse_ring"),
    ("dsl", "to_json"),
    ("cli", "main"),
)
MODULES = ("rings", "crisp", "corpus", "fuzzy", "primeness", "radical",
           "dsl", "cli")
NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)
FID = {name: i for i, name in enumerate(NAMES)}

# Counts that repeat exactly between two traced rounds of the same seed.
EXACT_COUNTS = tuple(f"{name}.calls" for name in NAMES) + (
    "corpus.enumerate_fuzzy_ideals.yielded",
    "primeness.SD1_witness.exhausted",
)

_FRAD_CHECK = FID["radical.frad_intersection_check"]


class Tracer:
    """Records spans and the counters that need a call's arguments or result."""

    def __init__(self):
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item_of = array("i")
        self.item = -1            # set by the benchmark before each item
        self._stack = [(-1, -1)]  # (span index, function id) of open spans
        self.generator_calls = {}  # fid -> calls (spans count next() calls)
        self.yielded = 0
        self.exhausted = 0
        self.frad_enumerated = 0  # candidates enumerated directly by the check
        self.frad_kept = 0        # ... of which the check found above I
        self._prime_pairs = set()
        self._generator_fids = set()

    # -- spans ---------------------------------------------------------------

    def _open(self, fid):
        idx = len(self.fid)
        parent, parent_fid = self._stack[-1]
        self.fid.append(fid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        self.item_of.append(self.item)
        self._stack.append((idx, fid))
        return idx, parent_fid

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name, fn, after=None):
        """A traced version of fn; after(args, result, parent function id)
        runs when a call returns."""
        fid = FID[name]
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            self._generator_fids.add(fid)
            return self._wrap_generator(fid, fn)

        def traced(*args, **kwargs):
            idx, parent_fid = self._open(fid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if after is not None:
                after(args, result, parent_fid)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, fid, fn):
        """One span per ``next()``: the consumer's work between two items
        belongs to the consumer, not to the generator."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.generator_calls[fid] = self.generator_calls.get(fid, 0) + 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx, parent_fid = self._open(fid)
                    t0 = clock()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, t0, clock())
                    self.yielded += 1
                    if parent_fid == _FRAD_CHECK:
                        self.frad_enumerated += 1
                    yield value
            finally:
                inner.close()

        return functools.wraps(fn)(traced)

    def _after_hooks(self):
        def le(args, result, parent_fid):
            if parent_fid == _FRAD_CHECK and result:
                self.frad_kept += 1

        def sd1(args, result, parent_fid):
            if result[1]:
                self.exhausted += 1

        def prime_witness(args, result, parent_fid):
            self._prime_pairs.add((args[0], args[1]))

        return {"fuzzy.FuzzyIdeal.le": le,
                "primeness.SD1_witness": sd1,
                "crisp.prime_witness": prime_witness}

    # -- installation --------------------------------------------------------

    def install(self, package="fuzzideal"):
        """Wrap every function in TRACED and rebind all references to it."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        modules[""] = importlib.import_module(package)
        hooks = self._after_hooks()
        for mod, qual in TRACED:
            owner = modules[mod]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod}.{qual}"
            wrapper = self.wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapper)
            if path:
                continue  # a method: rebinding the class attribute suffices
            for module in modules.values():
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time per traced function: span time minus child spans."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        fid = np.frombuffer(self.fid, dtype=np.int32)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.bincount(fid, weights=dur - child, minlength=len(NAMES))

    def metrics(self) -> dict:
        """Per-layer metrics of this round (counts are exact integers)."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        calls = np.bincount(fid, minlength=len(NAMES))
        for i in self._generator_fids:
            calls[i] = self.generator_calls.get(i, 0)
        self_s = self.self_times()
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out["corpus.enumerate_fuzzy_ideals.yielded"] = self.yielded
        out["primeness.SD1_witness.exhausted"] = self.exhausted
        out["radical.frad_intersection_check.kept_ratio"] = (
            self.frad_kept / self.frad_enumerated if self.frad_enumerated else 0.0)
        pw_calls = out["crisp.prime_witness.calls"]
        out["crisp.prime_witness.repeat_ratio"] = (
            pw_calls / len(self._prime_pairs) if self._prime_pairs else 0.0)
        return out

    def save(self, path):
        """Write every span (and the function names) as one .npz file."""
        np.savez_compressed(
            path, names=np.array(NAMES),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            item=np.frombuffer(self.item_of, dtype=np.int32))
