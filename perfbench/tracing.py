"""Span tracing of the nbqc library from outside it.

`Tracer.install()` replaces the public functions of every nbqc module
(and three `SyndromeDecoder` methods) with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  Every
module attribute that refers to a wrapped function is patched, so calls
through `from nbqc.x import f` aliases are traced too.  `uninstall()`
restores the originals.  Nothing under `src/` is changed.

FieldSpec, NBMatrix and SparseBinaryMatrix methods are not wrapped: they
are leaf calls made up to millions of times per build, and their time
shows up in the self time of the traced function that calls them.

Spans are kept in memory and written out by `dump`.  A span's self time
is its duration minus the durations of its direct children; spans nest
strictly because the benchmark runs in one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("gf2p", "modring", "qcpair", "nblift", "binexpand", "channel",
           "decoder", "harness")
DECODER_METHODS = ("__init__", "decode", "syndrome_of_symbols")

WHT = "decoder.walsh_hadamard"
DECODE = "decoder.SyndromeDecoder.decode"
SYNDROME = "decoder.SyndromeDecoder.syndrome_of_symbols"
SOLVE_MOD = "modring.solve_mod"


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._patched: list = []       # (owner, attribute, original)
        self.wht_elems = 0
        self.op_count = 0
        self.decodes: list = []        # (span index, iterations, ok)
        self.successes: list = []      # (code, role, syndrome, estimate)
        self.solve_shapes: list = []   # (pivots, free variables) per solve_mod

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"nbqc.{name}") for name in MODULES}
        mods["__init__"] = importlib.import_module("nbqc")
        originals = {}
        for layer in MODULES:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        cls = mods["decoder"].SyndromeDecoder
        for attr in DECODER_METHODS:
            self._patch(cls, attr, self._wrap(f"decoder.SyndromeDecoder.{attr}",
                                              vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {WHT: self._after_wht, DECODE: self._after_decode,
                 SOLVE_MOD: self._after_solve}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            op_before = args[0].op_count if name == DECODE else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(idx, args, result, op_before)
            return result

        return wrapper

    # -- exact counts recorded at the boundaries ----------------------------

    def _after_wht(self, idx, args, result, _):
        self.wht_elems += int(args[0].size)

    def _after_decode(self, idx, args, outcome, op_before):
        decoder, syndrome = args[0], args[1]
        self.op_count += decoder.op_count - op_before
        self.decodes.append((idx, outcome.iterations, outcome.ok))
        if outcome.ok:
            self.successes.append((decoder.code, decoder.role, syndrome, outcome.estimate))

    def _after_solve(self, idx, args, space, _):
        self.solve_shapes.append((len(space.pivot_cols), len(space.free_cols)))

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: outer time, outer calls and self time.

        `total` and `calls` skip spans whose parent has the same name, so
        a function that recurses into itself (write_matrix, read_matrix)
        is counted once per outer call.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            s = out.setdefault(name, {"total": 0.0, "calls": 0, "self": 0.0})
            s["self"] += (t1 - t0) - child_time[i]
            if parent < 0 or spans[parent][0] != name:
                s["total"] += t1 - t0
                s["calls"] += 1
        return out

    def decode_durations(self) -> list[float]:
        return [self.spans[idx][2] - self.spans[idx][1] for idx, _, _ in self.decodes]

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
