"""Per-layer tracing of the fencemonoid library, installed from outside.

In the traced process only, the public functions of each module are
replaced by wrappers: a *span* (name, start, end, parent) around each
layer call, and a plain *counter* around the hot kernel calls, where a
span per call would cost more than the call.  The membership tests of
``fence`` are counters that also add up their own time; each span notes
how many membership tests had been made when it opened and closed,
which is how ``enumeration.build`` counts its candidates.  Names that
other modules bound with ``from .x import y`` are replaced by the same
wrapper, so no call path escapes.  A symbol that does not exist is
skipped, and the metrics that need it are left out instead of failing
the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute) of each layer call recorded as a span
SPANS = (
    ("cli", "main"),
    ("enumeration", "build"),
    ("enumeration", "closure"),
    ("enumeration", "irreducibles"),
    ("enumeration", "regular_elements"),
    ("enumeration", "principal_ideals"),
    ("enumeration", "ideal_j_classes"),
    ("enumeration", "least_generating_set"),
    ("enumeration", "semigroup_rank"),
    ("enumeration", "is_generating"),
    ("greens", "j_invariant"),
    ("greens", "j_classes"),
    ("genfam", "set_j"),
    ("genfam", "set_g"),
    ("genfam", "g_word_for"),
    ("factor", "factorize_j"),
    ("factor", "factorize_g"),
    ("factor", "eval_word"),
)

# the fallback closures, timed through each module's own ``closure`` binding
CLOSURE_BINDINGS = ("genfam", "factor")

# (module, attribute, counter name, is a membership test)
KERNELS = (
    ("fence", "in_if", "fence.in_if", True),
    ("fence", "in_pfi", "fence.in_pfi", True),
    ("pinj", "parse", "pinj.parse", False),
    ("pinj", "PartialInjection.__mul__", "pinj.mul", False),
    ("pinj", "PartialInjection.inverse", "pinj.inverse", False),
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or -1, tests at start, tests at end]
        self.spans = []
        self.stack = []  # indices of the open spans, innermost last
        self.counts = defaultdict(int)
        self.tests = [0]  # membership tests made so far
        self.wrapped = set()  # span and counter names actually installed

    def span(self, name, fn, on_return=None):
        spans, stack, clock, tests = self.spans, self.stack, self.clock, self.tests

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tests[0], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[5] = tests[0]
                stack.pop()
            if on_return is not None:
                on_return(self, result, args, rec)
            return result

        return traced

    def counter(self, name, fn, membership=False):
        counts, clock, tests = self.counts, self.clock, self.tests
        calls, seconds = name + ".calls", name + ".s"

        if not membership:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def counted_test(*args, **kwargs):
            counts[calls] += 1
            tests[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[seconds] += clock() - t0

        return counted_test

    def parent_name(self, parent):
        return self.spans[parent][0] if parent >= 0 else None


def self_times(spans):
    """name -> [calls, total seconds, self seconds] over a span list.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; overlapping children count once and
    children reaching outside the parent are clipped to it.
    """
    children = defaultdict(list)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for idx, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - covered
    return out


# --- result hooks: counts read off what a layer returns ------------------------


def _on_build(tracer, table, args, rec):
    tracer.counts["enumeration.build.elements"] += len(table)
    tracer.counts["enumeration.build.candidates"] += rec[5] - rec[4]


def _on_closure(tracer, table, args, rec):
    tracer.counts["enumeration.closure.elements"] += len(table)
    tracer.counts["enumeration.closure.products"] += len(table) * len(table.gens)


def _on_irreducibles(tracer, result, args, rec):
    tracer.counts["enumeration.irreducibles.products"] += len(args[0]) ** 2


def _on_g_word(tracer, word, args, rec):
    tracer.counts[f"genfam.g_word_for.{word.provenance}"] += 1


def _on_factorize_j(tracer, word, args, rec):
    tracer.counts[f"factor.provenance.{word.provenance}"] += 1
    tracer.counts["factor.fallbacks"] += bool(word.fallback)
    if tracer.parent_name(rec[3]) != "factor.factorize_g":
        tracer.counts["factor.word_letters"] += len(word)


def _on_factorize_g(tracer, word, args, rec):
    tracer.counts["factor.bfs_letters"] += word.bfs_letters
    tracer.counts["factor.word_letters"] += len(word)


HOOKS = {
    "enumeration.build": _on_build,
    "enumeration.closure": _on_closure,
    "enumeration.irreducibles": _on_irreducibles,
    "genfam.g_word_for": _on_g_word,
    "factor.factorize_j": _on_factorize_j,
    "factor.factorize_g": _on_factorize_g,
}


def _lookup(module, dotted):
    owner, _, attr = dotted.rpartition(".")
    obj = getattr(module, owner) if owner else module
    return obj, attr, getattr(obj, attr)


def install(tracer, package, modules):
    """Wrap the layer calls of ``modules`` (name -> module) in place.

    ``package`` is the top-level ``fencemonoid`` module, whose
    re-exports are rebound like any other name.
    """
    replaced = {}  # id(original function) -> wrapper
    for mod_name, dotted, name, membership in KERNELS:
        try:
            obj, attr, fn = _lookup(modules[mod_name], dotted)
        except (KeyError, AttributeError):
            continue
        wrapper = tracer.counter(name, fn, membership)
        setattr(obj, attr, wrapper)
        replaced[id(fn)] = wrapper
        tracer.wrapped.add(name)
    for mod_name, attr in SPANS:
        mod = modules.get(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        name = f"{mod_name}.{attr}"
        wrapper = tracer.span(name, fn, HOOKS.get(name))
        setattr(mod, attr, wrapper)
        replaced[id(fn)] = wrapper
        tracer.wrapped.add(name)
    for mod_name in CLOSURE_BINDINGS:
        mod = modules.get(mod_name)
        fn = getattr(mod, "closure", None)
        if fn is None:
            continue
        name = f"{mod_name}.closure"
        setattr(mod, "closure", tracer.span(name, replaced.get(id(fn), fn)))
        tracer.wrapped.add(name)
    # names bound elsewhere with ``from .x import y``
    for mod in [package, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and value is not replaced[id(value)]:
                setattr(mod, attr, replaced[id(value)])


# --- per-layer metrics -----------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, symbols it needs, value from (span table, counts))
METRICS = (
    ("cli.main.self_s", "s", "lower", ("cli.main",), lambda t, c: t["cli.main"][2]),
    ("enumeration.build.calls", "count", "lower", ("enumeration.build",),
     lambda t, c: t["enumeration.build"][0]),
    ("enumeration.build.self_s", "s", "lower", ("enumeration.build",),
     lambda t, c: t["enumeration.build"][2]),
    ("enumeration.build.candidates", "count", "lower",
     ("enumeration.build", "fence.in_if", "fence.in_pfi"),
     lambda t, c: c["enumeration.build.candidates"]),
    ("enumeration.build.elements", "count", "higher", ("enumeration.build",),
     lambda t, c: c["enumeration.build.elements"]),
    ("enumeration.build.yield", "ratio", "higher",
     ("enumeration.build", "fence.in_if", "fence.in_pfi"),
     lambda t, c: _ratio(c["enumeration.build.elements"], c["enumeration.build.candidates"])),
    ("fence.in_if.calls", "count", "lower", ("fence.in_if",), lambda t, c: c["fence.in_if.calls"]),
    ("fence.in_pfi.calls", "count", "lower", ("fence.in_pfi",),
     lambda t, c: c["fence.in_pfi.calls"]),
    ("fence.self_s", "s", "lower", ("fence.in_if", "fence.in_pfi"),
     lambda t, c: c["fence.in_if.s"] + c["fence.in_pfi.s"]),
    ("pinj.mul.calls", "count", "lower", ("pinj.mul",), lambda t, c: c["pinj.mul.calls"]),
    ("pinj.inverse.calls", "count", "lower", ("pinj.inverse",),
     lambda t, c: c["pinj.inverse.calls"]),
    ("pinj.parse.calls", "count", "lower", ("pinj.parse",), lambda t, c: c["pinj.parse.calls"]),
    ("enumeration.closure.calls", "count", "lower", ("enumeration.closure",),
     lambda t, c: t["enumeration.closure"][0]),
    ("enumeration.closure.self_s", "s", "lower", ("enumeration.closure",),
     lambda t, c: t["enumeration.closure"][2]),
    ("enumeration.closure.elements", "count", "higher", ("enumeration.closure",),
     lambda t, c: c["enumeration.closure.elements"]),
    ("enumeration.closure.products", "count", "lower", ("enumeration.closure",),
     lambda t, c: c["enumeration.closure.products"]),
    ("enumeration.closure.yield", "ratio", "higher", ("enumeration.closure",),
     lambda t, c: _ratio(c["enumeration.closure.elements"], c["enumeration.closure.products"])),
    ("genfam.g_closure_s", "s", "lower", ("genfam.closure",), lambda t, c: t["genfam.closure"][1]),
    ("factor.j_closure_s", "s", "lower", ("factor.closure",), lambda t, c: t["factor.closure"][1]),
    ("enumeration.irreducibles.self_s", "s", "lower", ("enumeration.irreducibles",),
     lambda t, c: t["enumeration.irreducibles"][2]),
    ("enumeration.irreducibles.products", "count", "lower", ("enumeration.irreducibles",),
     lambda t, c: c["enumeration.irreducibles.products"]),
    ("enumeration.regular_elements.self_s", "s", "lower", ("enumeration.regular_elements",),
     lambda t, c: t["enumeration.regular_elements"][2]),
    ("enumeration.principal_ideals.calls", "count", "lower", ("enumeration.principal_ideals",),
     lambda t, c: t["enumeration.principal_ideals"][0]),
    ("enumeration.principal_ideals.self_s", "s", "lower", ("enumeration.principal_ideals",),
     lambda t, c: t["enumeration.principal_ideals"][2]),
    ("enumeration.ideal_j_classes.self_s", "s", "lower", ("enumeration.ideal_j_classes",),
     lambda t, c: t["enumeration.ideal_j_classes"][2]),
    ("enumeration.least_generating_set.self_s", "s", "lower",
     ("enumeration.least_generating_set",),
     lambda t, c: t["enumeration.least_generating_set"][2]),
    ("enumeration.semigroup_rank.self_s", "s", "lower", ("enumeration.semigroup_rank",),
     lambda t, c: t["enumeration.semigroup_rank"][2]),
    ("enumeration.is_generating.self_s", "s", "lower", ("enumeration.is_generating",),
     lambda t, c: t["enumeration.is_generating"][2]),
    ("greens.j_invariant.calls", "count", "lower", ("greens.j_invariant",),
     lambda t, c: t["greens.j_invariant"][0]),
    ("greens.j_invariant.self_s", "s", "lower", ("greens.j_invariant",),
     lambda t, c: t["greens.j_invariant"][2]),
    ("greens.j_classes.self_s", "s", "lower", ("greens.j_classes",),
     lambda t, c: t["greens.j_classes"][2]),
    ("genfam.set_j.self_s", "s", "lower", ("genfam.set_j",), lambda t, c: t["genfam.set_j"][2]),
    ("genfam.set_g.self_s", "s", "lower", ("genfam.set_g",), lambda t, c: t["genfam.set_g"][2]),
    ("genfam.g_word_for.calls", "count", "lower", ("genfam.g_word_for",),
     lambda t, c: t["genfam.g_word_for"][0]),
    ("genfam.g_word_for.self_s", "s", "lower", ("genfam.g_word_for",),
     lambda t, c: t["genfam.g_word_for"][2]),
    ("genfam.g_word_for.table_hits", "count", "higher", ("genfam.g_word_for",),
     lambda t, c: c["genfam.g_word_for.table"]),
    ("genfam.g_word_for.bfs", "count", "lower", ("genfam.g_word_for",),
     lambda t, c: c["genfam.g_word_for.bfs"]),
    ("genfam.g_word_for.table_ratio", "ratio", "higher", ("genfam.g_word_for",),
     lambda t, c: _ratio(c["genfam.g_word_for.table"], t["genfam.g_word_for"][0])),
    ("factor.factorize_j.calls", "count", "lower", ("factor.factorize_j",),
     lambda t, c: t["factor.factorize_j"][0]),
    ("factor.factorize_j.self_s", "s", "lower", ("factor.factorize_j",),
     lambda t, c: t["factor.factorize_j"][2]),
    ("factor.factorize_g.self_s", "s", "lower", ("factor.factorize_g",),
     lambda t, c: t["factor.factorize_g"][2]),
    ("factor.eval_word.calls", "count", "lower", ("factor.eval_word",),
     lambda t, c: t["factor.eval_word"][0]),
    ("factor.eval_word.self_s", "s", "lower", ("factor.eval_word",),
     lambda t, c: t["factor.eval_word"][2]),
    ("factor.provenance.letter", "count", "higher", ("factor.factorize_j",),
     lambda t, c: c["factor.provenance.letter"]),
    ("factor.provenance.constructive", "count", "higher", ("factor.factorize_j",),
     lambda t, c: c["factor.provenance.constructive"]),
    ("factor.provenance.bfs-fallback", "count", "lower", ("factor.factorize_j",),
     lambda t, c: c["factor.provenance.bfs-fallback"]),
    ("factor.fallbacks", "count", "lower", ("factor.factorize_j",),
     lambda t, c: c["factor.fallbacks"]),
    ("factor.bfs_letters", "count", "lower", ("factor.factorize_g",),
     lambda t, c: c["factor.bfs_letters"]),
    ("factor.word_letters", "count", "lower", ("factor.factorize_j", "factor.factorize_g"),
     lambda t, c: c["factor.word_letters"]),
)


def layer_metrics(tracer):
    """metric -> (value, unit) for every metric whose symbols were wrapped."""
    table = self_times(tracer.spans)  # a wrapped layer never called reads as zero
    out = {}
    for name, unit, _, needs, value in METRICS:
        if all(sym in tracer.wrapped for sym in needs):
            out[name] = (value(table, tracer.counts), unit)
    return out
