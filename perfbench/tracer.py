"""Spans around the public calls of each chromsym module, installed from outside.

Nothing in chromsym changes.  :func:`install` replaces the names that each
calling module looks up with timing wrappers, so a call is seen at the layer
boundary it crosses:

* ``formulas``: the ``x_*`` evaluators behind the family registry, and the
  ``x_*`` names inside ``chromsym.formulas`` (x_tadpole calls x_kpc);
* ``compositions``: ``compositions_of``, ``compositions_min2`` and
  ``weak_compositions`` where formulas and families call them, and the
  statistics ``w``, ``theta``, ``theta_minus``, ``gap``, ``sigma``,
  ``sigma_minus`` and ``rho`` where formulas, compositions and symfunc call them;
* ``symfunc``: ``ESymFunc`` construction, ``+``, ``-``, ``*`` and ``==``, and
  ``p_to_e`` where the oracle calls it;
* ``oracle``: ``csf_bruteforce`` where cli and families call it;
* ``graphs``: the family constructors behind the family registry;
* ``families``: each step of the ``run_verification`` generator;
* ``cli``: ``main``, wrapped by the caller.

Spans are kept in memory as ``[name, start, end, parent, stat_s]`` records.
The statistics are called millions of times, so they get no span of their
own: they are counted, and their time is added to ``stat_s`` of the span
that called them, which removes it from that span's self time.
"""

from __future__ import annotations

import dataclasses
import time
from functools import wraps

ENUMERATORS = ("compositions_of", "compositions_min2", "weak_compositions")
ARITH = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__eq__")

PER_LAYER = (
    ("compositions.enum_s", "s"),
    ("compositions.enumerated", "count"),
    ("compositions.stat_calls", "count"),
    ("formulas.eval_s", "s"),
    ("formulas.self_s", "s"),
    ("symfunc.arith_s", "s"),
    ("symfunc.arith_calls", "count"),
    ("symfunc.terms_built", "count"),
    ("symfunc.p_to_e_s", "s"),
    ("oracle.csf_s", "s"),
    ("oracle.count_s", "s"),
    ("oracle.pe_s", "s"),
    ("graphs.build_s", "s"),
    ("families.verify_self_s", "s"),
    ("families.instances", "count"),
    ("cli.self_s", "s"),
)


class Tracer:
    """In-memory span recorder for one interpreter."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"compositions.enumerated": 0, "compositions.stat_calls": 0,
                         "symfunc.terms_built": 0, "families.instances": 0}
        self._in_stat = False

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def stat(self, fn):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        @wraps(fn)
        def wrapper(*args):
            counters["compositions.stat_calls"] += 1
            if self._in_stat:  # theta calls sigma: time only the outer call
                return fn(*args)
            self._in_stat = True
            start = clock()
            try:
                return fn(*args)
            finally:
                spans[stack[-1]][4] += clock() - start
                self._in_stat = False
        return wrapper

    def enumerator(self, name: str, fn):
        counters = self.counters

        def counted(*args):
            out = fn(*args)
            counters["compositions.enumerated"] += len(out)
            return out
        return self.span(name, counted)

    def generator(self, name: str, fn):
        """A span per resumption of a generator, so its self time excludes the consumer."""
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                counters["families.instances"] += 1
                yield item
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap chromsym's layer boundaries in place; call once, before cli.main."""
    from chromsym import cli, compositions, families, formulas, oracle, symfunc

    stat_callers = {formulas: ("w", "theta", "theta_minus", "gap", "rho"),
                    compositions: ("sigma", "sigma_minus"),  # called by theta, gap
                    symfunc: ("rho",)}
    for mod, names in stat_callers.items():
        for name in names:
            setattr(mod, name, tracer.stat(getattr(mod, name)))
    for mod in (formulas, families):
        for name in ENUMERATORS:
            if hasattr(mod, name):
                setattr(mod, name, tracer.enumerator(f"compositions.{name}", getattr(mod, name)))

    cls = symfunc.ESymFunc
    init = cls.__init__
    counters = tracer.counters

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counters["symfunc.terms_built"] += len(self.terms)
    for op in ARITH:
        fn = counted_init if op == "__init__" else getattr(cls, op)
        setattr(cls, op, tracer.span(f"symfunc.{op}", fn))
    oracle.p_to_e = tracer.span("symfunc.p_to_e", oracle.p_to_e)

    for mod in (cli, families):
        mod.csf_bruteforce = tracer.span("oracle.csf_bruteforce", mod.csf_bruteforce)
    families.run_verification = tracer.generator("families.run_verification",
                                                 families.run_verification)
    cli.run_verification = families.run_verification

    for name in dir(formulas):
        if name.startswith("x_"):
            setattr(formulas, name, tracer.span(f"formulas.{name}", getattr(formulas, name)))
    for tag, fam in list(families.FAMILIES.items()):
        families.FAMILIES[tag] = dataclasses.replace(
            fam,
            evaluate=tracer.span(f"formulas.{tag}", fam.evaluate),
            build_graph=tracer.span(f"graphs.{tag}", fam.build_graph))


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics from span records; self time = duration - child spans - stat_s."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer = [name.split(".", 1)[0] for name, *_ in spans]
    out = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    out.update(counters)
    out["symfunc.arith_calls"] = 0
    for i, (name, start, end, parent, stat_s) in enumerate(spans):
        dur = end - start
        own = dur - child[i] - stat_s
        top = parent < 0 or layer[parent] != layer[i]  # outermost span of its layer
        kind = layer[i]
        if kind == "compositions" and top:
            out["compositions.enum_s"] += dur
        elif kind == "formulas":
            out["formulas.self_s"] += own
            if top:
                out["formulas.eval_s"] += dur
        elif kind == "symfunc":
            if name == "symfunc.p_to_e":
                if top:
                    out["symfunc.p_to_e_s"] += dur
            else:
                out["symfunc.arith_calls"] += 1
                if parent < 0 or not (layer[parent] == "symfunc"
                                      and spans[parent][0] != "symfunc.p_to_e"):
                    out["symfunc.arith_s"] += dur
            if parent >= 0 and layer[parent] == "oracle":
                out["oracle.pe_s"] += dur
        elif kind == "oracle":
            out["oracle.csf_s"] += dur
            out["oracle.count_s"] += own
        elif kind == "graphs":
            out["graphs.build_s"] += dur
        elif kind == "families":
            out["families.verify_self_s"] += own
        elif kind == "cli":
            out["cli.self_s"] += own
    return out
