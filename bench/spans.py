"""Spans around the calls into each lpfactor layer, from outside the program.

``Tracer`` wraps the public functions listed in ``TRACED`` and rebinds each
wrapper in every module that imported the function by name, so calls the
solvers make internally pass through it too.  Leaving the ``with`` block puts
every original binding back.  Spans (name, start, end, parent, operation)
stay in memory until ``write`` dumps them.  ``factor_scalar`` runs once per
atom, so it gets no spans of its own: its calls, time, cases and refusals
are summed onto the span that called it.
"""
from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from lpfactor.errors import FeasibilityError

# "module.function" -> the modules whose global name is rebound: the
# defining module where it calls itself (or the benchmark calls it through
# that module), plus every module that did ``from .module import function``.
TRACED = {
    "generate.gen_instance": ("generate",),
    "measure.truncate_support": ("lp",),
    "measure.norm": ("lp", "countable", "verify"),
    "scalar.factor_scalar": ("countable", "sequences"),
    "countable.factor_countable": ("countable", "lp"),
    "countable.agreement_split": ("countable",),
    "lp.factor_general": ("lp",),
    "lp.factor_bounded": ("lp",),
    "lp.select_params": ("lp",),
    "lp.quantize_grid": ("lp",),
    "lp.quantize_geometric": ("lp",),
    "sequences.factor_seq": ("sequences",),
    "sequences.seq_split": ("sequences",),
    "sequences.tail_weights": ("sequences",),
    "verify.verify_certificate": ("verify",),
}

SCALAR = "scalar.factor_scalar"
NORM_PARENTS = ("lp", "countable", "verify")


def module(name: str):
    return importlib.import_module(f"lpfactor.{name}")


class Span:
    __slots__ = (
        "id", "name", "parent", "op", "start", "end", "child_s", "info",
        "scalar_calls", "scalar_s", "refused", "cases",
    )

    def __init__(self, id_, name, parent, op):
        self.id = id_
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = None
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.refused = 0
        self.cases = [0, 0, 0, 0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# What a span records about a call's result, for the ratio metrics.
_NOTES = {
    "measure.truncate_support": lambda args, res: (len(args[0]), len(res.kept_indices)),
    "lp.quantize_geometric": lambda args, res: res is args[0],
}


class Tracer:
    """Install with ``with tracer:``; enter it again to trace another phase."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    # -- installation ------------------------------------------------------
    def __enter__(self):
        for qualname, sites in TRACED.items():
            home, attr = qualname.split(".")
            fn = getattr(module(home), attr)
            wrapper = self._scalar(fn) if qualname == SCALAR else self._wrap(qualname, fn)
            for site in sites:
                mod = module(site)
                if getattr(mod, attr) is not fn:
                    self._restore()
                    raise RuntimeError(f"lpfactor.{site}.{attr} is already rebound")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if note is not None:
                span.info = note(args, result)
            return result

        return traced

    def _scalar(self, fn):
        stack = self._stack

        def traced(box, z):
            top = stack[-1]
            t0 = perf_counter()
            try:
                pair = fn(box, z)
            except FeasibilityError:
                top.refused += 1
                raise
            finally:
                dt = perf_counter() - t0
                top.scalar_calls += 1
                top.scalar_s += dt
                top.child_s += dt
            top.cases[pair.case] += 1
            return pair

        return traced

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def outermost(s):
            p = s.parent
            while p is not None:
                if p.name == s.name:
                    return False
                p = p.parent
            return True

        def calls(name):
            return len(by_name[name])

        def busy(name):  # recursive calls (the p = oo swaps) counted once
            return sum(s.duration for s in by_name[name] if outermost(s))

        def self_s(name):
            return sum(s.duration - s.child_s for s in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        m["generate.gen_instance.calls"] = (calls("generate.gen_instance"), "count")
        m["generate.gen_instance.busy_s"] = (busy("generate.gen_instance"), "s")

        kept = [s.info for s in by_name["measure.truncate_support"] if s.info]
        m["measure.truncate_support.calls"] = (calls("measure.truncate_support"), "count")
        m["measure.truncate_support.busy_s"] = (busy("measure.truncate_support"), "s")
        m["measure.truncate_support.kept_frac"] = (
            ratio(sum(k for _, k in kept), sum(n for n, _ in kept)), "frac"
        )
        norms = defaultdict(list)
        for s in by_name["measure.norm"]:
            norms[s.parent.name.split(".")[0] if s.parent else None].append(s)
        for layer in NORM_PARENTS:
            m[f"measure.norm.{layer}.calls"] = (len(norms[layer]), "count")
            m[f"measure.norm.{layer}.busy_s"] = (sum(s.duration for s in norms[layer]), "s")

        carriers = [s for s in self.spans if s.scalar_calls]
        m[f"{SCALAR}.calls"] = (sum(s.scalar_calls for s in carriers), "count")
        m[f"{SCALAR}.busy_s"] = (sum(s.scalar_s for s in carriers), "s")
        m[f"{SCALAR}.refused"] = (sum(s.refused for s in carriers), "count")
        for case in (1, 2, 3):
            m[f"{SCALAR}.case{case}"] = (sum(s.cases[case] for s in carriers), "count")

        m["countable.factor_countable.calls"] = (calls("countable.factor_countable"), "count")
        m["countable.factor_countable.self_s"] = (self_s("countable.factor_countable"), "s")
        m["countable.agreement_split.busy_s"] = (busy("countable.agreement_split"), "s")

        m["lp.factor_general.self_s"] = (self_s("lp.factor_general"), "s")
        m["lp.factor_bounded.self_s"] = (self_s("lp.factor_bounded"), "s")
        m["lp.select_params.calls"] = (calls("lp.select_params"), "count")
        m["lp.select_params.busy_s"] = (busy("lp.select_params"), "s")
        m["lp.quantize_grid.busy_s"] = (busy("lp.quantize_grid"), "s")
        geo = by_name["lp.quantize_geometric"]
        m["lp.quantize_geometric.busy_s"] = (busy("lp.quantize_geometric"), "s")
        m["lp.quantize_geometric.identity_frac"] = (
            ratio(sum(1 for s in geo if s.info), len(geo)), "frac"
        )

        m["sequences.seq_split.busy_s"] = (busy("sequences.seq_split"), "s")
        m["sequences.tail_weights.busy_s"] = (busy("sequences.tail_weights"), "s")
        m["sequences.factor_seq.self_s"] = (self_s("sequences.factor_seq"), "s")

        m["verify.verify_certificate.calls"] = (calls("verify.verify_certificate"), "count")
        m["verify.verify_certificate.busy_s"] = (busy("verify.verify_certificate"), "s")
        return m

    def write(self, path: Path) -> None:
        """One JSON list per span; a header line names the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op",
                                 "scalar_calls", "scalar_s"]) + "\n")
            for s in self.spans:
                parent = s.parent.id if s.parent is not None else None
                fh.write(json.dumps([s.id, s.name, s.start, s.end, parent, s.op,
                                     s.scalar_calls, s.scalar_s]) + "\n")

