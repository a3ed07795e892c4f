"""Spans around the calls into posetmat's layers, recorded from outside.

install() replaces each traced public function, in every posetmat module
that holds it, with a wrapper that records one span per call: its layer,
its duration and the time its child spans cover.  A layer's self time is
the sum over its spans of duration minus child time.  Spans are kept as
per-key aggregates in memory and written out once, as JSON, by dump().

layer_metrics() turns the merged aggregates of a traced run into the
per-layer metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = ("cli", "core", "compose", "operad", "enumeration", "structure", "duality")

# layer -> public functions timed in that layer
TRACED = {
    "cli": ("run", "build_parser", "parse_matrix_text"),
    "core": ("validate", "minimal_elements", "maximal_elements", "cover_relation"),
    "compose": ("compose", "min_mask", "max_mask"),
    "operad": ("verify_laws", "check_nested", "check_parallel"),
    "enumeration": ("generate_all", "canonical_form", "classes"),
    "structure": ("classify_connectivity", "factor"),
    "duality": ("dual", "is_self_dual", "semi_equidual"),
}


def _kind_tag(args, kwargs):
    kind = str(args[0]) if args else str(kwargs.get("kind"))
    return "boxed" if kind.startswith("Boxed") or kind.startswith("boxed") else kind


def _order_tag(args, kwargs):
    return str(args[0] if args else kwargs.get("n"))


# functions whose spans are split by an argument: compose by kind,
# generate_all by order
TAGS = {"compose": _kind_tag, "generate_all": _order_tag}


class Tracer:
    """Span aggregates of the wrapped calls made in one process."""

    def __init__(self):
        self.spans = {}  # key -> [calls, total seconds, self seconds]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.law_cases = [0, 0]  # checked, skipped, from verify_laws reports
        self._stack = []  # child time of each open span

    def wrap(self, layer, name, fn):
        tag = TAGS.get(name)
        spans, layer_self, stack = self.spans, self.layer_self, self._stack
        law_cases = self.law_cases

        def traced(*args, **kwargs):
            key = f"{name}:{tag(args, kwargs)}" if tag else name
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - child
                layer_self[layer] += took - child
            if name == "verify_laws":
                for report in result:
                    law_cases[0] += report.cases_checked
                    law_cases[1] += report.cases_skipped
            return result

        return traced

    def install(self):
        """Wrap the traced functions wherever a posetmat module holds them."""
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"posetmat.{layer}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "posetmat" or modname.startswith("posetmat.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "layer_self": self.layer_self,
            "law_cases": self.law_cases,
        }


def merge(dumps) -> dict:
    """Sum the dumps of several traced processes or rounds."""
    out = {"spans": {}, "layer_self": dict.fromkeys(LAYERS, 0.0), "law_cases": [0, 0]}
    for d in dumps:
        for key, (calls, total, own) in d["spans"].items():
            rec = out["spans"].setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for layer, t in d["layer_self"].items():
            out["layer_self"][layer] += t
        out["law_cases"][0] += d["law_cases"][0]
        out["law_cases"][1] += d["law_cases"][1]
    return out


# (metric, unit, functions whose spans it averages, scale to the unit)
PER_CALL = (
    ("cli.parse_us", "us", ("parse_matrix_text",), 1e6),
    ("cli.parser_build_ms", "ms", ("build_parser",), 1e3),
    ("core.validate_us", "us", ("validate",), 1e6),
    ("core.extremal_us", "us", ("minimal_elements", "maximal_elements"), 1e6),
    ("core.cover_relation_us", "us", ("cover_relation",), 1e6),
    ("compose.square_us", "us", ("compose:square",), 1e6),
    ("compose.min_us", "us", ("compose:min",), 1e6),
    ("compose.max_us", "us", ("compose:max",), 1e6),
    ("compose.minmax_us", "us", ("compose:minmax",), 1e6),
    ("compose.boxed_us", "us", ("compose:boxed",), 1e6),
    ("compose.mask_us", "us", ("min_mask", "max_mask"), 1e6),
    ("operad.verify_laws_s", "s", ("verify_laws",), 1.0),
    ("operad.check_nested_us", "us", ("check_nested",), 1e6),
    ("operad.check_parallel_us", "us", ("check_parallel",), 1e6),
    ("enumeration.canonical_form_us", "us", ("canonical_form",), 1e6),
    ("enumeration.classes_s", "s", ("classes",), 1.0),
    ("structure.components_us", "us", ("classify_connectivity",), 1e6),
    ("structure.factor_ms", "ms", ("factor",), 1e3),
    ("duality.dual_us", "us", ("dual",), 1e6),
    ("duality.semi_equidual_ms", "ms", ("semi_equidual",), 1e3),
)


def layer_metrics(merged: dict, rounds: int) -> dict:
    """Per-layer metrics from the merged spans of `rounds` traced rounds.

    Per-call times are means over every call in the traced rounds; a
    metric whose functions the workload never calls reads 0.  Self times
    are seconds per round.
    """
    spans = merged["spans"]

    def calls_and_total(keys):
        calls = total = 0
        for key in keys:
            rec = spans.get(key)
            if rec:
                calls += rec[0]
                total += rec[1]
        return calls, total

    out = {}
    for metric, unit, keys, scale in PER_CALL:
        calls, total = calls_and_total(keys)
        out[metric] = (total / calls * scale if calls else 0.0, unit)

    compose_keys = [k for k in spans if k.startswith("compose:")]
    out["compose.calls"] = (calls_and_total(compose_keys)[0] / rounds, "count")

    checked, skipped = merged["law_cases"]
    cases = checked + skipped
    laws_total = calls_and_total(("verify_laws",))[1]
    out["operad.case_us"] = (laws_total / cases * 1e6 if cases else 0.0, "us")
    out["operad.cases"] = (cases / rounds, "count")
    out["operad.skip_share"] = (skipped / cases if cases else 0.0, "ratio")

    orders = [int(k.split(":")[1]) for k in spans if k.startswith("generate_all:")]
    if orders:
        calls, total = calls_and_total((f"generate_all:{max(orders)}",))
        out["enumeration.generate_all_s"] = (total / calls, "s")
    else:
        out["enumeration.generate_all_s"] = (0.0, "s")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (merged["layer_self"][layer] / rounds, "s")
    return out
