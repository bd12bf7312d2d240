"""Outside-in tracing of the ``descoord`` layers.

Every module-level function of the traced layers is wrapped, and each
wrapper is bound in place of the original in every ``descoord.*`` module
namespace, by object identity.  The modules import each other's functions
with ``from .x import f`` (and the CLI imports ``project`` under another
name), so patching only the defining module would miss most calls.

A wrapper records one span per call: name, start, end, parent span and op
id, plus a few sizes read from the arguments and the returned generator.
Times are process CPU time; the metrics scale them by the op's host
factor, like the benchmark's op times.  A call made with no traced call in
progress (``cli.main``) starts a new op.  Spans stay in memory and are
written out as JSON lines when the run ends.  A layer's self time is its
span durations minus the time their child spans cover.

A call that reaches a traced function without its wrapper (through a
reference the rebinding did not reach) would add its time, unseen, to the
caller's self time.  ``Tracer.audit`` runs an op under a profiler that
counts every call of each traced function's code and reports where the
count exceeds the spans.
"""

import collections
import functools
import inspect
import json
import math
import sys
from time import process_time

LAYERS = ("automata", "language", "synthesis", "structural", "coordination",
          "cli")


def _states(g) -> int:
    return len(g.labels)


def _label_bytes(g) -> int:
    # Labels are ASCII, so characters are bytes.
    return sum(map(len, g.labels))


def _sizes(name: str, args, result) -> dict:
    """Sizes recorded for one call.  ``in`` is the input state count that
    the growth-rate fits use: the product of the operands' state counts for
    binary constructions, the input generator's size otherwise."""
    if name == "automata._canonicalize":
        return {"states": len(args[1])}
    if name == "language.sync_product":
        return {"in": _states(args[0]) * _states(args[1]),
                "out": _states(result), "label_bytes": _label_bytes(result)}
    if name == "language.project":
        return {"in": _states(args[0]), "out": _states(result)}
    if name == "synthesis.sup_c":
        return {"in": _states(args[0]) * _states(args[1]),
                "out": _states(result)}
    if name == "synthesis.is_controllable":
        cex = result.counterexample
        return {"cex": len(cex)} if cex is not None else {}
    if name == "structural.is_observer":
        return {"in": _states(args[0])}
    if name == "cli.generator_to_text":
        return {"out": len(result)}
    return {}


class Tracer:
    """Wraps the traced layers of an imported ``descoord`` and collects
    spans.  ``install`` and ``uninstall`` swap the bindings."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}
        self.codes: dict[object, str] = {}
        for layer in LAYERS:
            module = sys.modules[f"descoord.{layer}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{name}", fn)
                    self.originals[id(wrapper)] = fn
                    self.wrappers[id(fn)] = wrapper
                    self.codes[fn.__code__] = f"{layer}.{name}"

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            if not stack:
                self.op += 1
            record = [qualname, 0.0, 0.0, stack[-1] if stack else None,
                      self.op, None]
            spans.append(record)
            stack.append(index)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = process_time()
                record[1] = start
                stack.pop()
            record[5] = _sizes(qualname, args, result)
            return result

        return wrapper

    def _rebind(self, table: dict) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "descoord" and not modname.startswith("descoord."):
                continue
            for name, value in list(vars(module).items()):
                swap = table.get(id(value))
                if swap is not None:
                    setattr(module, name, swap)

    def install(self) -> None:
        self._rebind(self.wrappers)

    def uninstall(self) -> None:
        self._rebind(self.originals)

    def audit(self, run_op) -> dict[str, int]:
        """Run one op with the wrappers installed and count, with a
        profiler, every call of a traced function's code.  Returns, for
        each function called more often than it has spans, the number of
        calls that escaped its wrapper.  The op's spans are dropped: the
        profiler slows the op down."""
        codes = self.codes
        calls = collections.Counter()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        first, op = len(self.spans), self.op
        sys.setprofile(profile)
        try:
            run_op()
        finally:
            sys.setprofile(None)
        spans = collections.Counter(span[0] for span in self.spans[first:])
        del self.spans[first:]
        self.op = op
        return {name: count - spans[name] for name, count in calls.items()
                if count != spans[name]}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op, sizes) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "sizes": sizes,
                }, separators=(",", ":")) + "\n")


def _doubling(points: list[tuple[int, float]]) -> float:
    """2^slope of the least-squares line through (log in, log self time):
    the factor by which self time grows when the input doubles.  0 when the
    points do not span two input sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return 2.0 ** (sxy / sxx)


# Calls whose self time is below this are dominated by fixed per-call cost
# and are left out of the growth-rate fits.
FIT_MIN_SELF_S = 1e-3

PER_FUNCTION = {
    "automata._canonicalize": ("calls", "self_s", "states"),
    "automata.make_generator": ("self_s",),
    "language.sync_product": ("calls", "self_s", "out_states", "label_bytes",
                              "doubling_x"),
    "language.project": ("calls", "self_s", "out_states", "blowup"),
    "language.language_subset": ("self_s",),
    "synthesis.is_controllable": ("self_s", "cex_len"),
    "synthesis.sup_c": ("calls", "self_s", "out_states", "doubling_x"),
    "structural.is_observer": ("calls", "self_s", "in_states", "doubling_x"),
    "structural.is_occ": ("self_s",),
    "coordination.suggest_coordinator_events": ("calls", "total_s"),
    "coordination.conditionally_decomposable": ("calls", "self_s"),
    "cli.load_project": ("self_s",),
    "cli.generator_to_text": ("self_s", "out_bytes"),
}

UNITS = {
    "calls": "1/op", "self_s": "s/op", "total_s": "s/op",
    "states": "states/op", "out_states": "states/op",
    "in_states": "states/op", "label_bytes": "bytes/op",
    "out_bytes": "bytes/op", "blowup": "ratio", "cex_len": "events",
    "doubling_x": "x", "share": "fraction",
}


def per_layer_metrics(spans: list[list], scales: list[float],
                      op_time_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of traced ops with host factors
    ``scales`` (one per op) whose scaled times, measured around each op
    outside the wrappers, sum to ``op_time_s``.  Times and counts are per
    op."""
    ops = len(scales)
    duration = [(end - start) * scales[op]
                for _, start, end, _, op, _ in spans]
    self_s = list(duration)
    for span, length in zip(spans, duration):
        if span[3] is not None:
            self_s[span[3]] -= length

    def under(index: int, ancestor: str) -> bool:
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    calls: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        calls.setdefault(span[0], []).append(index)

    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    for fn, quantities in PER_FUNCTION.items():
        mine = calls.get(fn, [])
        sizes = [spans[i][5] or {} for i in mine]
        for qty in quantities:
            if qty == "calls":
                value = len(mine) / ops
            elif qty == "self_s":
                value = sum(self_s[i] for i in mine) / ops
            elif qty == "total_s":
                value = sum(duration[i] for i in mine) / ops
            elif qty in ("states", "label_bytes"):
                value = sum(s.get(qty, 0) for s in sizes) / ops
            elif qty in ("out_states", "out_bytes"):
                value = sum(s.get("out", 0) for s in sizes) / ops
            elif qty == "in_states":
                value = sum(s.get("in", 0) for s in sizes) / ops
            elif qty == "blowup":
                total_in = sum(s.get("in", 0) for s in sizes)
                value = (sum(s.get("out", 0) for s in sizes) / total_in
                         if total_in else 0.0)
            elif qty == "cex_len":
                lengths = [s["cex"] for s in sizes if "cex" in s]
                value = sum(lengths) / len(lengths) if lengths else 0.0
            else:  # doubling_x
                value = _doubling([
                    (s["in"], self_s[i]) for i, s in zip(mine, sizes)
                    if self_s[i] >= FIT_MIN_SELF_S])
            put(f"{fn}.{qty}", value, UNITS[qty])

    searches = len(calls.get("coordination.suggest_coordinator_events", []))
    attempts = sum(
        1 for i in calls.get("coordination.conditionally_decomposable", [])
        if under(i, "coordination.suggest_coordinator_events"))
    put("coordination.search.conddec_per_search",
        attempts / searches if searches else 0.0, "ratio")

    traced_s = sum(self_s)
    for layer in LAYERS:
        layer_s = sum(t for span, t in zip(spans, self_s)
                      if span[0].startswith(layer + "."))
        put(f"{layer}.self_s", layer_s / ops, "s/op")
        put(f"{layer}.share", layer_s / traced_s if traced_s else 0.0,
            "fraction")
    put("trace.coverage", traced_s / op_time_s if op_time_s else 0.0,
        "fraction")
    put("trace.overhead_s", overhead_s, "s/op")
    put("trace.spans", len(spans) / ops, "1/op")
    return metrics
