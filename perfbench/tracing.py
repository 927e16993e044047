"""Spans around calls into the program's public functions.

The program is not edited: Tracer.install() replaces each traced function
by a timing wrapper in every loaded tvgenus module that refers to it, and
wraps Triangulation.__init__ and ZElt.__mul__ on their classes.  Spans
(layer, start, end, parent) stay in memory; summary() folds them into
per-layer totals when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, function, layer): the public functions each layer is timed at
FUNCTIONS = (
    ("tvgenus.isosig", "decode_isosig", "isosig.decode"),
    ("tvgenus.recoupling", "tet_symbol", "recoupling.tet_fill"),
    ("tvgenus.recoupling", "tet_symbol_f", "recoupling.tet_fill"),
    ("tvgenus.recoupling", "theta", "recoupling.theta_fill"),
    ("tvgenus.recoupling", "theta_f", "recoupling.theta_fill"),
    ("tvgenus.statesum", "tv_invariant", "statesum.tv"),
    ("tvgenus.homology", "h1", "homology.h1"),
    ("tvgenus.genus", "screen_record", "genus.screen_record"),
    ("tvgenus.genus", "genus_lower_bound", "genus.bound"),
    ("tvgenus.cli", "load_census", "cli.load_census"),
    ("tvgenus.cli", "report_to_csv", "cli.report"),
    ("tvgenus.cli", "report_to_json", "cli.report"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.mul_calls = 0
        self.states_visited = 0
        self.states_admissible = 0
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((layer, 0.0, 0.0, parent))
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (layer, t0, time.perf_counter(), parent)
                stack.pop()
            if layer == "statesum.tv":
                self.states_visited += result.states_visited
                self.states_admissible += result.states_admissible
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        import tvgenus.cli  # noqa: F401  (loads every module to be wrapped)
        from tvgenus.complex3 import Triangulation
        from tvgenus.zarith import ZElt

        modules = [m for name, m in list(sys.modules.items())
                   if name == "tvgenus" or name.startswith("tvgenus.")]
        for mod_name, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._timed(layer, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._swap(mod, attr, wrapper)
        self._swap(Triangulation, "__init__",
                   self._timed("complex3.build", Triangulation.__init__))
        mul = ZElt.__mul__

        def counted_mul(a, b):
            self.mul_calls += 1
            return mul(a, b)

        self._swap(ZElt, "__mul__", counted_mul)
        return self

    def _swap(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def summary(self) -> dict:
        """Per-layer totals: {layer: [seconds, calls]}, the durations of
        the screen_record spans, and the counters."""
        layers: dict[str, list] = defaultdict(lambda: [0.0, 0])
        records = []
        for layer, t0, t1, _parent in self.spans:
            layers[layer][0] += t1 - t0
            layers[layer][1] += 1
            if layer == "genus.screen_record":
                records.append(t1 - t0)
        return {"layers": dict(layers), "record_s": records,
                "mul_calls": self.mul_calls,
                "states_visited": self.states_visited,
                "states_admissible": self.states_admissible}


def merge(summaries: list[dict]) -> dict:
    out = {"layers": defaultdict(lambda: [0.0, 0]), "record_s": [],
           "mul_calls": 0, "states_visited": 0, "states_admissible": 0}
    for s in summaries:
        for layer, (sec, calls) in s["layers"].items():
            out["layers"][layer][0] += sec
            out["layers"][layer][1] += calls
        out["record_s"] += s["record_s"]
        for key in ("mul_calls", "states_visited", "states_admissible"):
            out[key] += s[key]
    return out


def per_layer_metrics(summary: dict, rounds: int, overhead_s: float) -> dict:
    """The per-layer metrics, per pass over the record list."""
    layers = summary["layers"]

    def sec(layer):
        return layers.get(layer, [0.0, 0])[0] / rounds

    def calls(layer):
        return layers.get(layer, [0.0, 0])[1] / rounds

    visited = summary["states_visited"] / rounds
    admissible = summary["states_admissible"] / rounds
    tv_s = sec("statesum.tv")
    rec_ms = sorted(1000.0 * s for s in summary["record_s"])

    def pct(q):
        if not rec_ms:
            return 0.0
        if len(rec_ms) == 1:
            return rec_ms[0]
        return statistics.quantiles(rec_ms, n=100, method="inclusive")[q - 1]

    values = {
        "isosig.decode_s": (sec("isosig.decode"), "s"),
        "isosig.decode_calls": (calls("isosig.decode"), "count"),
        "complex3.build_s": (sec("complex3.build"), "s"),
        "recoupling.tet_fill_s": (sec("recoupling.tet_fill"), "s"),
        "recoupling.tet_fills": (calls("recoupling.tet_fill"), "count"),
        "recoupling.theta_fill_s": (sec("recoupling.theta_fill"), "s"),
        "recoupling.theta_fills": (calls("recoupling.theta_fill"), "count"),
        "zarith.mul_calls": (summary["mul_calls"] / rounds, "count"),
        "statesum.tv_s": (tv_s, "s"),
        "statesum.states_visited": (visited, "count"),
        "statesum.states_admissible": (admissible, "count"),
        "statesum.admissible_per_visited": (
            admissible / visited if visited else 0.0, "ratio"),
        "statesum.visited_per_s": (visited / tv_s if tv_s else 0.0, "1/s"),
        "homology.h1_s": (sec("homology.h1"), "s"),
        "homology.h1_calls": (calls("homology.h1"), "count"),
        "genus.screen_record_p50_ms": (pct(50), "ms"),
        "genus.screen_record_p90_ms": (pct(90), "ms"),
        "genus.bound_s": (sec("genus.bound"), "s"),
        "cli.load_census_s": (sec("cli.load_census"), "s"),
        "cli.report_s": (sec("cli.report"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
