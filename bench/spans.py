"""Per-layer spans, recorded from outside pcdyn by wrapping its public names.

The tracer replaces module-level functions on the pcdyn modules that look
them up (``pcdyn.survey``, ``pcdyn.cli``, ``pcdyn.quasipartition``, plus
``pcdyn.ifs`` and ``pcdyn.pcmap`` where the benchmark itself calls them) and
``PiecewiseContraction.__call__``.  Each call records a span (name, start,
end, parent span, item, clock segment) in memory, and counts are added at
the same boundary.  A layer's self time is its spans' time minus the time
their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

# span name -> (per-layer time metric, unit, scale from ref-s)
TIME_METRICS = {
    "pcmap.is_generic": ("pcmap.is_generic.ms", "ref-ms", 1e3),
    "quasipartition.preimage_set": ("quasipartition.preimage_set.ms", "ref-ms", 1e3),
    "quasipartition.build_partition": ("quasipartition.build_partition.ms", "ref-ms", 1e3),
    "quasipartition.periodic_orbits": ("quasipartition.periodic_orbits.ms", "ref-ms", 1e3),
    "quasipartition.equivalence_classes": ("quasipartition.equivalence_classes.ms", "ref-ms", 1e3),
    "quasipartition.omega_limit": ("quasipartition.omega_limit.ms", "ref-ms", 1e3),
    "ifs.attractor_sequence": ("ifs.attractor_sequence.ms", "ref-ms", 1e3),
    "ifs.cap_ifs": ("ifs.cap_ifs.ms", "ref-ms", 1e3),
    "pcmap.power_map": ("pcmap.power_map.ms", "ref-ms", 1e3),
    "pcmap.call": ("pcmap.call.us", "ref-us", 1e6),
    "sampling.draw": ("sampling.draw.ms", "ref-ms", 1e3),
    "survey.run_sample": ("survey.run_sample.self_ms", "ref-ms", 1e3),
    "survey.survey_csv": ("survey.survey_csv.ms", "ref-ms", 1e3),
}

# counted per item: span name -> metric, and metrics computed from results
CALL_METRICS = {
    "pcmap.is_generic": "pcmap.is_generic.calls",
    "quasipartition.periodic_orbits": "quasipartition.periodic_orbits.calls",
    "quasipartition.omega_limit": "quasipartition.omega_limit.calls",
    "pcmap.call": "pcmap.call.calls",
}
RESULT_METRICS = (
    "quasipartition.q_points",
    "quasipartition.intervals",
    "ifs.components",
    "pcmap.power_map.branches",
    "survey.csv_bytes",
)


def _q_points(q):
    return {"quasipartition.q_points": len(q.points)}


def _intervals(part):
    return {"quasipartition.intervals": part.m}


def _components(seq):
    return {"ifs.components": sum(len(s) for s in seq)}


def _branches(g):
    return {"pcmap.power_map.branches": len(g.breakpoints) + 1}


def _csv_bytes(text):
    return {"survey.csv_bytes": len(text.encode())}


class Tracer:
    """Records spans around pcdyn calls; ``install`` patches, ``restore`` undoes."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    len(clock.items), clock.open_segment]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[name] += 1
            if count is not None:
                counts.update(count(result))
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, count: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        import pcdyn.cli
        import pcdyn.ifs
        import pcdyn.pcmap
        import pcdyn.quasipartition
        import pcdyn.survey

        qp_names = {
            "preimage_set": _q_points,
            "build_partition": _intervals,
            "periodic_orbits": None,
            "equivalence_classes": None,
            "omega_limit": None,
        }
        for mod in (pcdyn.quasipartition, pcdyn.survey):
            for attr, count in qp_names.items():
                self.patch(mod, attr, f"quasipartition.{attr}", count)
        for mod in (pcdyn.pcmap, pcdyn.survey):
            self.patch(mod, "is_generic", "pcmap.is_generic")
        for attr in ("rng_for_sample", "draw_breakpoints", "draw_ifs"):
            self.patch(pcdyn.survey, attr, "sampling.draw")
        self.patch(pcdyn.survey, "run_sample", "survey.run_sample")
        self.patch(pcdyn.cli, "survey_csv", "survey.survey_csv", _csv_bytes)
        self.patch(pcdyn.ifs, "attractor_sequence", "ifs.attractor_sequence", _components)
        self.patch(pcdyn.ifs, "cap_ifs", "ifs.cap_ifs")
        self.patch(pcdyn.pcmap, "power_map", "pcmap.power_map", _branches)
        self.patch(pcdyn.pcmap.PiecewiseContraction, "__call__", "pcmap.call")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_ref_s(self) -> dict[str, float]:
        """Total self time per span name, in ref-s."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _, seg) in enumerate(self.spans):
            total[name] += (t1 - t0 - child[i]) * self.clock.factor(seg)
        return total

    def metrics(self, items: int) -> dict[str, dict]:
        """Every per-layer metric traced here, per item; 0 where a layer never ran."""
        self_s = self.self_ref_s()
        out = {}
        for name, (metric, unit, scale) in TIME_METRICS.items():
            out[metric] = {"value": self_s.get(name, 0.0) * scale / items, "unit": unit}
        for name, metric in CALL_METRICS.items():
            out[metric] = {"value": self.counts[name] / items, "unit": "count"}
        for metric in RESULT_METRICS:
            unit = "bytes" if metric == "survey.csv_bytes" else "count"
            out[metric] = {"value": self.counts[metric] / items, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item, seg in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item, "segment": seg}) + "\n")
