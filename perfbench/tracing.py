"""In-memory span tracing of bicomm's layers, from outside the package.

Entering a `Tracer` wraps public functions of each `bicomm` module.  Callers
bind imported names at import time, so each function is wrapped in the
namespace of every module that calls it (`bicomm.commutator.hilbert_2d_axis`,
`bicomm.journe.maximal_1d`, ...).  Every call records a span (name, start,
end, parent span, op id); a layer's self time is its spans' time minus the
time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "commutator", "transforms", "wavelets", "bmo", "journe", "grid")

# (layer, function, modules whose namespace calls it)
WRAPPED = (
    ("cli", "run", ("bicomm.cli",)),
    ("commutator", "operator_norm", ("bicomm.cli",)),
    ("commutator", "commutator_apply", ("bicomm.commutator", "bicomm.cli")),
    ("transforms", "hilbert_2d_axis", ("bicomm.commutator",)),
    ("transforms", "project_admissible_2d", ("bicomm.commutator",)),
    ("wavelets", "synthesize", ("bicomm.cli", "bicomm.commutator")),
    ("wavelets", "analyze", ("bicomm.cli",)),
    ("bmo", "product_bmo_lower", ("bicomm.cli",)),
    ("bmo", "rect_bmo", ("bicomm.cli", "bicomm.bmo")),
    ("bmo", "rectangles_inside", ("bicomm.cli", "bicomm.bmo")),
    ("journe", "journe_sum", ("bicomm.cli",)),
    ("journe", "embeddedness", ("bicomm.cli", "bicomm.journe")),
    ("journe", "maximal_rectangles", ("bicomm.journe",)),
    ("journe", "enlargement", ("bicomm.cli", "bicomm.journe")),
    ("grid", "maximal_1d", ("bicomm.journe",)),
    ("grid", "strong_maximal", ("bicomm.journe",)),
    ("grid", "load_signal", ("bicomm.cli",)),
)

TAIL_BEYOND = 10

# each call runs one fft2 and one ifft2 over an N x N complex128 array
_FFT_CALLS = ("transforms.hilbert_2d_axis", "transforms.project_admissible_2d")


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it.

    Returns (latency, percentile, ops beyond).  With fewer ops than that,
    it is the fastest op, with every other op beyond it.
    """
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


class Tracer:
    """Records spans of wrapped calls; `op` tags them with the current op id."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1
        self.iterations = 0
        self.fft_bytes = 0
        self.exact_bmo = 0
        self.maximal_count = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args, result) -> None:
        if name == "commutator.operator_norm":
            self.iterations += result.iterations
        elif name in _FFT_CALLS:
            self.fft_bytes += 2 * args[0].n_points ** 2 * 16
        elif name == "bmo.product_bmo_lower":
            self.exact_bmo += int(result.exact)
        elif name == "journe.maximal_rectangles":
            self.maximal_count += len(result)

    def __enter__(self):
        for layer, func, modules in WRAPPED:
            wrapper = None
            for modname in modules:
                module = importlib.import_module(modname)
                original = getattr(module, func, None)
                if original is None:
                    continue
                if wrapper is None:
                    wrapper = self._wrap(f"{layer}.{func}", original)
                self._saved.append((module, func, original))
                setattr(module, func, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, func, original = self._saved.pop()
            setattr(module, func, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += end - start - child[idx]
        out: dict[str, tuple[float, str]] = {}
        for layer, func, _ in WRAPPED:
            name = f"{layer}.{func}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        ops = [end - start for name, start, end, _, _ in self.spans if name == "cli.run"]
        out["cli.run.p50_s"] = (statistics.median(ops) if ops else 0.0, "s")
        out["cli.run.tail_s"] = (tail_latency(ops)[0] if ops else 0.0, "s")
        bmo_calls = calls["bmo.product_bmo_lower"]
        out["commutator.operator_norm.iterations"] = (self.iterations, "count")
        out["transforms.fft_bytes_computed"] = (self.fft_bytes, "B")
        out["bmo.exhaustive_frac"] = (self.exact_bmo / bmo_calls if bmo_calls else 0.0, "fraction")
        out["journe.maximal_rectangles.count"] = (self.maximal_count, "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "op"], "spans": [\n')
            fh.write(",\n".join(json.dumps(span) for span in self.spans))
            fh.write("\n]}\n")
