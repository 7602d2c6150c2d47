"""Wall-clock layer spans for the traced benchmark run.

The benchmark records spans from its own files: :func:`install` wraps the
public entry points of each layer (README's layer table) and every
wrapped call becomes one span ``(run, id, parent, name, start, end,
attrs)`` kept in memory.  Nothing under ``src/`` knows it is being traced; :func:`uninstall`
puts every original object back.

A call into a layer from inside the *same* layer records no span of its
own (``build_format`` -> ``ACSRFormat.from_csr`` is one ``formats`` entry),
so ``<layer>.calls`` counts entries into the layer and self time is never
split between two spans of one layer.  Self time is a span's duration
minus the part its children cover; children of a single-threaded call
tree are disjoint, so that part is their summed duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Layers in report order.  ``other`` is traced wall time no layer claims
#: (workload glue, simulator calls outside the cost entry points).
LAYERS = (
    "data",
    "formats.csr",
    "formats",
    "cost.cold",
    "cost.warm",
    "cost.kernel_works",
    "numeric",
    "apps",
    "dynamic",
    "harness",
    "serve",
    "serve.report",
    "other",
)

ROOT_SPAN = "workload"


@dataclass
class Span:
    run: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a call stack (single-threaded use)."""

    def __init__(self, run: str = "run", clock=time.perf_counter) -> None:
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current_layer(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.run, len(self.spans), parent, name, self.clock(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, layer, describe=None, on_result=None):
        """``fn`` recording one ``layer`` span per outermost call.

        ``layer`` is a name or ``(args, kwargs) -> name``; ``describe``
        and ``on_result`` return span attrs from the arguments / result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            if name == self.current_layer:
                return fn(*args, **kwargs)
            span = self.open(name, **(describe(args, kwargs) if describe else {}))
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    span.attrs.update(on_result(result))
                return result
            finally:
                self.close(span)

        return traced


# ---------------------------------------------------------------------------
# Layer summary
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time (duration minus direct children's durations)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README's layer table).

    The traced wall is the root ``workload`` span (set-up plus main
    phase); its own self time is reported as layer ``other``.
    """
    selfs = self_times(spans)
    root = next(s for s in spans if s.name == ROOT_SPAN)
    wall = root.duration
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, s in zip(spans, selfs):
        name = "other" if span.name == ROOT_SPAN else span.name
        calls[name] += span.name != ROOT_SPAN
        self_s[name] += s
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "other":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall if wall > 0 else 0.0

    numeric = [s for s in spans if s.name == "numeric"]
    durations_ms = np.array([s.duration * 1e3 for s in numeric])
    busy = sum(s.duration for s in numeric)
    flops = sum(2.0 * s.attrs["nnz"] * s.attrs["k"] for s in numeric)
    out["numeric.p50_ms"] = float(np.percentile(durations_ms, 50)) if numeric else 0.0
    out["numeric.p99_ms"] = float(np.percentile(durations_ms, 99)) if numeric else 0.0
    out["numeric.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0

    nnz = sum(s.attrs["nnz"] for s in spans if s.name == "formats.csr")
    csr_s = self_s["formats.csr"]
    out["formats.csr.nnz_per_s"] = nnz / csr_s if csr_s > 0 else 0.0
    out["apps.iterations"] = sum(
        s.attrs.get("iterations", 0) for s in spans if s.name == "apps"
    )
    reuse = [s.attrs["query_reuse"] for s in spans if "query_reuse" in s.attrs]
    out["serve.query_reuse"] = reuse[-1] if reuse else 0.0
    return out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def write_spans_jsonl(spans: list[Span], path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "run": s.run,
                        "id": s.id,
                        "parent": s.parent,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "attrs": {k: _jsonable(v) for k, v in s.attrs.items()},
                    }
                )
                + "\n"
            )
    return path


def chrome_trace(spans: list[Span]) -> dict:
    """Complete (``X``) events, one lane per run, ``ts``/``dur`` in µs."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s.start for s in spans)
    events = [
        {
            "name": s.attrs.get("fn", s.name),
            "cat": s.name,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.run,
            "args": {k: _jsonable(v) for k, v in s.attrs.items()},
        }
        for s in sorted(spans, key=lambda s: (s.start, -s.end))
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(metrics: dict[str, float], title: str) -> str:
    lines = [title, f"  {'layer':<18} {'calls':>8} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        calls = metrics.get(f"{layer}.calls")
        lines.append(
            f"  {layer:<18} {'-' if calls is None else int(calls):>8} "
            f"{metrics[f'{layer}.self_s']:>10.4f} "
            f"{metrics[f'{layer}.share']:>7.1%}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


@dataclass
class _Patch:
    owner: object  # module, class or dict
    key: str
    original: object

    def restore(self) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.key] = self.original
        else:
            setattr(self.owner, self.key, self.original)


class Installed:
    """Handle returned by :func:`install`; :meth:`uninstall` undoes it."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.patches: list[_Patch] = []

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self.patches.append(_Patch(owner, key, owner[key]))
            owner[key] = value
        else:
            self.patches.append(_Patch(owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def function(self, module, name, layer, describe=None, on_result=None):
        """Wrap a module-level function everywhere ``repro`` imported it.

        ``from x import f`` copies the binding, so every loaded
        ``repro`` module holding the same object is patched too.
        """
        original = getattr(module, name)
        traced = self.recorder.wrap(original, layer, describe, on_result)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                mod.__dict__.get(name) is original
            ):
                self._set(mod, name, traced)

    def method(self, cls, name, layer, describe=None, on_result=None):
        """Wrap ``cls.name`` if ``cls`` defines it (classmethods too)."""
        raw = cls.__dict__.get(name)
        if raw is None or getattr(raw, "__isabstractmethod__", False):
            return
        if isinstance(raw, classmethod):
            traced = classmethod(
                self.recorder.wrap(raw.__func__, layer, describe, on_result)
            )
        else:
            traced = self.recorder.wrap(raw, layer, describe, on_result)
        self._set(cls, name, traced)

    def uninstall(self) -> None:
        for patch in reversed(self.patches):
            patch.restore()
        self.patches.clear()


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _nnz(obj) -> int:
    return int(getattr(obj, "nnz", 0))


def _cost_layer():
    """``cost.cold`` for the first call per (instance, device, k), else warm."""
    seen: set[tuple] = set()

    def layer(args, kwargs) -> str:
        fmt, device = args[0], args[1] if len(args) > 1 else kwargs["device"]
        k = args[2] if len(args) > 2 else kwargs.get("k", 1)
        key = (id(fmt), device.name, int(k))
        if key in seen:
            return "cost.warm"
        seen.add(key)
        # Forget the instance when it dies so a reused id() starts cold.
        try:
            weakref.finalize(fmt, seen.discard, key)
        except TypeError:
            pass
        return "cost.cold"

    return layer


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every layer entry point of the README's layer table."""
    from importlib import import_module

    import repro  # noqa: F401  (defines every format class)
    from repro.dynamic.dyncsr import DynCSR
    from repro.formats.base import SpMVFormat
    from repro.formats.csr import CSRMatrix
    from repro.serve.server import ServeEngine

    inst = Installed(recorder)
    fmt_classes = dict.fromkeys([SpMVFormat, *_subclasses(SpMVFormat)])

    def fmt_attrs(args, kwargs):
        return {"nnz": _nnz(args[0]), "k": 1, "fn": f"{type(args[0]).__name__}.multiply"}

    def fmt_many_attrs(args, kwargs):
        X = args[1] if len(args) > 1 else kwargs["X"]
        return {
            "nnz": _nnz(args[0]),
            "k": int(np.shape(X)[1]) if np.ndim(X) == 2 else 1,
            "fn": f"{type(args[0]).__name__}.multiply_many",
        }

    def cost_attrs(args, kwargs):
        device = args[1] if len(args) > 1 else kwargs["device"]
        return {
            "nnz": _nnz(args[0]),
            "k": int(args[2] if len(args) > 2 else kwargs.get("k", 1)),
            "device": device.name,
            "fn": type(args[0]).__name__,
        }

    def build_attrs(label):
        return lambda args, kwargs: {"fn": label}

    cost_layer = _cost_layer()
    for cls in fmt_classes:
        inst.method(cls, "multiply", "numeric", fmt_attrs)
        inst.method(cls, "multiply_many", "numeric", fmt_many_attrs)
        inst.method(cls, "spmv_time_s", cost_layer, cost_attrs)
        inst.method(cls, "spmm_time_s", cost_layer, cost_attrs)
        inst.method(cls, "kernel_works", "cost.kernel_works", cost_attrs)
        inst.method(cls, "from_csr", "formats", build_attrs(f"{cls.__name__}.from_csr"))
    inst.method(DynCSR, "from_csr", "formats", build_attrs("DynCSR.from_csr"))
    # The registry captured bound classmethods at import, so its entries
    # bypass the class attributes patched above.
    builders = import_module("repro.formats.convert").FORMAT_BUILDERS
    for name in list(builders):
        inst._set(
            builders,
            name,
            recorder.wrap(builders[name], "formats", build_attrs(f"build:{name}")),
        )
    inst.method(
        CSRMatrix,
        "from_coo",
        "formats.csr",
        lambda a, kw: {"nnz": int(np.size(a[1])), "fn": "CSRMatrix.from_coo"},
    )

    def iterations(result):
        return {"iterations": int(result.iterations)}

    def reuse(requests):
        distinct = len({(r.graph, r.node) for r in requests})
        return {"query_reuse": 1.0 - distinct / len(requests) if requests else 0.0}

    for module, name, layer, on_result in (
        ("formats.advisor", "recommend", "formats", None),
        ("data.corpus", "synthesize", "data", None),
        ("apps.rwr", "rwr", "apps", iterations),
        ("apps.pagerank", "pagerank", "apps", iterations),
        ("dynamic.updates", "generate_update", "dynamic", None),
        ("dynamic.updates", "apply_update_to_csr", "dynamic", None),
        ("harness.runner", "run_cell", "harness", None),
        ("serve.loadgen", "generate_trace", "serve", reuse),
        ("serve.report", "write_serve_jsonl", "serve.report", None),
        ("obs.tracing", "write_trace_jsonl", "serve.report", None),
    ):
        # By module path: package __init__s re-export some functions under
        # their module's name (repro.apps.rwr is the function there).
        owner = import_module(f"repro.{module}")
        inst.function(owner, name, layer, build_attrs(name), on_result)
    for name in ("register", "run_trace"):
        inst.method(ServeEngine, name, "serve", build_attrs(f"ServeEngine.{name}"))
    return inst
