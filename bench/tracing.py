"""Spans and counts recorded around the package's public functions.

The tracer never edits the package: it replaces each traced function on
every binding that holds it (the defining module, modules that imported it
by name, and every class attribute that aliases it, such as ``__rmul__``
next to ``__mul__``) and puts the originals back on exit.

A span is ``[name_index, parent_span, start_ns, end_ns, op]``.  Spans stay
in memory and are reduced to per-layer metrics when the traced pass ends.
Self time is a span's duration minus the durations of its direct child
spans; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterator

from workloads import balanced_vector_count

# (metric prefix, module, attribute path); the function runs inside a span
SPANNED = (
    ("exact.series_mul", "su12fiber.exact", "TruncatedSeries.__mul__"),
    ("exact.series_inverse", "su12fiber.exact", "TruncatedSeries.inverse"),
    ("exact.mat2_matmul", "su12fiber.exact", "Mat2.__matmul__"),
    ("exact.mat2_det", "su12fiber.exact", "Mat2.det"),
    ("local_model.smith_form", "su12fiber.local_model", "smith_form"),
    ("local_model.hecke_frame", "su12fiber.local_model", "hecke_frame"),
    ("local_model.random_det_zeta_matrix", "su12fiber.local_model", "random_det_zeta_matrix"),
    ("local_model.verification_suite", "su12fiber.local_model", "verification_suite"),
    ("git_engine.bruteforce_search", "su12fiber.git_engine", "bruteforce_search"),
    ("git_engine.classify_closed_form", "su12fiber.git_engine", "classify_closed_form"),
    ("git_engine.s_equivalence_representative", "su12fiber.git_engine",
     "s_equivalence_representative"),
    ("configuration.config_from_json", "su12fiber.configuration", "config_from_json"),
    ("configuration.config_to_json", "su12fiber.configuration", "config_to_json"),
    ("stability.census", "su12fiber.stability", "census"),
    ("cli.main", "su12fiber.cli", "main"),
)

# (metric prefix, module, attribute path); only the calls are counted,
# because these run millions of times and a span each would dominate
COUNTED = (
    ("exact.scalar_mul", "su12fiber.exact", "Scalar.__mul__"),
    ("stability.classify_counts", "su12fiber.stability", "classify_counts"),
)

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "exact.scalar_mul.calls": "count",
    **{
        f"{prefix}.{field}": unit
        for prefix in (
            "exact.series_mul", "exact.series_inverse", "exact.mat2_matmul",
            "exact.mat2_det", "local_model.smith_form", "local_model.hecke_frame",
            "local_model.random_det_zeta_matrix", "local_model.verification_suite",
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "local_model.smith_form.matmul_share": "fraction",
    "git_engine.bruteforce_search.calls": "count",
    "git_engine.bruteforce_search.self_s": "s",
    "git_engine.classify_closed_form.self_s": "s",
    "git_engine.s_equivalence_representative.self_s": "s",
    "git_engine.vectors_enumerated": "count",
    "git_engine.search_space": "count",
    "git_engine.face_hit_ratio": "fraction",
    "configuration.config_from_json.calls": "count",
    "configuration.config_from_json.self_s": "s",
    "configuration.config_to_json.calls": "count",
    "configuration.config_to_json.self_s": "s",
    "stability.census.calls": "count",
    "stability.census.self_s": "s",
    "stability.classify_counts.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace_overhead_frac": "fraction",
}


def _lookup(module: str, path: str) -> Callable:
    """The function itself: a class attribute is read from the class dict."""
    owner = sys.modules[module]
    *classes, name = path.split(".")
    for part in classes:
        owner = getattr(owner, part)
    return vars(owner)[name]


class Tracer:
    """Context manager that installs the wrappers and collects spans and counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self.output_bytes = 0
        self.vectors = 0
        self.face_hits = 0
        self.search_space = 0
        self._stack: list[int] = []
        self._face: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self._undo: list[tuple[object, str, object]] = []

    # installation

    def _rebind(self, original, replacement) -> None:
        """Swap every binding of original inside the package for replacement."""
        containers = []
        for name, module in list(sys.modules.items()):
            if name == "su12fiber" or name.startswith("su12fiber."):
                containers.append(module)
                containers.extend(
                    v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == name
                )
        found = False
        for owner in containers:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, original))
                    setattr(owner, key, replacement)
                    found = True
        if not found:
            raise RuntimeError(f"no binding found for {original!r}")

    def __enter__(self) -> "Tracer":
        try:
            for prefix, module, path in SPANNED:
                fn = _lookup(module, path)
                self._rebind(fn, self._spanned(prefix, fn))
            for prefix, module, path in COUNTED:
                fn = _lookup(module, path)
                self._rebind(fn, self._counted(prefix, fn))
            search = _lookup("su12fiber.git_engine", "bruteforce_search")
            self._rebind(search, self._face_setter(search))
            compositions = _lookup("su12fiber.git_engine", "bounded_compositions")
            self._rebind(compositions, self._yield_counter(compositions))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # wrappers

    def _spanned(self, prefix: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(prefix)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [index, stack[-1] if stack else -1, 0, 0, self.op]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, prefix: str, fn: Callable) -> Callable:
        counts = self.counts
        counts[prefix] = 0

        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _face_setter(self, fn: Callable) -> Callable:
        # the marks of the configuration under search, read from the point
        # kinds, so the yield counter can judge each vector by itself
        def wrapper(c, lin, r_max=1, *args, **kwargs):
            kinds = [p.kind.value for p in c.points]
            self._face = (
                tuple(j for j, k in enumerate(kinds) if k == "zero"),
                tuple(j for j, k in enumerate(kinds) if k == "inf"),
            )
            self.search_space += sum(
                balanced_vector_count(lin.N * r * lin.n, lin.N * r, lin.N)
                for r in range(1, r_max + 1)
            )
            return fn(c, lin, r_max, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _yield_counter(self, fn: Callable) -> Callable:
        def wrapper(total: int, cap: int, length: int) -> Iterator:
            zeros, infs = self._face
            seen = hits = 0
            try:
                for m in fn(total, cap, length):
                    seen += 1
                    if all(m[j] == cap for j in zeros) and all(m[j] == 0 for j in infs):
                        hits += 1
                    yield m
            finally:
                self.vectors += seen
                self.face_hits += hits

        wrapper.__wrapped__ = fn
        return wrapper

    # reduction

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times; trace_overhead_frac is the caller's."""
        n = len(self.names)
        calls = [0] * n
        child_ns = [0] * len(self.spans)
        smith = self.names.index("local_model.smith_form")
        matmul = self.names.index("exact.mat2_matmul")
        smith_ns = matmul_in_smith_ns = 0
        for index, parent, start, end, _ in self.spans:
            duration = end - start
            calls[index] += 1
            if parent >= 0:
                child_ns[parent] += duration
            if index == smith:
                smith_ns += duration
            elif index == matmul and self._has_ancestor(parent, smith):
                matmul_in_smith_ns += duration
        self_ns = [0] * n
        for sid, span in enumerate(self.spans):
            self_ns[span[0]] += span[3] - span[2] - child_ns[sid]

        out: dict[str, float] = {f"{k}.calls": v for k, v in self.counts.items()}
        for i, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = calls[i]
            out[f"{prefix}.self_s"] = self_ns[i] / 1e9
        out["local_model.smith_form.matmul_share"] = (
            matmul_in_smith_ns / smith_ns if smith_ns else 0.0
        )
        out["git_engine.vectors_enumerated"] = self.vectors
        out["git_engine.search_space"] = self.search_space
        out["git_engine.face_hit_ratio"] = self.face_hits / self.vectors if self.vectors else 0.0
        out["cli.output_bytes"] = self.output_bytes
        return {k: out[k] for k in PER_LAYER_UNITS if k in out}

    def _has_ancestor(self, sid: int, index: int) -> bool:
        while sid >= 0:
            if self.spans[sid][0] == index:
                return True
            sid = self.spans[sid][1]
        return False
