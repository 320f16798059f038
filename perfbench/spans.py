"""Span recording around calls into curvgraph's public functions.

The tracer replaces each listed function, in every curvgraph module namespace
that binds it, with a wrapper that records a span (name, start, end, parent)
and restores the originals on ``uninstall``. Spans are kept in flat arrays in
memory and written out once, when the run ends. Tracing from outside the
program sees only calls that go through module globals, which is how the
library calls its own public functions.
"""
from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import curvgraph
from curvgraph import cli, fuzzy, graphana, petrov, ratlinalg, symcore

#: Public functions whose calls become spans, by module.
TRACED = {
    "symcore": ("ricci_matrix", "pair_matrix", "get_component", "cyclic_sum",
                "from_component_list", "project_bianchi"),
    "petrov": ("psi", "sigma", "lambda_mat", "assemble_six_matrix", "eigen", "classify",
               "classification_report"),
    "cli": ("parse_component_document", "ingest", "build_parser", "parse_expression",
            "canonicalize_expression", "format_expression"),
    "graphana": ("k6_structure", "export_structured", "parse_structured", "export_dot"),
    "fuzzy": ("fuzzy_riemann_graph", "fuzzy_union", "fuzzy_to_graph"),
}
#: Subcommands whose ``cli.run`` spans are reported; spans are split by argv[0].
RUN_COMMANDS = ("check", "matrix", "graph", "fuzzy", "canon")
OP = "op"

_MODULES = {"symcore": symcore, "petrov": petrov, "cli": cli, "graphana": graphana, "fuzzy": fuzzy}
_NAMESPACES = (curvgraph, symcore, petrov, cli, graphana, fuzzy, ratlinalg)


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"cli.run.{cmd}" for cmd in RUN_COMMANDS]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def traced(argv=None, *args, **kwargs):
            idx = self.begin(self.name_id(f"cli.run.{argv[0] if argv else ''}"))
            try:
                return fn(argv, *args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def install(self) -> None:
        wrapped = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(_MODULES[mod], fn)
                wrapped[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        wrapped[id(cli.run)] = (cli.run, self._wrap_run(cli.run))
        for ns in _NAMESPACES:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapped[id(value)][1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def summary(self, ops: int) -> dict[str, tuple[float, float, float]]:
        """name -> (inclusive p50 us, self p50 us, calls per op).

        Self time is a span's duration minus the durations of its direct
        children."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            if sel.any():
                out[label] = (float(np.median(dur[sel])) * 1e6,
                              float(np.median(own[sel])) * 1e6,
                              int(sel.sum()) / max(ops, 1))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
