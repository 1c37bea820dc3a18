"""
Per-layer tracing of a `dominocells` run, installed from outside the package.

`dominocells` modules import their neighbours' functions by name, so a
wrapper replaces the function under every name that any loaded
`dominocells` module binds it to; `KLTable` methods are replaced on the
class.  Every wrapped call adds to its layer's counters: calls, and self time
(the call's time minus the time of wrapped calls made inside it).
Calls of the layers marked SPAN also record one span each
(id, name, start, end, parent); the hot layers are counted only, since
`classes-n5` alone makes about 18.7M `insert` calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

SPAN, COUNT = "span", "count"

# layer metric prefix -> the (module, attribute, mode) it wraps
TARGETS = {
    "verify.suite": [("dominocells.cli", name, SPAN) for name in (
        "verify_insertion", "verify_class_decomposition", "verify_conjecture")],
    "wgroup.group_elements": [("dominocells.wgroup", "group_elements", COUNT)],
    "wgroup.compose": [("dominocells.wgroup", "compose", COUNT)],
    "tableaux.enumerate_sdt": [("dominocells.tableaux", "enumerate_sdt", SPAN)],
    "insertion.insert": [("dominocells.insertion", "insert", COUNT)],
    "insertion.uninsert": [("dominocells.insertion", "uninsert", COUNT)],
    "insertion.asymptotic_bitableaux": [
        ("dominocells.insertion", "asymptotic_bitableaux", COUNT)],
    "cycles.raise_rank": [("dominocells.cycles", "raise_rank", COUNT)],
    "cycles.extended_cycles": [("dominocells.cycles", "extended_cycles", COUNT)],
    "cycles.cycle_partition": [("dominocells.cycles", "cycle_partition", COUNT)],
    "cycles.move_through": [("dominocells.cycles", "move_through", COUNT)],
    "cycles.core_raise": [("dominocells.cycles", "core_raise", COUNT)],
    "cells.class_of_tableau": [("dominocells.cells", "class_of_tableau", COUNT)],
    "cells.cell_fingerprint": [("dominocells.cells", "cell_fingerprint", COUNT)],
    "cells.combinatorial_cells": [("dominocells.cells", "combinatorial_cells", SPAN)],
    "hecke.basis": [("dominocells.hecke", "KLTable.all_kl_basis", SPAN)],
    "hecke.edges": [("dominocells.hecke", "KLTable.left_edges", SPAN)],
    "hecke.c_expand": [("dominocells.hecke", "KLTable.c_expand", COUNT)],
    "hecke.scc": [("dominocells.hecke", "KLTable.cells", SPAN)],
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.stats = {name: [0, 0.0] for name in TARGETS}  # calls, self_s
        self.items = {}  # generator layer -> items yielded
        self.spans = []
        self.originals = {}
        self._frames = [[0.0]]  # time covered by wrapped calls, per open call
        self._open_spans = [None]

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for module_name, attr, mode in targets:
                self._patch(name, importlib.import_module(module_name), attr, mode)

    def _patch(self, name, module, attr, mode) -> None:
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        self.originals[attr] = original
        wrapper = self._wrap(name, original, mode)
        if owner_name:
            setattr(owner, fn_name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dominocells" or mod_name.startswith("dominocells."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, mode):
        stat = self.stats[name]
        frames = self._frames
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            # Drain the generator inside the call so that its work is timed
            # in its own layer, not in whichever loop consumes it.
            def call(*args, **kwargs):
                out = list(fn(*args, **kwargs))
                self.items[name] = self.items.get(name, 0) + len(out)
                return iter(out)
        else:
            call = fn

        def counted(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return call(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                stat[0] += 1
                stat[1] += dt - frame[0]

        if mode == COUNT:
            return counted

        def spanned(*args, **kwargs):
            with self.span(name):
                return counted(*args, **kwargs)

        return spanned

    @contextmanager
    def span(self, name):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._open_spans[-1]
        self._open_spans.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_spans.pop()
            self.spans[span_id] = {
                "id": span_id, "name": name, "parent": parent,
                "start": start - self.origin, "end": end - self.origin,
            }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit)."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["tableaux.enumerate_sdt.tableaux"] = (
            self.items.get("tableaux.enumerate_sdt", 0), "count")
        out["insertion.insert.misses"] = (
            self.originals["insert"].cache_info().misses, "count")
        out["cells.cell_fingerprint.misses"] = (
            self.originals["cell_fingerprint"].cache_info().misses, "count")
        return out
