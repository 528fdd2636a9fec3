"""In-memory spans and counters for the traced run.

A span is one call into an `ngd` function, recorded by a wrapper that the
benchmark installs from outside: name, start, end, the span that was open
when it started (its parent), and the operation it belongs to.  Every span
opened while a workload operation runs carries that operation's id, so the
spans of one operation can be grouped.  Nothing is written until the run
ends (`dump`).

`install` replaces functions and methods by wrappers in every loaded
`ngd` module that refers to them (a `from .x import f` copy included) and
returns a function that puts the originals back.  Install before building
models or `GammaIrq` objects: those capture bound methods, and a method
captured before installation is never traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent, op, attrs]
        self.stack = []   # indices of open spans
        self.op = -1      # index of the open operation's root span
        self.counts = {}  # (counter, op) -> n

    def open(self, name: str, attrs=None) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.op, attrs])
        self.stack.append(i)
        self.spans[i][START] = time.perf_counter_ns()
        return i

    def close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter_ns()
        self.stack.pop()  # wrappers close in finally, so i is on top

    def begin_op(self, name: str, **attrs) -> int:
        i = self.open(name, attrs)
        self.spans[i][OP] = i
        self.op = i
        return i

    def end_op(self, i: int) -> None:
        self.close(i)
        self.op = -1

    def count(self, key: str, n: int = 1) -> None:
        k = (key, self.op)
        self.counts[k] = self.counts.get(k, 0) + n

    # -- reading ---------------------------------------------------------

    def self_times_ns(self) -> list:
        """Per span: its duration minus the durations of its direct
        children (single-threaded, so children never overlap)."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_time_table(self, ops=None) -> dict:
        """name -> {calls, total_s, self_s}, over the spans of the given
        operations (all spans by default)."""
        table = {}
        for s, own in zip(self.spans, self.self_times_ns()):
            if ops is not None and s[OP] not in ops:
                continue
            row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (s[END] - s[START]) / 1e9
            row["self_s"] += own / 1e9
        return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))

    def dump(self, path, header: dict) -> None:
        """Write the header, the self-time table, the counters and every
        span (names interned) as one JSON document."""
        names, ids = [], {}
        rows = []
        for s, own in zip(self.spans, self.self_times_ns()):
            if s[NAME] not in ids:
                ids[s[NAME]] = len(names)
                names.append(s[NAME])
            rows.append([ids[s[NAME]], s[START], s[END], s[PARENT], s[OP],
                         own, s[ATTRS]])
        counts = {}
        for (key, op), n in self.counts.items():
            counts.setdefault(key, {})[str(op)] = n
        doc = dict(header)
        doc["self_time"] = self.self_time_table()
        doc["counts"] = counts
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op",
                              "self_ns", "attrs"]
        doc["span_names"] = names
        doc["spans"] = rows
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(tracer, name, fn, attrs, result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if attrs is not None or result is not None:
            data = dict(attrs(args, kwargs)) if attrs is not None else {}
            if result is not None:
                data.update(result(out, args, kwargs))
            tracer.spans[i][ATTRS] = data
        return out

    return wrapper


def _count_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, targets) -> callable:
    """Wrap each target; return a function restoring the originals.

    A target is (where, attr, name, kind, attrs, result): `where` is a
    module path ("ngd.transport") or "module:Class"; kind is "span" or
    "count"; attrs(args, kwargs) and result(out, args, kwargs) return
    dicts stored on the span (either may be None)."""
    undo = []
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "ngd" or k.startswith("ngd."))]
    for where, attr, name, kind, attrs, result in targets:
        mod_name, _, cls_name = where.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
        else:
            orig = getattr(owner, attr)
        if kind == "span":
            new = _span_wrapper(tracer, name, orig, attrs, result)
        else:
            new = _count_wrapper(tracer, name, orig)
        holders = [owner] if cls_name else [
            m for m in modules if any(v is orig for v in vars(m).values())]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, new)
                    undo.append((holder, key, orig))

    def restore():
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)

    return restore
