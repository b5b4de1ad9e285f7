"""Outside-in span tracer for the skybps layers.

The tracer never edits the package. After ``skybps.cli`` is imported it
replaces every public function of the layer modules, and the public methods
of the layer classes, with a wrapper that records one span per call. A
function is replaced in every module that bound it by ``from .x import y``,
not only where it is defined, so calls through any rebinding are seen.

A span is ``(id, name, start, end, parent, thread, bytes, key, done)``:
``bytes`` and ``key`` are computed after ``end``, and ``done`` is the time
they were ready, so their cost is charged to no span, only to the trace
overhead. Spans are kept in memory and written once, when the operation
ends. ``parent`` is the
innermost open span of the calling thread; a worker thread with no open span
of its own takes the innermost open span of the main thread, so the sweep's
per-point work nests under ``cli.run_sweep``.

``summarize`` turns one operation's spans into per-name calls, self time,
computed bytes and distinct-input counts, plus the top-level coverage.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("grid", "exterior", "lie_target", "gaugefield", "energy_degree", "solutions", "cli")
CLASSES = {
    "exterior": ("Metric3", "StarMap"),
    "lie_target": ("TargetGeometry",),
    "gaugefield": ("Configuration",),
}
# ``cli.main`` stays unwrapped: the top-level spans are then the cli stages,
# and interpreter start-up, imports and argument parsing show as uncovered.
UNTRACED = {"cli.main"}
# the family constructors that ``cli.build_family`` dispatches to
FAMILY_BUILDERS = (
    "identity_u1_solution", "dirac_monopole", "spinorial_solution",
    "twisted_spinorial_solution", "spherical_solution", "symplectic_solution",
)


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes") and hasattr(obj, "shape"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _bytes_moved(args, kwargs, result):
    """Computed, not measured: nbytes of the array arguments plus the result."""
    return _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result)


def _matrix_key(fn, args, kwargs):
    m = args[0] if args else kwargs["m"]
    h = hashlib.sha256()
    h.update(repr((m.shape, str(m.dtype))).encode())
    h.update(memoryview(m if m.flags.c_contiguous else m.copy(order="C")).cast("B"))
    return h.hexdigest()


def _volume_key(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    t = b.arguments["self"]
    margins = b.arguments["margins"]
    margins = tuple(t.volume_margins if margins is None else margins)
    # the target is identified by its name and chart, since every sweep point
    # builds a new but equal target object
    return repr((t.name, t.lo, t.hi, t.periodic, b.arguments["n"], margins))


# span name -> (computed-bytes function, distinct-input key function)
PROBES = {
    "exterior.mat_inv": (_bytes_moved, _matrix_key),
    "exterior.mat_det": (_bytes_moved, None),
    "gaugefield.cofactor": (_bytes_moved, None),
    "lie_target.TargetGeometry.volume": (None, _volume_key),
}


class Tracer:
    """Records spans of wrapped calls for one operation."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` recorded around each call."""
        bytes_fn, key_fn = PROBES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(self._ids)
            stack.append(sid)
            nbytes = key = None
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if bytes_fn is not None and done:
                    nbytes = bytes_fn(args, kwargs, result)
                if key_fn is not None:
                    key = key_fn(fn, args, kwargs)
                self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                                   nbytes, key, time.perf_counter()))
            return result

        return traced

    def install(self):
        """Wrap the layer functions and methods in place."""
        wrappers = {}  # id(original function) -> its wrapper
        methods = []  # (class, attribute, span name, original)
        for layer in LAYERS:
            mod = importlib.import_module(f"skybps.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    builder = layer == "solutions" and attr in FAMILY_BUILDERS
                    name = "solutions.build" if builder else f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrappers[id(obj)] = self.wrap(obj, name)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        methods.append((cls, attr, f"{layer}.{cls_name}.{attr}", obj))
        # rebind in every skybps module, so `from .x import y` copies are wrapped too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "skybps" or mod_name.startswith("skybps."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])
        for cls, attr, name, obj in methods:
            setattr(cls, attr, self.wrap(obj, name))

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"op": self.op, "spans": self.spans}, f)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per-name statistics of one operation's spans.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (their union, so overlapping threads count once). A
    child covers its interval up to ``done``, so the tracer's own work on it
    is not charged to the parent.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    by_name: dict[str, dict] = {}
    top = []
    for sid, name, start, end, parent, _tid, nbytes, key, _done in spans:
        kids = [(max(c[2], start), min(c[8], end)) for c in children.get(sid, ())]
        kids = [iv for iv in kids if iv[1] > iv[0]]
        st = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "bytes": 0, "keys": set()})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += (end - start) - _union_length(kids)
        st["bytes"] += nbytes or 0
        if key is not None:
            st["keys"].add(key)
        if parent is None:
            top.append((start, end))
    for st in by_name.values():
        st["distinct"] = len(st.pop("keys"))
    return {"names": by_name, "top_level_s": _union_length(top),
            "sweep": _sweep_stats(spans)}


def _sweep_stats(spans) -> dict:
    """Concurrency and queue wait of the per-point ``run_verify`` calls.

    Concurrency is the summed ``run_verify`` span time over the enclosing
    command's wall time (``run_sweep``, or the single ``run_verify``). Queue
    wait sums, over the points, how long each waited after the first point
    started; all points are submitted together, so this is time in the queue.
    """
    verify = [s for s in spans if s[1] == "cli.run_verify"]
    sweep = [s for s in spans if s[1] == "cli.run_sweep"]
    if not verify:
        return {"concurrency": 0.0, "queue_wait_s": 0.0}
    wall = (sweep[0][3] - sweep[0][2]) if sweep else sum(s[3] - s[2] for s in verify)
    first = min(s[2] for s in verify)
    return {
        "concurrency": sum(s[3] - s[2] for s in verify) / wall,
        "queue_wait_s": sum(s[2] - first for s in verify),
    }
